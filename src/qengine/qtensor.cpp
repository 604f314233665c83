#include "qengine/qtensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace qcaps::qengine {

QTensor::QTensor(tensor::Shape s, fixed::FixedFormat f) : fmt(f), shape(std::move(s)) {
  raw.assign(static_cast<std::size_t>(tensor::shape_numel(shape)), 0);
}

std::int64_t QTensor::dim(std::int64_t i) const {
  if (i < 0) i += static_cast<std::int64_t>(shape.size());
  QCAPS_CHECK(i >= 0 && i < static_cast<std::int64_t>(shape.size()));
  return shape[static_cast<std::size_t>(i)];
}

QTensor QTensor::from_float(const tensor::Tensor& t, fixed::FixedFormat fmt,
                            fixed::RoundingScheme scheme) {
  QTensor q(t.shape(), fmt);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    q.raw[static_cast<std::size_t>(i)] = fixed::to_raw(t[i], fmt, scheme);
  return q;
}

tensor::Tensor QTensor::to_float() const {
  tensor::Tensor t(shape);
  for (std::int64_t i = 0; i < numel(); ++i)
    t[i] = static_cast<float>(fixed::from_raw(raw[static_cast<std::size_t>(i)], fmt));
  return t;
}

std::int64_t QTensor::max_abs_raw() const {
  std::int64_t m = 0;
  for (const auto v : raw) m = std::max(m, v < 0 ? -v : v);
  return m;
}

bool QTensor::fits_i8() const {
  for (const auto v : raw)
    if (v < -128 || v > 127) return false;
  return true;
}

bool QTensor::fits_i16() const {
  for (const auto v : raw)
    if (v < -32768 || v > 32767) return false;
  return true;
}

std::vector<std::int8_t> QTensor::packed_i8() const {
  std::vector<std::int8_t> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    QCAPS_CHECK_MSG(raw[i] >= -128 && raw[i] <= 127,
                    "QTensor value does not fit the packed int8 container");
    out[i] = static_cast<std::int8_t>(raw[i]);
  }
  return out;
}

std::vector<std::int16_t> QTensor::packed_i16() const {
  std::vector<std::int16_t> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    QCAPS_CHECK_MSG(raw[i] >= -32768 && raw[i] <= 32767,
                    "QTensor value does not fit the packed int16 container");
    out[i] = static_cast<std::int16_t>(raw[i]);
  }
  return out;
}

QTensor QTensor::from_packed_i8(const std::int8_t* data, tensor::Shape s,
                                fixed::FixedFormat f) {
  QTensor q(std::move(s), f);
  for (std::size_t i = 0; i < q.raw.size(); ++i) q.raw[i] = data[i];
  return q;
}

Storage storage_for(fixed::FixedFormat fmt) {
  const int wl = fmt.wordlength();
  return wl <= 8 ? Storage::kInt8 : wl <= 16 ? Storage::kInt16 : Storage::kInt64;
}

std::int64_t storage_bytes(Storage s) {
  return s == Storage::kInt8 ? 1 : s == Storage::kInt16 ? 2 : 8;
}

const char* storage_name(Storage s) {
  return s == Storage::kInt8 ? "int8" : s == Storage::kInt16 ? "int16" : "int64";
}

QActivation::QActivation(tensor::Shape shape, fixed::FixedFormat fmt)
    : fmt_(fmt),
      shape_(std::move(shape)),
      numel_(tensor::shape_numel(shape_)),
      storage_(storage_for(fmt)),
      buf_(std::make_unique_for_overwrite<std::byte[]>(
          static_cast<std::size_t>(bytes()))) {
  QCAPS_CHECK_MSG(fmt.valid(), "invalid activation format " << fmt.to_string());
}

QActivation::QActivation(const QTensor& t) : QActivation(t.shape, t.fmt) {
  QCAPS_CHECK(t.numel() == numel_);
  const std::int64_t lo = fmt_.raw_min(), hi = fmt_.raw_max();
  visit([&](auto* dst) {
    for (std::int64_t i = 0; i < numel_; ++i) {
      const std::int64_t v = t.raw[static_cast<std::size_t>(i)];
      QCAPS_CHECK_MSG(v >= lo && v <= hi,
                      "raw value " << v << " is off the rails of "
                                   << fmt_.to_string());
      dst[i] = static_cast<elem_t<decltype(dst)>>(v);
    }
  });
}

QActivation::QActivation(const QActivation& o)
    : fmt_(o.fmt_), shape_(o.shape_), numel_(o.numel_), storage_(o.storage_) {
  if (o.buf_) {
    buf_ = std::make_unique_for_overwrite<std::byte[]>(
        static_cast<std::size_t>(bytes()));
    std::memcpy(buf_.get(), o.buf_.get(), static_cast<std::size_t>(bytes()));
  }
}

QActivation& QActivation::operator=(const QActivation& o) {
  if (this != &o) *this = QActivation(o);
  return *this;
}

std::int64_t QActivation::dim(std::int64_t i) const {
  if (i < 0) i += static_cast<std::int64_t>(shape_.size());
  QCAPS_CHECK(i >= 0 && i < static_cast<std::int64_t>(shape_.size()));
  return shape_[static_cast<std::size_t>(i)];
}

QActivation QActivation::from_float(const tensor::Tensor& t,
                                    fixed::FixedFormat fmt) {
  QActivation q(t.shape(), fmt);
  // Scaling by 2^qf is exact in double, so x * scale is std::ldexp(x, qf).
  const double scale = std::ldexp(1.0, fmt.qf);
  const double lo = static_cast<double>(fmt.raw_min());
  const double hi = static_cast<double>(fmt.raw_max());
  const float* src = t.data();
  q.visit([&](auto* dst) {
    using T = elem_t<decltype(dst)>;
    // clamp(floor(v), lo, hi) == floor(clamp(v, lo, hi)) for integral rails,
    // and on that range floor is the truncation, one less for negative
    // non-integers: a branch-free loop the compiler vectorizes.
    for (std::int64_t i = 0; i < q.numel_; ++i) {
      const double v =
          std::clamp(static_cast<double>(src[i]) * scale + 0.5, lo, hi);
      const auto r = static_cast<std::int64_t>(v);
      dst[i] = static_cast<T>(r - (static_cast<double>(r) > v));
    }
  });
  return q;
}

QTensor QActivation::widen() const {
  QTensor t(shape_, fmt_);
  visit([&](const auto* src) { std::copy_n(src, numel_, t.raw.begin()); });
  return t;
}

}  // namespace qcaps::qengine
