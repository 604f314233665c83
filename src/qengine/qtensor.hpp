// Integer tensor for the fixed-point inference engine.
//
// Unlike the fake quantizer (float values on a grid), a QTensor stores raw
// two's-complement integers plus their ⟨QI.QF⟩ format — what an accelerator
// actually moves through its datapath. src/qengine runs entire CapsNet
// forward passes on QTensors, validating at network scale that the grid
// simulation used by the search framework matches true integer execution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "fixed/rounding.hpp"
#include "tensor/tensor.hpp"

namespace qcaps::qengine {

struct QTensor {
  std::vector<std::int64_t> raw;
  fixed::FixedFormat fmt{1, 15};
  tensor::Shape shape;

  QTensor() = default;
  QTensor(tensor::Shape s, fixed::FixedFormat f);

  std::int64_t numel() const { return static_cast<std::int64_t>(raw.size()); }
  std::int64_t dim(std::int64_t i) const;

  /// Quantize a float tensor into raw integers.
  static QTensor from_float(const tensor::Tensor& t, fixed::FixedFormat fmt,
                            fixed::RoundingScheme scheme =
                                fixed::RoundingScheme::kRoundToNearest);

  /// Back-convert to float (exact: every raw value is representable).
  tensor::Tensor to_float() const;

  // ---- packed integer storage for the qgemm backend ----
  //
  // The fixed-point grid is symmetric two's complement: scale() = 2^-QF and
  // zero_point() = 0 are the quantization metadata a packed container
  // carries. These helpers test a tensor's actual raw values; constant
  // weights are packed by them, while the executor packs activations by
  // format (qengine::packed_tier), since every producer clamps onto its
  // format's rails.

  /// Largest |raw| value (0 when empty).
  std::int64_t max_abs_raw() const;
  /// True when every raw value fits the packed container.
  bool fits_i8() const;
  bool fits_i16() const;
  /// Narrow the raw values into a packed container (requires fits_i8/i16).
  std::vector<std::int8_t> packed_i8() const;
  std::vector<std::int16_t> packed_i16() const;
  /// Rebuild a QTensor from a packed int8 container and its metadata.
  static QTensor from_packed_i8(const std::int8_t* data, tensor::Shape s,
                                fixed::FixedFormat f);

  /// Quantization step of the grid, 2^-QF.
  double scale() const { return fmt.precision(); }
  /// The grid is symmetric: raw 0 is real 0.
  static constexpr std::int32_t zero_point() { return 0; }
};

/// Container of a graph value, picked from its format's wordlength alone:
/// every producer clamps onto its format's rails, so a value in a format of
/// wordlength wl lies in [-2^(wl-1), 2^(wl-1) - 1]. wl <= 8 fits int8 and
/// wl <= 16 int16; anything wider is held in int64.
enum class Storage : std::uint8_t { kInt8, kInt16, kInt64 };

Storage storage_for(fixed::FixedFormat fmt);
/// Bytes per value of each container.
std::int64_t storage_bytes(Storage s);
/// "int8", "int16" or "int64".
const char* storage_name(Storage s);

/// A value passed between graph nodes: raw integers in the container its
/// format picks (storage_for), so an 8-bit activation moves one byte per
/// element. Weights, biases and forward()'s result stay QTensors. A new
/// activation's values are uninitialized: every op writes all of its output.
class QActivation {
 public:
  QActivation() = default;
  QActivation(tensor::Shape shape, fixed::FixedFormat fmt);
  /// Narrow an int64 tensor into its format's container. Every value must
  /// lie on the format's grid range.
  explicit QActivation(const QTensor& t);
  QActivation(const QActivation& o);
  QActivation& operator=(const QActivation& o);
  QActivation(QActivation&&) noexcept = default;
  QActivation& operator=(QActivation&&) noexcept = default;

  /// Quantize a float tensor round-to-nearest straight into its container:
  /// clamp(floor(x * 2^qf + 1/2)) per element, QTensor::from_float's
  /// arithmetic in one pass.
  static QActivation from_float(const tensor::Tensor& t,
                                fixed::FixedFormat fmt);

  /// The values widened to int64.
  QTensor widen() const;

  const fixed::FixedFormat& fmt() const { return fmt_; }
  const tensor::Shape& shape() const { return shape_; }
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const { return numel_; }
  Storage storage() const { return storage_; }
  /// Container bytes of the values.
  std::int64_t bytes() const { return numel_ * storage_bytes(storage_); }

  /// The container as T, which must be its element type.
  template <typename T>
  T* data() {
    check_type<T>();
    return reinterpret_cast<T*>(buf_.get());
  }
  template <typename T>
  const T* data() const {
    check_type<T>();
    return reinterpret_cast<const T*>(buf_.get());
  }

  /// f(p) with p the container's typed pointer (int8_t*, int16_t* or
  /// int64_t*): one generic body serves every container.
  template <typename F>
  decltype(auto) visit(F&& f) {
    switch (storage_) {
      case Storage::kInt8: return f(data<std::int8_t>());
      case Storage::kInt16: return f(data<std::int16_t>());
      default: return f(data<std::int64_t>());
    }
  }
  template <typename F>
  decltype(auto) visit(F&& f) const {
    switch (storage_) {
      case Storage::kInt8: return f(data<std::int8_t>());
      case Storage::kInt16: return f(data<std::int16_t>());
      default: return f(data<std::int64_t>());
    }
  }

 private:
  template <typename T>
  void check_type() const {
    static_assert(std::is_same_v<T, std::int8_t> ||
                  std::is_same_v<T, std::int16_t> ||
                  std::is_same_v<T, std::int64_t>);
    QCAPS_CHECK_MSG(static_cast<std::int64_t>(sizeof(T)) ==
                        storage_bytes(storage_),
                    "activation container is " << storage_name(storage_));
  }

  fixed::FixedFormat fmt_{1, 15};
  tensor::Shape shape_;
  std::int64_t numel_ = 0;
  Storage storage_ = Storage::kInt16;  // storage_for(fmt_)
  std::unique_ptr<std::byte[]> buf_;
};

/// The element type behind a pointer QActivation::visit hands out.
template <typename P>
using elem_t = std::remove_const_t<std::remove_pointer_t<P>>;

/// f(d, s) with the typed pointers of two values held in one container type
/// (values of one format always are).
template <typename F>
void visit_pair(QActivation& dst, const QActivation& src, F&& f) {
  QCAPS_CHECK(dst.storage() == src.storage());
  dst.visit([&](auto* d) { f(d, src.data<elem_t<decltype(d)>>()); });
}

}  // namespace qcaps::qengine
