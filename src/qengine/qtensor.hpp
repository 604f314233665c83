// Integer tensor for the fixed-point inference engine.
//
// Unlike the fake quantizer (float values on a grid), a QTensor stores raw
// two's-complement integers plus their ⟨QI.QF⟩ format — what an accelerator
// actually moves through its datapath. src/qengine runs entire CapsNet
// forward passes on QTensors, validating at network scale that the grid
// simulation used by the search framework matches true integer execution.
#pragma once

#include <cstdint>
#include <vector>

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

}  // namespace qcaps::qengine
