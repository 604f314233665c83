// Bit-accurate functional simulations of the fixed-point hardware units the
// paper synthesizes: MAC, squash, softmax.
//
// Unlike the fake quantizer in src/fixed (float storage on a fixed-point
// grid), these operate on raw two's-complement integers end to end, modelling
// exactly what an accelerator datapath computes: widening multiplies, aligned
// additions, saturation, and rounding at each width reduction. They exist to
// validate that grid-simulated inference matches genuine integer hardware
// behaviour (tests compare both against the float reference).
#pragma once

#include <cstdint>
#include <vector>

#include "fixed/format.hpp"
#include "fixed/rounding.hpp"

namespace qcaps::hwmodel {

/// A fixed-point number: raw two's-complement value plus its format.
struct FixedNum {
  std::int64_t raw = 0;
  fixed::FixedFormat fmt;

  double to_double() const { return fixed::from_raw(raw, fmt); }

  static FixedNum from_double(double x, const fixed::FixedFormat& fmt,
                              fixed::RoundingScheme scheme =
                                  fixed::RoundingScheme::kRoundToNearest,
                              float noise = 0.0f) {
    return {fixed::to_raw(x, fmt, scheme, noise), fmt};
  }
};

/// Saturate a raw value into fmt's two's-complement range.
std::int64_t saturate_raw(std::int64_t raw, const fixed::FixedFormat& fmt);

/// Reduce a raw value with `from_qf` fractional bits to `fmt` (shift right by
/// from_qf - fmt.qf with the chosen rounding, then saturate).
std::int64_t rescale_raw(std::int64_t raw, int from_qf,
                         const fixed::FixedFormat& fmt,
                         fixed::RoundingScheme scheme =
                             fixed::RoundingScheme::kRoundToNearest,
                         float noise = 0.0f);

/// a * b with full-precision intermediate, rounded into out_fmt.
FixedNum fixed_mul(const FixedNum& a, const FixedNum& b,
                   const fixed::FixedFormat& out_fmt,
                   fixed::RoundingScheme scheme =
                       fixed::RoundingScheme::kRoundToNearest);

/// a + b after fractional alignment, saturated into out_fmt.
FixedNum fixed_add(const FixedNum& a, const FixedNum& b,
                   const fixed::FixedFormat& out_fmt);

/// Multiply-accumulate unit: products accumulate at full precision in a wide
/// register (guard bits), a single rounding happens on read-out — the
/// standard accelerator MAC organization.
class MacUnit {
 public:
  MacUnit(fixed::FixedFormat operand_fmt, fixed::FixedFormat result_fmt);

  void clear();
  /// acc += a * b; operands must be in the operand format.
  void mac(const FixedNum& a, const FixedNum& b);
  /// Round the wide accumulator into the result format.
  FixedNum result(fixed::RoundingScheme scheme =
                      fixed::RoundingScheme::kRoundToNearest) const;

 private:
  fixed::FixedFormat operand_fmt_;
  fixed::FixedFormat result_fmt_;
  std::int64_t acc_ = 0;  // fractional width = 2 * operand_fmt_.qf
};

/// Squash datapath: v = (||s||^2 / (1 + ||s||^2)) * s / ||s||.
/// All internal arithmetic is integer; the inverse square root uses
/// Newton-Raphson iterations in an internal working format.
class SquashUnit {
 public:
  explicit SquashUnit(fixed::FixedFormat io_fmt, int internal_frac_bits = 24);

  /// Apply squash to a capsule vector (elements in io format).
  std::vector<FixedNum> apply(const std::vector<FixedNum>& s) const;

  /// Variant with a distinct output format: the datapath computes at full
  /// internal precision, so a coarse input format (the QDR of paper Fig. 9)
  /// does not limit the output resolution.
  std::vector<FixedNum> apply(const std::vector<FixedNum>& s,
                              const fixed::FixedFormat& out_fmt) const;

  /// Raw bulk-tensor seam: the squash gain (internal_qf() fractional bits)
  /// for a capsule whose squared norm — accumulated by the caller at
  /// internal_qf() fractional bits — is norm_sq. The caller finishes each
  /// element as rescale_raw(s_raw * gain, io_qf + internal_qf(), out_fmt),
  /// which is exactly apply()'s arithmetic without the FixedNum marshaling.
  /// Returns 0 for norm_sq == 0 (zero vector squashes to zero).
  std::int64_t gain_raw(std::int64_t norm_sq) const;

  /// Batched gain_raw over n squared norms (gain[i] = gain_raw(norm_sq[i])
  /// bit-for-bit): delegates to the runtime-dispatched vector kernel
  /// (tensor::squash_gain_raw_n), which runs the whole datapath over 8 lanes
  /// of norms at the AVX-512 level and the Newton-Raphson rounds over 4 at
  /// AVX2. This scalar unit remains the oracle the kernel's tiers are locked
  /// against.
  void gain_raw_n(const std::int64_t* norm_sq, std::int64_t* gain,
                  std::int64_t n) const;

  int internal_qf() const { return internal_qf_; }

 private:
  fixed::FixedFormat io_fmt_;
  int internal_qf_;
};

/// Softmax datapath: max-subtract, exp via piecewise LUT, integer divide.
class SoftmaxUnit {
 public:
  explicit SoftmaxUnit(fixed::FixedFormat io_fmt, int lut_addr_bits = 8);

  std::vector<FixedNum> apply(const std::vector<FixedNum>& logits) const;

  /// Variant with a distinct output format (see SquashUnit::apply).
  std::vector<FixedNum> apply(const std::vector<FixedNum>& logits,
                              const fixed::FixedFormat& out_fmt) const;

  /// Raw transposed-batch seam: `logits` holds `rows` logical rows of
  /// length d stored TRANSPOSED ([d, rows]: row r's element j at
  /// logits[j*rows + r]), all in io format; couplings land in `out` (same
  /// layout, may not alias) saturated to out_fmt. Bit-for-bit apply() per
  /// logical row — max-subtract, LUT address, j-index-order sum, rounded
  /// divide — without the per-row FixedNum marshaling, so a batch caller
  /// (routing logits held j-major) pays zero allocations per row.
  void apply_rows_t_raw(const std::int64_t* logits, std::int64_t* out,
                        std::int64_t rows, std::int64_t d,
                        const fixed::FixedFormat& out_fmt) const;

 private:
  fixed::FixedFormat io_fmt_;
  int lut_addr_bits_;
  std::vector<std::int64_t> lut_;  // exp values in internal format
  int internal_qf_;
  double lut_range_;  // covers exp on [-lut_range_, 0]
};

}  // namespace qcaps::hwmodel
