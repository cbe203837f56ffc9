// Post-training int8 quantization model (extension beyond the paper).
//
// The paper's fp32 deployment is what the latency numbers in §III
// describe, but real MCU deployments of CIFAR-scale networks are int8
// (TFLite-Micro / X-CUBE-AI style): the Cortex-M7's SMLAD dual-MAC
// path roughly quadruples MAC throughput and activations shrink 4×,
// which is what lets full cells fit the F746's 320 KB SRAM. This
// module derives the quantized deployment model and its accuracy
// penalty so quantization can participate in search constraints.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "src/hw/memory_model.hpp"
#include "src/net/macro_net.hpp"

namespace micronas {

struct QuantSpec {
  int bits = 8;
  /// Accuracy drop (percentage points) of post-training int8
  /// quantization on well-conditioned CNNs — sub-point in practice.
  double accuracy_penalty_pts = 0.4;
  /// Per-channel scale/zero-point pairs stored alongside the weights.
  int overhead_bytes_per_channel = 8;
};

/// Copy of `model` with every layer retagged to the quantized
/// precision. Shapes and schedules are unchanged.
MacroModel quantize_model(const MacroModel& model, const QuantSpec& spec = {});

/// True if every layer of the model carries the same precision `bits`.
bool model_is_uniform_precision(const MacroModel& model, int bits);

/// Memory accounting for a (possibly quantized) model: byte widths are
/// taken from the layer specs, plus quantizer metadata in flash.
MemoryReport analyze_quantized_memory(const MacroModel& model, const QuantSpec& spec = {});

/// Surrogate accuracy after quantization.
double quantized_accuracy(double fp32_accuracy, const QuantSpec& spec = {});

// ------------------------------------------------------- affine arithmetic
//
// The numeric substrate of the int8 deployment path (src/compile/,
// src/rt/): TFLite-style affine quantization. real = scale * (q - zp),
// with asymmetric per-tensor activations and symmetric per-channel
// weights. Requantization of int32 accumulators goes through a
// fixed-point multiplier (gemmlowp idiom: saturating rounding doubling
// high mul + rounding right shift) so inference is integer-exact and
// bit-identical across runs, threads and hosts.

inline constexpr int kInt8Min = -128;
inline constexpr int kInt8Max = 127;

/// real = scale * (q - zero_point), q in [-128, 127].
struct AffineParams {
  double scale = 1.0;
  int zero_point = 0;
};

/// Asymmetric parameters covering [min, max] (range is widened to
/// include 0 so that real zero is exactly representable; degenerate
/// ranges get scale 1). The zero point is nudged onto the int8 grid.
AffineParams choose_affine_params(double min, double max);

/// Symmetric weight scale for |w| <= abs_max mapped onto [-127, 127]
/// (zero point fixed at 0; degenerate abs_max gets scale 1).
double choose_symmetric_scale(double abs_max);

/// Decompose a positive real multiplier into a Q31 fixed-point
/// `mantissa` and a power-of-two `shift` such that
/// m ~= mantissa * 2^(shift - 31). Exact for powers of two.
void quantize_multiplier(double m, std::int32_t* mantissa, int* shift);

/// The requant domain: multiply_by_quantized_multiplier is defined for
/// shift in [-kMaxRequantShift, kMaxRequantShift]. ir::Graph::validate
/// holds every requantizing node's shifts to it, so a graph that
/// validates (and so every loaded package) never leaves it.
inline constexpr int kMaxRequantShift = 31;

inline constexpr bool requant_shift_in_range(int shift) {
  return shift >= -kMaxRequantShift && shift <= kMaxRequantShift;
}

// The requant core below is inline and selects only: every int8 kernel
// runs it once per OUTPUT element, and with no call and no branch that
// can throw, the compiler vectorizes the kernels' requant passes.

/// (a * b) rounded to the high 32 bits of the doubled 64-bit product.
/// Saturates the single overflow case a == b == INT32_MIN.
inline std::int32_t saturating_rounding_doubling_high_mul(std::int32_t a, std::int32_t b) {
  const bool overflow = a == b && a == std::numeric_limits<std::int32_t>::min();
  const std::int64_t ab = static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b);
  // gemmlowp's (ab + nudge) / 2^31, nudge = ab >= 0 ? 2^30 : 1 - 2^30,
  // truncating: for ab < 0 the truncation adds 2^31 - 1 before flooring,
  // so both signs reduce to floor((ab + 2^30) / 2^31). Its low 32 bits
  // are bits 31..62 of ab + 2^30, which a logical shift yields as well.
  const auto high = static_cast<std::int32_t>(
      static_cast<std::uint64_t>(ab + (std::int64_t{1} << 30)) >> 31);
  return overflow ? std::numeric_limits<std::int32_t>::max() : high;
}

/// x / 2^exponent with round-to-nearest, ties away from zero, for
/// exponent in [0, 31] (unchecked: the caller guarantees the range).
inline std::int32_t rounding_right_shift(std::int32_t x, int exponent) {
  const auto mask = static_cast<std::int32_t>((std::uint32_t{1} << exponent) - 1U);
  const std::int32_t remainder = x & mask;
  const std::int32_t threshold = (mask >> 1) + (x < 0 ? 1 : 0);
  return (x >> exponent) + (remainder > threshold ? 1 : 0);
}

/// rounding_right_shift with its exponent range checked.
inline std::int32_t rounding_divide_by_pot(std::int32_t x, int exponent) {
  if (exponent < 0 || exponent > 31) [[unlikely]] {
    throw std::invalid_argument("rounding_divide_by_pot: exponent out of [0, 31]");
  }
  return rounding_right_shift(x, exponent);
}

/// Apply a quantized multiplier produced by quantize_multiplier.
/// Precondition: requant_shift_in_range(shift) (unchecked).
inline std::int32_t multiply_by_quantized_multiplier(std::int32_t x, std::int32_t mantissa,
                                                     int shift) {
  // x * mantissa * 2^(shift - 31): the high mul supplies 2^-31; the
  // remaining power of two is applied as a shift on either side.
  const int left_shift = shift > 0 ? shift : 0;
  const int right_shift = shift > 0 ? 0 : -shift;
  const std::int32_t shifted =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(x) << left_shift);
  return rounding_right_shift(saturating_rounding_doubling_high_mul(shifted, mantissa),
                              right_shift);
}

/// Round-to-nearest quantization with saturation to [-128, 127].
std::int8_t quantize_one(float v, const AffineParams& p);
float dequantize_one(std::int8_t q, const AffineParams& p);

}  // namespace micronas
