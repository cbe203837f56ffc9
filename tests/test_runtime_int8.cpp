// int8 runtime numerics: fixed-point requantization edge cases
// (saturation, rounding ties, the gemmlowp INT32_MIN corner),
// zero-point handling for asymmetric activations, agreement with the
// float reference, and bit-identical execution across thread counts
// and repeated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/compile/compiler.hpp"
#include "src/data/synthetic.hpp"
#include "src/hw/quant.hpp"
#include "src/rt/kernels_int8.hpp"
#include "src/rt/runtime.hpp"

namespace micronas {
namespace {

// ----------------------------------------------------- affine helpers

TEST(AffineQuant, ChoosesParamsCoveringRangeWithExactZero) {
  const AffineParams p = choose_affine_params(-1.0, 3.0);
  EXPECT_NEAR(p.scale, 4.0 / 255.0, 1e-12);
  // Real zero must map exactly onto an integer grid point.
  const double zero_q = -(-1.0) / p.scale + kInt8Min;
  EXPECT_NEAR(static_cast<double>(p.zero_point), zero_q, 0.5 + 1e-9);
  EXPECT_EQ(quantize_one(0.0F, p), static_cast<std::int8_t>(p.zero_point));

  // Ranges not containing zero are widened to include it.
  const AffineParams pos = choose_affine_params(2.0, 6.0);
  EXPECT_NEAR(pos.scale, 6.0 / 255.0, 1e-12);
  EXPECT_EQ(pos.zero_point, kInt8Min);

  // Degenerate range: identity params.
  const AffineParams deg = choose_affine_params(0.0, 0.0);
  EXPECT_EQ(deg.scale, 1.0);
  EXPECT_EQ(deg.zero_point, 0);
}

TEST(AffineQuant, QuantizeSaturatesAndRoundsToNearest) {
  const AffineParams p{0.5, 10};
  EXPECT_EQ(quantize_one(1000.0F, p), static_cast<std::int8_t>(127));   // saturate high
  EXPECT_EQ(quantize_one(-1000.0F, p), static_cast<std::int8_t>(-128)); // saturate low
  EXPECT_EQ(quantize_one(0.24F, p), static_cast<std::int8_t>(10));      // rounds down
  EXPECT_EQ(quantize_one(0.26F, p), static_cast<std::int8_t>(11));      // rounds up
  EXPECT_EQ(dequantize_one(static_cast<std::int8_t>(12), p), 1.0F);
}

TEST(AffineQuant, QuantizeMultiplierRoundTripsPowersOfTwoExactly) {
  std::int32_t mantissa = 0;
  int shift = 0;
  for (const double m : {1.0, 0.5, 0.25, 2.0, 8.0}) {
    quantize_multiplier(m, &mantissa, &shift);
    EXPECT_EQ(mantissa, std::int32_t{1} << 30);  // 0.5 in Q31
    for (const std::int32_t x : {8, -8, 1000, -1000, 123456}) {
      // x·m integral for these x -> both rounding stages are exact.
      EXPECT_EQ(multiply_by_quantized_multiplier(x, mantissa, shift),
                static_cast<std::int32_t>(std::llround(x * m)))
          << "x=" << x << " m=" << m;
    }
  }
  // Known artifacts of the two-stage fixed-point idiom, exactly as in
  // gemmlowp/TFLite: positive double-rounding (1·0.25 -> 0.5 -> 1) and
  // the negative single-LSB tie collapsing to 0 (the SRDHM nudge is
  // asymmetric at the smallest magnitudes).
  quantize_multiplier(0.25, &mantissa, &shift);
  EXPECT_EQ(multiply_by_quantized_multiplier(1, mantissa, shift), 1);
  EXPECT_EQ(multiply_by_quantized_multiplier(-1, mantissa, shift), 0);
  EXPECT_THROW(quantize_multiplier(0.0, &mantissa, &shift), std::invalid_argument);
  EXPECT_THROW(quantize_multiplier(-1.0, &mantissa, &shift), std::invalid_argument);
}

TEST(AffineQuant, SaturatingRoundingDoublingHighMulEdges) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  // The single overflow case of the gemmlowp idiom saturates.
  EXPECT_EQ(saturating_rounding_doubling_high_mul(kMin, kMin), kMax);
  // Identity against 0.5 in Q31 doubles back to x (exact for even x).
  const std::int32_t half = std::int32_t{1} << 30;
  EXPECT_EQ(saturating_rounding_doubling_high_mul(1 << 8, half), 1 << 7);
  EXPECT_EQ(saturating_rounding_doubling_high_mul(-(1 << 8), half), -(1 << 7));
  EXPECT_EQ(saturating_rounding_doubling_high_mul(0, kMax), 0);
}

TEST(AffineQuant, RoundingDivideByPotTiesAwayFromZero) {
  EXPECT_EQ(rounding_divide_by_pot(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(rounding_divide_by_pot(-5, 1), -3);  // −2.5 -> −3 (away from zero)
  EXPECT_EQ(rounding_divide_by_pot(4, 1), 2);
  EXPECT_EQ(rounding_divide_by_pot(-4, 1), -2);
  EXPECT_EQ(rounding_divide_by_pot(7, 2), 2);    // 1.75 -> 2
  EXPECT_EQ(rounding_divide_by_pot(-7, 2), -2);
  EXPECT_EQ(rounding_divide_by_pot(123, 0), 123);
  EXPECT_THROW(rounding_divide_by_pot(1, -1), std::invalid_argument);
}

// ------------------------------------------------------ kernel numerics

TEST(Int8Kernels, QReluClampsAtZeroPoint) {
  const std::int8_t in[5] = {-128, -5, 0, 5, 127};
  std::int8_t out[5];
  rt::qrelu(in, out, 5, /*zp=*/-3);
  EXPECT_EQ(out[0], -3);
  EXPECT_EQ(out[1], -3);
  EXPECT_EQ(out[2], 0);
  EXPECT_EQ(out[3], 5);
  EXPECT_EQ(out[4], 127);
}

TEST(Int8Kernels, QAddMatchesRealArithmeticWithAsymmetricZeroPoints) {
  // a: scale 0.1 zp 3; b: scale 0.05 zp -7; out: scale 0.2 zp 5.
  const AffineParams a_p{0.1, 3}, b_p{0.05, -7}, out_p{0.2, 5};
  std::int32_t ma, mb;
  int sa, sb;
  quantize_multiplier(a_p.scale / out_p.scale, &ma, &sa);
  quantize_multiplier(b_p.scale / out_p.scale, &mb, &sb);
  std::int8_t a[4], b[4], out[4];
  const float av[4] = {1.0F, -0.4F, 5.0F, 0.0F};
  const float bv[4] = {-0.3F, 0.45F, 2.0F, 0.0F};
  for (int i = 0; i < 4; ++i) {
    a[i] = quantize_one(av[i], a_p);
    b[i] = quantize_one(bv[i], b_p);
  }
  rt::qadd(a, b, out, 4, a_p.zero_point, ma, sa, b_p.zero_point, mb, sb, out_p.zero_point);
  for (int i = 0; i < 4; ++i) {
    const float real = dequantize_one(out[i], out_p);
    EXPECT_NEAR(real, av[i] + bv[i], 2.5 * out_p.scale) << "i=" << i;
  }
  // Exact zero stays exact: zp_a/zp_b inputs must produce zp_out.
  a[0] = static_cast<std::int8_t>(a_p.zero_point);
  b[0] = static_cast<std::int8_t>(b_p.zero_point);
  rt::qadd(a, b, out, 1, a_p.zero_point, ma, sa, b_p.zero_point, mb, sb, out_p.zero_point);
  EXPECT_EQ(out[0], static_cast<std::int8_t>(out_p.zero_point));
}

TEST(Int8Kernels, QConvHandlesAsymmetricInputZeroPointAtBorders) {
  // 1 channel, 3x3 kernel of ones over a constant input: interior
  // sums see 9 pixels, corners 4 — padding must contribute *real
  // zero*, i.e. q == zp, not integer 0. A wrong pad value shows up
  // exactly at the border pixels.
  const AffineParams in_p{0.1, -28}, out_p{0.05, -100};
  const int h = 4, w = 4;
  std::int8_t input[h * w];
  const float real_in = 0.7F;
  for (auto& v : input) v = quantize_one(real_in, in_p);  // q = -21
  std::int8_t weight[9];
  for (auto& v : weight) v = 25;  // w_scale 0.02 -> real 0.5
  const double w_scale = 0.02;
  std::int32_t wsum = 9 * 25;
  std::int32_t mantissa;
  int shift;
  quantize_multiplier(in_p.scale * w_scale / out_p.scale, &mantissa, &shift);
  std::vector<std::int32_t> mant(1, mantissa);
  std::vector<int> sh(1, shift);

  rt::QConv2dArgs args;
  args.cin = 1;
  args.h = h;
  args.w = w;
  args.cout = 1;
  args.kernel = 3;
  args.stride = 1;
  args.pad = 1;
  args.out_h = h;
  args.out_w = w;
  args.in_zp = in_p.zero_point;
  args.out_zp = out_p.zero_point;
  args.input = input;
  args.weight = weight;
  args.weight_sum = &wsum;
  args.mantissa = mant.data();
  args.shift = sh.data();
  std::vector<std::int8_t> columns(static_cast<std::size_t>(h * w * 9));
  args.columns = columns.data();
  std::int8_t output[h * w];
  args.output = output;
  rt::qconv2d(args, nullptr);

  const float interior = 9 * real_in * 0.5F;   // 3.15
  const float corner = 4 * real_in * 0.5F;     // 1.4
  EXPECT_NEAR(dequantize_one(output[1 * w + 1], out_p), interior, 2.0F * out_p.scale);
  EXPECT_NEAR(dequantize_one(output[0], out_p), corner, 2.0F * out_p.scale);
}

// --------------------------------------------- end-to-end determinism

compile::CompiledModel small_compiled(std::uint64_t seed = 1, int batch = 1,
                                      bool quantize = true) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 12;
  options.seed = seed;
  options.batch = batch;
  options.quantize = quantize;
  return compile::compile_genotype(
      nb201::Genotype::from_string("|nor_conv_3x3~0|+|none~0|skip_connect~1|+"
                                   "|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|"),
      options);
}

Tensor probe(int size, int batch = 1) {
  DatasetSpec spec;
  spec.height = spec.width = size;
  Rng rng(5);
  SyntheticDataset data(spec, rng);
  return data.sample_batch(batch, rng).images;
}

TEST(Int8Runtime, BitIdenticalAcrossRunsThreadsAndPlanModes) {
  const compile::CompiledModel model = small_compiled();
  const Tensor input = probe(12);

  rt::Executor planned1(model.graph, model.plan, rt::ExecOptions{1});
  const Tensor reference = planned1.run(input);
  ASSERT_EQ(reference.numel(), 10U);

  for (const int threads : {1, 2, 5, 0}) {
    rt::Executor exec(model.graph, model.plan, rt::ExecOptions{threads});
    for (int run = 0; run < 3; ++run) {
      const Tensor y = exec.run(input);
      for (std::size_t i = 0; i < y.numel(); ++i) {
        ASSERT_EQ(y[i], reference[i]) << "threads=" << threads << " run=" << run;
      }
    }
  }
  // Planned (arena) and unplanned (per-value buffers) execution agree
  // bit for bit — the plan is layout, not semantics.
  rt::Executor unplanned(model.graph, rt::ExecOptions{3});
  const Tensor y = unplanned.run(input);
  for (std::size_t i = 0; i < y.numel(); ++i) ASSERT_EQ(y[i], reference[i]);
}

// A graph compiled at batch 3 runs all three samples in one slot of a
// capacity-1 executor. The float pipeline keeps every sample's logits
// bit-identical to the batch-1 graph of the same seed, sample by
// sample.
TEST(Int8Runtime, FloatGraphAtBatchThreeMatchesBatchOnePerSample) {
  const compile::CompiledModel batch3 = small_compiled(7, 3, /*quantize=*/false);
  const compile::CompiledModel batch1 = small_compiled(7, 1, /*quantize=*/false);
  const Tensor input = probe(12, 3);
  ASSERT_EQ(input.shape()[0], 3);

  rt::Executor exec3(batch3.graph, batch3.plan, rt::ExecOptions{1});
  rt::Executor exec1(batch1.graph, batch1.plan, rt::ExecOptions{1});
  const Tensor y3 = exec3.run(input);
  const std::size_t per_in = input.numel() / 3;
  const std::size_t per_out = y3.numel() / 3;
  for (int s = 0; s < 3; ++s) {
    Tensor one(Shape{1, input.shape()[1], input.shape()[2], input.shape()[3]});
    std::copy_n(input.data().begin() + static_cast<std::ptrdiff_t>(s * per_in), per_in,
                one.data().begin());
    const Tensor y1 = exec1.run(one);
    ASSERT_EQ(y1.numel(), per_out);
    for (std::size_t i = 0; i < per_out; ++i) {
      ASSERT_EQ(y3[s * per_out + i], y1[i]) << "sample " << s << " logit " << i;
    }
  }
}

// The int8 pipeline compiled (and calibrated) at batch 3 agrees with
// itself planned at 1 and 3 threads and unplanned.
TEST(Int8Runtime, Int8GraphAtBatchThreeAgreesAcrossThreadsAndPlanModes) {
  const compile::CompiledModel model = small_compiled(7, 3);
  const Tensor input = probe(12, 3);

  rt::Executor planned1(model.graph, model.plan, rt::ExecOptions{1});
  const Tensor reference = planned1.run(input);
  ASSERT_EQ(reference.numel(), 30U);
  rt::Executor planned3(model.graph, model.plan, rt::ExecOptions{3});
  rt::Executor unplanned(model.graph, rt::ExecOptions{1});
  const Tensor a = planned3.run(input);
  const Tensor b = unplanned.run(input);
  for (std::size_t i = 0; i < reference.numel(); ++i) {
    ASSERT_EQ(a[i], reference[i]) << "planned, 3 threads, logit " << i;
    ASSERT_EQ(b[i], reference[i]) << "unplanned, logit " << i;
  }
}

TEST(Int8Runtime, ExecutorRejectsNonF32Endpoints) {
  // The runtime's entry/exit contract is f32 in, f32 out; graphs with
  // integer endpoints must be rejected at construction, not overflow
  // buffers at run time.
  ir::Graph i8_in;
  const int x = i8_in.add_input({Shape{1, 1, 2, 2}, ir::DType::kI8});
  i8_in.set_output(i8_in.add_node(ir::OpKind::kDequantize, {x}));
  EXPECT_THROW(rt::Executor(i8_in, rt::ExecOptions{1}), std::invalid_argument);

  ir::Graph i8_out;
  const int y = i8_out.add_input({Shape{1, 1, 2, 2}, ir::DType::kF32});
  i8_out.set_output(i8_out.add_node(ir::OpKind::kQuantize, {y}));
  EXPECT_THROW(rt::Executor(i8_out, rt::ExecOptions{1}), std::invalid_argument);
}

TEST(Int8Runtime, TracksFloatReferenceLogits) {
  const compile::CompiledModel model = small_compiled();
  compile::CompilerOptions naive;
  naive.macro.cells_per_stage = 1;
  naive.macro.input_size = 12;
  naive.fold = naive.fuse = naive.quantize = false;
  const compile::CompiledModel float_model = compile::compile_genotype(
      nb201::Genotype::from_string("|nor_conv_3x3~0|+|none~0|skip_connect~1|+"
                                   "|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|"),
      naive);

  const Tensor input = probe(12);
  rt::Executor qexec(model.graph, model.plan, rt::ExecOptions{1});
  rt::Executor fexec(float_model.graph, rt::ExecOptions{1});
  const Tensor qy = qexec.run(input);
  const Tensor fy = fexec.run(input);

  // Quantization error is bounded relative to the logit spread; top-1
  // must agree (that is what deployment accuracy depends on).
  float spread = 0.0F;
  for (std::size_t i = 0; i < fy.numel(); ++i) spread = std::max(spread, std::abs(fy[i]));
  std::size_t q_top = 0, f_top = 0;
  for (std::size_t i = 1; i < fy.numel(); ++i) {
    if (qy[i] > qy[q_top]) q_top = i;
    if (fy[i] > fy[f_top]) f_top = i;
  }
  EXPECT_EQ(q_top, f_top);
  for (std::size_t i = 0; i < fy.numel(); ++i) {
    EXPECT_NEAR(qy[i], fy[i], 0.1F * spread + 1.0F) << "logit " << i;
  }
}

}  // namespace
}  // namespace micronas
