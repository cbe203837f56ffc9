// Packed int8 GEMM kernels: the blocked/vectorized paths behind
// qconv2d_auto / qlinear_auto must be byte-identical to the scalar
// reference kernels for every shape, batch size and thread count the
// selection table can route to them — exact int32 accumulation means
// layout and schedule cannot legally change a single output byte.
// Also pins the packing layout (ABI: serialized into .mnpkg PACK
// sections), the selection table itself, and the executor's
// per-sample parallelism gate these kernels run behind. Generated
// shapes and quant params drive the conv, linear and average-pool
// kernels against scalar oracles, and the branch-free requant core
// against the checked form it replaced, value for value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/compile/compiler.hpp"
#include "src/data/synthetic.hpp"
#include "src/hw/quant.hpp"
#include "src/nb201/genotype.hpp"
#include "src/rt/kernels_int8.hpp"
#include "src/rt/kernels_int8_gemm.hpp"
#include "src/rt/runtime.hpp"

namespace micronas::rt {
namespace {

struct ConvCase {
  int batch, cin, hw, cout, kernel, stride, pad;
};

std::string case_name(const ConvCase& c) {
  return "batch=" + std::to_string(c.batch) + " cin=" + std::to_string(c.cin) +
         " hw=" + std::to_string(c.hw) + " cout=" + std::to_string(c.cout) +
         " k=" + std::to_string(c.kernel) + " s=" + std::to_string(c.stride) +
         " p=" + std::to_string(c.pad);
}

/// Random-but-deterministic conv operands with per-channel requant
/// params covering both positive and negative shifts.
struct ConvData {
  std::vector<std::int8_t> input, weight;
  std::vector<std::int32_t> bias, weight_sum, mantissa;
  std::vector<int> shift;
  int out_h, out_w;

  explicit ConvData(const ConvCase& c, std::uint32_t seed) {
    std::mt19937 rng(seed);
    out_h = (c.hw + 2 * c.pad - c.kernel) / c.stride + 1;
    out_w = out_h;
    const int patch = c.cin * c.kernel * c.kernel;
    input.resize(static_cast<std::size_t>(c.batch) * c.cin * c.hw * c.hw);
    weight.resize(static_cast<std::size_t>(c.cout) * patch);
    for (auto& v : input) v = static_cast<std::int8_t>(rng());
    for (auto& v : weight) v = static_cast<std::int8_t>(rng());
    bias.resize(c.cout);
    weight_sum.assign(c.cout, 0);
    mantissa.resize(c.cout);
    shift.resize(c.cout);
    for (int ch = 0; ch < c.cout; ++ch) {
      bias[ch] = static_cast<std::int32_t>(rng() % 2001) - 1000;
      for (int k = 0; k < patch; ++k) weight_sum[ch] += weight[ch * patch + k];
      quantize_multiplier(0.0005 + 0.001 * (ch % 7), &mantissa[ch], &shift[ch]);
    }
  }
};

QConv2dArgs conv_args(const ConvCase& c, ConvData& d, std::int8_t* columns, std::int8_t* out) {
  QConv2dArgs a{};
  a.batch = c.batch;
  a.cin = c.cin;
  a.h = a.w = c.hw;
  a.cout = c.cout;
  a.kernel = c.kernel;
  a.stride = c.stride;
  a.pad = c.pad;
  a.out_h = d.out_h;
  a.out_w = d.out_w;
  a.in_zp = -3;
  a.out_zp = 5;
  a.fused_relu = true;
  a.input = d.input.data();
  a.weight = d.weight.data();
  a.bias = d.bias.data();
  a.weight_sum = d.weight_sum.data();
  a.mantissa = d.mantissa.data();
  a.shift = d.shift.data();
  a.columns = columns;
  a.output = out;
  return a;
}

std::size_t conv_scratch_bytes(const ConvCase& c, const ConvData& d) {
  const std::size_t scalar = static_cast<std::size_t>(c.batch) * d.out_h * d.out_w * c.cin *
                             c.kernel * c.kernel;
  const std::size_t gemm = static_cast<std::size_t>(c.batch) *
                           qconv_gemm_scratch_bytes(c.cin, c.hw, c.hw, c.kernel, c.pad, d.out_h,
                                                    d.out_w);
  return std::max(scalar, gemm);
}

// The headline property: for a grid of shapes crossing kernel size,
// stride, padding, ragged channel counts and batch sizes, every kernel
// the selection table can pick produces output bytes memcmp-equal to
// the scalar reference, for serial and pooled execution alike.
TEST(QConvGemm, AllSelectedKernelsBitIdenticalToScalarAcrossShapesAndThreads) {
  const ConvCase cases[] = {
      {1, 3, 9, 8, 3, 1, 1},   {1, 16, 16, 16, 3, 1, 1}, {2, 16, 16, 8, 3, 2, 1},
      {1, 33, 7, 17, 3, 1, 1}, {3, 8, 5, 24, 3, 2, 1},   {1, 16, 8, 16, 3, 1, 0},
      {1, 16, 16, 16, 1, 1, 0}, {2, 64, 4, 64, 1, 1, 0}, {1, 32, 8, 32, 1, 2, 0},
      {2, 24, 6, 40, 1, 1, 0},  {1, 64, 8, 64, 1, 1, 0},
  };
  ThreadPool pool3(3);
  ThreadPool pool7(7);
  for (const ConvCase& c : cases) {
    ConvData d(c, 0xC0FFEEu ^ static_cast<std::uint32_t>(c.cin * 131 + c.kernel));
    const std::size_t out_elems = static_cast<std::size_t>(c.batch) * c.cout * d.out_h * d.out_w;
    std::vector<std::int8_t> scratch(conv_scratch_bytes(c, d));
    std::vector<std::int8_t> ref(out_elems), got(out_elems);

    QConv2dArgs a = conv_args(c, d, scratch.data(), ref.data());
    qconv2d(a, nullptr);

    const int patch = c.cin * c.kernel * c.kernel;
    const PackedWeights packed = pack_weights_dot16(d.weight.data(), c.cout, patch);
    struct Variant {
      const char* what;
      const PackedWeights* packed;
      ThreadPool* pool;
    };
    const Variant variants[] = {
        {"auto/packed/serial", &packed, nullptr}, {"auto/packed/pool3", &packed, &pool3},
        {"auto/packed/pool7", &packed, &pool7},   {"auto/unpacked/serial", nullptr, nullptr},
        {"auto/unpacked/pool3", nullptr, &pool3},
    };
    for (const Variant& v : variants) {
      std::fill(got.begin(), got.end(), std::int8_t{0});
      QConv2dArgs b = conv_args(c, d, scratch.data(), got.data());
      qconv2d_auto(b, v.packed, v.pool);
      ASSERT_EQ(std::memcmp(ref.data(), got.data(), out_elems), 0)
          << case_name(c) << " via " << v.what << " ("
          << qconv_kernel_name(select_qconv_kernel(b, v.packed)) << ")";
    }
  }
}

TEST(QConvGemm, GemmKernelItselfBitIdenticalWhereSelectionPrefersDirect) {
  // 1x1/s1/p0 with a large plane routes to the direct kernel; force
  // the GEMM down the same shapes via a stride-2 sibling so both
  // blocked kernels stay covered on 1x1 weights.
  const ConvCase c{2, 32, 8, 32, 1, 2, 0};
  ConvData d(c, 77);
  const std::size_t out_elems = static_cast<std::size_t>(c.batch) * c.cout * d.out_h * d.out_w;
  std::vector<std::int8_t> scratch(conv_scratch_bytes(c, d));
  std::vector<std::int8_t> ref(out_elems), got(out_elems);
  QConv2dArgs a = conv_args(c, d, scratch.data(), ref.data());
  qconv2d(a, nullptr);
  const PackedWeights packed = pack_weights_dot16(d.weight.data(), c.cout, c.cin);
  QConv2dArgs b = conv_args(c, d, scratch.data(), got.data());
  ASSERT_EQ(select_qconv_kernel(b, &packed),
            fast_kernels_enabled() ? QConvKernel::kIm2colGemm : QConvKernel::kScalar);
  qconv2d_auto(b, &packed, nullptr);
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), out_elems), 0);
}

TEST(QLinearGemm, BitIdenticalToScalarAcrossShapesAndThreads) {
  struct LinCase {
    int batch, in_features, out_features;
  };
  const LinCase cases[] = {{1, 64, 10}, {3, 64, 10}, {5, 37, 13}, {2, 256, 100}, {7, 8, 3}};
  ThreadPool pool4(4);
  for (const LinCase& c : cases) {
    std::mt19937 rng(static_cast<std::uint32_t>(c.in_features * 1009 + c.batch));
    std::vector<std::int8_t> input(static_cast<std::size_t>(c.batch) * c.in_features);
    std::vector<std::int8_t> weight(static_cast<std::size_t>(c.out_features) * c.in_features);
    for (auto& v : input) v = static_cast<std::int8_t>(rng());
    for (auto& v : weight) v = static_cast<std::int8_t>(rng());
    std::vector<std::int32_t> bias(c.out_features), wsum(c.out_features, 0),
        mant(c.out_features);
    std::vector<int> shift(c.out_features);
    for (int o = 0; o < c.out_features; ++o) {
      bias[o] = static_cast<std::int32_t>(rng() % 400) - 200;
      for (int k = 0; k < c.in_features; ++k) wsum[o] += weight[o * c.in_features + k];
      quantize_multiplier(0.002 + 0.0003 * o, &mant[o], &shift[o]);
    }
    std::vector<std::int8_t> ref(static_cast<std::size_t>(c.batch) * c.out_features);
    std::vector<std::int8_t> got(ref.size());
    QLinearArgs a{};
    a.batch = c.batch;
    a.in_features = c.in_features;
    a.out_features = c.out_features;
    a.in_zp = 2;
    a.out_zp = -7;
    a.input = input.data();
    a.weight = weight.data();
    a.bias = bias.data();
    a.weight_sum = wsum.data();
    a.mantissa = mant.data();
    a.shift = shift.data();
    a.output = ref.data();
    qlinear(a, nullptr);
    const PackedWeights packed =
        pack_weights_dot16(weight.data(), c.out_features, c.in_features);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
      std::fill(got.begin(), got.end(), std::int8_t{0});
      a.output = got.data();
      qlinear_auto(a, &packed, pool);
      ASSERT_EQ(std::memcmp(ref.data(), got.data(), ref.size()), 0)
          << "batch=" << c.batch << " in=" << c.in_features << " out=" << c.out_features
          << (pool ? " pooled" : " serial");
    }
  }
}

// ------------------------------------------------------ packing layout

TEST(PackWeights, Dot16LayoutWidensRowsAndZeroPadsTheTail) {
  const int cout = 3, patch = kDotLanes + 5;  // forces a ragged K tail
  std::vector<std::int8_t> weight(static_cast<std::size_t>(cout) * patch);
  std::mt19937 rng(9);
  for (auto& v : weight) v = static_cast<std::int8_t>(rng());
  const PackedWeights pw = pack_weights_dot16(weight.data(), cout, patch);
  EXPECT_EQ(pw.layout, WeightLayout::kPackedDot16);
  EXPECT_EQ(pw.cout, cout);
  EXPECT_EQ(pw.patch, patch);
  EXPECT_EQ(pw.padded_patch(), 2 * kDotLanes);
  ASSERT_EQ(pw.data.size(), static_cast<std::size_t>(cout) * pw.padded_patch());
  for (int c = 0; c < cout; ++c) {
    for (int k = 0; k < pw.padded_patch(); ++k) {
      const std::int16_t want = k < patch ? static_cast<std::int16_t>(weight[c * patch + k]) : 0;
      ASSERT_EQ(pw.data[static_cast<std::size_t>(c) * pw.padded_patch() + k], want)
          << "row " << c << " lane " << k;
    }
  }
}

TEST(PackWeights, GraphPackingCoversExactlyTheWantedNodesKeyedByConsumer) {
  const nb201::Genotype g = nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|skip_connect~0|nor_conv_1x1~1|+|avg_pool_3x3~0|skip_connect~1|nor_conv_3x3~2|");
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.calibration_batches = 1;
  options.quantize = true;
  options.seed = 3;
  const compile::CompiledModel model = compile::compile_genotype(g, options);
  const PackedWeightSet set = pack_graph_weights(model.graph);
  int packed_nodes = 0;
  for (const ir::Node& node : model.graph.nodes()) {
    const PackedWeights* pw = set.find(node.id);
    if (node_wants_packed_weights(model.graph, node)) {
      ASSERT_NE(pw, nullptr) << "node " << node.id;
      const ir::Node& weight = model.graph.node(node.inputs[1]);
      EXPECT_EQ(pw->cout, weight.type.shape[0]);
      EXPECT_EQ(static_cast<std::size_t>(pw->cout) * pw->padded_patch(), pw->data.size());
      ++packed_nodes;
    } else {
      EXPECT_EQ(pw, nullptr) << "node " << node.id;
    }
  }
  EXPECT_GT(packed_nodes, 0);
  EXPECT_FALSE(set.empty());
  // Out-of-range ids must not fault.
  EXPECT_EQ(set.find(-1), nullptr);
  EXPECT_EQ(set.find(1 << 20), nullptr);
}

// --------------------------------------------------- selection table

TEST(KernelSelection, TableRoutesByShapeAndPackedAvailability) {
  if (!fast_kernels_enabled()) GTEST_SKIP() << "portable build: always scalar";
  ConvCase big1x1{1, 16, 16, 16, 1, 1, 0};  // 256 out pixels
  ConvData dbig(big1x1, 1);
  std::vector<std::int8_t> scratch(conv_scratch_bytes(big1x1, dbig));
  std::vector<std::int8_t> out(16 * 16 * 16);
  QConv2dArgs a = conv_args(big1x1, dbig, scratch.data(), out.data());
  const PackedWeights packed1x1 = pack_weights_dot16(dbig.weight.data(), 16, 16);
  // Large-plane 1x1 prefers direct even when packed weights exist.
  EXPECT_EQ(select_qconv_kernel(a, &packed1x1), QConvKernel::kDirectConv);
  EXPECT_EQ(select_qconv_kernel(a, nullptr), QConvKernel::kDirectConv);

  ConvCase small1x1{1, 64, 4, 64, 1, 1, 0};  // 16 out pixels: below kDirectMinPix
  ConvData dsmall(small1x1, 2);
  std::vector<std::int8_t> scratch2(conv_scratch_bytes(small1x1, dsmall));
  std::vector<std::int8_t> out2(64 * 4 * 4);
  QConv2dArgs b = conv_args(small1x1, dsmall, scratch2.data(), out2.data());
  const PackedWeights packed_small = pack_weights_dot16(dsmall.weight.data(), 64, 64);
  EXPECT_EQ(select_qconv_kernel(b, &packed_small), QConvKernel::kIm2colGemm);
  EXPECT_EQ(select_qconv_kernel(b, nullptr), QConvKernel::kDirectConv);

  ConvCase spatial{1, 16, 16, 16, 3, 1, 1};
  ConvData dsp(spatial, 3);
  std::vector<std::int8_t> scratch3(conv_scratch_bytes(spatial, dsp));
  std::vector<std::int8_t> out3(16 * 16 * 16);
  QConv2dArgs s = conv_args(spatial, dsp, scratch3.data(), out3.data());
  const PackedWeights packed_sp = pack_weights_dot16(dsp.weight.data(), 16, 16 * 9);
  EXPECT_EQ(select_qconv_kernel(s, &packed_sp), QConvKernel::kIm2colGemm);
  // Spatial conv without packed weights: scalar, never a blocked path.
  EXPECT_EQ(select_qconv_kernel(s, nullptr), QConvKernel::kScalar);
  // A packed set for the WRONG shape must not be trusted.
  const PackedWeights mismatched = pack_weights_dot16(dsp.weight.data(), 16, 16);
  EXPECT_EQ(select_qconv_kernel(s, &mismatched), QConvKernel::kScalar);

  QLinearArgs l{};
  l.batch = 1;
  l.in_features = 64;
  l.out_features = 10;
  std::vector<std::int8_t> lw(640);
  const PackedWeights packed_lin = pack_weights_dot16(lw.data(), 10, 64);
  EXPECT_EQ(select_qlinear_kernel(l, &packed_lin), QLinearKernel::kGemm);
  EXPECT_EQ(select_qlinear_kernel(l, nullptr), QLinearKernel::kScalar);
}

// ------------------------------------- batched executor dispatch gate

TEST(BatchedDispatchGate, SampleIoBytesCountsRealBytesNotElements) {
  const nb201::Genotype g = nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|skip_connect~0|nor_conv_3x3~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|");
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.calibration_batches = 1;
  options.quantize = true;
  options.seed = 5;
  const compile::CompiledModel model = compile::compile_genotype(g, options);
  bool saw_int8 = false, saw_f32 = false;
  for (const ir::Node& node : model.graph.nodes()) {
    if (node.is_const() || node.op == ir::OpKind::kInput) continue;
    const std::size_t bytes = Executor::sample_io_bytes(model.graph, node);
    if (bytes == 0 || bytes == ~std::size_t{0}) continue;  // heavy ops: always parallel
    const auto elem_bytes = [](ir::DType t) {
      return t == ir::DType::kI8 ? std::size_t{1} : sizeof(float);
    };
    std::size_t expect = node.type.shape.numel() * elem_bytes(node.type.dtype);
    for (int in : node.inputs) {
      const ir::Node& src = model.graph.node(in);
      if (src.is_const()) continue;
      expect += src.type.shape.numel() * elem_bytes(src.type.dtype);
    }
    ASSERT_EQ(bytes, expect) << "node " << node.id << " op "
                             << static_cast<int>(node.op);
    if (node.type.dtype == ir::DType::kI8) saw_int8 = true;
    if (node.type.dtype == ir::DType::kF32) saw_f32 = true;
  }
  EXPECT_TRUE(saw_int8);
  // An int8 tensor of N elements must gate on N bytes (not 4N): a
  // 16x16x16 int8 activation (4 KB in+out ~ 12 KB with two inputs) sits
  // far below the 32 KB gate even though 4N would put f32 there.
  EXPECT_LT(std::size_t{3} * 16 * 16 * 16, Executor::kMinParallelSampleBytes);
  (void)saw_f32;
}


// ------------------------------------------------ requant core oracle
//
// The checked requant the kernels ran before the core became selects
// only, copied verbatim: the core must agree with it value for value
// over its whole domain.

std::int32_t checked_high_mul(std::int32_t a, std::int32_t b) {
  const bool overflow = a == b && a == std::numeric_limits<std::int32_t>::min();
  if (overflow) return std::numeric_limits<std::int32_t>::max();
  const std::int64_t ab = static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b);
  const std::int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));
  return static_cast<std::int32_t>((ab + nudge) / (1LL << 31));
}

std::int32_t checked_divide_by_pot(std::int32_t x, int exponent) {
  if (exponent < 0 || exponent > 31) {
    throw std::invalid_argument("rounding_divide_by_pot: exponent out of [0, 31]");
  }
  if (exponent == 0) return x;
  const std::int32_t mask = static_cast<std::int32_t>((1LL << exponent) - 1);
  const std::int32_t remainder = x & mask;
  std::int32_t threshold = mask >> 1;
  if (x < 0) threshold += 1;
  std::int32_t result = x >> exponent;
  if (remainder > threshold) result += 1;
  return result;
}

std::int32_t checked_requant(std::int32_t x, std::int32_t mantissa, int shift) {
  const int left_shift = shift > 0 ? shift : 0;
  const int right_shift = shift > 0 ? 0 : -shift;
  const std::int32_t shifted =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(x) << left_shift);
  return checked_divide_by_pot(checked_high_mul(shifted, mantissa), right_shift);
}

TEST(RequantCore, MatchesTheCheckedFormOnEdgesAndARandomSweep) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::int32_t xs[] = {kMin, kMin + 1, -(1 << 30), -3, -2, -1, 0, 1, 2, 3, 1 << 30,
                             kMax - 1, kMax};
  const std::int32_t mantissas[] = {kMin, kMin + 1, -(1 << 30), -1, 0, 1, 1 << 30,
                                    (1 << 30) + 1, kMax};
  for (const std::int32_t x : xs) {
    for (const std::int32_t m : mantissas) {
      ASSERT_EQ(saturating_rounding_doubling_high_mul(x, m), checked_high_mul(x, m))
          << "x=" << x << " m=" << m;
      for (int shift = -kMaxRequantShift; shift <= kMaxRequantShift; ++shift) {
        ASSERT_EQ(multiply_by_quantized_multiplier(x, m, shift), checked_requant(x, m, shift))
            << "x=" << x << " m=" << m << " shift=" << shift;
      }
    }
    for (int e = 0; e <= 31; ++e) {
      ASSERT_EQ(rounding_right_shift(x, e), checked_divide_by_pot(x, e))
          << "x=" << x << " e=" << e;
      ASSERT_EQ(rounding_divide_by_pot(x, e), checked_divide_by_pot(x, e));
    }
  }
  EXPECT_THROW(rounding_divide_by_pot(1, 32), std::invalid_argument);

  // Random sweep: magnitudes spread over every bit width, so ties,
  // saturation and both shift directions all occur.
  std::mt19937 rng(20240601u);
  const auto draw = [&rng]() {
    const int bits = static_cast<int>(rng() % 32);
    const std::uint32_t mask = bits == 31 ? 0xFFFFFFFFU : (2U << bits) - 1;
    const auto v = static_cast<std::int32_t>(rng() & mask);
    return (rng() & 1) ? v : static_cast<std::int32_t>(0U - static_cast<std::uint32_t>(v));
  };
  for (int i = 0; i < 200000; ++i) {
    const std::int32_t x = draw();
    const std::int32_t m = (i % 4 == 0) ? draw()
                                        : static_cast<std::int32_t>((1U << 30) + (rng() >> 2));
    const int shift = static_cast<int>(rng() % 63) - kMaxRequantShift;
    ASSERT_EQ(multiply_by_quantized_multiplier(x, m, shift), checked_requant(x, m, shift))
        << "x=" << x << " m=" << m << " shift=" << shift;
  }
}

TEST(RequantCore, KernelEntryPointsRejectShiftsOutsideTheDomain) {
  const std::int8_t in[4] = {1, 2, 3, 4};
  std::int8_t out[4] = {};
  std::int32_t scratch[8] = {};
  for (const int bad : {-kMaxRequantShift - 1, kMaxRequantShift + 1, -40, 40}) {
    EXPECT_THROW(qavg_pool(in, out, 1, 1, 2, 2, 1, 1, 0, 2, 2, 0, 1 << 30, bad, 0, scratch),
                 std::invalid_argument);
    EXPECT_THROW(qglobal_avg_pool(in, out, 1, 1, 2, 2, 0, 1 << 30, bad, 0),
                 std::invalid_argument);
    EXPECT_THROW(qadd(in, in, out, 4, 0, 1 << 30, 0, 0, 1 << 30, bad, 0), std::invalid_argument);
  }
}

// ---------------------------------------- generated-shape properties
//
// Seeded generators over the geometry and quant params the kernels
// accept: batch 1-3, channels 1-40 in / 1-70 out (so cout % 4 takes
// every value), h != w in 1-13, kernel 1-5, stride 1-2, pad 0-2, zero
// points anywhere in int8, shifts in [-31, 8] (so many outputs
// saturate), fused ReLU on and off.

int out_extent(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

struct Geometry {
  int batch, channels, h, w, kernel, stride, pad, out_h, out_w;
};

std::string geometry_name(const Geometry& g) {
  return "batch=" + std::to_string(g.batch) + " c=" + std::to_string(g.channels) +
         " h=" + std::to_string(g.h) + " w=" + std::to_string(g.w) +
         " k=" + std::to_string(g.kernel) + " s=" + std::to_string(g.stride) +
         " p=" + std::to_string(g.pad);
}

Geometry draw_geometry(std::mt19937& rng, int max_channels) {
  for (;;) {
    Geometry g{};
    g.batch = 1 + static_cast<int>(rng() % 3);
    g.channels = 1 + static_cast<int>(rng() % static_cast<unsigned>(max_channels));
    g.h = 1 + static_cast<int>(rng() % 13);
    g.w = 1 + static_cast<int>(rng() % 13);
    g.kernel = 1 + static_cast<int>(rng() % 5);
    g.stride = 1 + static_cast<int>(rng() % 2);
    g.pad = static_cast<int>(rng() % 3);
    if (g.h + 2 * g.pad < g.kernel || g.w + 2 * g.pad < g.kernel) continue;
    g.out_h = out_extent(g.h, g.kernel, g.stride, g.pad);
    g.out_w = out_extent(g.w, g.kernel, g.stride, g.pad);
    return g;
  }
}

std::int32_t draw_mantissa(std::mt19937& rng) {
  return static_cast<std::int32_t>((1U << 30) + (rng() >> 2));  // [2^30, 2^31): normalized
}

int draw_shift(std::mt19937& rng) { return static_cast<int>(rng() % 40) - 31; }  // [-31, 8]

int draw_zero_point(std::mt19937& rng) { return static_cast<int>(rng() % 256) - 128; }

TEST(QConvGemm, GeneratedShapesAndQuantParamsBitIdenticalToScalar) {
  std::mt19937 rng(0x5EED0001u);
  ThreadPool pool3(3);
  ThreadPool pool7(7);
  int saturated = 0, total = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const Geometry g = draw_geometry(rng, 40);
    const int cout = 1 + static_cast<int>(rng() % 70);
    const int patch = g.channels * g.kernel * g.kernel;
    std::vector<std::int8_t> input(static_cast<std::size_t>(g.batch) * g.channels * g.h * g.w);
    std::vector<std::int8_t> weight(static_cast<std::size_t>(cout) * patch);
    for (auto& v : input) v = static_cast<std::int8_t>(rng());
    for (auto& v : weight) v = static_cast<std::int8_t>(rng());
    std::vector<std::int32_t> bias(cout), wsum(cout, 0), mant(cout);
    std::vector<int> shift(cout);
    for (int c = 0; c < cout; ++c) {
      bias[c] = static_cast<std::int32_t>(rng() % 20001) - 10000;
      for (int k = 0; k < patch; ++k) wsum[c] += weight[static_cast<std::size_t>(c) * patch + k];
      mant[c] = draw_mantissa(rng);
      shift[c] = draw_shift(rng);
    }
    QConv2dArgs a{};
    a.batch = g.batch;
    a.cin = g.channels;
    a.h = g.h;
    a.w = g.w;
    a.cout = cout;
    a.kernel = g.kernel;
    a.stride = g.stride;
    a.pad = g.pad;
    a.out_h = g.out_h;
    a.out_w = g.out_w;
    a.in_zp = draw_zero_point(rng);
    a.out_zp = draw_zero_point(rng);
    a.fused_relu = (rng() & 1) != 0;
    a.input = input.data();
    a.weight = weight.data();
    a.bias = bias.data();
    a.weight_sum = wsum.data();
    a.mantissa = mant.data();
    a.shift = shift.data();
    const std::size_t npix = static_cast<std::size_t>(g.out_h) * g.out_w;
    const std::size_t out_elems = static_cast<std::size_t>(g.batch) * cout * npix;
    std::vector<std::int8_t> scratch(std::max(
        static_cast<std::size_t>(g.batch) * npix * patch,
        static_cast<std::size_t>(g.batch) *
            qconv_gemm_scratch_bytes(g.channels, g.h, g.w, g.kernel, g.pad, g.out_h, g.out_w)));
    a.columns = scratch.data();
    std::vector<std::int8_t> ref(out_elems), got(out_elems);
    a.output = ref.data();
    qconv2d(a, nullptr);
    for (const std::int8_t v : ref) saturated += v == kInt8Min || v == kInt8Max;
    total += static_cast<int>(out_elems);

    const PackedWeights packed = pack_weights_dot16(weight.data(), cout, patch);
    for (const PackedWeights* pw : {&packed, static_cast<const PackedWeights*>(nullptr)}) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool3, &pool7}) {
        std::fill(got.begin(), got.end(), std::int8_t{0x5A});
        a.output = got.data();
        qconv2d_auto(a, pw, pool);
        ASSERT_EQ(std::memcmp(ref.data(), got.data(), out_elems), 0)
            << "trial " << trial << " " << geometry_name(g) << " cout=" << cout
            << " relu=" << a.fused_relu << " via "
            << qconv_kernel_name(select_qconv_kernel(a, pw)) << (pool ? " pooled" : " serial");
      }
    }
  }
  // The generator must reach the saturating corner, not just the middle.
  EXPECT_GT(saturated, total / 20);
  EXPECT_LT(saturated, total);
}

TEST(QLinearGemm, GeneratedShapesAndQuantParamsBitIdenticalToScalar) {
  std::mt19937 rng(0x5EED0002u);
  ThreadPool pool3(3);
  ThreadPool pool7(7);
  for (int trial = 0; trial < 120; ++trial) {
    const int batch = 1 + static_cast<int>(rng() % 3);
    const int in_f = 1 + static_cast<int>(rng() % 300);
    const int out_f = 1 + static_cast<int>(rng() % 70);
    std::vector<std::int8_t> input(static_cast<std::size_t>(batch) * in_f);
    std::vector<std::int8_t> weight(static_cast<std::size_t>(out_f) * in_f);
    for (auto& v : input) v = static_cast<std::int8_t>(rng());
    for (auto& v : weight) v = static_cast<std::int8_t>(rng());
    std::vector<std::int32_t> bias(out_f), wsum(out_f, 0), mant(out_f);
    std::vector<int> shift(out_f);
    for (int o = 0; o < out_f; ++o) {
      bias[o] = static_cast<std::int32_t>(rng() % 20001) - 10000;
      for (int k = 0; k < in_f; ++k) wsum[o] += weight[static_cast<std::size_t>(o) * in_f + k];
      mant[o] = draw_mantissa(rng);
      shift[o] = draw_shift(rng);
    }
    QLinearArgs a{};
    a.batch = batch;
    a.in_features = in_f;
    a.out_features = out_f;
    a.in_zp = draw_zero_point(rng);
    a.out_zp = draw_zero_point(rng);
    a.input = input.data();
    a.weight = weight.data();
    a.bias = bias.data();
    a.weight_sum = wsum.data();
    a.mantissa = mant.data();
    a.shift = shift.data();
    std::vector<std::int8_t> ref(static_cast<std::size_t>(batch) * out_f), got(ref.size());
    a.output = ref.data();
    qlinear(a, nullptr);
    const PackedWeights packed = pack_weights_dot16(weight.data(), out_f, in_f);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool3, &pool7}) {
      std::fill(got.begin(), got.end(), std::int8_t{0x5A});
      a.output = got.data();
      qlinear_auto(a, &packed, pool);
      ASSERT_EQ(std::memcmp(ref.data(), got.data(), ref.size()), 0)
          << "trial " << trial << " batch=" << batch << " in=" << in_f << " out=" << out_f
          << (pool ? " pooled" : " serial");
    }
  }
}

/// The per-output window loop qavg_pool ran before the separable box
/// sum, over the checked requant: the oracle for every pool output.
void per_output_avg_pool(const std::int8_t* input, std::int8_t* output, const Geometry& g,
                         int in_zp, std::int32_t mantissa, int shift, int out_zp) {
  for (int n = 0; n < g.batch; ++n) {
    for (int c = 0; c < g.channels; ++c) {
      const std::int8_t* plane =
          input + (static_cast<std::ptrdiff_t>(n) * g.channels + c) * g.h * g.w;
      std::int8_t* oplane =
          output + (static_cast<std::ptrdiff_t>(n) * g.channels + c) * g.out_h * g.out_w;
      for (int oy = 0; oy < g.out_h; ++oy) {
        for (int ox = 0; ox < g.out_w; ++ox) {
          std::int32_t acc = 0;
          for (int ky = 0; ky < g.kernel; ++ky) {
            const int iy = oy * g.stride - g.pad + ky;
            if (iy < 0 || iy >= g.h) continue;
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int ix = ox * g.stride - g.pad + kx;
              if (ix < 0 || ix >= g.w) continue;
              acc += static_cast<std::int32_t>(plane[static_cast<std::ptrdiff_t>(iy) * g.w + ix]) -
                     in_zp;
            }
          }
          const std::int32_t q = checked_requant(acc, mantissa, shift) + out_zp;
          oplane[static_cast<std::ptrdiff_t>(oy) * g.out_w + ox] =
              static_cast<std::int8_t>(std::clamp<std::int32_t>(q, kInt8Min, kInt8Max));
        }
      }
    }
  }
}

TEST(QAvgPool, SeparableBoxSumMatchesThePerOutputLoop) {
  std::mt19937 rng(0x5EED0003u);
  for (int trial = 0; trial < 400; ++trial) {
    const Geometry g = draw_geometry(rng, 40);
    std::vector<std::int8_t> input(static_cast<std::size_t>(g.batch) * g.channels * g.h * g.w);
    for (auto& v : input) v = static_cast<std::int8_t>(rng());
    const int in_zp = draw_zero_point(rng);
    const int out_zp = draw_zero_point(rng);
    // Mostly the pool's own 1/k^2 multiplier, sometimes any shift.
    std::int32_t mantissa = 0;
    int shift = 0;
    if (trial % 2 == 0) {
      quantize_multiplier(1.0 / (g.kernel * g.kernel) * (0.5 + (rng() % 1000) / 500.0),
                          &mantissa, &shift);
    } else {
      mantissa = draw_mantissa(rng);
      shift = draw_shift(rng);
    }
    const std::size_t out_elems =
        static_cast<std::size_t>(g.batch) * g.channels * g.out_h * g.out_w;
    std::vector<std::int8_t> ref(out_elems), got(out_elems, std::int8_t{0x5A});
    per_output_avg_pool(input.data(), ref.data(), g, in_zp, mantissa, shift, out_zp);
    std::vector<std::int32_t> scratch(qavg_pool_scratch(g.h, g.out_h, g.out_w));
    qavg_pool(input.data(), got.data(), g.batch, g.channels, g.h, g.w, g.kernel, g.stride, g.pad,
              g.out_h, g.out_w, in_zp, mantissa, shift, out_zp, scratch.data());
    ASSERT_EQ(std::memcmp(ref.data(), got.data(), out_elems), 0)
        << "trial " << trial << " " << geometry_name(g) << " in_zp=" << in_zp
        << " shift=" << shift;
  }
}

// A pool node on the row-strip streamed path: the executor gathers each
// strip with its halo and pools it through the same kernel and scratch.
TEST(QAvgPool, StreamedPoolPlanUnderAHalvedBudgetIsBitIdentical) {
  const nb201::Genotype g = nb201::Genotype::from_string(
      "|avg_pool_3x3~0|+|none~0|avg_pool_3x3~1|+|none~0|none~1|avg_pool_3x3~2|");
  compile::CompilerOptions options;
  options.macro.num_stages = 1;
  options.macro.cells_per_stage = 1;
  options.calibration_batches = 1;
  options.seed = 17;
  const compile::CompiledModel base = compile::compile_genotype(g, options);
  ASSERT_TRUE(base.plan.strips.empty());
  options.plan.arena_budget = base.plan.arena_bytes / 2;
  const compile::CompiledModel streamed = compile::compile_genotype(g, options);
  ASSERT_LE(streamed.plan.arena_bytes, base.plan.arena_bytes / 2);
  int streamed_pools = 0;
  for (const StripStream& s : streamed.plan.strips) {
    streamed_pools += streamed.graph.node(s.node_id).op == ir::OpKind::kQAvgPool;
  }
  ASSERT_GT(streamed_pools, 0) << "the halved budget must stream a qavg_pool node";

  DatasetSpec spec;
  spec.height = spec.width = options.macro.input_size;
  Rng rng(903);
  SyntheticDataset data(spec, rng);
  const Tensor input = data.sample_batch(1, rng).images;
  Executor base_exec(base.graph, base.plan, ExecOptions{1, &base.packed});
  const Tensor want = base_exec.run(input);
  for (const int threads : {1, 3}) {
    Executor exec(streamed.graph, streamed.plan, ExecOptions{threads, &streamed.packed});
    const Tensor got = exec.run(input);
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(), want.numel() * sizeof(float)), 0)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace micronas::rt
