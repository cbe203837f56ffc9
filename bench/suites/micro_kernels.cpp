// Microkernels for the numerical substrates, including the
// proxy-cost-vs-batch-size curve that motivates the paper's batch = 32
// choice (§II.A.1: "Increasing beyond 32 to 128 ... significantly
// escalates search costs").
#include <cstdint>
#include <random>
#include <vector>

#include "bench/harness.hpp"
#include "src/data/synthetic.hpp"
#include "src/hw/latency_estimator.hpp"
#include "src/hw/quant.hpp"
#include "src/mcusim/profiler.hpp"
#include "src/proxies/linear_regions.hpp"
#include "src/proxies/ntk.hpp"
#include "src/rt/kernels_f32.hpp"
#include "src/rt/kernels_int8.hpp"
#include "src/rt/kernels_int8_gemm.hpp"
#include "src/tensor/ops.hpp"

namespace micronas {
namespace {

BENCH_CASE_ARGS(micro_kernels, conv2d_forward, {4, 8, 16}) {
  const int c = static_cast<int>(state.arg());
  Rng rng(1);
  Tensor x(Shape{1, c, 16, 16});
  Tensor w(Shape{c, c, 3, 3});
  rng.fill_normal(x.data());
  rng.fill_normal(w.data());
  // Inner batch keeps each sample >~100 us so timer/scheduler noise
  // cannot push a 12 us kernel past the CI regression threshold.
  constexpr int kInner = 8;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      bench::do_not_optimize(ops::conv2d_forward(x, w, nullptr, 1, 1));
    }
  }
  state.set_items_processed(9.0 * c * c * 256 * kInner);  // MACs per sample
}

BENCH_CASE_ARGS(micro_kernels, conv2d_forward_gemm, {4, 8, 16}) {
  const int c = static_cast<int>(state.arg());
  Rng rng(1);
  Tensor x(Shape{1, c, 16, 16});
  Tensor w(Shape{c, c, 3, 3});
  rng.fill_normal(x.data());
  rng.fill_normal(w.data());
  std::vector<float> columns;  // reused across calls, as Conv2dLayer does
  constexpr int kInner = 8;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      bench::do_not_optimize(ops::conv2d_forward_gemm(x, w, nullptr, 1, 1, columns));
    }
  }
  state.set_items_processed(9.0 * c * c * 256 * kInner);
}

/// The f32 conv on the deploy stages calibration runs: 3x3, stride 1,
/// pad 1, at 16 ch x 32 px, 32 x 16 and 64 x 8. Items are MACs.
BENCH_CASE_ARGS(micro_kernels, conv2d_f32, {16, 32, 64}) {
  const int c = static_cast<int>(state.arg());
  const int px = 512 / c;
  Rng rng(8);
  std::vector<float> x(static_cast<std::size_t>(c) * px * px);
  std::vector<float> w(static_cast<std::size_t>(c) * c * 9);
  std::vector<float> bias(static_cast<std::size_t>(c));
  rng.fill_normal(x);
  rng.fill_normal(w);
  rng.fill_normal(bias);
  std::vector<float> y(x.size());
  std::vector<float> columns(rt::conv2d_f32_columns(c, 3, px, px));
  constexpr int kInner = 4;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      rt::conv2d_f32(x.data(), w.data(), bias.data(), y.data(), 1, c, px, px, c, 3, 1, 1, px, px,
                     /*fused_relu=*/true, columns.data(), nullptr);
      bench::do_not_optimize(y.data());
    }
  }
  state.set_items_processed(9.0 * c * c * px * px * kInner);
}

BENCH_CASE_ARGS(micro_kernels, conv2d_backward, {4, 8}) {
  const int c = static_cast<int>(state.arg());
  Rng rng(2);
  Tensor x(Shape{1, c, 16, 16});
  Tensor w(Shape{c, c, 3, 3});
  rng.fill_normal(x.data());
  rng.fill_normal(w.data());
  const Tensor y = ops::conv2d_forward(x, w, nullptr, 1, 1);
  Tensor gy(y.shape(), 1.0F);
  constexpr int kInner = 4;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      bench::do_not_optimize(ops::conv2d_backward(x, w, false, 1, 1, gy));
    }
  }
  state.set_items_processed(kInner);
}

/// The paper's cost argument: NTK proxy cost vs batch size.
BENCH_CASE_ARGS(micro_kernels, ntk_condition_vs_batch, {8, 16, 32, 64}) {
  const int batch = static_cast<int>(state.arg());
  CellNetConfig cfg;
  cfg.input_size = 8;
  cfg.base_channels = 4;
  Rng data_rng(3);
  Tensor probe(Shape{batch, 3, 8, 8});
  data_rng.fill_normal(probe.data());
  const nb201::Genotype g = nb201::Genotype::from_index(14000);
  Rng rng(4);
  for (auto _ : state) {
    bench::do_not_optimize(ntk_condition(g, cfg, probe, rng).condition_number);
  }
  state.set_items_processed(batch);
}

BENCH_CASE_ARGS(micro_kernels, linear_region_count, {8, 16}) {
  const int grid = static_cast<int>(state.arg());
  CellNetConfig cfg;
  cfg.input_size = 8;
  cfg.base_channels = 4;
  LinearRegionOptions opts;
  opts.grid = grid;
  const nb201::Genotype g = nb201::Genotype::from_index(14000);
  Rng rng(5);
  for (auto _ : state) {
    bench::do_not_optimize(count_linear_regions(g, cfg, rng, opts).region_count);
  }
}

BENCH_CASE_ARGS(micro_kernels, sym_eig, {16, 32, 64}) {
  const int n = static_cast<int>(state.arg());
  Rng rng(6);
  std::vector<std::vector<float>> rows(static_cast<std::size_t>(n));
  for (auto& r : rows) {
    r.resize(static_cast<std::size_t>(n) * 4);
    rng.fill_normal(r);
  }
  const Matrix gram = gram_matrix(rows);
  constexpr int kInner = 4;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      bench::do_not_optimize(sym_eig(gram).eigenvalues);
    }
  }
  state.set_items_processed(kInner);
}

BENCH_CASE(micro_kernels, latency_estimate) {
  Rng rng(7);
  ProfilerOptions opts;
  opts.deterministic = true;
  LatencyTable table = build_latency_table(McuSpec{}, rng, MacroNetConfig{}, opts);
  const LatencyEstimator est(std::move(table),
                             profile_constant_overhead_ms(McuSpec{}, rng, opts));
  const MacroModel m = build_macro_model(nb201::Genotype::from_index(9999));
  constexpr int kInner = 256;  // sub-microsecond op; batch per sample
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) bench::do_not_optimize(est.estimate_ms(m));
  }
  state.set_items_processed(kInner);
}

BENCH_CASE(micro_kernels, mcu_simulate) {
  const MacroModel m = build_macro_model(nb201::Genotype::from_index(9999));
  constexpr int kInner = 32;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) bench::do_not_optimize(simulate_network(m).latency_ms);
  }
  state.set_items_processed(kInner);
}

BENCH_CASE(micro_kernels, surrogate_accuracy) {
  const nb201::SurrogateOracle oracle;
  constexpr int kInner = 512;
  int idx = 0;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      bench::do_not_optimize(oracle.accuracy(nb201::Genotype::from_index(idx % 15625),
                                             nb201::Dataset::kCifar10));
      ++idx;
    }
  }
  state.set_items_processed(kInner);
}

BENCH_CASE(micro_kernels, macro_model_build) {
  constexpr int kInner = 64;
  int idx = 0;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      bench::do_not_optimize(
          build_macro_model(nb201::Genotype::from_index(idx % 15625)).layers.size());
      ++idx;
    }
  }
  state.set_items_processed(kInner);
}

BENCH_CASE(micro_kernels, synthetic_batch) {
  Rng rng(8);
  SyntheticDataset ds(dataset_spec(nb201::Dataset::kCifar10), rng);
  for (auto _ : state) {
    bench::do_not_optimize(ds.sample_batch_resized(32, 16, rng).images.numel());
  }
  state.set_bytes_processed(32.0 * 3 * 16 * 16 * sizeof(float));
}

// ------------------------------------------------- int8 deployment path
//
// The packed/blocked int8 kernels behind qconv2d_auto / qlinear_auto,
// on the channel/plane shapes of the deployed CIFAR stages (c channels
// on a 256/c-pixel-wide plane). items = MACs (the suite convention, so
// items_per_second reads as MAC/s), bytes = the real per-call traffic
// (activations in/out + packed weights), so bytes_per_second is GB/s.

/// Deterministic int8 conv operands shared by the int8 micro cases.
struct Int8ConvBench {
  int cin, hw, cout, kernel, stride, pad, out_hw;
  std::vector<std::int8_t> input, weight, output, scratch;
  std::vector<std::int32_t> bias, weight_sum, mantissa;
  std::vector<int> shift;
  rt::PackedWeights packed;

  Int8ConvBench(int cin_, int hw_, int cout_, int kernel_, int stride_, int pad_)
      : cin(cin_), hw(hw_), cout(cout_), kernel(kernel_), stride(stride_), pad(pad_) {
    out_hw = (hw + 2 * pad - kernel) / stride + 1;
    const int patch = cin * kernel * kernel;
    std::mt19937 rng(1234);
    input.resize(static_cast<std::size_t>(cin) * hw * hw);
    weight.resize(static_cast<std::size_t>(cout) * patch);
    for (auto& v : input) v = static_cast<std::int8_t>(rng());
    for (auto& v : weight) v = static_cast<std::int8_t>(rng());
    bias.resize(cout);
    weight_sum.assign(cout, 0);
    mantissa.resize(cout);
    shift.resize(cout);
    for (int c = 0; c < cout; ++c) {
      bias[c] = static_cast<std::int32_t>(rng() % 512) - 256;
      for (int k = 0; k < patch; ++k) weight_sum[c] += weight[c * patch + k];
      quantize_multiplier(0.0037, &mantissa[c], &shift[c]);
    }
    output.resize(static_cast<std::size_t>(cout) * out_hw * out_hw);
    scratch.resize(std::max<std::size_t>(
        static_cast<std::size_t>(out_hw) * out_hw * patch,
        rt::qconv_gemm_scratch_bytes(cin, hw, hw, kernel, pad, out_hw, out_hw)));
    packed = rt::pack_weights_dot16(weight.data(), cout, patch);
  }

  rt::QConv2dArgs args() {
    rt::QConv2dArgs a{};
    a.batch = 1;
    a.cin = cin;
    a.h = a.w = hw;
    a.cout = cout;
    a.kernel = kernel;
    a.stride = stride;
    a.pad = pad;
    a.out_h = a.out_w = out_hw;
    a.in_zp = -3;
    a.out_zp = 5;
    a.fused_relu = true;
    a.input = input.data();
    a.weight = weight.data();
    a.bias = bias.data();
    a.weight_sum = weight_sum.data();
    a.mantissa = mantissa.data();
    a.shift = shift.data();
    a.columns = scratch.data();
    a.output = output.data();
    return a;
  }

  double macs() const {
    return 1.0 * cout * out_hw * out_hw * cin * kernel * kernel;
  }
  double traffic_bytes() const {
    return static_cast<double>(input.size()) + static_cast<double>(output.size()) +
           static_cast<double>(packed.data.size() * sizeof(std::int16_t));
  }
};

/// 3x3 im2col-GEMM conv on the model's (c, 256/c-pixel) stages.
BENCH_CASE_ARGS(micro_kernels, qconv2d_int8_gemm, {16, 32, 64}) {
  const int c = static_cast<int>(state.arg());
  Int8ConvBench b(c, 256 / c, c, 3, 1, 1);
  const rt::QConv2dArgs a = b.args();
  constexpr int kInner = 8;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      rt::qconv2d_auto(a, &b.packed, nullptr);
      bench::do_not_optimize(b.output.data());
    }
  }
  state.set_items_processed(b.macs() * kInner);
  state.set_bytes_processed(b.traffic_bytes() * kInner);
}

/// 1x1 direct conv (no im2col) on a 256-pixel plane.
BENCH_CASE_ARGS(micro_kernels, qconv2d_int8_direct, {16, 32}) {
  const int c = static_cast<int>(state.arg());
  Int8ConvBench b(c, 256 / c, c, 1, 1, 0);
  const rt::QConv2dArgs a = b.args();
  constexpr int kInner = 16;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      rt::qconv2d_auto(a, &b.packed, nullptr);
      bench::do_not_optimize(b.output.data());
    }
  }
  state.set_items_processed(b.macs() * kInner);
  state.set_bytes_processed(b.traffic_bytes() * kInner);
}

/// Scalar reference on the first 3x3 stage: the floor the blocked
/// kernels are measured against (and the only path portable builds
/// run).
BENCH_CASE(micro_kernels, qconv2d_int8_scalar) {
  Int8ConvBench b(16, 16, 16, 3, 1, 1);
  const rt::QConv2dArgs a = b.args();
  constexpr int kInner = 4;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      rt::qconv2d(a, nullptr);
      bench::do_not_optimize(b.output.data());
    }
  }
  state.set_items_processed(b.macs() * kInner);
  state.set_bytes_processed(b.traffic_bytes() * kInner);
}

/// 3x3 / stride 1 / pad 1 int8 average pool (the NB201 avg_pool_3x3
/// edge) on the deployed stages: c channels on a 512/c-pixel-wide
/// plane (16 x 32, 32 x 16, 64 x 8). items = window taps (outputs *
/// k^2), bytes = input + output.
BENCH_CASE_ARGS(micro_kernels, qavg_pool, {16, 32, 64}) {
  const int c = static_cast<int>(state.arg());
  const int hw = 512 / c;
  std::mt19937 rng(4321);
  std::vector<std::int8_t> input(static_cast<std::size_t>(c) * hw * hw), output(input.size());
  for (auto& v : input) v = static_cast<std::int8_t>(rng());
  std::vector<std::int32_t> scratch(rt::qavg_pool_scratch(hw, hw, hw));
  std::int32_t mantissa = 0;
  int shift = 0;
  quantize_multiplier(1.0 / 9.0, &mantissa, &shift);
  constexpr int kInner = 8;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      rt::qavg_pool(input.data(), output.data(), 1, c, hw, hw, 3, 1, 1, hw, hw, -5, mantissa,
                    shift, 3, scratch.data());
      bench::do_not_optimize(output.data());
    }
  }
  state.set_items_processed(9.0 * static_cast<double>(input.size()) * kInner);
  state.set_bytes_processed(2.0 * static_cast<double>(input.size()) * kInner);
}

/// Classifier-head GEMM: 64 features -> 10 logits.
BENCH_CASE(micro_kernels, qlinear_int8_gemm) {
  const int in_f = 64, out_f = 10;
  std::mt19937 rng(77);
  std::vector<std::int8_t> input(in_f), weight(static_cast<std::size_t>(out_f) * in_f),
      output(out_f);
  for (auto& v : input) v = static_cast<std::int8_t>(rng());
  for (auto& v : weight) v = static_cast<std::int8_t>(rng());
  std::vector<std::int32_t> bias(out_f), wsum(out_f, 0), mant(out_f);
  std::vector<int> shift(out_f);
  for (int o = 0; o < out_f; ++o) {
    bias[o] = static_cast<std::int32_t>(rng() % 128) - 64;
    for (int k = 0; k < in_f; ++k) wsum[o] += weight[o * in_f + k];
    quantize_multiplier(0.0021, &mant[o], &shift[o]);
  }
  const rt::PackedWeights packed = rt::pack_weights_dot16(weight.data(), out_f, in_f);
  rt::QLinearArgs a{};
  a.batch = 1;
  a.in_features = in_f;
  a.out_features = out_f;
  a.in_zp = 2;
  a.out_zp = -7;
  a.input = input.data();
  a.weight = weight.data();
  a.bias = bias.data();
  a.weight_sum = wsum.data();
  a.mantissa = mant.data();
  a.shift = shift.data();
  a.output = output.data();
  constexpr int kInner = 256;
  for (auto _ : state) {
    for (int i = 0; i < kInner; ++i) {
      rt::qlinear_auto(a, &packed, nullptr);
      bench::do_not_optimize(output.data());
    }
  }
  state.set_items_processed(1.0 * out_f * in_f * kInner);
  state.set_bytes_processed(
      (static_cast<double>(input.size()) + output.size() + packed.data.size() * 2.0) * kInner);
}

}  // namespace
}  // namespace micronas
