// Differential tests of the f32 window kernels on generated geometries.
//
// rt::conv2d_f32 is an im2col + GEMM. Every output must still equal a
// direct per-output float loop that starts from the bias and adds its
// in-bounds taps in (ic, ky, kx) order, value for value: calibration
// ranges, constant folding and the proxies' scores are all pinned by
// goldens to those sums. The double-accumulating ops::conv2d_forward
// bounds the rounding from the other side. avg_pool_f32 sweeps rows but
// must stay memcmp-equal to its per-output loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/rt/kernels_f32.hpp"
#include "src/tensor/ops.hpp"

namespace micronas {
namespace {

/// The per-output f32 convolution loop: each output starts from its
/// bias and adds input * weight for every in-bounds tap in (ic, ky, kx)
/// order. The bit-exact oracle for rt::conv2d_f32.
void per_output_conv2d(const float* input, const float* weight, const float* bias, float* output,
                       int batch, int cin, int h, int w, int cout, int kernel, int stride,
                       int pad, int out_h, int out_w, bool fused_relu) {
  const int npix = out_h * out_w;
  for (int n = 0; n < batch; ++n) {
    const float* in = input + static_cast<std::ptrdiff_t>(n) * cin * h * w;
    float* out = output + static_cast<std::ptrdiff_t>(n) * cout * npix;
    for (int c = 0; c < cout; ++c) {
      const float* wbase = weight + static_cast<std::ptrdiff_t>(c) * cin * kernel * kernel;
      float* oplane = out + static_cast<std::ptrdiff_t>(c) * npix;
      for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) {
          float acc = bias ? bias[c] : 0.0F;
          for (int ic = 0; ic < cin; ++ic) {
            const float* plane = in + static_cast<std::ptrdiff_t>(ic) * h * w;
            const float* wk = wbase + static_cast<std::ptrdiff_t>(ic) * kernel * kernel;
            for (int ky = 0; ky < kernel; ++ky) {
              const int iy = oy * stride - pad + ky;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < kernel; ++kx) {
                const int ix = ox * stride - pad + kx;
                if (ix < 0 || ix >= w) continue;
                acc += plane[static_cast<std::ptrdiff_t>(iy) * w + ix] *
                       wk[static_cast<std::ptrdiff_t>(ky) * kernel + kx];
              }
            }
          }
          if (fused_relu && acc < 0.0F) acc = 0.0F;
          oplane[static_cast<std::ptrdiff_t>(oy) * out_w + ox] = acc;
        }
      }
    }
  }
}

/// The per-output f32 average pool: 0, plus every in-bounds tap in
/// (ky, kx) order, times 1 / K^2. The memcmp oracle for avg_pool_f32.
void per_output_avg_pool(const float* input, float* output, int batch, int channels, int h,
                         int w, int kernel, int stride, int pad, int out_h, int out_w) {
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float* plane = input + (static_cast<std::ptrdiff_t>(n) * channels + c) * h * w;
      float* oplane = output + (static_cast<std::ptrdiff_t>(n) * channels + c) * out_h * out_w;
      for (int oy = 0; oy < out_h; ++oy) {
        for (int ox = 0; ox < out_w; ++ox) {
          float acc = 0.0F;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < kernel; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              acc += plane[static_cast<std::ptrdiff_t>(iy) * w + ix];
            }
          }
          oplane[static_cast<std::ptrdiff_t>(oy) * out_w + ox] = acc * inv;
        }
      }
    }
  }
}

/// One generated window geometry plus its data.
struct Case {
  int batch = 1, cin = 1, cout = 1, h = 1, w = 1, kernel = 1, stride = 1, pad = 0;
  bool bias = false, relu = false;
  int out_h = 1, out_w = 1;
  std::vector<float> input, weight, bias_values;

  std::string describe() const {
    std::ostringstream s;
    s << "n" << batch << " cin" << cin << " cout" << cout << " " << h << "x" << w << " k"
      << kernel << " s" << stride << " p" << pad << (bias ? " bias" : "") << (relu ? " relu" : "");
    return s.str();
  }
  std::size_t output_size() const {
    return static_cast<std::size_t>(batch) * cout * out_h * out_w;
  }
  const float* bias_ptr() const { return bias ? bias_values.data() : nullptr; }
};

/// Batch 1-2, cin and cout 1-9, h != w each 1-13, kernel 1-5, stride
/// 1-2, pad 0-2, bias and fused ReLU each on or off; redrawn until the
/// window fits the padded input.
Case generate(std::uint64_t seed) {
  Rng rng(seed);
  Case c;
  do {
    c.batch = rng.uniform_int(1, 2);
    c.cin = rng.uniform_int(1, 9);
    c.cout = rng.uniform_int(1, 9);
    c.h = rng.uniform_int(1, 13);
    do {
      c.w = rng.uniform_int(1, 13);
    } while (c.w == c.h);
    c.kernel = rng.uniform_int(1, 5);
    c.stride = rng.uniform_int(1, 2);
    c.pad = rng.uniform_int(0, 2);
  } while (c.h + 2 * c.pad < c.kernel || c.w + 2 * c.pad < c.kernel);
  c.bias = rng.bernoulli(0.5);
  c.relu = rng.bernoulli(0.5);
  c.out_h = ops::conv_out_size(c.h, c.kernel, c.stride, c.pad);
  c.out_w = ops::conv_out_size(c.w, c.kernel, c.stride, c.pad);
  c.input.resize(static_cast<std::size_t>(c.batch) * c.cin * c.h * c.w);
  c.weight.resize(static_cast<std::size_t>(c.cout) * c.cin * c.kernel * c.kernel);
  c.bias_values.resize(static_cast<std::size_t>(c.cout));
  rng.fill_uniform(c.input, -1.0F, 1.0F);
  rng.fill_uniform(c.weight, -1.0F, 1.0F);
  rng.fill_uniform(c.bias_values, -1.0F, 1.0F);
  return c;
}

constexpr std::uint64_t kCases = 400;

std::vector<float> run_conv(const Case& c, bool relu, ThreadPool* pool) {
  std::vector<float> out(c.output_size());
  // Poisoned scratch: the im2col must write every cell it later reads.
  std::vector<float> columns(rt::conv2d_f32_columns(c.cin, c.kernel, c.out_h, c.out_w), NAN);
  rt::conv2d_f32(c.input.data(), c.weight.data(), c.bias_ptr(), out.data(), c.batch, c.cin, c.h,
                 c.w, c.cout, c.kernel, c.stride, c.pad, c.out_h, c.out_w, relu, columns.data(),
                 pool);
  return out;
}

std::vector<float> run_oracle(const Case& c) {
  std::vector<float> out(c.output_size());
  per_output_conv2d(c.input.data(), c.weight.data(), c.bias_ptr(), out.data(), c.batch, c.cin,
                    c.h, c.w, c.cout, c.kernel, c.stride, c.pad, c.out_h, c.out_w, c.relu);
  return out;
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Checks `got` value for value against the per-output loop and within
/// 1e-4 relative of the double-accumulating ops::conv2d_forward.
void expect_matches_oracles(const Case& c, const std::vector<float>& got) {
  const std::vector<float> oracle = run_oracle(c);
  ASSERT_EQ(got.size(), oracle.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == oracle[i])
        << c.describe() << " at " << i << ": " << got[i] << " vs per-output " << oracle[i];
  }

  Tensor x(Shape{c.batch, c.cin, c.h, c.w});
  Tensor w(Shape{c.cout, c.cin, c.kernel, c.kernel});
  Tensor b(Shape{c.cout});
  std::copy(c.input.begin(), c.input.end(), x.data().begin());
  std::copy(c.weight.begin(), c.weight.end(), w.data().begin());
  std::copy(c.bias_values.begin(), c.bias_values.end(), b.data().begin());
  const Tensor ref = ops::conv2d_forward(x, w, c.bias ? &b : nullptr, c.stride, c.pad);
  ASSERT_EQ(ref.numel(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float want = c.relu ? std::max(ref[i], 0.0F) : ref[i];
    ASSERT_NEAR(got[i], want, 1e-4 * std::max(1.0F, std::abs(want)))
        << c.describe() << " at " << i;
  }
}

TEST(KernelsF32, ConvMatchesPerOutputLoopAndDoubleOracle) {
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const Case c = generate(seed);
    expect_matches_oracles(c, run_conv(c, c.relu, nullptr));
  }
}

TEST(KernelsF32, ConvPoolSplitIsBitIdentical) {
  ThreadPool pool(3);
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const Case c = generate(seed);
    EXPECT_TRUE(bytes_equal(run_conv(c, c.relu, nullptr), run_conv(c, c.relu, &pool)))
        << c.describe();
  }
}

TEST(KernelsF32, TensorWrapperIsTheSameKernel) {
  std::vector<float> columns;  // one buffer across every geometry, as a layer reuses its own
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const Case c = generate(seed);
    Tensor x(Shape{c.batch, c.cin, c.h, c.w});
    Tensor w(Shape{c.cout, c.cin, c.kernel, c.kernel});
    Tensor b(Shape{c.cout});
    std::copy(c.input.begin(), c.input.end(), x.data().begin());
    std::copy(c.weight.begin(), c.weight.end(), w.data().begin());
    std::copy(c.bias_values.begin(), c.bias_values.end(), b.data().begin());
    const Tensor y =
        ops::conv2d_forward_gemm(x, w, c.bias ? &b : nullptr, c.stride, c.pad, columns);
    const std::vector<float> wrapped(y.data().begin(), y.data().end());
    EXPECT_TRUE(bytes_equal(wrapped, run_conv(c, /*relu=*/false, nullptr))) << c.describe();
  }
}

TEST(KernelsF32, ZeroWeightsAndZeroPlanes) {
  // Exact-zero weights are skipped and pad taps add w * 0: both may
  // only flip the sign of an exact-zero sum, which == ignores.
  Case c = generate(7);
  c.batch = 2;
  c.cin = 3;
  c.cout = 4;
  c.h = 6;
  c.w = 5;
  c.kernel = 3;
  c.stride = 1;
  c.pad = 2;
  c.bias = false;
  c.relu = false;
  c.out_h = ops::conv_out_size(c.h, c.kernel, c.stride, c.pad);
  c.out_w = ops::conv_out_size(c.w, c.kernel, c.stride, c.pad);
  Rng rng(99);
  c.input.resize(static_cast<std::size_t>(c.batch) * c.cin * c.h * c.w);
  c.weight.resize(static_cast<std::size_t>(c.cout) * c.cin * 9);
  c.bias_values.assign(static_cast<std::size_t>(c.cout), 0.0F);
  rng.fill_uniform(c.input, -1.0F, 1.0F);
  rng.fill_uniform(c.weight, -1.0F, 1.0F);
  // Input channel 1 of sample 0 is an all-zero plane.
  std::fill_n(c.input.begin() + c.h * c.w, c.h * c.w, 0.0F);
  // Every third weight is exactly zero, and output channel 2 is all zeros.
  for (std::size_t i = 0; i < c.weight.size(); i += 3) c.weight[i] = 0.0F;
  std::fill_n(c.weight.begin() + 2 * c.cin * 9, c.cin * 9, 0.0F);
  for (const bool bias : {false, true}) {
    c.bias = bias;
    const std::vector<float> got = run_conv(c, false, nullptr);
    expect_matches_oracles(c, got);
    // The all-zero output channel is its bias in every pixel.
    const std::size_t npix = static_cast<std::size_t>(c.out_h) * c.out_w;
    for (std::size_t j = 0; j < npix; ++j) {
      EXPECT_EQ(got[2 * npix + j], bias ? c.bias_values[2] : 0.0F);
    }
  }
}

TEST(KernelsF32, AvgPoolMatchesPerOutputLoop) {
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const Case c = generate(seed);
    const std::size_t n = static_cast<std::size_t>(c.batch) * c.cin * c.out_h * c.out_w;
    std::vector<float> want(n), got(n, NAN);
    per_output_avg_pool(c.input.data(), want.data(), c.batch, c.cin, c.h, c.w, c.kernel,
                        c.stride, c.pad, c.out_h, c.out_w);
    rt::avg_pool_f32(c.input.data(), got.data(), c.batch, c.cin, c.h, c.w, c.kernel, c.stride,
                     c.pad, c.out_h, c.out_w);
    EXPECT_TRUE(bytes_equal(got, want)) << c.describe();
  }
}

}  // namespace
}  // namespace micronas
