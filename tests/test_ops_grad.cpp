// Finite-difference validation of every backward pass. The NTK proxy
// is a function of exact parameter gradients, so these checks are the
// foundation the whole reproduction rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "src/common/rng.hpp"
#include "src/rt/kernels_f32.hpp"
#include "src/tensor/ops.hpp"

namespace micronas {
namespace {

constexpr double kEps = 1e-3;
constexpr double kTol = 2e-2;  // relative; fp32 centered differences

/// Central finite difference of scalar_fn w.r.t. x[i].
double fd_grad(Tensor& x, std::size_t i, const std::function<double()>& scalar_fn) {
  const float orig = x[i];
  x[i] = orig + static_cast<float>(kEps);
  const double up = scalar_fn();
  x[i] = orig - static_cast<float>(kEps);
  const double down = scalar_fn();
  x[i] = orig;
  return (up - down) / (2.0 * kEps);
}

void expect_close(double analytic, double numeric, const std::string& what) {
  const double scale = std::max({std::abs(analytic), std::abs(numeric), 1e-3});
  EXPECT_NEAR(analytic, numeric, kTol * scale) << what;
}

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  rng.fill_normal(t.data(), 0.0F, 1.0F);
  return t;
}

TEST(Conv2dGrad, MatchesFiniteDifference3x3) {
  Rng rng(11);
  Tensor x = random_tensor(Shape{2, 3, 5, 5}, rng);
  Tensor w = random_tensor(Shape{4, 3, 3, 3}, rng);

  auto loss = [&]() {
    const Tensor y = ops::conv2d_forward(x, w, nullptr, 1, 1);
    return static_cast<double>(y.sum());
  };

  const Tensor y = ops::conv2d_forward(x, w, nullptr, 1, 1);
  Tensor gy(y.shape(), 1.0F);
  const auto g = ops::conv2d_backward(x, w, false, 1, 1, gy);

  for (std::size_t i : {std::size_t{0}, std::size_t{7}, x.numel() - 1}) {
    expect_close(g.grad_input[i], fd_grad(x, i, loss), "dx[" + std::to_string(i) + "]");
  }
  for (std::size_t i : {std::size_t{0}, std::size_t{13}, w.numel() - 1}) {
    expect_close(g.grad_weight[i], fd_grad(w, i, loss), "dw[" + std::to_string(i) + "]");
  }
}

TEST(Conv2dGrad, MatchesFiniteDifference1x1) {
  Rng rng(12);
  Tensor x = random_tensor(Shape{1, 4, 3, 3}, rng);
  Tensor w = random_tensor(Shape{2, 4, 1, 1}, rng);

  auto loss = [&]() {
    const Tensor y = ops::conv2d_forward(x, w, nullptr, 1, 0);
    double s = 0.0;  // weighted sum exercises non-uniform grad_output
    for (std::size_t i = 0; i < y.numel(); ++i) s += (static_cast<double>(i % 3) - 1.0) * y[i];
    return s;
  };

  const Tensor y0 = ops::conv2d_forward(x, w, nullptr, 1, 0);
  Tensor gy(y0.shape());
  for (std::size_t i = 0; i < gy.numel(); ++i) gy[i] = static_cast<float>(i % 3) - 1.0F;
  const auto g = ops::conv2d_backward(x, w, false, 1, 0, gy);

  for (std::size_t i = 0; i < x.numel(); i += 7) {
    expect_close(g.grad_input[i], fd_grad(x, i, loss), "dx");
  }
  for (std::size_t i = 0; i < w.numel(); ++i) {
    expect_close(g.grad_weight[i], fd_grad(w, i, loss), "dw");
  }
}

TEST(Conv2dGrad, StridedWithBias) {
  Rng rng(13);
  Tensor x = random_tensor(Shape{1, 2, 6, 6}, rng);
  Tensor w = random_tensor(Shape{3, 2, 3, 3}, rng);
  Tensor b = random_tensor(Shape{3}, rng);

  auto loss = [&]() {
    const Tensor y = ops::conv2d_forward(x, w, &b, 2, 1);
    return static_cast<double>(y.sum());
  };

  const Tensor y = ops::conv2d_forward(x, w, &b, 2, 1);
  EXPECT_EQ(y.shape()[2], 3);  // (6+2-3)/2+1
  Tensor gy(y.shape(), 1.0F);
  const auto g = ops::conv2d_backward(x, w, true, 2, 1, gy);

  for (std::size_t i = 0; i < b.numel(); ++i) {
    expect_close(g.grad_bias[i], fd_grad(b, i, loss), "db");
  }
  for (std::size_t i = 0; i < x.numel(); i += 11) {
    expect_close(g.grad_input[i], fd_grad(x, i, loss), "dx strided");
  }
}

TEST(ReluGrad, MaskSemantics) {
  Tensor x = Tensor::from_vector(Shape{4}, {-1.0F, 0.0F, 0.5F, 2.0F});
  Tensor mask;
  const Tensor y = ops::relu_forward(x, &mask);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 0.0F);
  EXPECT_EQ(y[2], 0.5F);
  EXPECT_EQ(mask[0], 0.0F);
  EXPECT_EQ(mask[2], 1.0F);

  Tensor gy = Tensor::from_vector(Shape{4}, {1, 1, 1, 1});
  const Tensor gx = ops::relu_backward(mask, gy);
  EXPECT_EQ(gx[0], 0.0F);
  EXPECT_EQ(gx[3], 1.0F);
}

TEST(AvgPoolGrad, MatchesFiniteDifference) {
  Rng rng(14);
  Tensor x = random_tensor(Shape{1, 2, 5, 5}, rng);

  auto loss = [&]() {
    const Tensor y = ops::avg_pool_forward(x, 3, 1, 1);
    return static_cast<double>(y.sum());
  };

  const Tensor y = ops::avg_pool_forward(x, 3, 1, 1);
  EXPECT_EQ(y.shape(), x.shape());  // stride-1 pad-1 preserves size
  Tensor gy(y.shape(), 1.0F);
  const Tensor gx = ops::avg_pool_backward(x.shape(), 3, 1, 1, gy);
  for (std::size_t i = 0; i < x.numel(); i += 3) {
    expect_close(gx[i], fd_grad(x, i, loss), "avgpool dx");
  }
}

TEST(GlobalAvgPoolGrad, UniformSpread) {
  Rng rng(15);
  Tensor x = random_tensor(Shape{2, 3, 4, 4}, rng);
  const Tensor y = ops::global_avg_pool_forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 3}));

  Tensor gy(Shape{2, 3});
  gy.at(1, 2) = 16.0F;
  const Tensor gx = ops::global_avg_pool_backward(x.shape(), gy);
  EXPECT_FLOAT_EQ(gx.at(1, 2, 0, 0), 1.0F);  // 16 / (4*4)
  EXPECT_FLOAT_EQ(gx.at(0, 0, 0, 0), 0.0F);
}

TEST(LinearGrad, MatchesFiniteDifference) {
  Rng rng(16);
  Tensor x = random_tensor(Shape{3, 4}, rng);
  Tensor w = random_tensor(Shape{2, 4}, rng);
  Tensor b = random_tensor(Shape{2}, rng);

  auto loss = [&]() {
    const Tensor y = ops::linear_forward(x, w, &b);
    return static_cast<double>(y.sum());
  };

  const Tensor y = ops::linear_forward(x, w, &b);
  Tensor gy(y.shape(), 1.0F);
  const auto g = ops::linear_backward(x, w, true, gy);

  for (std::size_t i = 0; i < x.numel(); ++i) expect_close(g.grad_input[i], fd_grad(x, i, loss), "dx");
  for (std::size_t i = 0; i < w.numel(); ++i) expect_close(g.grad_weight[i], fd_grad(w, i, loss), "dw");
  for (std::size_t i = 0; i < b.numel(); ++i) expect_close(g.grad_bias[i], fd_grad(b, i, loss), "db");
}

TEST(ConvOutSize, FloorSemantics) {
  EXPECT_EQ(ops::conv_out_size(32, 3, 1, 1), 32);
  EXPECT_EQ(ops::conv_out_size(32, 3, 2, 1), 16);
  EXPECT_EQ(ops::conv_out_size(5, 3, 2, 1), 3);
  EXPECT_EQ(ops::conv_out_size(1, 1, 1, 0), 1);
  EXPECT_THROW(ops::conv_out_size(2, 5, 1, 0), std::invalid_argument);
}

TEST(Conv2d, ShapeValidation) {
  Tensor x(Shape{1, 3, 4, 4});
  Tensor w_bad(Shape{2, 4, 3, 3});  // cin mismatch
  EXPECT_THROW(ops::conv2d_forward(x, w_bad, nullptr, 1, 1), std::invalid_argument);
}

TEST(Conv2d, KnownValue) {
  // 1x1 input, 1x1 kernel: convolution degenerates to multiplication.
  Tensor x = Tensor::from_vector(Shape{1, 1, 1, 1}, {3.0F});
  Tensor w = Tensor::from_vector(Shape{1, 1, 1, 1}, {4.0F});
  const Tensor y = ops::conv2d_forward(x, w, nullptr, 1, 0);
  EXPECT_FLOAT_EQ(y[0], 12.0F);
}

TEST(AvgPool, CountIncludePadSemantics) {
  // All ones: interior outputs 1.0, corner sees 4 valid cells / 9.
  Tensor x(Shape{1, 1, 3, 3}, 1.0F);
  const Tensor y = ops::avg_pool_forward(x, 3, 1, 1);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 1.0F);
  EXPECT_NEAR(y.at(0, 0, 0, 0), 4.0F / 9.0F, 1e-6);
}


TEST(Conv2dGemm, MatchesReferenceImplementation) {
  Rng rng(21);
  for (const auto& [cin, cout, hw, k, stride, pad] :
       std::vector<std::array<int, 6>>{{3, 8, 8, 3, 1, 1},
                                       {4, 4, 7, 1, 1, 0},
                                       {2, 6, 9, 3, 2, 1},
                                       {5, 3, 6, 3, 1, 0}}) {
    Tensor x = random_tensor(Shape{2, cin, hw, hw}, rng);
    Tensor w = random_tensor(Shape{cout, cin, k, k}, rng);
    Tensor b = random_tensor(Shape{cout}, rng);
    const Tensor ref = ops::conv2d_forward(x, w, &b, stride, pad);
    std::vector<float> columns;
    const Tensor gemm = ops::conv2d_forward_gemm(x, w, &b, stride, pad, columns);
    ASSERT_EQ(ref.shape(), gemm.shape());
    for (std::size_t i = 0; i < ref.numel(); ++i) {
      ASSERT_NEAR(ref[i], gemm[i], 1e-4 * std::max(1.0F, std::abs(ref[i]))) << "cfg " << cin;
    }
  }
}

TEST(Conv2dGemm, Im2colLowering) {
  // 1x2x2 input, 2x2 kernel, no pad: a single column holding the patch.
  Tensor x = Tensor::from_vector(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  std::vector<float> cols(rt::conv2d_f32_columns(1, 2, 1, 1), -1.0F);
  rt::im2col_f32(x.data().data(), 1, 2, 2, 2, 1, 0, 1, 1, cols.data());
  ASSERT_EQ(cols.size(), 4U);
  EXPECT_EQ(cols[0], 1.0F);
  EXPECT_EQ(cols[1], 2.0F);
  EXPECT_EQ(cols[2], 3.0F);
  EXPECT_EQ(cols[3], 4.0F);
}

TEST(Conv2dGemm, PaddingZeroFilled) {
  Tensor x = Tensor::from_vector(Shape{1, 1, 1, 1}, {5.0F});
  // Poisoned, so a pad cell the lowering failed to write would show.
  std::vector<float> cols(rt::conv2d_f32_columns(1, 3, 1, 1), -1.0F);
  // 3x3 kernel, pad 1: out 1x1; only the center tap sees the pixel.
  rt::im2col_f32(x.data().data(), 1, 1, 1, 3, 1, 1, 1, 1, cols.data());
  ASSERT_EQ(cols.size(), 9U);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(cols[i], i == 4 ? 5.0F : 0.0F);
  }
}

}  // namespace
}  // namespace micronas
