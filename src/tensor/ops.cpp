#include "src/tensor/ops.hpp"

#include <stdexcept>

#include "src/rt/kernels_f32.hpp"

namespace micronas::ops {

int conv_out_size(int in, int kernel, int stride, int pad) {
  const int eff = in + 2 * pad - kernel;
  if (eff < 0) throw std::invalid_argument("conv_out_size: kernel larger than padded input");
  return eff / stride + 1;
}

Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor* bias,
                      int stride, int pad) {
  if (input.shape().rank() != 4 || weight.shape().rank() != 4) {
    throw std::invalid_argument("conv2d: rank-4 input and weight required");
  }
  const int N = input.shape()[0], Cin = input.shape()[1], H = input.shape()[2], W = input.shape()[3];
  const int Cout = weight.shape()[0], K = weight.shape()[2];
  if (weight.shape()[1] != Cin || weight.shape()[3] != K) {
    throw std::invalid_argument("conv2d: weight shape inconsistent with input channels");
  }
  const int Ho = conv_out_size(H, K, stride, pad);
  const int Wo = conv_out_size(W, K, stride, pad);
  Tensor out(Shape{N, Cout, Ho, Wo});

  const auto x = input.data();
  const auto w = weight.data();
  auto y = out.data();

  for (int n = 0; n < N; ++n) {
    for (int co = 0; co < Cout; ++co) {
      const float b = bias ? (*bias)[static_cast<std::size_t>(co)] : 0.0F;
      for (int ho = 0; ho < Ho; ++ho) {
        for (int wo = 0; wo < Wo; ++wo) {
          double acc = b;
          const int h0 = ho * stride - pad;
          const int w0 = wo * stride - pad;
          for (int ci = 0; ci < Cin; ++ci) {
            for (int kh = 0; kh < K; ++kh) {
              const int hi = h0 + kh;
              if (hi < 0 || hi >= H) continue;
              const std::size_t xrow = ((static_cast<std::size_t>(n) * Cin + ci) * H + hi) * W;
              const std::size_t wrow = ((static_cast<std::size_t>(co) * Cin + ci) * K + kh) * K;
              for (int kw = 0; kw < K; ++kw) {
                const int wi = w0 + kw;
                if (wi < 0 || wi >= W) continue;
                acc += static_cast<double>(x[xrow + wi]) * w[wrow + kw];
              }
            }
          }
          y[((static_cast<std::size_t>(n) * Cout + co) * Ho + ho) * Wo + wo] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

Tensor conv2d_forward_gemm(const Tensor& input, const Tensor& weight, const Tensor* bias,
                           int stride, int pad, std::vector<float>& columns) {
  if (input.shape().rank() != 4 || weight.shape().rank() != 4) {
    throw std::invalid_argument("conv2d_gemm: rank-4 input and weight required");
  }
  const int N = input.shape()[0], Cin = input.shape()[1], H = input.shape()[2], W = input.shape()[3];
  const int Cout = weight.shape()[0], K = weight.shape()[2];
  if (weight.shape()[1] != Cin || weight.shape()[3] != K) {
    throw std::invalid_argument("conv2d_gemm: weight shape inconsistent with input channels");
  }
  const int Ho = conv_out_size(H, K, stride, pad);
  const int Wo = conv_out_size(W, K, stride, pad);
  Tensor out(Shape{N, Cout, Ho, Wo});
  const std::size_t need = rt::conv2d_f32_columns(Cin, K, Ho, Wo);
  if (columns.size() < need) columns.resize(need);
  rt::conv2d_f32(input.data().data(), weight.data().data(), bias ? bias->data().data() : nullptr,
                 out.data().data(), N, Cin, H, W, Cout, K, stride, pad, Ho, Wo,
                 /*fused_relu=*/false, columns.data(), nullptr);
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight, bool has_bias,
                            int stride, int pad, const Tensor& grad_output) {
  const int N = input.shape()[0], Cin = input.shape()[1], H = input.shape()[2], W = input.shape()[3];
  const int Cout = weight.shape()[0], K = weight.shape()[2];
  const int Ho = grad_output.shape()[2], Wo = grad_output.shape()[3];
  if (grad_output.shape()[0] != N || grad_output.shape()[1] != Cout) {
    throw std::invalid_argument("conv2d_backward: grad_output shape mismatch");
  }

  Conv2dGrads g;
  g.grad_input = Tensor(input.shape());
  g.grad_weight = Tensor(weight.shape());
  if (has_bias) g.grad_bias = Tensor(Shape{Cout});

  const auto x = input.data();
  const auto w = weight.data();
  const auto go = grad_output.data();
  auto gx = g.grad_input.data();
  auto gw = g.grad_weight.data();

  for (int n = 0; n < N; ++n) {
    for (int co = 0; co < Cout; ++co) {
      for (int ho = 0; ho < Ho; ++ho) {
        for (int wo = 0; wo < Wo; ++wo) {
          const float gy = go[((static_cast<std::size_t>(n) * Cout + co) * Ho + ho) * Wo + wo];
          if (gy == 0.0F) continue;
          if (has_bias) g.grad_bias[static_cast<std::size_t>(co)] += gy;
          const int h0 = ho * stride - pad;
          const int w0 = wo * stride - pad;
          for (int ci = 0; ci < Cin; ++ci) {
            for (int kh = 0; kh < K; ++kh) {
              const int hi = h0 + kh;
              if (hi < 0 || hi >= H) continue;
              const std::size_t xrow = ((static_cast<std::size_t>(n) * Cin + ci) * H + hi) * W;
              const std::size_t wrow = ((static_cast<std::size_t>(co) * Cin + ci) * K + kh) * K;
              for (int kw = 0; kw < K; ++kw) {
                const int wi = w0 + kw;
                if (wi < 0 || wi >= W) continue;
                gx[xrow + wi] += gy * w[wrow + kw];
                gw[wrow + kw] += gy * x[xrow + wi];
              }
            }
          }
        }
      }
    }
  }
  return g;
}

Tensor relu_forward(const Tensor& input, Tensor* mask_out) {
  Tensor out(input.shape());
  Tensor mask(input.shape());
  const auto x = input.data();
  auto y = out.data();
  auto m = mask.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool on = x[i] > 0.0F;
    y[i] = on ? x[i] : 0.0F;
    m[i] = on ? 1.0F : 0.0F;
  }
  if (mask_out) *mask_out = std::move(mask);
  return out;
}

Tensor relu_backward(const Tensor& mask, const Tensor& grad_output) {
  require_same_shape(mask, grad_output, "relu_backward");
  Tensor gx(grad_output.shape());
  const auto m = mask.data();
  const auto go = grad_output.data();
  auto g = gx.data();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = m[i] * go[i];
  return gx;
}

Tensor avg_pool_forward(const Tensor& input, int kernel, int stride, int pad) {
  const int N = input.shape()[0], C = input.shape()[1], H = input.shape()[2], W = input.shape()[3];
  const int Ho = conv_out_size(H, kernel, stride, pad);
  const int Wo = conv_out_size(W, kernel, stride, pad);
  Tensor out(Shape{N, C, Ho, Wo});
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int n = 0; n < N; ++n) {
    for (int c = 0; c < C; ++c) {
      for (int ho = 0; ho < Ho; ++ho) {
        for (int wo = 0; wo < Wo; ++wo) {
          double acc = 0.0;
          for (int kh = 0; kh < kernel; ++kh) {
            const int hi = ho * stride - pad + kh;
            if (hi < 0 || hi >= H) continue;
            for (int kw = 0; kw < kernel; ++kw) {
              const int wi = wo * stride - pad + kw;
              if (wi < 0 || wi >= W) continue;
              acc += input.at(n, c, hi, wi);
            }
          }
          out.at(n, c, ho, wo) = static_cast<float>(acc) * inv;
        }
      }
    }
  }
  return out;
}

Tensor avg_pool_backward(const Shape& input_shape, int kernel, int stride, int pad,
                         const Tensor& grad_output) {
  const int N = input_shape[0], C = input_shape[1], H = input_shape[2], W = input_shape[3];
  const int Ho = grad_output.shape()[2], Wo = grad_output.shape()[3];
  Tensor gx(input_shape);
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int n = 0; n < N; ++n) {
    for (int c = 0; c < C; ++c) {
      for (int ho = 0; ho < Ho; ++ho) {
        for (int wo = 0; wo < Wo; ++wo) {
          const float gy = grad_output.at(n, c, ho, wo) * inv;
          if (gy == 0.0F) continue;
          for (int kh = 0; kh < kernel; ++kh) {
            const int hi = ho * stride - pad + kh;
            if (hi < 0 || hi >= H) continue;
            for (int kw = 0; kw < kernel; ++kw) {
              const int wi = wo * stride - pad + kw;
              if (wi < 0 || wi >= W) continue;
              gx.at(n, c, hi, wi) += gy;
            }
          }
        }
      }
    }
  }
  return gx;
}

Tensor global_avg_pool_forward(const Tensor& input) {
  const int N = input.shape()[0], C = input.shape()[1], H = input.shape()[2], W = input.shape()[3];
  Tensor out(Shape{N, C});
  const float inv = 1.0F / static_cast<float>(H * W);
  for (int n = 0; n < N; ++n) {
    for (int c = 0; c < C; ++c) {
      double acc = 0.0;
      for (int h = 0; h < H; ++h) {
        for (int w = 0; w < W; ++w) acc += input.at(n, c, h, w);
      }
      out.at(n, c) = static_cast<float>(acc) * inv;
    }
  }
  return out;
}

Tensor global_avg_pool_backward(const Shape& input_shape, const Tensor& grad_output) {
  const int N = input_shape[0], C = input_shape[1], H = input_shape[2], W = input_shape[3];
  Tensor gx(input_shape);
  const float inv = 1.0F / static_cast<float>(H * W);
  for (int n = 0; n < N; ++n) {
    for (int c = 0; c < C; ++c) {
      const float gy = grad_output.at(n, c) * inv;
      for (int h = 0; h < H; ++h) {
        for (int w = 0; w < W; ++w) gx.at(n, c, h, w) = gy;
      }
    }
  }
  return gx;
}

Tensor linear_forward(const Tensor& input, const Tensor& weight, const Tensor* bias) {
  if (input.shape().rank() != 2 || weight.shape().rank() != 2) {
    throw std::invalid_argument("linear: rank-2 input/weight required");
  }
  const int N = input.shape()[0], F = input.shape()[1];
  const int Out = weight.shape()[0];
  if (weight.shape()[1] != F) throw std::invalid_argument("linear: weight/in feature mismatch");
  Tensor out(Shape{N, Out});
  for (int n = 0; n < N; ++n) {
    for (int o = 0; o < Out; ++o) {
      double acc = bias ? (*bias)[static_cast<std::size_t>(o)] : 0.0F;
      for (int f = 0; f < F; ++f) acc += static_cast<double>(input.at(n, f)) * weight.at(o, f);
      out.at(n, o) = static_cast<float>(acc);
    }
  }
  return out;
}

LinearGrads linear_backward(const Tensor& input, const Tensor& weight, bool has_bias,
                            const Tensor& grad_output) {
  const int N = input.shape()[0], F = input.shape()[1];
  const int Out = weight.shape()[0];
  LinearGrads g;
  g.grad_input = Tensor(input.shape());
  g.grad_weight = Tensor(weight.shape());
  if (has_bias) g.grad_bias = Tensor(Shape{Out});
  for (int n = 0; n < N; ++n) {
    for (int o = 0; o < Out; ++o) {
      const float gy = grad_output.at(n, o);
      if (gy == 0.0F) continue;
      if (has_bias) g.grad_bias[static_cast<std::size_t>(o)] += gy;
      for (int f = 0; f < F; ++f) {
        g.grad_input.at(n, f) += gy * weight.at(o, f);
        g.grad_weight.at(o, f) += gy * input.at(n, f);
      }
    }
  }
  return g;
}

}  // namespace micronas::ops
