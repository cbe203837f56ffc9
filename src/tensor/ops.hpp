// Free-function neural-network primitives with explicit backward passes.
//
// Each forward has a matching backward that maps (inputs, grad_output)
// to (grad_input, grad_params). Gradients are validated against finite
// differences in tests/test_ops_grad.cpp — the NTK proxy is only as
// good as these derivatives.
#pragma once

#include <vector>

#include "src/tensor/tensor.hpp"

namespace micronas::ops {

/// 2-D convolution, NCHW. weight shape [Cout, Cin, K, K]; optional bias [Cout].
/// Output spatial size: (H + 2*pad - K)/stride + 1 (must divide exactly or
/// truncate like standard frameworks — we use floor semantics).
/// Reference implementation (direct loops, double accumulation): the
/// tolerance oracle for the float kernels.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor* bias,
                      int stride, int pad);

/// The same convolution in float: a Tensor wrapper over
/// rt::conv2d_f32 (im2col + GEMM), the path CellNet's convolution
/// layers run. `columns` is the caller's im2col scratch, grown to fit
/// and reused across calls. Each output sums the same products in the
/// same (ci, kh, kw) order as a per-output float loop, so it stays
/// within float rounding of conv2d_forward (tests/test_kernels_f32.cpp).
Tensor conv2d_forward_gemm(const Tensor& input, const Tensor& weight, const Tensor* bias,
                           int stride, int pad, std::vector<float>& columns);

struct Conv2dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;  // empty if no bias
};

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight, bool has_bias,
                            int stride, int pad, const Tensor& grad_output);

/// ReLU. Mask (1 where input > 0) is produced by forward for reuse in
/// backward and by the linear-region proxy.
Tensor relu_forward(const Tensor& input, Tensor* mask_out = nullptr);
Tensor relu_backward(const Tensor& mask, const Tensor& grad_output);

/// Average pooling with square window, padding included in the divisor
/// (count_include_pad semantics, divisor = K*K).
Tensor avg_pool_forward(const Tensor& input, int kernel, int stride, int pad);
Tensor avg_pool_backward(const Shape& input_shape, int kernel, int stride, int pad,
                         const Tensor& grad_output);

/// Global average pooling: [N,C,H,W] -> [N,C].
Tensor global_avg_pool_forward(const Tensor& input);
Tensor global_avg_pool_backward(const Shape& input_shape, const Tensor& grad_output);

/// Fully connected: input [N,F], weight [Out,F], bias [Out] optional.
Tensor linear_forward(const Tensor& input, const Tensor& weight, const Tensor* bias);

struct LinearGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;  // empty if no bias
};

LinearGrads linear_backward(const Tensor& input, const Tensor& weight, bool has_bias,
                            const Tensor& grad_output);

/// Output spatial size helper (floor semantics).
int conv_out_size(int in, int kernel, int stride, int pad);

}  // namespace micronas::ops
