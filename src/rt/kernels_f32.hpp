// Float kernels: calibration, constant folding, the float reference
// pipeline and the proxy nets' Conv2dLayer all run these.
//
// conv2d_f32 is the one single-precision convolution in src/: an
// im2col into a caller-owned column buffer, then a GEMM that starts
// each output from its bias and adds w[k] * col[k] in (ic, ky, kx)
// order. Every output therefore sums the same products in the same
// order as a direct per-output loop; pad taps add w * 0 and zero
// weights are skipped, which can change only the sign of an exact
// zero. The other kernels are direct loops. The constant folder
// (src/compile/passes.cpp) calls them at compile time to evaluate
// all-constant subgraphs, so compile-time and run-time folding agree
// bit for bit.
#pragma once

#include <cstddef>

#include "src/common/thread_pool.hpp"

namespace micronas::rt {

/// Floats of column scratch conv2d_f32 needs: one sample's
/// [cin * kernel * kernel][out_h * out_w] im2col matrix.
std::size_t conv2d_f32_columns(int cin, int kernel, int out_h, int out_w);

/// Lower one NCHW sample into `columns` (conv2d_f32_columns floats):
/// row (ic, ky, kx) holds that tap's input value for every output
/// pixel, or 0 where the tap falls in the padding. Every cell is
/// written exactly once.
void im2col_f32(const float* input, int cin, int h, int w, int kernel, int stride, int pad,
                int out_h, int out_w, float* columns);

/// NCHW convolution, weight [cout][cin][kernel][kernel], optional bias,
/// optional fused ReLU. `columns` is caller-owned scratch of
/// conv2d_f32_columns floats, reused sample by sample. With a pool of
/// more than one thread, each sample's output channels split over it
/// after a serial im2col; channels are independent, so the split
/// cannot change results.
void conv2d_f32(const float* input, const float* weight, const float* bias, float* output,
                int batch, int cin, int h, int w, int cout, int kernel, int stride, int pad,
                int out_h, int out_w, bool fused_relu, float* columns, ThreadPool* pool);

void batch_norm_f32(const float* input, const float* gamma, const float* beta,
                    const float* mean, const float* var, float* output, int batch, int channels,
                    int spatial, double eps);

void channel_affine_f32(const float* input, const float* scale, const float* shift,
                        float* output, int batch, int channels, int spatial);

void relu_f32(const float* input, float* output, std::size_t n);

/// Square-window average, padding counted in the divisor (K * K). Each
/// output starts from 0, adds its valid taps in (ky, kx) order and is
/// then scaled by 1 / K^2.
void avg_pool_f32(const float* input, float* output, int batch, int channels, int h, int w,
                  int kernel, int stride, int pad, int out_h, int out_w);

void add_f32(const float* a, const float* b, float* output, std::size_t n);

void global_avg_pool_f32(const float* input, float* output, int batch, int channels,
                         int spatial);

void linear_f32(const float* input, const float* weight, const float* bias, float* output,
                int batch, int in_features, int out_features);

}  // namespace micronas::rt
