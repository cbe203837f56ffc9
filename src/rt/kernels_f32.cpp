#include "src/rt/kernels_f32.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "src/rt/kernel_support.hpp"

namespace micronas::rt {

std::size_t conv2d_f32_columns(int cin, int kernel, int out_h, int out_w) {
  return static_cast<std::size_t>(cin) * kernel * kernel * out_h * out_w;
}

void im2col_f32(const float* input, int cin, int h, int w, int kernel, int stride, int pad,
                int out_h, int out_w, float* columns) {
  // Below this output width a select per cell is cheaper than a fill
  // or copy call per run of cells (the proxy nets' 2-4 px planes).
  constexpr int kShortRow = 8;
  const std::size_t npix = static_cast<std::size_t>(out_h) * out_w;
  // Tap-major, so each tap's valid ranges are found once per sample.
  for (int ky = 0; ky < kernel; ++ky) {
    const TapRange ys = valid_outputs(h, out_h, ky, stride, pad);
    for (int kx = 0; kx < kernel; ++kx) {
      const TapRange xs = valid_outputs(w, out_w, kx, stride, pad);
      const int span = xs.end - xs.begin;
      for (int ic = 0; ic < cin; ++ic) {
        const float* plane = input + static_cast<std::ptrdiff_t>(ic) * h * w;
        float* dst = columns + ((static_cast<std::size_t>(ic) * kernel + ky) * kernel + kx) * npix;
        if (out_w < kShortRow) {
          for (int oy = 0; oy < out_h; ++oy) {
            const bool valid_row = oy >= ys.begin && oy < ys.end;
            const float* row =
                plane + (valid_row ? static_cast<std::ptrdiff_t>(oy * stride - pad + ky) * w : 0);
            for (int ox = 0; ox < out_w; ++ox) {
              *dst++ = valid_row && ox >= xs.begin && ox < xs.end ? row[ox * stride - pad + kx]
                                                                  : 0.0F;
            }
          }
          continue;
        }
        // Pad cells owed before the next copy: one fill per run of them.
        std::size_t zeros = static_cast<std::size_t>(ys.begin) * out_w;
        for (int oy = ys.begin; oy < ys.end; ++oy) {
          zeros += static_cast<std::size_t>(xs.begin);
          if (span > 0) {
            if (zeros > 0) dst = std::fill_n(dst, zeros, 0.0F);
            zeros = 0;
            const float* src = plane + static_cast<std::ptrdiff_t>(oy * stride - pad + ky) * w +
                               (xs.begin * stride - pad + kx);
            if (stride == 1) {
              dst = std::copy_n(src, span, dst);
            } else {
              for (int i = 0; i < span; ++i) *dst++ = src[static_cast<std::ptrdiff_t>(i) * stride];
            }
          }
          zeros += static_cast<std::size_t>(out_w - xs.end);
        }
        std::fill_n(dst, zeros + static_cast<std::size_t>(out_h - ys.end) * out_w, 0.0F);
      }
    }
  }
}

void conv2d_f32(const float* input, const float* weight, const float* bias, float* output,
                int batch, int cin, int h, int w, int cout, int kernel, int stride, int pad,
                int out_h, int out_w, bool fused_relu, float* columns, ThreadPool* pool) {
  const std::size_t npix = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t kdim = static_cast<std::size_t>(cin) * kernel * kernel;
  for (int n = 0; n < batch; ++n) {
    im2col_f32(input + static_cast<std::ptrdiff_t>(n) * cin * h * w, cin, h, w, kernel, stride,
               pad, out_h, out_w, columns);
    float* out = output + static_cast<std::ptrdiff_t>(n) * cout * npix;
    // GEMM: out[n] = W[cout x kdim] * columns[kdim x npix], k outer so
    // the inner loop streams a weight's column row into the output row.
    auto channel = [&](std::size_t c) {
      float* orow = out + c * npix;
      std::fill_n(orow, npix, bias ? bias[c] : 0.0F);
      const float* wrow = weight + c * kdim;
      for (std::size_t k = 0; k < kdim; ++k) {
        const float wk = wrow[k];
        if (wk == 0.0F) continue;
        const float* crow = columns + k * npix;
        for (std::size_t j = 0; j < npix; ++j) orow[j] += wk * crow[j];
      }
      if (fused_relu) {
        for (std::size_t j = 0; j < npix; ++j) {
          if (orow[j] < 0.0F) orow[j] = 0.0F;
        }
      }
    };
    if (pool && pool->size() > 1 && cout > 1) {
      pool->parallel_for(static_cast<std::size_t>(cout), channel);
    } else {
      for (int c = 0; c < cout; ++c) channel(static_cast<std::size_t>(c));
    }
  }
}

void batch_norm_f32(const float* input, const float* gamma, const float* beta,
                    const float* mean, const float* var, float* output, int batch, int channels,
                    int spatial, double eps) {
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float scale = gamma[c] / std::sqrt(var[c] + static_cast<float>(eps));
      const float shift = beta[c] - mean[c] * scale;
      const float* in = input + (static_cast<std::ptrdiff_t>(n) * channels + c) * spatial;
      float* out = output + (static_cast<std::ptrdiff_t>(n) * channels + c) * spatial;
      for (int i = 0; i < spatial; ++i) out[i] = in[i] * scale + shift;
    }
  }
}

void channel_affine_f32(const float* input, const float* scale, const float* shift,
                        float* output, int batch, int channels, int spatial) {
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float* in = input + (static_cast<std::ptrdiff_t>(n) * channels + c) * spatial;
      float* out = output + (static_cast<std::ptrdiff_t>(n) * channels + c) * spatial;
      for (int i = 0; i < spatial; ++i) out[i] = in[i] * scale[c] + shift[c];
    }
  }
}

void relu_f32(const float* input, float* output, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) output[i] = input[i] > 0.0F ? input[i] : 0.0F;
}

void avg_pool_f32(const float* input, float* output, int batch, int channels, int h, int w,
                  int kernel, int stride, int pad, int out_h, int out_w) {
  const float inv = 1.0F / static_cast<float>(kernel * kernel);  // count_include_pad
  const std::size_t npix = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t sample = static_cast<std::size_t>(channels) * npix;
  for (int n = 0; n < batch; ++n) {
    const float* in = input + static_cast<std::ptrdiff_t>(n) * channels * h * w;
    float* out = output + n * sample;
    std::fill_n(out, sample, 0.0F);
    // Tap by tap over the sample: every output adds its valid taps in
    // (ky, kx) order, and each tap's ranges are found once per sample.
    for (int ky = 0; ky < kernel; ++ky) {
      const TapRange ys = valid_outputs(h, out_h, ky, stride, pad);
      for (int kx = 0; kx < kernel; ++kx) {
        const TapRange xs = valid_outputs(w, out_w, kx, stride, pad);
        const int span = xs.end - xs.begin;
        if (span == 0) continue;
        for (int c = 0; c < channels; ++c) {
          const float* plane = in + static_cast<std::ptrdiff_t>(c) * h * w;
          float* oplane = out + c * npix;
          for (int oy = ys.begin; oy < ys.end; ++oy) {
            const float* src = plane + static_cast<std::ptrdiff_t>(oy * stride - pad + ky) * w +
                               (xs.begin * stride - pad + kx);
            float* orow = oplane + static_cast<std::ptrdiff_t>(oy) * out_w + xs.begin;
            if (stride == 1) {
              for (int i = 0; i < span; ++i) orow[i] += src[i];
            } else {
              for (int i = 0; i < span; ++i) {
                orow[i] += src[static_cast<std::ptrdiff_t>(i) * stride];
              }
            }
          }
        }
      }
    }
    for (std::size_t i = 0; i < sample; ++i) out[i] *= inv;
  }
}

void add_f32(const float* a, const float* b, float* output, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) output[i] = a[i] + b[i];
}

void global_avg_pool_f32(const float* input, float* output, int batch, int channels,
                         int spatial) {
  const float inv = 1.0F / static_cast<float>(spatial);
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const float* plane = input + (static_cast<std::ptrdiff_t>(n) * channels + c) * spatial;
      float acc = 0.0F;
      for (int i = 0; i < spatial; ++i) acc += plane[i];
      output[static_cast<std::ptrdiff_t>(n) * channels + c] = acc * inv;
    }
  }
}

void linear_f32(const float* input, const float* weight, const float* bias, float* output,
                int batch, int in_features, int out_features) {
  for (int n = 0; n < batch; ++n) {
    const float* in = input + static_cast<std::ptrdiff_t>(n) * in_features;
    float* out = output + static_cast<std::ptrdiff_t>(n) * out_features;
    for (int c = 0; c < out_features; ++c) {
      const float* wrow = weight + static_cast<std::ptrdiff_t>(c) * in_features;
      float acc = bias ? bias[c] : 0.0F;
      for (int k = 0; k < in_features; ++k) acc += wrow[k] * in[k];
      out[c] = acc;
    }
  }
}

}  // namespace micronas::rt
