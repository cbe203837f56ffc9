#include "src/rt/kernels_int8.hpp"

#include <algorithm>
#include <cmath>

#include "src/hw/quant.hpp"
#include "src/rt/kernel_support.hpp"

namespace micronas::rt {

namespace {

inline std::int8_t clamp_i8(std::int32_t v, int lo) {
  return static_cast<std::int8_t>(std::clamp<std::int32_t>(v, lo, kInt8Max));
}

/// qavg_pool's planes (`planes` consecutive (sample, channel) pairs)
/// after its entry check: the separable box sum, then one requant pass
/// per plane over contiguous int32 sums, which the clones vectorize.
MICRONAS_SIMD_CLONES
void qavg_pool_planes(const std::int8_t* input, std::int8_t* output, int planes, int h, int w,
                      int kernel, int stride, int pad, int out_h, int out_w, int in_zp,
                      std::int32_t mantissa, int shift, int out_zp, std::int32_t* scratch) {
  const std::size_t row_cells = static_cast<std::size_t>(h) * out_w;
  const std::size_t npix = static_cast<std::size_t>(out_h) * out_w;
  std::int32_t* rows = scratch;             // [h][out_w]: horizontal window sums
  std::int32_t* sums = scratch + row_cells;  // [out_h][out_w]: full window sums
  // Row-major runs only fill whole vectors on wide planes. When input
  // and row sums share a pitch (stride 1, same width), each tap is one
  // run over the plane instead: it also adds to the |kx - pad| cells
  // per row boundary that the tap does not reach, and those additions
  // are subtracted again, exactly, in int32.
  const bool flat = stride == 1 && out_w == w;
  for (int p = 0; p < planes; ++p) {
    const std::int8_t* plane = input + static_cast<std::ptrdiff_t>(p) * h * w;
    std::int8_t* oplane = output + static_cast<std::ptrdiff_t>(p) * npix;
    // Horizontal pass: rows[y][ox] = Σ over ox's valid kx of (q - in_zp).
    std::fill_n(rows, row_cells, 0);
    for (int kx = 0; kx < kernel; ++kx) {
      const TapRange xs = valid_outputs(w, out_w, kx, stride, pad);
      if (xs.end <= xs.begin) continue;
      const int dx = kx - pad;  // input column of output column 0's tap
      if (flat) {
        const std::ptrdiff_t end = static_cast<std::ptrdiff_t>(h - 1) * w + xs.end;
        for (std::ptrdiff_t i = xs.begin; i < end; ++i) {
          rows[i] += static_cast<std::int32_t>(plane[i + dx]) - in_zp;
        }
        for (int y = 0; y < h; ++y) {
          const std::ptrdiff_t r = static_cast<std::ptrdiff_t>(y) * w;
          const int from = y > 0 ? 0 : xs.begin;  // the run starts at row 0's xs.begin
          const int to = y + 1 < h ? w : xs.end;  // and ends at the last row's xs.end
          for (int ox = from; ox < xs.begin; ++ox) {
            rows[r + ox] -= static_cast<std::int32_t>(plane[r + ox + dx]) - in_zp;
          }
          for (int ox = xs.end; ox < to; ++ox) {
            rows[r + ox] -= static_cast<std::int32_t>(plane[r + ox + dx]) - in_zp;
          }
        }
        continue;
      }
      for (int y = 0; y < h; ++y) {
        const std::int8_t* src =
            plane + static_cast<std::ptrdiff_t>(y) * w + (xs.begin * stride + dx);
        std::int32_t* dst = rows + static_cast<std::ptrdiff_t>(y) * out_w + xs.begin;
        for (int i = 0; i < xs.end - xs.begin; ++i) {
          dst[i] += static_cast<std::int32_t>(src[static_cast<std::ptrdiff_t>(i) * stride]) -
                    in_zp;
        }
      }
    }
    // Vertical pass: sums[oy][ox] = Σ over oy's valid ky of a row sum.
    // At stride 1 a tap's valid rows are consecutive in both arrays, so
    // the tap is one run of whole rows.
    std::fill_n(sums, npix, 0);
    for (int ky = 0; ky < kernel; ++ky) {
      const TapRange ys = valid_outputs(h, out_h, ky, stride, pad);
      const int run_rows = stride == 1 ? ys.end - ys.begin : 1;
      for (int oy = ys.begin; oy < ys.end; oy += run_rows) {
        const std::int32_t* src =
            rows + static_cast<std::ptrdiff_t>(oy * stride - pad + ky) * out_w;
        std::int32_t* dst = sums + static_cast<std::ptrdiff_t>(oy) * out_w;
        const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(run_rows) * out_w;
        for (std::ptrdiff_t i = 0; i < n; ++i) dst[i] += src[i];
      }
    }
    for (std::size_t i = 0; i < npix; ++i) {
      oplane[i] =
          clamp_i8(multiply_by_quantized_multiplier(sums[i], mantissa, shift) + out_zp, kInt8Min);
    }
  }
}

}  // namespace

void im2col_i8(const std::int8_t* input, int cin, int h, int w, int kernel, int stride, int pad,
               int out_h, int out_w, std::int8_t pad_value, std::int8_t* columns) {
  const int patch = cin * kernel * kernel;
  for (int oy = 0; oy < out_h; ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      std::int8_t* col = columns + (static_cast<std::ptrdiff_t>(oy) * out_w + ox) * patch;
      int k = 0;
      for (int c = 0; c < cin; ++c) {
        const std::int8_t* plane = input + static_cast<std::ptrdiff_t>(c) * h * w;
        for (int ky = 0; ky < kernel; ++ky) {
          const int iy = oy * stride - pad + ky;
          for (int kx = 0; kx < kernel; ++kx) {
            const int ix = ox * stride - pad + kx;
            col[k++] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                           ? plane[static_cast<std::ptrdiff_t>(iy) * w + ix]
                           : pad_value;
          }
        }
      }
    }
  }
}

void qconv2d(const QConv2dArgs& a, ThreadPool* pool) {
  check_requant_shifts(a.shift, a.cout, "qconv2d");
  const int patch = a.cin * a.kernel * a.kernel;
  const int npix = a.out_h * a.out_w;
  const int relu_lo = a.fused_relu ? std::max(kInt8Min, a.out_zp) : kInt8Min;

  // All samples' pixels into one column matrix: the GEMM M dimension is
  // batch * npix, so a coalesced batch is one channel-partitioned GEMM
  // (one pool dispatch per conv, not one per sample) and a channel's
  // weight row is reused across the whole batch.
  for (int n = 0; n < a.batch; ++n) {
    const std::int8_t* in =
        a.input + static_cast<std::ptrdiff_t>(n) * a.cin * a.h * a.w;
    im2col_i8(in, a.cin, a.h, a.w, a.kernel, a.stride, a.pad, a.out_h, a.out_w,
              static_cast<std::int8_t>(a.in_zp),
              a.columns + static_cast<std::ptrdiff_t>(n) * npix * patch);
  }

  // Channel-blocked GEMM over the flat (sample, channel) grid —
  // folding batch into the grain keeps every worker busy even when
  // cout alone is smaller than the pool (the stem conv at batch N).
  // Blocks are sample-major, so one sample's columns (npix * patch
  // bytes) stay cache-hot while a block's channels sweep them. The
  // per-output accumulation order is exactly the batch-1 order, so
  // results stay bit-identical across batch sizes, block counts and
  // thread counts.
  for_sample_units(a.batch, a.cout, pool, [&](int n, int c_begin, int c_end) {
    const std::int8_t* cols = a.columns + static_cast<std::ptrdiff_t>(n) * npix * patch;
    for (int c = c_begin; c < c_end; ++c) {
      const std::int8_t* wrow = a.weight + static_cast<std::ptrdiff_t>(c) * patch;
      // acc = Σ_k w*q - zp*Σ_k w (+ bias): padding cells hold q == zp,
      // so the correction term works uniformly across the border.
      const std::int32_t base =
          (a.bias ? a.bias[c] : 0) - a.in_zp * a.weight_sum[c];
      std::int8_t* orow =
          a.output + (static_cast<std::ptrdiff_t>(n) * a.cout + c) * npix;
      for (int j = 0; j < npix; ++j) {
        const std::int8_t* col = cols + static_cast<std::ptrdiff_t>(j) * patch;
        std::int32_t acc = base;
        for (int k = 0; k < patch; ++k) {
          acc += static_cast<std::int32_t>(wrow[k]) * static_cast<std::int32_t>(col[k]);
        }
        const std::int32_t q =
            multiply_by_quantized_multiplier(acc, a.mantissa[c], a.shift[c]) + a.out_zp;
        orow[j] = clamp_i8(q, relu_lo);
      }
    }
  });
}

void qlinear(const QLinearArgs& a, ThreadPool* pool) {
  check_requant_shifts(a.shift, a.out_features, "qlinear");
  // Same flat (sample, out_feature) partition as qconv2d: at batch N
  // the final-layer GEMM is N * out_features independent dot products,
  // so the batched path parallelizes instead of running serial.
  for_sample_units(a.batch, a.out_features, pool, [&](int n, int c_begin, int c_end) {
    const std::int8_t* in = a.input + static_cast<std::ptrdiff_t>(n) * a.in_features;
    std::int8_t* out = a.output + static_cast<std::ptrdiff_t>(n) * a.out_features;
    for (int c = c_begin; c < c_end; ++c) {
      const std::int8_t* wrow = a.weight + static_cast<std::ptrdiff_t>(c) * a.in_features;
      std::int32_t acc = (a.bias ? a.bias[c] : 0) - a.in_zp * a.weight_sum[c];
      for (int k = 0; k < a.in_features; ++k) {
        acc += static_cast<std::int32_t>(wrow[k]) * static_cast<std::int32_t>(in[k]);
      }
      const std::int32_t q =
          multiply_by_quantized_multiplier(acc, a.mantissa[c], a.shift[c]) + a.out_zp;
      out[c] = clamp_i8(q, kInt8Min);
    }
  });
}

void qadd(const std::int8_t* a, const std::int8_t* b, std::int8_t* out, std::size_t n,
          int zp_a, std::int32_t mant_a, int shift_a, int zp_b, std::int32_t mant_b, int shift_b,
          int zp_out) {
  check_requant_shifts(&shift_a, 1, "qadd");
  check_requant_shifts(&shift_b, 1, "qadd");
  // Each operand's rescale depends only on its own int8 value, so for
  // long tensors precompute both 256-entry requant tables with the
  // exact per-element function and reduce the loop to two loads, an
  // add and a clamp. Results are bit-identical to the direct loop by
  // construction; the 512 table builds amortize once n clears them.
  if (n >= 2 * 256) {
    std::int32_t lut_a[256];
    std::int32_t lut_b[256];
    for (int q = 0; q < 256; ++q) {
      lut_a[q] = multiply_by_quantized_multiplier(q - 128 - zp_a, mant_a, shift_a);
      lut_b[q] = multiply_by_quantized_multiplier(q - 128 - zp_b, mant_b, shift_b);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t ta = lut_a[static_cast<std::int32_t>(a[i]) + 128];
      const std::int32_t tb = lut_b[static_cast<std::int32_t>(b[i]) + 128];
      out[i] = clamp_i8(ta + tb + zp_out, kInt8Min);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t ta =
        multiply_by_quantized_multiplier(static_cast<std::int32_t>(a[i]) - zp_a, mant_a, shift_a);
    const std::int32_t tb =
        multiply_by_quantized_multiplier(static_cast<std::int32_t>(b[i]) - zp_b, mant_b, shift_b);
    out[i] = clamp_i8(ta + tb + zp_out, kInt8Min);
  }
}

std::size_t qavg_pool_scratch(int h, int out_h, int out_w) {
  return (static_cast<std::size_t>(h) + static_cast<std::size_t>(out_h)) *
         static_cast<std::size_t>(out_w);
}

void qavg_pool(const std::int8_t* input, std::int8_t* output, int batch, int channels, int h,
               int w, int kernel, int stride, int pad, int out_h, int out_w, int in_zp,
               std::int32_t mantissa, int shift, int out_zp, std::int32_t* scratch) {
  check_requant_shifts(&shift, 1, "qavg_pool");
  qavg_pool_planes(input, output, batch * channels, h, w, kernel, stride, pad, out_h, out_w,
                   in_zp, mantissa, shift, out_zp, scratch);
}

void qglobal_avg_pool(const std::int8_t* input, std::int8_t* output, int batch, int channels,
                      int h, int w, int in_zp, std::int32_t mantissa, int shift, int out_zp) {
  check_requant_shifts(&shift, 1, "qglobal_avg_pool");
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels; ++c) {
      const std::int8_t* plane =
          input + (static_cast<std::ptrdiff_t>(n) * channels + c) * h * w;
      std::int32_t acc = 0;
      for (int i = 0; i < h * w; ++i) acc += static_cast<std::int32_t>(plane[i]) - in_zp;
      const std::int32_t q = multiply_by_quantized_multiplier(acc, mantissa, shift) + out_zp;
      output[static_cast<std::ptrdiff_t>(n) * channels + c] = clamp_i8(q, kInt8Min);
    }
  }
}

void qrelu(const std::int8_t* input, std::int8_t* output, std::size_t n, int zp) {
  const auto lo = static_cast<std::int8_t>(std::max(kInt8Min, zp));
  for (std::size_t i = 0; i < n; ++i) output[i] = std::max(input[i], lo);
}

void quantize_buffer(const float* input, std::int8_t* output, std::size_t n, double scale,
                     int zp) {
  const AffineParams p{scale, zp};
  for (std::size_t i = 0; i < n; ++i) output[i] = quantize_one(input[i], p);
}

void dequantize_buffer(const std::int8_t* input, float* output, std::size_t n, double scale,
                       int zp) {
  const AffineParams p{scale, zp};
  for (std::size_t i = 0; i < n; ++i) output[i] = dequantize_one(input[i], p);
}

}  // namespace micronas::rt
