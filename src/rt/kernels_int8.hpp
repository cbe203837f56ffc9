// Integer reference kernels for the int8 deployment path.
//
// All arithmetic is integer-exact: int8 operands, int32 accumulators,
// and fixed-point requantization through hw/quant's gemmlowp-style
// multiplier — so outputs are bit-identical across runs, thread counts
// and hosts. Convolution goes through im2col + an int8 GEMM whose inner
// dot product is contiguous in both operands (the CMSIS-NN shape), and
// is partitioned over output channels when a thread pool is provided;
// channels are fully independent, so the partition cannot change the
// result.
//
// Batching widens the GEMM M dimension instead of looping the kernel:
// qconv2d im2cols every sample into one column matrix of batch * Ho*Wo
// rows and runs a single channel-partitioned GEMM over all of them —
// so a batch of N is one kernel invocation, and per-(sample, channel,
// pixel) accumulation order is unchanged from the batch-1 path (bit
// identity of batched vs serial execution rests on this).
//
// Requantization: every kernel here checks its requant shifts once per
// call (std::invalid_argument outside [-31, 31]) and then runs the
// branch-free hw/quant core per output; loaded graphs never reach the
// check, since ir::Graph::validate holds the shifts to the same range.
//
// Zero-point convention (TFLite): real = scale * (q - zero_point).
// Padding contributes real 0.0, i.e. q == zero_point, so padded cells
// drop out of (q - zp) sums and the kernels simply skip them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/common/thread_pool.hpp"

namespace micronas::rt {

/// Partition the flat (sample-major, unit-minor) grid of `batch *
/// units` independent work items over the pool, calling fn(n, u_begin,
/// u_end) for each sample-contiguous unit range of a block. Folding
/// batch into the grain keeps all workers busy even when one dimension
/// is small (e.g. a stem conv's 16 channels at batch 32, or a batched
/// final linear layer). Blocks never split a (sample, unit) item and
/// each item's accumulation order is untouched, so the partition cannot
/// change results. Serial (one call per sample) when the pool is absent
/// or single-lane.
template <typename Fn>
void for_sample_units(int batch, int units, ThreadPool* pool, Fn&& fn) {
  const long long total = static_cast<long long>(batch) * units;
  if (total <= 0) return;
  // Two blocks per worker: units cost roughly the same, so this is
  // enough slack to rebalance around external load without paying
  // dispatch overhead for a long tail of tiny tasks.
  const long long nblocks =
      (pool && pool->size() > 1 && total > 1)
          ? std::min<long long>(total, static_cast<long long>(pool->size()) * 2)
          : 1;
  auto run_block = [&](long long b) {
    const long long lo = total * b / nblocks;
    const long long hi = total * (b + 1) / nblocks;
    long long t = lo;
    while (t < hi) {
      const int n = static_cast<int>(t / units);
      const int u_begin = static_cast<int>(t % units);
      const long long sample_end = static_cast<long long>(n + 1) * units;
      const long long stop = std::min(hi, sample_end);
      fn(n, u_begin, static_cast<int>(stop - static_cast<long long>(n) * units));
      t = stop;
    }
  };
  if (nblocks == 1) {
    run_block(0);
    return;
  }
  pool->parallel_for(static_cast<std::size_t>(nblocks),
                     [&](std::size_t b) { run_block(static_cast<long long>(b)); });
}

/// im2col for int8 NCHW input, one sample: columns[pixel][cin*k*k],
/// row-contiguous per output pixel, padding filled with `pad_value`
/// (the input zero point). `columns` must hold out_h*out_w*cin*k*k.
void im2col_i8(const std::int8_t* input, int cin, int h, int w, int kernel, int stride, int pad,
               int out_h, int out_w, std::int8_t pad_value, std::int8_t* columns);

struct QConv2dArgs {
  int batch = 1;
  int cin = 0, h = 0, w = 0;
  int cout = 0, kernel = 1, stride = 1, pad = 0;
  int out_h = 0, out_w = 0;
  int in_zp = 0, out_zp = 0;
  bool fused_relu = false;
  const std::int8_t* input = nullptr;    // [N, Cin, H, W]
  const std::int8_t* weight = nullptr;   // [Cout, Cin, K, K]
  const std::int32_t* bias = nullptr;    // [Cout] or null
  const std::int32_t* weight_sum = nullptr;  // [Cout]: Σ_k w[c,k] (precomputed)
  const std::int32_t* mantissa = nullptr;    // [Cout] per-channel requant
  const int* shift = nullptr;                // [Cout]
  std::int8_t* columns = nullptr;        // scratch, batch*out_h*out_w*cin*k*k
  std::int8_t* output = nullptr;         // [N, Cout, Ho, Wo]
};

void qconv2d(const QConv2dArgs& args, ThreadPool* pool);

struct QLinearArgs {
  int batch = 1;
  int in_features = 0, out_features = 0;
  int in_zp = 0, out_zp = 0;
  const std::int8_t* input = nullptr;    // [N, F]
  const std::int8_t* weight = nullptr;   // [Out, F]
  const std::int32_t* bias = nullptr;
  const std::int32_t* weight_sum = nullptr;
  const std::int32_t* mantissa = nullptr;
  const int* shift = nullptr;
  std::int8_t* output = nullptr;         // [N, Out]
};

/// Partitioned over the flat (batch, out_features) grid when a pool is
/// provided — outputs are independent, so results are bit-identical
/// for every thread count.
void qlinear(const QLinearArgs& args, ThreadPool* pool = nullptr);

/// out = clamp(zp_out + M_a(a - zp_a) + M_b(b - zp_b)).
void qadd(const std::int8_t* a, const std::int8_t* b, std::int8_t* out, std::size_t n,
          int zp_a, std::int32_t mant_a, int shift_a, int zp_b, std::int32_t mant_b, int shift_b,
          int zp_out);

/// int32 cells of scratch qavg_pool needs: h x out_w row sums plus
/// out_h x out_w window sums, reused plane by plane.
std::size_t qavg_pool_scratch(int h, int out_h, int out_w);

/// Average pooling, count_include_pad: divisor k*k, padded cells
/// contribute q == zp_in and drop out of the shifted sum. A separable
/// box sum, one (sample, channel) plane at a time: each input row's
/// window sums over every output column's valid horizontal taps, then
/// each output adds the row sums of its valid vertical taps, then one
/// requant pass stores the plane. The int32 sums are exact, so every
/// output equals the per-output window loop's. `scratch` holds
/// qavg_pool_scratch(h, out_h, out_w) int32s; no call allocates.
void qavg_pool(const std::int8_t* input, std::int8_t* output, int batch, int channels, int h,
               int w, int kernel, int stride, int pad, int out_h, int out_w, int in_zp,
               std::int32_t mantissa, int shift, int out_zp, std::int32_t* scratch);

/// Global average pooling [N,C,H,W] -> [N,C].
void qglobal_avg_pool(const std::int8_t* input, std::int8_t* output, int batch, int channels,
                      int h, int w, int in_zp, std::int32_t mantissa, int shift, int out_zp);

/// max(q, zero_point) — ReLU when input and output share parameters.
void qrelu(const std::int8_t* input, std::int8_t* output, std::size_t n, int zp);

void quantize_buffer(const float* input, std::int8_t* output, std::size_t n, double scale,
                     int zp);
void dequantize_buffer(const std::int8_t* input, float* output, std::size_t n, double scale,
                       int zp);

}  // namespace micronas::rt
