#include "src/rt/kernels_int8_gemm.hpp"

#include <algorithm>
#include <cstring>

#include "src/hw/quant.hpp"
#include "src/ir/graph.hpp"
#include "src/rt/kernel_support.hpp"

namespace micronas::rt {

namespace {

inline std::int8_t clamp_i8(std::int32_t v, int lo) {
  return static_cast<std::int8_t>(std::clamp<std::int32_t>(v, lo, kInt8Max));
}

/// One output channel's requant: the affine correction folded into the
/// accumulator base plus its fixed-point multiplier, held by value so a
/// store loop reads no parameter through a pointer its int8 stores
/// might alias.
struct ChannelRequant {
  std::int32_t base = 0;
  std::int32_t mantissa = 0;
  int shift = 0;
  int out_zp = 0;
  int relu_lo = kInt8Min;

  std::int8_t operator()(std::int32_t acc) const {
    return clamp_i8(multiply_by_quantized_multiplier(acc + base, mantissa, shift) + out_zp,
                    relu_lo);
  }
};

/// Per-call requantization context shared by conv and linear.
struct Requant {
  const std::int32_t* bias;        // [cout] or null
  const std::int32_t* weight_sum;  // [cout]
  const std::int32_t* mantissa;    // [cout]
  const int* shift;                // [cout]
  int in_zp = 0;
  int out_zp = 0;
  int relu_lo = kInt8Min;

  ChannelRequant channel(int c) const {
    return {(bias ? bias[c] : 0) - in_zp * weight_sum[c], mantissa[c], shift[c], out_zp,
            relu_lo};
  }
};

inline Requant conv_requant(const QConv2dArgs& a) {
  Requant rq{a.bias, a.weight_sum, a.mantissa, a.shift, a.in_zp, a.out_zp, kInt8Min};
  if (a.fused_relu) rq.relu_lo = std::max(kInt8Min, a.out_zp);
  return rq;
}

// ------------------------------------------------------ im2col (int16)

/// Widen one int8 input plane into an int16 image with a `pad`-cell
/// zero-point border. The border IS the conv padding: downstream
/// copies index it like any interior pixel, so the im2col proper has
/// no bounds checks, and a padded cell contributes zp * w — exactly
/// what the scalar reference computes (the -in_zp * weight_sum requant
/// correction assumes padded cells hold zp, not 0).
void widen_plane_padded(const std::int8_t* src, std::int16_t* dst, int h, int w, int pad,
                        std::int16_t zp) {
  const int wp = w + 2 * pad;
  const int hp = h + 2 * pad;
  if (pad > 0) {
    std::fill(dst, dst + static_cast<std::ptrdiff_t>(pad) * wp, zp);
    std::fill(dst + static_cast<std::ptrdiff_t>(hp - pad) * wp,
              dst + static_cast<std::ptrdiff_t>(hp) * wp, zp);
  }
  for (int y = 0; y < h; ++y) {
    std::int16_t* row = dst + static_cast<std::ptrdiff_t>(y + pad) * wp;
    const std::int8_t* srow = src + static_cast<std::ptrdiff_t>(y) * w;
    for (int x = 0; x < pad; ++x) row[x] = zp;
    for (int x = 0; x < w; ++x) row[pad + x] = srow[x];
    for (int x = 0; x < pad; ++x) row[pad + w + x] = zp;
  }
}

/// Build the int16 GEMM operand columns [col_begin, col_end): column j
/// holds output pixel j's patch in (ci, ky, kx) order — the canonical
/// weight-row order — padded with zeros to `patchp`. Off the padded
/// image every (ci, ky) run of `kernel` int16s is contiguous, so the
/// inner step is a small fixed-size copy, not per-element bounds
/// arithmetic. Templated on the kernel size: with K a constant the
/// per-run memcpy lowers to a couple of inline moves instead of a
/// libc call with a runtime length — the call overhead (cin * K per
/// column) otherwise costs more than the GEMM itself saves.
template <int K>
void im2col16_k(const std::int16_t* image, std::int16_t* columns, int cin, int hp, int wp,
                int kernel, int stride, int out_w, int patchp, int col_begin, int col_end) {
  const int k = K > 0 ? K : kernel;
  const int patch = cin * k * k;
  for (int col = col_begin; col < col_end; ++col) {
    const int iy0 = (col / out_w) * stride;
    const int ix0 = (col % out_w) * stride;
    std::int16_t* dst = columns + static_cast<std::ptrdiff_t>(col) * patchp;
    int t = 0;
    for (int ci = 0; ci < cin; ++ci) {
      const std::int16_t* plane = image + static_cast<std::ptrdiff_t>(ci) * hp * wp;
      for (int ky = 0; ky < k; ++ky, t += k) {
        std::memcpy(dst + t, plane + static_cast<std::ptrdiff_t>(iy0 + ky) * wp + ix0,
                    static_cast<std::size_t>(k) * sizeof(std::int16_t));
      }
    }
    for (t = patch; t < patchp; ++t) dst[t] = 0;
  }
}

void im2col16(const std::int16_t* image, std::int16_t* columns, int cin, int hp, int wp,
              int kernel, int stride, int out_w, int patchp, int col_begin, int col_end) {
  switch (kernel) {
    case 1:
      return im2col16_k<1>(image, columns, cin, hp, wp, kernel, stride, out_w, patchp,
                           col_begin, col_end);
    case 3:
      return im2col16_k<3>(image, columns, cin, hp, wp, kernel, stride, out_w, patchp,
                           col_begin, col_end);
    case 5:
      return im2col16_k<5>(image, columns, cin, hp, wp, kernel, stride, out_w, patchp,
                           col_begin, col_end);
    case 7:
      return im2col16_k<7>(image, columns, cin, hp, wp, kernel, stride, out_w, patchp,
                           col_begin, col_end);
    default:
      return im2col16_k<0>(image, columns, cin, hp, wp, kernel, stride, out_w, patchp,
                           col_begin, col_end);
  }
}

// ------------------------------------------------------- dot16 kernels

/// The dot16 GEMM core works on accumulator blocks of at most
/// kBlockChannels x kBlockCols int32s (16 KiB of stack whatever cout
/// is): the tiles fill a block, then one requant pass stores it.
constexpr int kBlockChannels = 64;
constexpr int kBlockCols = 64;

/// One register tile: MC output channels x NJ columns of int32
/// accumulators, filled by one ascending sweep over the padded K
/// dimension. Both operands are contiguous int16, the shape the
/// vectorizer lowers to vpmaddwd (2 MACs per lane per instruction);
/// each column row loaded feeds MC accumulators and each weight row
/// NJ, so the 4 x 2 tile issues 6 operand loads per 8 multiply-adds
/// where one dot product per output issued 2 per 1. int32 accumulation
/// is exact, so any vector re-association keeps the scalar reference's
/// sum. Sum (m, n) lands in acc[m * kBlockCols + n].
template <int MC, int NJ>
inline void dot16_tile(const std::int16_t* w, const std::int16_t* a, int patchp,
                       std::int32_t* acc) {
  std::int32_t s[MC][NJ] = {};
  for (int k = 0; k < patchp; ++k) {
    for (int m = 0; m < MC; ++m) {
      const std::int32_t wk = w[static_cast<std::ptrdiff_t>(m) * patchp + k];
      for (int n = 0; n < NJ; ++n) {
        s[m][n] += wk * static_cast<std::int32_t>(a[static_cast<std::ptrdiff_t>(n) * patchp + k]);
      }
    }
  }
  for (int m = 0; m < MC; ++m) {
    for (int n = 0; n < NJ; ++n) acc[m * kBlockCols + n] = s[m][n];
  }
}

/// One row of MC-channel tiles across a block's nj columns: column
/// pairs, then the odd column.
template <int MC>
inline void dot16_tile_row(const std::int16_t* w, const std::int16_t* a, int patchp, int nj,
                           std::int32_t* acc) {
  int n = 0;
  for (; n + 2 <= nj; n += 2) {
    dot16_tile<MC, 2>(w, a + static_cast<std::ptrdiff_t>(n) * patchp, patchp, acc + n);
  }
  if (n < nj) dot16_tile<MC, 1>(w, a + static_cast<std::ptrdiff_t>(n) * patchp, patchp, acc + n);
}

/// The GEMM: output element (c, j) = requant(Σ_k w16[c][k] * columns[j][k])
/// for every channel c < cout and column j in [col_begin, col_end),
/// stored at out[c * cstride + j * jstride]. The two strides let one
/// core serve qconv (cstride = npix, jstride = 1; columns are output
/// pixels) and qlinear (cstride = 1, jstride = out_features; columns
/// are batch samples). Channel blocks run inside column blocks, so a
/// block's column operands stay cache-hot across the channel sweep.
MICRONAS_SIMD_CLONES
void dot16_gemm(const std::int16_t* w16, const std::int16_t* columns, int patchp, int cout,
                const Requant& rq, std::int8_t* out, std::ptrdiff_t cstride,
                std::ptrdiff_t jstride, int col_begin, int col_end) {
  alignas(64) std::int32_t acc[kBlockChannels * kBlockCols];
  for (int j0 = col_begin; j0 < col_end; j0 += kBlockCols) {
    const int nj = std::min(kBlockCols, col_end - j0);
    const std::int16_t* a = columns + static_cast<std::ptrdiff_t>(j0) * patchp;
    for (int c0 = 0; c0 < cout; c0 += kBlockChannels) {
      const int nc = std::min(kBlockChannels, cout - c0);
      int m = 0;
      for (; m + 4 <= nc; m += 4) {
        dot16_tile_row<4>(w16 + static_cast<std::ptrdiff_t>(c0 + m) * patchp, a, patchp, nj,
                          acc + m * kBlockCols);
      }
      for (; m < nc; ++m) {
        dot16_tile_row<1>(w16 + static_cast<std::ptrdiff_t>(c0 + m) * patchp, a, patchp, nj,
                          acc + m * kBlockCols);
      }
      // The requant pass: per channel one base, mantissa and shift, so
      // the column loop (contiguous for conv) is the vectorized tail.
      for (m = 0; m < nc; ++m) {
        const ChannelRequant q = rq.channel(c0 + m);
        const std::int32_t* row = acc + m * kBlockCols;
        std::int8_t* o = out + static_cast<std::ptrdiff_t>(c0 + m) * cstride + j0 * jstride;
        for (int n = 0; n < nj; ++n) o[n * jstride] = q(row[n]);
      }
    }
  }
}

/// im2col + dot16 GEMM. Two parallel phases over the shared scratch in
/// args.columns (sized by the executor via qconv_gemm_scratch_bytes):
/// first every input plane is widened into its padded int16 image,
/// then each worker builds its own range of operand columns one
/// kBlockCols block at a time and runs the GEMM on each block while it
/// is cache-hot. Both phases partition disjoint output ranges, so the
/// schedule cannot affect results.
void qconv2d_gemm(const QConv2dArgs& a, const PackedWeights& pw, ThreadPool* pool) {
  const int hp = a.h + 2 * a.pad;
  const int wp = a.w + 2 * a.pad;
  const int npix = a.out_h * a.out_w;
  const int patchp = pw.padded_patch();
  const std::size_t image_elems = static_cast<std::size_t>(a.cin) * hp * wp;
  const std::size_t column_elems = static_cast<std::size_t>(npix) * patchp;
  std::int16_t* image0 = reinterpret_cast<std::int16_t*>(a.columns);
  std::int16_t* columns0 = image0 + static_cast<std::size_t>(a.batch) * image_elems;

  for_sample_units(a.batch, a.cin, pool, [&](int n, int ci_begin, int ci_end) {
    const std::int8_t* in = a.input + (static_cast<std::ptrdiff_t>(n) * a.cin + ci_begin) *
                                          a.h * a.w;
    std::int16_t* image = image0 + n * image_elems +
                          static_cast<std::size_t>(ci_begin) * hp * wp;
    for (int ci = ci_begin; ci < ci_end; ++ci) {
      widen_plane_padded(in, image, a.h, a.w, a.pad, static_cast<std::int16_t>(a.in_zp));
      in += a.h * a.w;
      image += static_cast<std::size_t>(hp) * wp;
    }
  });

  const Requant rq = conv_requant(a);
  for_sample_units(a.batch, npix, pool, [&](int n, int col_begin, int col_end) {
    const std::int16_t* image = image0 + n * image_elems;
    std::int16_t* columns = columns0 + n * column_elems;
    std::int8_t* out = a.output + static_cast<std::ptrdiff_t>(n) * a.cout * npix;
    for (int j0 = col_begin; j0 < col_end; j0 += kBlockCols) {
      const int j1 = std::min(col_end, j0 + kBlockCols);
      im2col16(image, columns, a.cin, hp, wp, a.kernel, a.stride, a.out_w, patchp, j0, j1);
      dot16_gemm(pw.data.data(), columns, patchp, a.cout, rq, out, /*cstride=*/npix,
                 /*jstride=*/1, j0, j1);
    }
  });
}

/// 1x1 / stride 1 / pad 0 convolution straight off the NCHW input — the
/// im2col matrix would be a pure transpose copy of the input, so skip
/// it: out[c][j] = Σ_ci w[c][ci] * in[ci][j], accumulated into an int32
/// pixel tile whose inner j-loop is contiguous in both input and
/// accumulator (vectorizable, no reduction). Channel order ci ascending
/// matches the scalar im2col patch order for kernel == 1, so the sum is
/// the same sum. Tiles go outer, channels inner, so a tile's input rows
/// (cin * kDirectPixTile bytes) stay cache-hot across the channel
/// range. Runs off the canonical int8 weights — no packing needed.
constexpr int kDirectPixTile = 512;

/// Minimum output pixels for the direct 1x1 kernel to beat the im2col
/// GEMM (measured: direct wins at 64+ pixels, loses badly at 16).
constexpr int kDirectMinPix = 64;

MICRONAS_SIMD_CLONES
void direct_conv_rows(const QConv2dArgs& a, const Requant& rq, int npix, const std::int8_t* in,
                      std::int8_t* out, int c_begin, int c_end) {
  std::int32_t acc[kDirectPixTile];
  for (int j0 = 0; j0 < npix; j0 += kDirectPixTile) {
    const int jn = std::min(kDirectPixTile, npix - j0);
    for (int c = c_begin; c < c_end; ++c) {
      const std::int8_t* wrow = a.weight + static_cast<std::ptrdiff_t>(c) * a.cin;
      for (int j = 0; j < jn; ++j) acc[j] = 0;
      for (int ci = 0; ci < a.cin; ++ci) {
        const std::int32_t w = wrow[ci];
        const std::int8_t* row = in + static_cast<std::ptrdiff_t>(ci) * npix + j0;
        for (int j = 0; j < jn; ++j) acc[j] += w * static_cast<std::int32_t>(row[j]);
      }
      const ChannelRequant q = rq.channel(c);
      std::int8_t* orow = out + static_cast<std::ptrdiff_t>(c) * npix + j0;
      for (int j = 0; j < jn; ++j) orow[j] = q(acc[j]);
    }
  }
}

void qconv2d_direct(const QConv2dArgs& a, ThreadPool* pool) {
  const int npix = a.h * a.w;  // out_h == h, out_w == w by selection
  const Requant rq = conv_requant(a);
  for_sample_units(a.batch, a.cout, pool, [&](int n, int c_begin, int c_end) {
    const std::int8_t* in = a.input + static_cast<std::ptrdiff_t>(n) * a.cin * npix;
    std::int8_t* out = a.output + static_cast<std::ptrdiff_t>(n) * a.cout * npix;
    direct_conv_rows(a, rq, npix, in, out, c_begin, c_end);
  });
}

/// dot16 GEMM over the batch dimension: operand column j is input
/// sample j widened to int16 (K-padded with zeros), output row j is
/// sample j (jstride = out_features, cstride = 1). The widened operand
/// is a short-lived local — linear layers here are a few KB per batch,
/// orders of magnitude below one conv's im2col, so a dedicated
/// executor-owned scratch would be plumbing for nothing.
void qlinear_gemm(const QLinearArgs& a, const PackedWeights& pw, ThreadPool* pool) {
  const int patchp = pw.padded_patch();
  std::vector<std::int16_t> columns(static_cast<std::size_t>(a.batch) * patchp, 0);
  for (int n = 0; n < a.batch; ++n) {
    const std::int8_t* row = a.input + static_cast<std::ptrdiff_t>(n) * a.in_features;
    std::int16_t* dst = columns.data() + static_cast<std::ptrdiff_t>(n) * patchp;
    for (int k = 0; k < a.in_features; ++k) dst[k] = row[k];
  }
  const Requant rq{a.bias, a.weight_sum, a.mantissa, a.shift,
                   a.in_zp, a.out_zp,    kInt8Min};
  for_sample_units(a.batch, 1, pool, [&](int n, int, int) {
    dot16_gemm(pw.data.data(), columns.data(), patchp, a.out_features, rq, a.output,
               /*cstride=*/1, /*jstride=*/a.out_features, n, n + 1);
  });
}

bool packed_matches(const PackedWeights* packed, int cout, int patch) {
  return packed != nullptr && packed->layout == WeightLayout::kPackedDot16 &&
         packed->cout == cout && packed->patch == patch && !packed->empty();
}

}  // namespace

const char* weight_layout_name(WeightLayout layout) {
  switch (layout) {
    case WeightLayout::kRowMajor: return "row-major";
    case WeightLayout::kPackedDot16: return "packed-dot16";
  }
  return "unknown";
}

int PackedWeights::padded_patch() const {
  return (patch + kDotLanes - 1) / kDotLanes * kDotLanes;
}

PackedWeights pack_weights_dot16(const std::int8_t* weight, int cout, int patch) {
  PackedWeights pw;
  pw.layout = WeightLayout::kPackedDot16;
  pw.cout = cout;
  pw.patch = patch;
  const int patchp = pw.padded_patch();
  std::vector<std::int16_t> panels(static_cast<std::size_t>(cout) * patchp, 0);
  for (int c = 0; c < cout; ++c) {
    const std::int8_t* src = weight + static_cast<std::ptrdiff_t>(c) * patch;
    std::int16_t* dst = panels.data() + static_cast<std::ptrdiff_t>(c) * patchp;
    for (int k = 0; k < patch; ++k) dst[k] = src[k];
    // K tail stays zero: multiplied against zeroed operand padding.
  }
  pw.data = std::move(panels);
  return pw;
}

bool node_wants_packed_weights(const ir::Graph& graph, const ir::Node& node) {
  (void)graph;
  // Every GEMM-shaped op packs: spatial convs always run the im2col
  // GEMM, and even 1x1 convs fall back to it on late (small-plane)
  // stages where the direct kernel's per-channel loop overhead
  // dominates — see select_qconv_kernel.
  return node.op == ir::OpKind::kQLinear || node.op == ir::OpKind::kQConv2d;
}

const PackedWeights* PackedWeightSet::find(int node_id) const {
  if (node_id < 0 || static_cast<std::size_t>(node_id) >= by_node.size()) return nullptr;
  const PackedWeights& pw = by_node[static_cast<std::size_t>(node_id)];
  return pw.empty() ? nullptr : &pw;
}

bool PackedWeightSet::empty() const {
  for (const PackedWeights& pw : by_node) {
    if (!pw.empty()) return false;
  }
  return true;
}

PackedWeightSet pack_graph_weights(const ir::Graph& graph) {
  PackedWeightSet set;
  set.by_node.resize(static_cast<std::size_t>(graph.size()));
  for (const ir::Node& node : graph.nodes()) {
    if (!node_wants_packed_weights(graph, node)) continue;
    const ir::Node& weight = graph.node(node.inputs[1]);
    const int cout = weight.type.shape[0];
    const int patch = static_cast<int>(weight.type.shape.numel()) / cout;
    set.by_node[static_cast<std::size_t>(node.id)] =
        pack_weights_dot16(weight.i8_data.data(), cout, patch);
  }
  return set;
}

std::size_t qconv_gemm_scratch_bytes(int cin, int h, int w, int kernel, int pad, int out_h,
                                     int out_w) {
  const std::size_t hp = static_cast<std::size_t>(h) + 2 * static_cast<std::size_t>(pad);
  const std::size_t wp = static_cast<std::size_t>(w) + 2 * static_cast<std::size_t>(pad);
  const std::size_t patch = static_cast<std::size_t>(cin) * kernel * kernel;
  const std::size_t patchp = (patch + kDotLanes - 1) / kDotLanes * kDotLanes;
  const std::size_t npix = static_cast<std::size_t>(out_h) * out_w;
  return (static_cast<std::size_t>(cin) * hp * wp + npix * patchp) * sizeof(std::int16_t);
}

const char* qconv_kernel_name(QConvKernel k) {
  switch (k) {
    case QConvKernel::kScalar: return "scalar";
    case QConvKernel::kIm2colGemm: return "im2col-gemm";
    case QConvKernel::kDirectConv: return "direct-conv";
  }
  return "unknown";
}

const char* qlinear_kernel_name(QLinearKernel k) {
  switch (k) {
    case QLinearKernel::kScalar: return "scalar";
    case QLinearKernel::kGemm: return "gemm";
  }
  return "unknown";
}

bool fast_kernels_enabled() {
#ifdef MICRONAS_PORTABLE
  return false;
#else
  return true;
#endif
}

QConvKernel select_qconv_kernel(const QConv2dArgs& a, const PackedWeights* packed) {
  if (!fast_kernels_enabled()) return QConvKernel::kScalar;
  // 1x1/s1/p0 with enough pixels: the direct kernel's contiguous pixel
  // rows beat building an im2col transpose. Below kDirectMinPix the
  // per-channel loop overhead dominates its vectorized inner loop and
  // the GEMM wins (measured crossover between 16 and 64 pixels).
  const bool one_by_one = a.kernel == 1 && a.stride == 1 && a.pad == 0;
  if (one_by_one && a.out_h * a.out_w >= kDirectMinPix) return QConvKernel::kDirectConv;
  if (packed_matches(packed, a.cout, a.cin * a.kernel * a.kernel)) {
    return QConvKernel::kIm2colGemm;
  }
  // No packed weights (graph-only caller that skipped packing): the
  // direct kernel still beats scalar everywhere except tiny planes.
  if (one_by_one) return QConvKernel::kDirectConv;
  return QConvKernel::kScalar;
}

QLinearKernel select_qlinear_kernel(const QLinearArgs& a, const PackedWeights* packed) {
  if (!fast_kernels_enabled()) return QLinearKernel::kScalar;
  if (packed_matches(packed, a.out_features, a.in_features)) return QLinearKernel::kGemm;
  return QLinearKernel::kScalar;
}

void qconv2d_auto(const QConv2dArgs& a, const PackedWeights* packed, ThreadPool* pool) {
  check_requant_shifts(a.shift, a.cout, "qconv2d_auto");
  switch (select_qconv_kernel(a, packed)) {
    case QConvKernel::kScalar: return qconv2d(a, pool);
    case QConvKernel::kDirectConv: return qconv2d_direct(a, pool);
    case QConvKernel::kIm2colGemm: return qconv2d_gemm(a, *packed, pool);
  }
}

void qlinear_auto(const QLinearArgs& a, const PackedWeights* packed, ThreadPool* pool) {
  check_requant_shifts(a.shift, a.out_features, "qlinear_auto");
  switch (select_qlinear_kernel(a, packed)) {
    case QLinearKernel::kScalar: return qlinear(a, pool);
    case QLinearKernel::kGemm: return qlinear_gemm(a, *packed, pool);
  }
}

}  // namespace micronas::rt
