// Packed, tiled, vectorizable int8 GEMM kernels — the hardware-fast
// deployment hot path behind a shape-based kernel-selection table.
//
// The scalar kernels in kernels_int8.hpp remain the always-built
// reference semantics; everything here is a *layout/schedule*
// optimization of the same integer arithmetic. Because accumulation is
// exact int32 (no saturation until the final requantization), integer
// addition is associative and commutative, so packing, tiling and loop
// reordering CANNOT change results: every kernel in this file is
// bit-identical to the scalar reference for every shape, batch size
// and thread count (property-tested by
// tests/test_kernels_int8_gemm.cpp under ASan/UBSan and TSan).
//
// Three layers:
//
//   * Packed weight layout (`PackedWeights`, `WeightLayout`): qconv /
//     qlinear weights widened from the canonical int8 [cout][patch]
//     rows into int16 rows padded to kDotLanes along K
//     (kPackedDot16). int16 operands are what x86 turns into the
//     dual-MAC multiply-add idiom (vpmaddwd: 2 MACs per lane per
//     instruction — the same SMLAD trick the paper's Cortex-M7 int8
//     path leans on), roughly doubling MAC throughput over a widen-to-
//     int32 formulation, and the K padding lets the dot loop run to a
//     vector-width multiple with no scalar tail. Packing happens ONCE
//     at package-build time (the compiler's pack-weights step) and the
//     packed image is serialized into the .mnpkg CNST section under a
//     PACK table, so a serving process pays zero repack cost on load;
//     executors repack on the fly for graphs (or legacy packages)
//     without one.
//
//   * GEMM core: im2col into an int16 [column][padded-patch] operand
//     (built by contiguous run copies off a zero-point-padded int16
//     image — no per-element bounds checks), then one exact int32 dot
//     product per (output channel, column) whose reduction loop the
//     autovectorizer turns into vpmaddwd chains. A column's operand
//     (padded-patch int16s) stays L1-hot across the whole channel
//     loop.
//
//   * Kernel-selection table (`select_qconv_kernel`): per-shape choice
//     between the im2col GEMM (spatial convs), a direct convolution
//     that skips im2col entirely (1x1 stride-1 pad-0 — im2col would be
//     a pure transpose copy), and the scalar reference (forced by
//     MICRONAS_PORTABLE builds or when no packed weights exist).
//
// Dispatch entry points (`qconv2d_auto`, `qlinear_auto`) are what
// rt::Executor calls; they fall back to the scalar kernels whenever
// the table says so, so a build with MICRONAS_PORTABLE=ON (no
// blocking assumptions, plain loops) behaves identically through the
// same call sites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/const_view.hpp"
#include "src/common/thread_pool.hpp"
#include "src/rt/kernels_int8.hpp"

namespace micronas::ir {
class Graph;
struct Node;
}  // namespace micronas::ir

namespace micronas::rt {

/// On-disk/in-memory weight layout tag. Values are serialized into
/// .mnpkg PACK entries — they are ABI, never renumber them. Unknown
/// tags read from a package are ignored (the loader falls back to
/// repacking), so adding layouts is a forward-compatible extension.
enum class WeightLayout : std::uint8_t {
  kRowMajor = 0,     // canonical int8 [cout][patch] (the IR const layout)
  kPackedDot16 = 1,  // int16 [cout][padded patch] rows, K padded to kDotLanes
};

const char* weight_layout_name(WeightLayout layout);

/// K-dimension padding granularity of kPackedDot16: the int16 lane
/// count of a 512-bit vector, so the dot loop is whole vectors on
/// every ISA level at or below AVX-512 (an AVX2 step just runs two
/// iterations per pad block). Padded weight AND operand tails are
/// zero, so the pad contributes exactly 0 to the int32 sum.
inline constexpr int kDotLanes = 32;

/// One tensor's packed weights: `data` holds cout * padded_patch()
/// int16s (canonical rows widened, K tail zeroed). A ConstView so a
/// mapped package's PACK blobs run in place (zero repack AND zero
/// copy); on-the-fly repacks own their panels as before.
struct PackedWeights {
  WeightLayout layout = WeightLayout::kRowMajor;
  int cout = 0;   // output channels (conv) / out_features (linear)
  int patch = 0;  // K dimension (cin*k*k for conv, in_features for linear)
  ConstView<std::int16_t> data;

  bool empty() const { return data.empty(); }
  /// patch rounded up to the kDotLanes grid (int16s actually stored
  /// per row).
  int padded_patch() const;
};

/// Widen canonical int8 [cout][patch] rows into kPackedDot16.
PackedWeights pack_weights_dot16(const std::int8_t* weight, int cout, int patch);

/// True for the kQConv2d / kQLinear nodes the pack-weights step packs
/// (all of them: even 1x1 convs run the GEMM on small planes). The
/// pack-weights step, the package loader's repack fallback and the
/// tests all share this predicate so the packed set is identical no
/// matter who built it.
bool node_wants_packed_weights(const ir::Graph& graph, const ir::Node& node);

/// Packed weights for every packable node of a graph, indexed by node
/// id (entries for other nodes stay empty). Built once at
/// package-build time by the compiler's pack-weights step, or on the
/// fly by an executor handed a graph without one.
struct PackedWeightSet {
  std::vector<PackedWeights> by_node;

  /// The node's packed weights, or nullptr if absent/unpacked.
  const PackedWeights* find(int node_id) const;
  bool empty() const;
};

/// Pack every node for which node_wants_packed_weights holds (the
/// weight is input 1 of the consuming node; multi-consumer weights are
/// packed per consuming node, keyed by the consumer's id).
PackedWeightSet pack_graph_weights(const ir::Graph& graph);

/// Scratch bytes per sample the im2col-GEMM conv kernel needs inside
/// QConv2dArgs::columns: the zero-point-padded int16 input image plus
/// the int16 [column][padded patch] operand. Executors size their
/// shared scratch to the max of this (times batch) and the scalar
/// kernel's int8 im2col across all conv nodes.
std::size_t qconv_gemm_scratch_bytes(int cin, int h, int w, int kernel, int pad, int out_h,
                                     int out_w);

// --------------------------------------------------- kernel selection

enum class QConvKernel { kScalar, kIm2colGemm, kDirectConv };
enum class QLinearKernel { kScalar, kGemm };

const char* qconv_kernel_name(QConvKernel k);
const char* qlinear_kernel_name(QLinearKernel k);

/// True when this build runs the blocked kernels at all; false under
/// MICRONAS_PORTABLE=ON, where every dispatch resolves to the scalar
/// reference (and executors skip packing entirely). Packing itself is
/// flavor-independent: a portable build still writes PACK sections so
/// packages are byte-identical across build flavors.
bool fast_kernels_enabled();

/// Shape-based selection table:
///   1x1 / stride 1 / pad 0, >= 64 out pixels -> kDirectConv
///   anything else with packed weights        -> kIm2colGemm
///   1x1 / stride 1 / pad 0, no packed        -> kDirectConv
///   no packed weights / portable             -> kScalar
QConvKernel select_qconv_kernel(const QConv2dArgs& args, const PackedWeights* packed);
QLinearKernel select_qlinear_kernel(const QLinearArgs& args, const PackedWeights* packed);

// ----------------------------------------------------------- dispatch

/// Run the kernel the selection table picks; bit-identical to
/// qconv2d(args, pool) in every case. `packed` may be nullptr.
void qconv2d_auto(const QConv2dArgs& args, const PackedWeights* packed, ThreadPool* pool);

/// Run the kernel the selection table picks; bit-identical to
/// qlinear(args, pool) in every case. `packed` may be nullptr.
void qlinear_auto(const QLinearArgs& args, const PackedWeights* packed, ThreadPool* pool);

}  // namespace micronas::rt
