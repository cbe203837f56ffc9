// Static arena memory planner: liveness analysis + greedy-by-size
// offset assignment (the TFLite-Micro planning strategy), extended with
// three footprint-shrinking rungs that all preserve bit-identical
// execution:
//
//   1. schedule reordering — done upstream by the compiler's
//      schedule-reorder pass (src/compile/passes.hpp), which permutes
//      the node list this planner treats as the schedule;
//   2. in-place aliasing — an elementwise op whose input dies at the op
//      (qadd/qrelu/add/relu, plus the global-avg-pools, whose serial
//      kernels read every input byte before the output byte that
//      overwrites it) shares the input's storage: its BufferPlacement
//      carries `alias_of` and the pair is placed as one region;
//   3. row-strip streaming — when `arena_budget` is set and the plain
//      plan exceeds it, stride-1 same-spatial qconv2d/qavg_pool nodes
//      whose input dies at the op execute bottom-up in halo-correct row
//      strips through a small executor-owned scratch (recorded as
//      `stream_scratch_bytes`, sized like the im2col `columns_`
//      scratch), letting output storage overlay input storage so the
//      pair costs max(|x|, |y|) instead of |x| + |y|.
//
// The node list of an ir::Graph is its execution schedule, so value
// lifetimes are intervals over schedule steps: a value is live from the
// step that defines it to the last step that consumes it (the graph
// output stays live to the end). Buffers whose lifetimes do not
// intersect may share arena bytes; the planner places storage groups
// largest first, each at the lowest aligned offset free over its whole
// lifetime. The resulting arena is what an MCU deployment would
// statically allocate in SRAM — tests/test_memory_planner.cpp checks it
// against hw/memory_model's predicted peak on sampled genotypes, and
// the compile report logs the ratio.
//
// Constants are flash-resident and get no arena bytes; `skip_connect`
// edges alias their producer in the IR and so cost nothing here either.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "src/ir/graph.hpp"

namespace micronas::rt {

/// Largest buffer alignment plan_memory accepts. Bounding it lets
/// check_plan cap a deserialized plan's naive_bytes (sum of value
/// sizes plus at most this much slack per buffer) so a hostile package
/// cannot declare an arbitrarily large arena.
inline constexpr int kMaxPlanAlignment = 64;

struct MemoryPlanOptions {
  int alignment = 16;  // in [1, kMaxPlanAlignment]
  /// Plan every activation at `batch` times its graph size: the arena
  /// an rt::Executor at batch capacity `batch` needs.
  /// Liveness is batch-invariant (the schedule does not change), so the
  /// batch-N plan is the batch-1 plan with every buffer scaled — a
  /// partial batch simply uses a prefix of each buffer.
  int batch = 1;
  /// Rung 2: let an elementwise op whose input dies at the op write
  /// over that input's buffer. Never changes results (the kernels read
  /// each input byte before the output byte that replaces it); purely
  /// an arena shrink.
  bool alias_inplace = true;
  /// Rung 3: hard activation-arena ceiling in bytes (0 = unbounded).
  /// When the plain plan exceeds it, the planner converts eligible
  /// conv/pool nodes to row-strip streaming until the plan fits, and
  /// throws std::runtime_error if it cannot. Like the executors'
  /// im2col scratch, the streaming scratch is accounted separately
  /// (stream_scratch_bytes), not against this budget.
  long long arena_budget = 0;
};

/// One value's slot in the arena.
struct BufferPlacement {
  int node_id = -1;
  long long offset = 0;
  long long size = 0;       // bytes (unaligned true size)
  int def_step = 0;         // schedule step producing the value
  int last_use_step = 0;    // last schedule step reading it
  /// In-place aliasing: id of the input node whose storage this value
  /// overwrites (-1 = none). Aliased placements share the target's
  /// offset; the pair is exempt from the no-overlap-while-live
  /// invariant because the producing kernel is in-place safe.
  int alias_of = -1;
};

/// One row-strip-streamed node: the op executes bottom-up in strips of
/// `strip_h` output rows through the executor's stream scratch, so its
/// output placement may overlay its (dying) input placement.
struct StripStream {
  int node_id = -1;
  int strip_h = 0;  // output rows per strip, in [1, out_h]
};

struct MemoryPlan {
  long long arena_bytes = 0;  // planned peak (max over placements)
  long long naive_bytes = 0;  // every buffer distinct — no lifetime reuse
  /// Executor-owned scratch for row-strip streaming (max over `strips`
  /// of one strip's gathered input rows + staged output rows, per
  /// sample). Accounted beside the arena, like the im2col scratch.
  long long stream_scratch_bytes = 0;
  std::vector<BufferPlacement> buffers;   // sorted by node_id
  std::vector<int> schedule;              // executed node ids, in order
  std::vector<StripStream> strips;        // sorted by node_id

  /// Placement for a node id; nullptr for consts / planned-out values.
  const BufferPlacement* find(int node_id) const;
  /// Strip geometry for a node id; nullptr if the node is not streamed.
  const StripStream* find_strip(int node_id) const;

  /// naive/arena compression from lifetime reuse. Degenerate cases are
  /// explicit: a plan with no placements at all (both totals zero, e.g.
  /// a fully folded graph) reuses nothing and reports 1.0; an empty
  /// arena that still claims naive bytes is infinitely compressed —
  /// report infinity rather than masking it as 1.0.
  double reuse_factor() const {
    if (arena_bytes > 0) {
      return static_cast<double>(naive_bytes) / static_cast<double>(arena_bytes);
    }
    return naive_bytes == 0 ? 1.0 : std::numeric_limits<double>::infinity();
  }

  /// Human-readable per-op schedule with offsets (the memory-plan
  /// report section of CompileReport).
  std::string to_string(const ir::Graph& graph) const;
};

/// True for op kinds whose kernels may write their output in place over
/// a dying input: elementwise ops read in[i] before writing out[i], the
/// (serial) global-avg-pools never write an output byte before the
/// input byte it replaces has been consumed, and quantize shrinks
/// f32 -> i8 front-to-back so every write trails the reads. Dequantize
/// widens (out[0] spans in[1..3]) and is excluded.
bool inplace_alias_op(ir::OpKind op);

/// True when `node` has row-strip-streamable geometry: kQConv2d or
/// kQAvgPool, stride 1, output spatial dims equal to the input's (which
/// forces kernel == 2*pad + 1), a non-const input, and per-sample
/// storage layouts that overlay safely (batch dim 1, or equal channel
/// counts). Liveness (input dies at the op) is checked by the planner,
/// not here.
bool strip_streamable(const ir::Graph& graph, const ir::Node& node);

/// Executor scratch bytes one strip of `strip_h` output rows needs for
/// `node_id` (gathered zero-point-padded input rows + staged output
/// rows, both int8, per sample). Shared by the planner, check_plan and
/// the executors so the accounting cannot drift.
long long strip_scratch_bytes(const ir::Graph& graph, int node_id, int strip_h);

/// Plan the graph. Throws std::logic_error if any two placements with
/// overlapping lifetimes overlap in the arena (internal invariant,
/// checked before returning) and std::runtime_error if
/// options.arena_budget is set but unreachable even with every eligible
/// node streamed.
MemoryPlan plan_memory(const ir::Graph& graph, const MemoryPlanOptions& options = {});

/// Re-derive schedule and liveness from `graph` and check `plan`
/// against them: coverage (every non-const value placed, nothing
/// else), sizes, def/last-use steps, offsets within [0, arena_bytes],
/// the no-overlap-while-live invariant (storage groups formed by
/// alias/strip entries excepted), alias eligibility (in-place-safe op,
/// target is a dying input, offsets shared, output fits) and strip
/// eligibility (streamable geometry, dying input, shared offset,
/// strip_h in range, scratch accounting). Throws std::logic_error on
/// the first violation — the deserializer's fail-closed gate before a
/// loaded plan ever reaches an Executor.
void check_plan(const ir::Graph& graph, const MemoryPlan& plan);

}  // namespace micronas::rt
