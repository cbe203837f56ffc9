// Deterministic interpreter runtime for compiled ir::Graphs.
//
// One Executor walks the node list (which is the schedule) and
// dispatches one kernel per node over one statically planned arena
// (rt/memory_planner.hpp), the shape of TFLite-Micro's
// MicroInterpreter. Its batch capacity N (default 1) sets how many
// sample slots every activation buffer holds:
//
//   * capacity 1 — one slot holding one graph batch, so a graph
//     compiled at batch B runs B samples per run(). Over the compiler's
//     plan this is the deployment configuration whose peak the compile
//     report compares against hw/memory_model. Without a plan, every
//     value gets its own arena offset (no lifetime reuse): the naive
//     reference interpreter used for calibration (set_observer) and
//     numerics validation, whose arena_bytes() is the plan's naive
//     total rather than 0.
//   * capacity N — a batch-1 graph over an arena planned at N samples
//     (MemoryPlanOptions::batch). run_batch() of n <= N inputs is ONE
//     graph walk: qconv/qlinear widen the int8-GEMM M dimension to n
//     samples, and every other kernel broadcasts over the n slots
//     (independent samples, partitioned over the thread pool above a
//     per-sample byte gate). A partial batch uses the first n slots.
//
// Float kernels are deliberately naive direct loops (the reference
// semantics); the int8 kernels (kernels_int8.hpp) are the optimized
// deployment path. Results are bit-identical across repeated runs,
// thread counts, batch sizes and slot positions: sample i of
// run_batch({x0.., xi, ..}) equals a capacity-1 run(xi), because no
// per-sample accumulation order depends on any of them (asserted by
// tests/test_batched_executor.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/ir/graph.hpp"
#include "src/rt/kernels_int8_gemm.hpp"
#include "src/rt/memory_planner.hpp"

namespace micronas::rt {

struct ExecOptions {
  /// Worker threads for the int8/float convolution channel partition
  /// and the sample partition of broadcast ops (1 = serial, 0 = one per
  /// hardware thread). Results are bit-identical for every setting.
  int threads = 1;
  /// Pre-packed qconv/qlinear weights keyed by this graph's node ids
  /// (compile::CompiledModel::packed, or a package's PACK section) —
  /// must outlive the executor, like the graph. nullptr: the executor
  /// packs on the fly at construction (skipped under MICRONAS_PORTABLE,
  /// where the kernel selector only ever picks the scalar reference).
  const PackedWeightSet* packed = nullptr;
  /// Accumulate per-node wall time into op_profile(). Off by default:
  /// profiling adds two clock reads per node dispatch. Independent of
  /// obs tracing — spans fire whenever tracing is enabled, profiling
  /// only when this is set.
  bool profile = false;
};

/// Per-node runtime attribution. The static facts (op, kernel variant,
/// bytes, strip height) are resolved once at executor construction and
/// double as obs span tags; calls/total_ms accumulate across runs
/// when ExecOptions::profile is set.
struct OpProfileEntry {
  int node_id = -1;        // -1: node not executed (const/input)
  const char* op = "";     // op_kind_name, static storage
  const char* kernel = ""; // selected kernel variant ("" = fixed-function op)
  long long bytes = 0;     // output + non-const input bytes of one slot
  int strip_h = 0;         // row-strip height when stream-scheduled, else 0
  std::uint64_t calls = 0;
  double total_ms = 0.0;
};

class Executor {
 public:
  /// Capacity 1 over the compiler's plan of this graph; throws
  /// std::invalid_argument if a placement is not its value's size.
  Executor(const ir::Graph& graph, const MemoryPlan& plan, ExecOptions options = {});
  /// Capacity 1, unplanned: every value at its own arena offset.
  explicit Executor(const ir::Graph& graph, ExecOptions options = {});
  /// Plans its own arena at `batch_capacity` (batch-scaled liveness).
  Executor(const ir::Graph& graph, int batch_capacity, ExecOptions options = {},
           MemoryPlanOptions plan_options = {});
  /// Uses a caller-provided plan (typically
  /// compile::CompiledModel::plan_for_batch). Throws
  /// std::invalid_argument if any placement is not batch_capacity
  /// times its value's size, or if batch_capacity > 1 and the graph is
  /// not compiled at batch 1.
  Executor(const ir::Graph& graph, MemoryPlan plan, int batch_capacity,
           ExecOptions options = {});

  /// Execute one input (the graph's input shape, f32) and return the
  /// f32 output (the graph must end in a f32 node).
  Tensor run(const Tensor& input);
  /// Execute 1..batch_capacity() inputs, each of the graph's input
  /// shape, in one graph walk; result i is the output of input i.
  std::vector<Tensor> run_batch(std::span<const Tensor* const> inputs);
  std::vector<Tensor> run_batch(std::span<const Tensor> inputs);

  /// Calibration hook: called after each f32-producing step (and for
  /// the input) with the node id and its output values, all run slots.
  using Observer = std::function<void(int node_id, std::span<const float>)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  int batch_capacity() const { return capacity_; }
  /// Arena bytes allocated: the plan's arena, or every value's bytes
  /// (aligned) when unplanned.
  long long arena_bytes() const { return static_cast<long long>(arena_.size()); }

  /// Per-node attribution + accumulated times, indexed by node id
  /// (entries with node_id == -1 were not executed). Times are only
  /// accumulated when ExecOptions::profile is set.
  const std::vector<OpProfileEntry>& op_profile() const { return profile_; }

  /// Bytes a broadcast op's dispatch actually touches per sample:
  /// output bytes plus every non-const input's bytes, in the op's real
  /// dtype (an int8 op of N elements is N bytes, a f32 op 4N) — the
  /// unit each_sample's gate compares against kMinParallelSampleBytes.
  /// Compute-bound ops (f32 conv / linear) report kHeavySample: their
  /// per-element cost dwarfs the memory traffic, so they always cross
  /// the gate.
  static std::size_t sample_io_bytes(const ir::Graph& graph, const ir::Node& node);
  /// each_sample's pool-dispatch threshold: below this many bytes
  /// touched per sample the serial loop is strictly faster.
  static constexpr std::size_t kMinParallelSampleBytes = 32u * 1024u;
  /// sample_io_bytes result for compute-bound ops: always parallelize.
  static constexpr std::size_t kHeavySample = ~std::size_t{0};

 private:
  /// One node's storage: slot 0 (an arena offset, or a constant's own
  /// data) and the stride between sample slots (0 for constants, which
  /// every slot shares).
  struct Slots {
    std::byte* base = nullptr;
    std::size_t stride = 0;
  };
  template <typename T>
  T* slot(int node_id, int s) const {
    const Slots& b = slots_[static_cast<std::size_t>(node_id)];
    return reinterpret_cast<T*>(b.base + static_cast<std::size_t>(s) * b.stride);
  }
  void dispatch(const ir::Node& node, int n);
  /// Run fn(slot) for slots [0, n): over the pool when each sample's
  /// work (sample_io_bytes) is large enough to amortize a pool
  /// dispatch, else a plain loop — samples are independent, so the
  /// split cannot change results.
  template <typename Fn>
  void each_sample(const ir::Node& node, int n, const Fn& fn);

  const ir::Graph& graph_;
  MemoryPlan plan_;
  int capacity_;
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  Observer observer_;

  std::vector<std::byte> arena_;
  std::vector<Slots> slots_;                 // indexed by node id
  std::vector<std::int8_t> columns_;         // im2col scratch at batch capacity
  std::vector<std::int8_t> stream_scratch_;  // row-strip gather + stage (one sample)
  // Per-node Σ_k w[c,k] for kQConv2d / kQLinear, computed once.
  std::vector<std::vector<std::int32_t>> weight_sums_;
  // Packed weights the kernel selector dispatches on: the caller's set
  // (options.packed) or `owned_packed_` built at construction.
  PackedWeightSet owned_packed_;
  const PackedWeightSet* packed_ = nullptr;
  std::vector<OpProfileEntry> profile_;  // indexed by node id
};

/// Former name of the batch-capacity executor; perfbench/pipeline.cpp
/// still spells it.
using BatchedExecutor = Executor;

}  // namespace micronas::rt
