// Deployment compiler driver: genotype -> executable, memory-planned
// int8 graph.
//
// Pipeline (each stage optional via CompilerOptions, defaults all-on):
//
//   lower_genotype            (src/ir/lower.hpp)
//     -> constant-fold        (BN params, `none`-edge zeros)
//     -> fuse-conv-bn-relu
//     -> dce
//     -> int8-ptq             (calibrated on synthetic batches)
//     -> dce
//     -> memory planning      (src/rt/memory_planner.hpp)
//
// The CompileReport carries per-pass telemetry, the memory-plan
// summary, and the planned-arena vs hw/memory_model-predicted peak
// ratio — the end-to-end validation of the analytic model the search
// relies on. Latency fields are filled by callers that own a profiled
// estimator (MicroNas::compile_winner, examples/compile_and_run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/compile/pass_manager.hpp"
#include "src/hw/quant.hpp"
#include "src/ir/lower.hpp"
#include "src/rt/kernels_int8_gemm.hpp"
#include "src/rt/memory_planner.hpp"

namespace micronas::compile {

struct CompilerOptions {
  MacroNetConfig macro;         // deployment skeleton
  int batch = 1;
  std::uint64_t seed = 1;       // weights + calibration data
  bool fold = true;
  bool fuse = true;
  bool quantize = true;         // requires fold && fuse
  /// Schedule-reorder pass: permute the node list when list scheduling
  /// finds an order the planner proves strictly arena-smaller.
  bool reorder = true;
  int calibration_batches = 2;  // each of shape [batch, C, H, W]
  QuantSpec quant;
  rt::MemoryPlanOptions plan;
  int threads = 1;              // calibration executor concurrency
};

struct CompileReport {
  std::string arch;             // canonical genotype string
  int lowered_nodes = 0;        // node count straight out of the frontend
  int final_nodes = 0;
  int lowered_executed = 0;     // executed (non-const) ops before/after
  int final_executed = 0;
  std::vector<PassStat> passes;

  long long arena_bytes = 0;        // planned activation arena
  long long naive_arena_bytes = 0;  // without lifetime reuse
  long long const_bytes = 0;        // flash image (weights + quant params)

  /// hw/memory_model predicted peak SRAM for the quantized deployment
  /// model, and planned/predicted — the memory planner's end-to-end
  /// validation of the analytic model (< 1 means the plan fits the
  /// prediction).
  long long model_peak_sram_bytes = 0;
  double arena_to_model_ratio = 0.0;

  /// Filled by callers holding a latency estimator / MCU simulator.
  double predicted_latency_ms = 0.0;   // LUT estimator on the macro model
  double executed_latency_ms = 0.0;    // mcusim on the compiled schedule

  std::string memory_plan;  // rt::MemoryPlan::to_string

  /// `include_timing` also prints per-pass wall milliseconds (excluded
  /// from the golden fixture, which must be machine-independent).
  std::string to_string(bool include_timing = true) const;
};

struct CompiledModel {
  ir::Graph graph;
  rt::MemoryPlan plan;
  CompileReport report;
  /// Kernel-layout weights for the int8 GEMM (pack-weights pass):
  /// chosen at package-build time, serialized into the .mnpkg PACK
  /// section so the server never repacks on load. Hand to executors
  /// via ExecOptions::packed; empty when the model is not quantized.
  rt::PackedWeightSet packed;

  /// Re-plan the activation arena at `batch_capacity`: the same graph
  /// and schedule with every buffer scaled to hold batch_capacity
  /// samples — what a serving deployment hands an rt::Executor at that
  /// batch capacity so a coalesced batch is one executor invocation.
  /// batch_capacity == 1 reproduces `plan` (up to the alignment in
  /// `options`). The batch capacity is a deployment choice, not a model
  /// property, so it is not part of the serialized package; re-planning
  /// is pure and cheap.
  rt::MemoryPlan plan_for_batch(int batch_capacity,
                                rt::MemoryPlanOptions options = {}) const;
};

/// Run the full pipeline. Throws on inconsistent options
/// (quantize without fold+fuse).
CompiledModel compile_genotype(const nb201::Genotype& genotype,
                               const CompilerOptions& options = {});

}  // namespace micronas::compile
