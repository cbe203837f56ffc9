// Static arena planner: liveness/overlap invariants, reuse quality,
// determinism, the in-place-alias and row-strip-streaming rungs
// (arena never grows, logits never change), and the end-to-end
// validation of hw/memory_model — the planned arena peak must stay at
// or under the analytic model's predicted peak SRAM on sampled NB201
// genotypes.
#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <stdexcept>

#include "src/compile/compiler.hpp"
#include "src/compile/passes.hpp"
#include "src/data/synthetic.hpp"
#include "src/hw/quant.hpp"
#include "src/ir/lower.hpp"
#include "src/nb201/space.hpp"
#include "src/rt/memory_planner.hpp"
#include "src/rt/runtime.hpp"

namespace micronas {
namespace {

ir::Graph lowered(const nb201::Genotype& g, int cells = 1, int input = 8) {
  ir::LowerOptions options;
  options.macro.cells_per_stage = cells;
  options.macro.input_size = input;
  return ir::lower_genotype(g, options);
}

Tensor sample_input(std::uint64_t seed, int input_size = 32) {
  DatasetSpec spec;
  spec.height = spec.width = input_size;
  Rng rng(seed);
  SyntheticDataset data(spec, rng);
  return data.sample_batch(1, rng).images;
}

void expect_bit_identical(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " diverges at logit " << i;
  }
}

/// Arena storage root of a placement: follow alias links (and a
/// streamed node's overlay of its input) to the buffer that actually
/// owns the bytes — pairs with one root legitimately share storage.
int storage_root(const rt::MemoryPlan& plan, const ir::Graph& g, int id) {
  for (;;) {
    const rt::BufferPlacement* b = plan.find(id);
    if (b != nullptr && b->alias_of >= 0) {
      id = b->alias_of;
      continue;
    }
    if (plan.find_strip(id) != nullptr) {
      id = g.node(id).inputs[0];
      continue;
    }
    return id;
  }
}

/// Brute-force no-overlap-while-live over every placement pair,
/// skipping pairs that share one storage root (in-place aliases and
/// streamed overlays are byte sharing by design).
void expect_no_live_overlap(const rt::MemoryPlan& plan, const ir::Graph& g) {
  for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.buffers.size(); ++j) {
      const auto& a = plan.buffers[i];
      const auto& b = plan.buffers[j];
      const bool live_together =
          a.def_step <= b.last_use_step && b.def_step <= a.last_use_step;
      if (storage_root(plan, g, a.node_id) == storage_root(plan, g, b.node_id)) continue;
      const bool disjoint = a.offset + a.size <= b.offset || b.offset + b.size <= a.offset;
      EXPECT_TRUE(!live_together || disjoint)
          << "buffers %" << a.node_id << " and %" << b.node_id << " overlap while live";
    }
  }
}

TEST(MemoryPlanner, NoOverlapAmongLiveBuffersAndFullCoverage) {
  const ir::Graph g = lowered(nb201::Genotype::from_string(
                                  "|nor_conv_3x3~0|+|skip_connect~0|nor_conv_3x3~1|+"
                                  "|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|"),
                              2, 16);
  const rt::MemoryPlan plan = rt::plan_memory(g);

  // Every executed node and the input have a placement.
  EXPECT_NE(plan.find(g.input()), nullptr);
  for (int id : plan.schedule) {
    ASSERT_NE(plan.find(id), nullptr);
    EXPECT_FALSE(g.node(id).is_const());
  }
  EXPECT_EQ(plan.buffers.size(), plan.schedule.size() + 1);  // + input

  // Brute-force pairwise check mirroring the planner's invariant.
  expect_no_live_overlap(plan, g);

  // Arena bound sanity: covers every placement, beats no-reuse.
  for (const auto& b : plan.buffers) EXPECT_LE(b.offset + b.size, plan.arena_bytes);
  EXPECT_LT(plan.arena_bytes, plan.naive_bytes);
  EXPECT_GT(plan.reuse_factor(), 1.5);
}

TEST(MemoryPlanner, LifetimesMatchConsumerSchedule) {
  const ir::Graph g = lowered(nb201::Genotype::from_index(321));
  const rt::MemoryPlan plan = rt::plan_memory(g);
  std::map<int, int> step_of;
  step_of[g.input()] = 0;
  for (std::size_t s = 0; s < plan.schedule.size(); ++s) {
    step_of[plan.schedule[s]] = static_cast<int>(s) + 1;
  }
  for (const auto& b : plan.buffers) {
    EXPECT_EQ(b.def_step, step_of.at(b.node_id));
    int last = b.def_step;
    for (int id : plan.schedule) {
      for (int in : g.node(id).inputs) {
        if (in == b.node_id) last = std::max(last, step_of.at(id));
      }
    }
    if (b.node_id == g.output()) last = static_cast<int>(plan.schedule.size());
    EXPECT_EQ(b.last_use_step, last) << "node %" << b.node_id;
  }
}

TEST(MemoryPlanner, DeterministicAcrossCalls) {
  const ir::Graph g = lowered(nb201::Genotype::from_index(4545), 2);
  const rt::MemoryPlan a = rt::plan_memory(g);
  const rt::MemoryPlan b = rt::plan_memory(g);
  ASSERT_EQ(a.buffers.size(), b.buffers.size());
  EXPECT_EQ(a.arena_bytes, b.arena_bytes);
  for (std::size_t i = 0; i < a.buffers.size(); ++i) {
    EXPECT_EQ(a.buffers[i].offset, b.buffers[i].offset);
  }
}

TEST(MemoryPlanner, HandlesFullyFoldedConstOutput) {
  // An all-`none` genotype under fold+fuse+dce (no quantization)
  // collapses the entire network into a constant: the cell outputs are
  // zero consts, so the reductions, GAP and classifier all fold. The
  // planner must cope with a graph whose output has no placement.
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.quantize = false;
  const compile::CompiledModel m = compile::compile_genotype(nb201::Genotype(), options);
  EXPECT_TRUE(m.graph.node(m.graph.output()).is_const());
  EXPECT_TRUE(m.plan.schedule.empty());

  // And it still executes: the logits are the folded constant.
  rt::Executor exec(m.graph, m.plan, rt::ExecOptions{1});
  Tensor input(Shape{1, 3, 8, 8});
  const Tensor logits = exec.run(input);
  EXPECT_EQ(logits.shape(), (Shape{1, 10}));
}

// Satellite: the planner's arena (+ its true scratch needs) must fit
// the analytic model's predicted peak SRAM for the same quantized
// deployment model, on every sampled genotype; the compile report logs
// the ratio.
TEST(MemoryPlanner, PlannedArenaWithinModelPredictedPeak) {
  Rng rng(11);
  double worst = 0.0;
  for (const auto& g : nb201::sample_genotypes(rng, 25)) {
    compile::CompilerOptions options;  // full NB201 skeleton, int8
    options.calibration_batches = 1;   // keep the float calibration pass cheap
    const compile::CompiledModel model = compile::compile_genotype(g, options);
    EXPECT_GT(model.report.model_peak_sram_bytes, 0);
    EXPECT_LE(model.report.arena_bytes, model.report.model_peak_sram_bytes)
        << "genotype " << g.to_string();
    worst = std::max(worst, model.report.arena_to_model_ratio);
  }
  std::cout << "[planner-vs-model] worst planned/predicted ratio over 25 genotypes: " << worst
            << "\n";
  EXPECT_LE(worst, 1.0);
}

// Satellite bugfix: reuse_factor's degenerate cases are explicit — an
// empty plan reuses nothing (1.0), and an arena-free plan that still
// claims naive bytes is infinitely compressed, not silently "1.0".
TEST(MemoryPlanner, ReuseFactorDegenerateCases) {
  rt::MemoryPlan plan;
  EXPECT_DOUBLE_EQ(plan.reuse_factor(), 1.0);  // no placements at all

  plan.naive_bytes = 4096;  // arena 0 but naive > 0: infinite compression
  EXPECT_TRUE(std::isinf(plan.reuse_factor()));
  EXPECT_GT(plan.reuse_factor(), 0.0);

  plan.arena_bytes = 1024;
  EXPECT_DOUBLE_EQ(plan.reuse_factor(), 4.0);  // the ordinary ratio
}

// Satellite property test: for 25 sampled genotypes, the
// reordered+aliased plan passes the loader's own gate (check_plan),
// never exceeds the unoptimized plan's arena, and the logits stay
// bit-identical across thread counts and batch sizes.
TEST(MemoryPlanner, OptimizedPlansAreValidSmallerAndBitIdenticalOn25Genotypes) {
  Rng rng(77);
  const Tensor input = sample_input(901, 8);
  int aliased_plans = 0;
  int reordered_graphs = 0;
  for (const auto& g : nb201::sample_genotypes(rng, 25)) {
    compile::CompilerOptions options;
    options.macro.cells_per_stage = 1;
    options.macro.input_size = 8;
    options.calibration_batches = 1;
    options.seed = 13;

    compile::CompilerOptions baseline = options;
    baseline.reorder = false;
    baseline.plan.alias_inplace = false;
    const compile::CompiledModel plain = compile::compile_genotype(g, baseline);
    const compile::CompiledModel tuned = compile::compile_genotype(g, options);

    // The loader's fail-closed gate accepts what the planner produced.
    ASSERT_NO_THROW(rt::check_plan(tuned.graph, tuned.plan)) << g.to_string();
    expect_no_live_overlap(tuned.plan, tuned.graph);
    EXPECT_LE(tuned.plan.arena_bytes, plain.plan.arena_bytes) << g.to_string();
    for (const auto& b : tuned.plan.buffers) aliased_plans += b.alias_of >= 0 ? 1 : 0;
    for (const auto& p : tuned.report.passes) {
      reordered_graphs += p.name == "schedule-reorder" && p.changed ? 1 : 0;
    }

    rt::Executor plain_exec(plain.graph, plain.plan, rt::ExecOptions{1, &plain.packed});
    const Tensor want = plain_exec.run(input);
    rt::Executor serial(tuned.graph, tuned.plan, rt::ExecOptions{1, &tuned.packed});
    expect_bit_identical(serial.run(input), want, g.to_string() + " serial");
    rt::Executor threaded(tuned.graph, tuned.plan, rt::ExecOptions{3, &tuned.packed});
    expect_bit_identical(threaded.run(input), want, g.to_string() + " threads=3");

    rt::Executor batched(tuned.graph, tuned.plan_for_batch(3), 3,
                         rt::ExecOptions{3, &tuned.packed});
    const std::vector<Tensor> batch = {input, input, input};
    const std::vector<Tensor> logits = batched.run_batch(std::span<const Tensor>(batch));
    for (std::size_t i = 0; i < logits.size(); ++i) {
      expect_bit_identical(logits[i], want,
                           g.to_string() + " batched slot " + std::to_string(i));
    }
  }
  // The rungs must actually fire across the sample, not just validate.
  EXPECT_GT(aliased_plans, 0);
  std::cout << "[planner-rungs] " << aliased_plans << " aliased placements, "
            << reordered_graphs << "/25 graphs reordered\n";
}

// Tentpole acceptance: a genotype whose unstreamed plan needs arena A
// executes bit-identically under arena_budget = A/2 via row-strip
// streaming. A single-stage conv chain: every big activation dies at
// its consumer, so streaming can overlay each conv's output onto its
// input and the floor is one activation extent instead of two.
TEST(MemoryPlanner, StreamingMeetsHalvedBudgetBitIdentically) {
  const auto g = nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|none~0|nor_conv_3x3~1|+|none~0|none~1|nor_conv_3x3~2|");
  compile::CompilerOptions options;
  options.macro.num_stages = 1;
  options.macro.cells_per_stage = 1;
  options.calibration_batches = 1;
  options.seed = 13;
  const compile::CompiledModel base = compile::compile_genotype(g, options);
  const long long arena = base.plan.arena_bytes;
  ASSERT_GT(arena, 0);
  EXPECT_TRUE(base.plan.strips.empty());

  options.plan.arena_budget = arena / 2;
  const compile::CompiledModel streamed = compile::compile_genotype(g, options);
  EXPECT_LE(streamed.plan.arena_bytes, arena / 2);
  ASSERT_FALSE(streamed.plan.strips.empty());
  EXPECT_GT(streamed.plan.stream_scratch_bytes, 0);
  ASSERT_NO_THROW(rt::check_plan(streamed.graph, streamed.plan));
  expect_no_live_overlap(streamed.plan, streamed.graph);

  const Tensor input = sample_input(902);
  rt::Executor base_exec(base.graph, base.plan, rt::ExecOptions{1, &base.packed});
  const Tensor want = base_exec.run(input);
  rt::Executor stream_serial(streamed.graph, streamed.plan,
                             rt::ExecOptions{1, &streamed.packed});
  expect_bit_identical(stream_serial.run(input), want, "streamed serial");
  rt::Executor stream_threads(streamed.graph, streamed.plan,
                              rt::ExecOptions{3, &streamed.packed});
  expect_bit_identical(stream_threads.run(input), want, "streamed threads=3");

  // Batched streaming: at capacity 2 every buffer doubles but only the
  // equal-size mid-chain convs may stream, so the reachable floor is
  // higher — 1.5x the unstreamed batch-1 arena still forces strips.
  rt::MemoryPlanOptions batched_opts = options.plan;
  batched_opts.arena_budget = arena + arena / 2;
  rt::Executor batched(streamed.graph, 2, rt::ExecOptions{1, &streamed.packed}, batched_opts);
  const std::vector<Tensor> batch = {input, input};
  const std::vector<Tensor> logits = batched.run_batch(std::span<const Tensor>(batch));
  expect_bit_identical(logits[0], want, "streamed batched slot 0");
  expect_bit_identical(logits[1], want, "streamed batched slot 1");
}

// An impossible budget must throw rather than silently overrun: the
// classifier tail (quantize/fc/dequantize) cannot stream.
TEST(MemoryPlanner, UnreachableBudgetThrows) {
  const ir::Graph g = lowered(nb201::Genotype::from_index(321));
  rt::MemoryPlanOptions options;
  options.arena_budget = 64;
  EXPECT_THROW(rt::plan_memory(g, options), std::runtime_error);
}

// The reorder pass is not vacuous: two independent same-size chains
// hanging off one value plan strictly smaller depth-first (finish one
// chain, free its intermediates, then start the other) than in the
// interleaved order they were built in — and the rewrite must not
// change the numbers.
TEST(MemoryPlanner, ScheduleReorderShrinksIndependentChains) {
  ir::Graph g;
  const int x = g.add_input(ir::TensorType{Shape{1, 4, 16, 16}, ir::DType::kF32});
  ir::ConvAttrs same;  // 3x3 stride-1 pool: keeps the big extent alive
  same.kernel = 3;
  same.stride = 1;
  same.pad = 1;
  ir::ConvAttrs halve;  // 2x2 stride-2 pool: shrinks it 4x
  halve.kernel = 2;
  halve.stride = 2;
  halve.pad = 0;
  const int a1 = g.add_node(ir::OpKind::kAvgPool, {x}, same, "a1");
  const int b1 = g.add_node(ir::OpKind::kAvgPool, {x}, same, "b1");
  const int a2 = g.add_node(ir::OpKind::kAvgPool, {a1}, halve, "a2");
  const int b2 = g.add_node(ir::OpKind::kAvgPool, {b1}, halve, "b2");
  g.set_output(g.add_node(ir::OpKind::kAdd, {a2, b2}));

  rt::MemoryPlanOptions options;
  options.alias_inplace = false;  // isolate the reordering rung
  const long long before = rt::plan_memory(g, options).arena_bytes;

  Tensor input(Shape{1, 4, 16, 16});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(i % 23) * 0.25F - 2.0F;
  }
  rt::Executor before_exec(g, rt::ExecOptions{});
  const Tensor want = before_exec.run(input);

  compile::ScheduleReorderPass pass(options);
  ASSERT_TRUE(pass.run(g));
  const rt::MemoryPlan after = rt::plan_memory(g, options);
  EXPECT_LT(after.arena_bytes, before);
  ASSERT_NO_THROW(rt::check_plan(g, after));

  rt::Executor after_exec(g, after, rt::ExecOptions{});
  expect_bit_identical(after_exec.run(input), want, "reordered chains");
}

}  // namespace
}  // namespace micronas
