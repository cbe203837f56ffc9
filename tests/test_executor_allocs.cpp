// Heap allocations per executor run must not grow with the graph: a
// node dispatch allocates nothing, at batch capacity 1 (deploy) and at
// batch capacity 8 (serving). The 1-cell and 5-cell skeletons of one
// genotype differ only in how many nodes the walk dispatches, so equal
// counts on both pin the per-node cost at zero. This test lives in its
// own binary because it replaces the global operator new.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "src/compile/compiler.hpp"
#include "src/data/synthetic.hpp"
#include "src/rt/runtime.hpp"

namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

// noinline: GCC's -Wmismatched-new-delete misreads an inlined
// replacement delete's free() as freeing an operator-new pointer.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace micronas {
namespace {

compile::CompiledModel skeleton(int cells) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = cells;
  options.macro.input_size = 32;
  options.calibration_batches = 1;
  options.seed = 3;
  return compile::compile_genotype(
      nb201::Genotype::from_string("|nor_conv_3x3~0|+|skip_connect~0|nor_conv_1x1~1|+"
                                   "|avg_pool_3x3~0|none~1|nor_conv_3x3~2|"),
      options);
}

int executed_nodes(const ir::Graph& graph) {
  return static_cast<int>(std::count_if(graph.nodes().begin(), graph.nodes().end(),
                                        [](const ir::Node& n) {
                                          return !n.is_const() && n.op != ir::OpKind::kInput;
                                        }));
}

template <typename F>
long long allocations_of(const F& f) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

struct Counts {
  long long run = 0;        // one input through run()
  long long run_batch = 0;  // a full batch through run_batch()
};

Counts count_allocations(const compile::CompiledModel& model, int capacity) {
  DatasetSpec spec;
  spec.height = spec.width = 32;
  Rng rng(17);
  SyntheticDataset data(spec, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < capacity; ++i) inputs.push_back(data.sample_batch(1, rng).images);
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : inputs) ptrs.push_back(&t);
  const std::span<const Tensor* const> batch(ptrs.data(), ptrs.size());

  rt::Executor exec(model.graph, capacity == 1 ? model.plan : model.plan_for_batch(capacity),
                    capacity, rt::ExecOptions{1, &model.packed});
  exec.run(inputs[0]);  // warm: first-touch effects stay out of the counts
  exec.run_batch(batch);
  Counts c;
  c.run = allocations_of([&] { exec.run(inputs[0]); });
  c.run_batch = allocations_of([&] { exec.run_batch(batch); });
  return c;
}

TEST(ExecutorAllocations, PerRunCountDoesNotGrowWithTheGraph) {
  const compile::CompiledModel small = skeleton(1);
  const compile::CompiledModel large = skeleton(5);
  ASSERT_GT(executed_nodes(large.graph), executed_nodes(small.graph));

  for (const int capacity : {1, 8}) {
    const Counts a = count_allocations(small, capacity);
    const Counts b = count_allocations(large, capacity);
    const std::string what = "capacity " + std::to_string(capacity) + ": " +
                             std::to_string(executed_nodes(small.graph)) + " vs " +
                             std::to_string(executed_nodes(large.graph)) + " executed nodes";
    std::cout << "[allocs] " << what << ": run " << a.run << " / " << b.run << ", run_batch "
              << a.run_batch << " / " << b.run_batch << "\n";
    EXPECT_EQ(a.run, b.run) << what;
    EXPECT_EQ(a.run_batch, b.run_batch) << what;
  }
}

}  // namespace
}  // namespace micronas
