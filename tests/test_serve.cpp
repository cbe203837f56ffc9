// ModelServer: batching must be a pure throughput optimization — every
// request's logits bit-identical to a serial Executor run — across
// batch sizes, thread counts, and a save/load round trip of the model;
// and stats() must report the same latency as the metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "src/data/synthetic.hpp"
#include "src/obs/metrics.hpp"
#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/model_server.hpp"

namespace micronas {
namespace {

compile::CompiledModel compiled_small() {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.seed = 5;
  return compile::compile_genotype(
      nb201::Genotype::from_string("|nor_conv_3x3~0|+|skip_connect~0|nor_conv_1x1~1|+"
                                   "|avg_pool_3x3~0|none~1|nor_conv_3x3~2|"),
      options);
}

std::vector<Tensor> sample_inputs(int n, std::uint64_t seed) {
  DatasetSpec spec;
  spec.height = spec.width = 8;
  Rng rng(seed);
  SyntheticDataset data(spec, rng);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inputs.push_back(data.sample_batch(1, rng).images);
  return inputs;
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at logit " << i;
  }
}

TEST(ModelServer, BatchedLogitsEqualSerialLogits) {
  const compile::CompiledModel model = compiled_small();
  const std::vector<Tensor> inputs = sample_inputs(24, 11);

  rt::Executor serial(model.graph, model.plan, rt::ExecOptions{1});
  std::vector<Tensor> expected;
  for (const Tensor& in : inputs) expected.push_back(serial.run(in));

  serve::ServerOptions options;
  options.max_batch = 6;
  options.max_wait_us = 200;
  options.threads = 3;
  serve::ModelServer server(compiled_small(), options);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({in}));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_bit_identical(futures[i].get().logits, expected[i],
                         "request " + std::to_string(i) + " (batched vs serial)");
  }

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<long long>(inputs.size()));
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GE(stats.mean_batch, 1.0);
  EXPECT_LE(stats.p50_ms, stats.p90_ms);
  EXPECT_LE(stats.p90_ms, stats.p99_ms);
  EXPECT_GT(stats.throughput_rps, 0.0);
}

TEST(ModelServer, ServesAReloadedPackageBitExactly) {
  const compile::CompiledModel model = compiled_small();
  const std::vector<Tensor> inputs = sample_inputs(10, 29);

  rt::Executor serial(model.graph, model.plan, rt::ExecOptions{1});
  std::vector<Tensor> expected;
  for (const Tensor& in : inputs) expected.push_back(serial.run(in));

  // Round-trip the model through the package format, then serve it.
  const std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  serve::ServerOptions options;
  options.max_batch = 4;
  options.threads = 2;
  serve::ModelServer server(serialize::load_model_bytes(bytes), options);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_bit_identical(server.infer({inputs[i]}).logits, expected[i],
                         "reloaded request " + std::to_string(i));
  }
}

TEST(ModelServer, CoalescesConcurrentClientsIntoBatches) {
  serve::ServerOptions options;
  options.max_batch = 8;
  options.max_wait_us = 200'000;  // generous: coalescing must win over timing noise
  options.threads = 2;
  serve::ModelServer server(compiled_small(), options);

  const std::vector<Tensor> inputs = sample_inputs(16, 3);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({in}));
  for (std::future<serve::Response>& f : futures) f.get();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 16);
  // 16 requests enqueued faster than they run must coalesce: strictly
  // fewer invocations than requests, batches capped by max_batch.
  EXPECT_LT(stats.batches, stats.requests);
  EXPECT_GE(stats.batches, 2);  // 16 requests cannot fit one batch of 8
  EXPECT_GT(stats.mean_batch, 1.0);
}

TEST(ModelServer, RejectsWrongInputShape) {
  serve::ModelServer server(compiled_small(), {});
  std::future<serve::Response> bad = server.submit({Tensor(Shape{1, 3, 4, 4})});
  EXPECT_THROW(bad.get(), std::invalid_argument);
}

TEST(ModelServer, EveryConcurrentStopWaitsForTheDrain) {
  // Racing stop() calls: only one wins the dispatcher join, but every
  // caller must block until the dispatcher has exited — a loser that
  // returned early would observe incomplete stats(), and a stop()
  // racing the destructor would leave the dispatcher touching freed
  // state. Each thread therefore checks the postcondition right after
  // its own stop() returns.
  serve::ServerOptions options;
  options.max_batch = 2;
  options.max_wait_us = 1'000'000;  // stop() must cut the wait short
  serve::ModelServer server(compiled_small(), options);
  const std::vector<Tensor> inputs = sample_inputs(6, 23);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({in}));

  std::vector<long long> seen(4, -1);
  std::vector<std::thread> stoppers;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    stoppers.emplace_back([&server, &seen, t] {
      server.stop();
      seen[t] = server.stats().requests;
    });
  }
  for (std::thread& th : stoppers) th.join();
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], 6) << "stop() caller " << t << " returned before the queue drained";
  }
  for (std::future<serve::Response>& f : futures) EXPECT_GT(f.get().logits.numel(), 0u);
}

TEST(ModelServer, StopDrainsPendingRequests) {
  serve::ServerOptions options;
  options.max_batch = 4;
  options.max_wait_us = 1'000'000;  // stop() must cut the wait short
  serve::ModelServer server(compiled_small(), options);
  const std::vector<Tensor> inputs = sample_inputs(3, 17);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({in}));
  server.stop();
  for (std::future<serve::Response>& f : futures) EXPECT_GT(f.get().logits.numel(), 0u);
  EXPECT_THROW(server.submit({inputs[0]}), serve::ServeError);
  EXPECT_EQ(server.stats().requests, 3);
}

// One latency truth: stats() and the registry's serve.latency_ms read
// the same per-request samples through the same bounds, so their
// percentiles agree exactly, and both lie within the bounds' stated
// error of the exact nearest-rank percentile of the responses' own
// total_ms.
TEST(ModelServer, StatsAndRegistryReportOneLatency) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  serve::ServerOptions options;
  options.max_batch = 4;
  options.threads = 1;
  serve::ModelServer server(compiled_small(), options);
  const std::vector<Tensor> inputs = sample_inputs(48, 31);
  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit({in}));
  std::vector<double> total_ms;
  for (std::future<serve::Response>& f : futures) total_ms.push_back(f.get().total_ms);
  std::sort(total_ms.begin(), total_ms.end());

  const serve::ServerStats stats = server.stats();
  const obs::Histogram& shared = registry.latency_histogram("serve.latency_ms");
  ASSERT_EQ(shared.count(), total_ms.size());
  const double bound = std::exp2(1.0 / 8.0) - 1.0;
  const std::pair<double, double> reported[] = {
      {0.50, stats.p50_ms}, {0.90, stats.p90_ms}, {0.99, stats.p99_ms}};
  for (const auto& [q, ms] : reported) {
    EXPECT_DOUBLE_EQ(ms, shared.percentile(q)) << "q " << q;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(total_ms.size())));
    const double exact = total_ms[std::max<std::size_t>(1, rank) - 1];
    EXPECT_LE(std::abs(ms - exact), bound * exact) << "q " << q << " exact " << exact;
  }
}

}  // namespace
}  // namespace micronas
