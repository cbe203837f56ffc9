// The typed serve API and the multi-model router.
//
//   * serve::Request -> std::future<serve::Response>: logits bit-
//     identical to a serial Executor, with the response carrying its
//     model key, batch size, and queue/total latency;
//   * the error taxonomy is catchable at every level: QueueFullError /
//     DeadlineExpiredError / UnknownModelError each derive from
//     serve::ServeError (itself a std::runtime_error);
//   * MultiModelServer routes on Request::model_key: each model serves
//     from its own lane, unknown keys reject synchronously, unload
//     closes exactly one lane. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/data/synthetic.hpp"
#include "src/rt/runtime.hpp"
#include "src/serve/multi_model_server.hpp"

namespace micronas {
namespace {

compile::CompiledModel compiled_small(std::uint64_t seed = 5) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = 1;
  options.macro.input_size = 8;
  options.seed = seed;
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

TEST(ServeApi, TypedRequestReturnsTypedResponseWithIdenticalLogits) {
  auto model = std::make_shared<const compile::CompiledModel>(compiled_small());
  rt::Executor serial(model->graph, model->plan, rt::ExecOptions{1, &model->packed});
  const std::vector<Tensor> inputs = sample_inputs(12, 21);
  std::vector<Tensor> expected;
  for (const Tensor& in : inputs) expected.push_back(serial.run(in));

  serve::ServerOptions options;
  options.max_batch = 4;
  options.max_wait_us = 200;
  serve::ModelServer server(model, options);

  std::vector<std::future<serve::Response>> futures;
  for (const Tensor& in : inputs) {
    serve::Request request;
    request.input = in;
    request.model_key = "m";
    futures.push_back(server.submit(std::move(request)));
  }
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const serve::Response resp = futures[r].get();
    EXPECT_EQ(resp.model_key, "m");
    EXPECT_GE(resp.batch_size, 1);
    EXPECT_LE(resp.batch_size, options.max_batch);
    EXPECT_GE(resp.queue_ms, 0.0);
    EXPECT_GE(resp.total_ms, resp.queue_ms);
    ASSERT_EQ(resp.logits.numel(), expected[r].numel());
    for (std::size_t i = 0; i < expected[r].numel(); ++i) {
      ASSERT_EQ(resp.logits[i], expected[r][i]) << "request " << r << " logit " << i;
    }
  }
  server.stop();
  EXPECT_EQ(server.stats().requests, static_cast<long long>(inputs.size()));
}

TEST(ServeApi, ErrorTaxonomyDerivesFromServeError) {
  // Compile-time: every admission error IS-A ServeError IS-A
  // runtime_error, so one catch site can take them all (or pick one).
  static_assert(std::is_base_of_v<serve::ServeError, serve::QueueFullError>);
  static_assert(std::is_base_of_v<serve::ServeError, serve::DeadlineExpiredError>);
  static_assert(std::is_base_of_v<serve::ServeError, serve::UnknownModelError>);
  static_assert(std::is_base_of_v<std::runtime_error, serve::ServeError>);

  serve::ServerOptions options;
  options.max_batch = 4;
  options.max_wait_us = 200;
  serve::ModelServer server(compiled_small(), options);

  // A typed request with an already-expired deadline drops through the
  // typed future with the distinct error — catchable as ServeError.
  serve::Request doomed;
  doomed.input = sample_inputs(1, 31)[0];
  doomed.deadline_us = -1;
  std::future<serve::Response> future = server.submit(std::move(doomed));
  try {
    future.get();
    FAIL() << "expired request must not produce logits";
  } catch (const serve::ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  server.stop();
}

TEST(ServeApi, MultiModelServerRoutesByModelKey) {
  serve::ServerOptions options;
  options.max_batch = 4;
  options.max_wait_us = 200;
  serve::MultiModelServer server(options);

  auto model_a = std::make_shared<const compile::CompiledModel>(compiled_small(5));
  auto model_b = std::make_shared<const compile::CompiledModel>(compiled_small(9));
  server.add_model("a", model_a);
  server.add_model("b", model_b);
  EXPECT_EQ(server.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_THROW(server.add_model("a", model_a), std::invalid_argument);

  // Same inputs, different weights: each lane must answer with ITS
  // model's logits (bit-identical to that model's serial run).
  rt::Executor serial_a(model_a->graph, model_a->plan, rt::ExecOptions{1, &model_a->packed});
  rt::Executor serial_b(model_b->graph, model_b->plan, rt::ExecOptions{1, &model_b->packed});
  const std::vector<Tensor> inputs = sample_inputs(8, 23);
  for (const Tensor& in : inputs) {
    for (const auto& [key, serial] :
         std::vector<std::pair<std::string, rt::Executor*>>{{"a", &serial_a}, {"b", &serial_b}}) {
      serve::Request request;
      request.input = in;
      request.model_key = key;
      const serve::Response resp = server.infer(std::move(request));
      const Tensor want = serial->run(in);
      EXPECT_EQ(resp.model_key, key);
      ASSERT_EQ(resp.logits.numel(), want.numel());
      for (std::size_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(resp.logits[i], want[i]) << "lane " << key << " logit " << i;
      }
    }
  }

  // Per-model ledgers: both lanes saw exactly their own traffic.
  EXPECT_EQ(server.stats("a").requests, static_cast<long long>(inputs.size()));
  EXPECT_EQ(server.stats("b").requests, static_cast<long long>(inputs.size()));

  // Unknown keys reject synchronously, before any queue is touched.
  serve::Request stray;
  stray.input = inputs[0];
  stray.model_key = "no-such-model";
  EXPECT_THROW(server.submit(std::move(stray)), serve::UnknownModelError);

  // unload() closes exactly one lane; the other keeps serving.
  server.unload("b");
  EXPECT_EQ(server.keys(), (std::vector<std::string>{"a"}));
  EXPECT_THROW(server.stats("b"), serve::UnknownModelError);
  serve::Request still;
  still.input = inputs[0];
  still.model_key = "a";
  EXPECT_GT(server.infer(std::move(still)).logits.numel(), 0u);
  EXPECT_THROW(server.unload("b"), serve::UnknownModelError);
  server.stop();
}

TEST(ServeApi, ConcurrentClientsAcrossLanesStayIsolated) {
  serve::ServerOptions options;
  options.max_batch = 4;
  options.max_wait_us = 200;
  options.threads = 2;
  serve::MultiModelServer server(options);
  auto model_a = std::make_shared<const compile::CompiledModel>(compiled_small(5));
  auto model_b = std::make_shared<const compile::CompiledModel>(compiled_small(9));
  server.add_model("a", model_a);
  server.add_model("b", model_b);

  rt::Executor serial_a(model_a->graph, model_a->plan, rt::ExecOptions{1, &model_a->packed});
  rt::Executor serial_b(model_b->graph, model_b->plan, rt::ExecOptions{1, &model_b->packed});
  const std::vector<Tensor> inputs = sample_inputs(6, 29);
  std::vector<Tensor> expected_a, expected_b;
  for (const Tensor& in : inputs) {
    expected_a.push_back(serial_a.run(in));
    expected_b.push_back(serial_b.run(in));
  }

  std::atomic<long long> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const std::string key = (c % 2 == 0) ? "a" : "b";
      const std::vector<Tensor>& expected = (c % 2 == 0) ? expected_a : expected_b;
      std::vector<std::future<serve::Response>> futures;
      for (const Tensor& in : inputs) {
        serve::Request request;
        request.input = in;
        request.model_key = key;
        futures.push_back(server.submit(std::move(request)));
      }
      for (std::size_t r = 0; r < futures.size(); ++r) {
        const serve::Response resp = futures[r].get();
        bool same = resp.logits.numel() == expected[r].numel() && resp.model_key == key;
        for (std::size_t i = 0; same && i < expected[r].numel(); ++i) {
          same = resp.logits[i] == expected[r][i];
        }
        if (!same) ++mismatches;
      }
    });
  }
  for (std::thread& c : clients) c.join();
  server.stop();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats("a").requests + server.stats("b").requests,
            static_cast<long long>(4 * inputs.size()));
}

}  // namespace
}  // namespace micronas
