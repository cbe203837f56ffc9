// ModelServer under overload: the admission-control contract. A
// bounded queue turns excess load away synchronously (QueueFullError),
// expired requests are dropped with a distinct future error
// (DeadlineExpiredError), the accepted/rejected/dropped/completed
// counters exactly balance the offered load, and concurrent stop()
// under pressure drains without deadlock. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "src/data/synthetic.hpp"
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

// With a hold window far longer than the test and max_batch above
// max_queue, admitted requests deterministically sit in the queue —
// so the (max_queue + 1)-th submit MUST hit the bound.
TEST(ModelServerOverload, FullQueueRejectsSynchronously) {
  serve::ServerOptions options;
  options.max_batch = 8;
  options.max_wait_us = 10'000'000;  // stop() cuts this short
  options.max_queue = 3;
  serve::ModelServer server(compiled_small(), options);

  const std::vector<Tensor> inputs = sample_inputs(4, 41);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server.submit(inputs[static_cast<std::size_t>(i)]));
  EXPECT_THROW(server.submit(inputs[3]), serve::QueueFullError);

  // The rejected caller never got a future; the admitted three still
  // complete with logits once the server drains.
  server.stop();
  for (std::future<Tensor>& f : futures) EXPECT_GT(f.get().numel(), 0u);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 3);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.requests, 3);
}

// The per-request submit() overload with a non-positive deadline is
// already expired — a guaranteed drop, and the future must rethrow
// DeadlineExpiredError specifically (not a generic runtime_error a
// client would confuse with an executor failure).
TEST(ModelServerOverload, ExpiredDeadlineDropsWithDistinctError) {
  serve::ServerOptions options;
  options.max_batch = 4;
  options.max_wait_us = 200;
  serve::ModelServer server(compiled_small(), options);

  const std::vector<Tensor> inputs = sample_inputs(3, 43);
  std::future<Tensor> doomed = server.submit(inputs[0], /*deadline_us=*/-1);
  EXPECT_THROW(doomed.get(), serve::DeadlineExpiredError);

  // A drop poisons nothing: later no-deadline requests still serve.
  EXPECT_GT(server.infer(inputs[1]).numel(), 0u);
  std::future<Tensor> doomed2 = server.submit(inputs[2], 0);
  EXPECT_THROW(doomed2.get(), serve::DeadlineExpiredError);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 3);
  EXPECT_EQ(stats.dropped, 2);
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.rejected, 0);
}

// ServerOptions::deadline_us applies to every submit(): requests held
// open waiting for a batch that never fills expire in place.
TEST(ModelServerOverload, DefaultDeadlineExpiresHeldRequests) {
  serve::ServerOptions options;
  options.max_batch = 64;          // the batch can never fill...
  options.max_wait_us = 30'000;    // ...so the hold window must elapse
  options.deadline_us = 1;         // by which point every request expired
  serve::ModelServer server(compiled_small(), options);

  const std::vector<Tensor> inputs = sample_inputs(5, 47);
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& in : inputs) futures.push_back(server.submit(in));
  for (std::future<Tensor>& f : futures) {
    EXPECT_THROW(f.get(), serve::DeadlineExpiredError);
  }

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 5);
  EXPECT_EQ(stats.dropped, 5);
  EXPECT_EQ(stats.requests, 0);
}

// The ledger property: under concurrent clients, a tight queue and a
// mix of deadlines, every submit() ends in exactly one of rejected
// (throw), dropped (DeadlineExpiredError) or completed (logits), and
// the server's counters agree with the clients' own books exactly.
TEST(ModelServerOverload, CountersExactlyBalanceOfferedLoad) {
  serve::ServerOptions options;
  options.max_batch = 4;
  options.max_wait_us = 100;
  options.max_queue = 8;
  options.threads = 2;
  serve::ModelServer server(compiled_small(), options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::atomic<long long> accepted{0}, rejected{0}, completed{0}, dropped{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<Tensor> inputs =
          sample_inputs(kPerClient, 600 + static_cast<std::uint64_t>(c));
      // Burst-submit the whole load before resolving anything — that is
      // what actually fills the bounded queue and forces rejections.
      std::vector<std::future<Tensor>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        try {
          // Every third request carries a 1 us deadline: some expire in
          // the queue, some get batched first — both ledgers must agree
          // whichever way each race lands.
          futures.push_back(i % 3 == 0 ? server.submit(inputs[static_cast<std::size_t>(i)], 1)
                                       : server.submit(inputs[static_cast<std::size_t>(i)]));
          ++accepted;
        } catch (const serve::QueueFullError&) {
          ++rejected;
        }
      }
      for (std::future<Tensor>& f : futures) {
        try {
          const Tensor logits = f.get();
          EXPECT_GT(logits.numel(), 0u);
          ++completed;
        } catch (const serve::DeadlineExpiredError&) {
          ++dropped;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted + stats.rejected, kClients * kPerClient);
  EXPECT_EQ(stats.accepted, accepted.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.requests, completed.load());
  EXPECT_EQ(stats.dropped, dropped.load());
  EXPECT_EQ(stats.accepted, stats.requests + stats.dropped);
}

// Concurrent stop() while clients are still hammering a tight queue:
// every stop() caller must block until the drain finished (no early
// return, no deadlock), every future a client holds must resolve, and
// the ledger must still balance afterwards.
TEST(ModelServerOverload, ConcurrentStopUnderOverloadDrainsWithoutDeadlock) {
  serve::ServerOptions options;
  options.max_batch = 2;
  options.max_wait_us = 1'000'000;  // stop() must cut the wait short
  options.max_queue = 4;
  serve::ModelServer server(compiled_small(), options);

  std::atomic<long long> accepted{0}, rejected{0}, after_stop{0};
  std::atomic<long long> completed{0}, dropped{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<Tensor> inputs =
          sample_inputs(30, 700 + static_cast<std::uint64_t>(c));
      for (const Tensor& in : inputs) {
        std::future<Tensor> f;
        try {
          f = server.submit(in);
        } catch (const serve::QueueFullError&) {
          ++rejected;
          continue;
        } catch (const std::runtime_error&) {
          ++after_stop;  // server stopped while we were submitting
          continue;
        }
        ++accepted;
        try {
          EXPECT_GT(f.get().numel(), 0u);
          ++completed;
        } catch (const serve::DeadlineExpiredError&) {
          ++dropped;
        }
      }
    });
  }

  std::vector<long long> drained(4, -1);
  std::vector<std::thread> stoppers;
  for (std::size_t t = 0; t < drained.size(); ++t) {
    stoppers.emplace_back([&server, &drained, t] {
      server.stop();
      // Postcondition for EVERY caller, not just the join winner: the
      // queue is drained, so the ledger balances right here.
      const serve::ServerStats s = server.stats();
      drained[t] = (s.accepted == s.requests + s.dropped) ? 1 : 0;
    });
  }
  for (std::thread& t : stoppers) t.join();
  for (std::thread& t : clients) t.join();

  for (std::size_t t = 0; t < drained.size(); ++t) {
    EXPECT_EQ(drained[t], 1) << "stop() caller " << t << " observed an unbalanced ledger";
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, accepted.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.requests, completed.load());
  EXPECT_EQ(stats.dropped, dropped.load());
  EXPECT_EQ(stats.accepted, stats.requests + stats.dropped);
}

}  // namespace
}  // namespace micronas
