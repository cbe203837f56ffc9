// Batching inference server over the deterministic int8 runtime — the
// deploy-once/serve-many half of the ROADMAP's "heavy traffic" North
// star, fed by src/serialize/'s persistent model packages.
//
// A ModelServer serves one immutable CompiledModel (shared_ptr —
// typically a registry entry aliased to its mapped package) through a
// request queue and a dispatcher thread. Clients submit a typed
// serve::Request and get a std::future<serve::Response> (logits +
// per-request timing; the legacy Tensor-future overloads remain as
// deprecated wrappers — see api.hpp for the taxonomy rationale);
// the dispatcher coalesces up to `max_batch` queued requests (waiting
// at most `max_wait_us` after the first one arrived) and dispatches
// the whole batch as ONE rt::Executor::run_batch invocation — the
// executor runs at batch capacity `max_batch`, so a coalesced batch
// widens the int8-GEMM M dimension instead of walking the graph once
// per request. Every request's logits are bit-identical to a serial
// capacity-1 Executor run of the same input — batching is a pure
// throughput optimization, never a numerics change (asserted by
// tests/test_serve.cpp and tests/test_batched_executor.cpp).
//
// Admission control bounds the server under overload:
//
//   * a bounded queue (`max_queue`): submit() on a full queue throws
//     QueueFullError synchronously — offered load past capacity is
//     turned away at the door, not buffered without bound;
//   * per-request deadlines (`deadline_us`, or the submit() overload):
//     a request still queued when its deadline passes is dropped by
//     the dispatcher and its future rethrows DeadlineExpiredError;
//   * exact accepted/rejected/dropped counters in ServerStats — every
//     submit() call ends in exactly one of rejected (throw), dropped
//     (deadline error) or requests (logits delivered), so the
//     counters balance offered load (asserted by
//     tests/test_serve_overload.cpp).
//
// The server keeps a bounded ring of recent per-request latency
// samples and exact batch-size counters; stats() aggregates them into
// the throughput/percentile summary examples/serve_bench and
// bench/suites/serve.cpp report.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/compile/compiler.hpp"
#include "src/obs/metrics.hpp"
#include "src/rt/runtime.hpp"
#include "src/serve/api.hpp"

namespace micronas::serve {

struct ServerOptions {
  /// Most requests coalesced into one executor invocation: the
  /// executor's batch capacity, which also scales its arena.
  int max_batch = 8;
  /// How long the dispatcher holds an underfull batch open after its
  /// first request arrived before running it anyway.
  long long max_wait_us = 200;
  /// Worker threads for the batched kernels' channel/sample partition
  /// (1 = serial, 0 = one per hardware thread). Logits never depend on
  /// this.
  int threads = 0;
  /// Bound on queued (admitted, not yet batched) requests; submit()
  /// past it throws QueueFullError. 0 = unbounded.
  std::size_t max_queue = 1024;
  /// Default per-request deadline, measured from submit(); <= 0 means
  /// none. The submit() overload sets a per-request value.
  long long deadline_us = 0;
};

struct ServerStats {
  long long requests = 0;       // completed: future resolved by a batch
                                // (logits, or a per-request executor error)
  long long accepted = 0;       // admitted by submit() (got a future)
  long long rejected = 0;       // refused by submit() (queue full)
  long long dropped = 0;        // deadline expired while queued
  long long batches = 0;        // batched executor invocations
  double mean_batch = 0.0;      // requests / batches
  double p50_ms = 0.0;          // request latency: enqueue -> logits ready,
  double p90_ms = 0.0;          // over the most recent samples (bounded ring)
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double throughput_rps = 0.0;  // completed / (last completion - first enqueue)

  std::string to_string() const;
};

class ModelServer {
 public:
  /// Shares an immutable model (a registry entry, or a mapped
  /// package's aliased handle — the shared_ptr is what keeps a
  /// serialize::MappedPackage's mapping alive for as long as this
  /// server might touch its weights) and starts the dispatcher.
  ModelServer(std::shared_ptr<const compile::CompiledModel> model, ServerOptions options = {});

  /// Takes ownership of a model by value (typically fresh from
  /// serialize::load_model or compile_genotype) and starts the
  /// dispatcher.
  ModelServer(compile::CompiledModel model, ServerOptions options = {});

  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// The typed API: enqueue one Request (input must match the model's
  /// input shape). The future yields a Response (logits + per-request
  /// timing), or rethrows the executor's error or
  /// DeadlineExpiredError. Throws QueueFullError when the bounded
  /// queue is full and std::runtime_error after stop().
  /// Request::model_key is echoed into the Response; a single-model
  /// server does not route on it (MultiModelServer does).
  std::future<Response> submit(Request request);

  /// Deprecated: legacy overload, equivalent to
  /// submit(Request{input, nullopt, ""}) with the Response reduced to
  /// its logits. Prefer the typed submit(Request).
  std::future<Tensor> submit(Tensor input);

  /// Deprecated: legacy overload, equivalent to submit(Request{input,
  /// deadline_us, ""}) with the Response reduced to its logits (zero
  /// or negative deadlines are already expired — a guaranteed drop,
  /// which tests use for deterministic drop coverage). Prefer the
  /// typed submit(Request).
  std::future<Tensor> submit(Tensor input, long long deadline_us);

  /// Blocking convenience wrapper around submit().
  Tensor infer(const Tensor& input) { return submit(input).get(); }

  /// Drain the queue, finish in-flight batches and join the
  /// dispatcher; queued requests whose deadline has passed are dropped
  /// (DeadlineExpiredError), everything else completes. Idempotent and
  /// safe against concurrent calls: every call (not just the one that
  /// wins the join) blocks until the dispatcher has exited, so the
  /// queue-drained postcondition holds for all callers and the
  /// destructor can never destroy state the dispatcher still uses.
  /// submit() after stop() throws std::runtime_error.
  void stop();

  ServerStats stats() const;

  const compile::CompiledModel& model() const { return *model_; }
  /// The shared handle itself — what a router passes between lanes
  /// without re-loading (keeps any backing mapping alive with it).
  const std::shared_ptr<const compile::CompiledModel>& model_ptr() const { return model_; }

 private:
  /// A queued request: the union of both submit surfaces. Exactly one
  /// promise is live, per `typed`; resolve()/fail() pick it.
  struct Pending {
    Tensor input;
    std::string model_key;
    bool typed = false;                   // which promise to resolve
    std::promise<Response> response_promise;
    std::promise<Tensor> tensor_promise;
    std::chrono::steady_clock::time_point enqueued;
    // time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;

    void fail(std::exception_ptr error) {
      if (typed) {
        response_promise.set_exception(std::move(error));
      } else {
        tensor_promise.set_exception(std::move(error));
      }
    }
  };

  /// Admission control + enqueue, shared by every submit surface.
  void enqueue(Pending pending, bool has_deadline, long long deadline_us);
  void dispatcher_loop();
  void run_batch(std::vector<Pending>& batch);
  /// Move deadline-expired requests out of queue_ into `dropped`,
  /// bumping dropped_. Caller must hold mutex_ and resolve the
  /// promises after unlocking.
  void drop_expired_locked(std::vector<Pending>& dropped);

  std::shared_ptr<const compile::CompiledModel> model_;
  ServerOptions options_;
  /// The executor at batch capacity max_batch (arena planned via
  /// CompiledModel::plan_for_batch).
  std::unique_ptr<rt::Executor> executor_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool dispatcher_done_ = false;  // set by the stop() that joined

  // Telemetry (guarded by mutex_). Latency percentiles are computed
  // over a bounded ring of the most recent samples so a long-running
  // server's memory and stats() cost stay O(1) in request count; the
  // request/batch/admission counters are exact.
  static constexpr std::size_t kLatencySampleCap = 16384;
  std::vector<double> latency_ms_;  // ring once kLatencySampleCap is reached
  std::size_t latency_next_ = 0;    // ring write cursor
  long long batches_ = 0;
  long long completed_ = 0;
  long long accepted_ = 0;
  long long rejected_ = 0;
  long long dropped_ = 0;
  bool saw_first_ = false;
  std::chrono::steady_clock::time_point first_enqueue_;
  std::chrono::steady_clock::time_point last_done_;

  // Process-wide metrics mirrors of the exact counters above, updated
  // at the same increment sites so serve_bench / pareto_sweep print
  // admission + latency telemetry through the one registry code path
  // (handles resolved once in the ctor; updates are lock-free).
  obs::Counter* metric_accepted_ = nullptr;
  obs::Counter* metric_rejected_ = nullptr;
  obs::Counter* metric_dropped_ = nullptr;
  obs::Counter* metric_completed_ = nullptr;
  obs::Counter* metric_batches_ = nullptr;
  obs::Histogram* metric_latency_ms_ = nullptr;

  std::thread dispatcher_;
};

}  // namespace micronas::serve
