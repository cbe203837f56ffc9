#include "src/serve/model_server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <sstream>
#include <stdexcept>

#include "src/obs/trace.hpp"

namespace micronas::serve {

namespace {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::string ServerStats::to_string() const {
  std::ostringstream ss;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%lld requests in %lld batches (mean batch %.2f; accepted %lld, rejected %lld, "
                "dropped %lld), %.1f req/s, latency p50 %.3f ms p90 %.3f ms p99 %.3f ms max "
                "%.3f ms",
                requests, batches, mean_batch, accepted, rejected, dropped, throughput_rps,
                p50_ms, p90_ms, p99_ms, max_ms);
  ss << buf;
  return ss.str();
}

ModelServer::ModelServer(compile::CompiledModel model, ServerOptions options)
    : ModelServer(std::make_shared<const compile::CompiledModel>(std::move(model)), options) {}

ModelServer::ModelServer(std::shared_ptr<const compile::CompiledModel> model,
                         ServerOptions options)
    : model_(std::move(model)), options_(options) {
  if (!model_) throw std::invalid_argument("ModelServer: null model");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  metric_accepted_ = &registry.counter("serve.accepted");
  metric_rejected_ = &registry.counter("serve.rejected");
  metric_dropped_ = &registry.counter("serve.dropped");
  metric_completed_ = &registry.counter("serve.completed");
  metric_batches_ = &registry.counter("serve.batches");
  metric_latency_ms_ = &registry.latency_histogram("serve.latency_ms");
  if (options_.max_batch < 1) throw std::invalid_argument("ModelServer: max_batch must be >= 1");
  if (options_.max_wait_us < 0) {
    throw std::invalid_argument("ModelServer: max_wait_us must be >= 0");
  }
  // Run the planned graph at batch capacity max_batch: the arena holds
  // max_batch samples of every value and a coalesced batch is a single
  // run_batch call. The model's package-built packed weights flow in,
  // so the server never repacks.
  executor_ = std::make_unique<rt::Executor>(
      model_->graph, model_->plan_for_batch(options_.max_batch), options_.max_batch,
      rt::ExecOptions{options_.threads, &model_->packed});
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ModelServer::~ModelServer() { stop(); }

std::future<Response> ModelServer::submit(Request request) {
  Pending pending;
  pending.input = std::move(request.input);
  pending.model_key = std::move(request.model_key);
  pending.typed = true;
  std::future<Response> result = pending.response_promise.get_future();
  // An explicit deadline (even <= 0: already expired) always binds;
  // nullopt defers to the server-wide default.
  const bool has_deadline = request.deadline_us.has_value() || options_.deadline_us > 0;
  enqueue(std::move(pending), has_deadline, request.deadline_us.value_or(options_.deadline_us));
  return result;
}

std::future<Tensor> ModelServer::submit(Tensor input) {
  Pending pending;
  pending.input = std::move(input);
  std::future<Tensor> result = pending.tensor_promise.get_future();
  enqueue(std::move(pending), options_.deadline_us > 0, options_.deadline_us);
  return result;
}

std::future<Tensor> ModelServer::submit(Tensor input, long long deadline_us) {
  Pending pending;
  pending.input = std::move(input);
  std::future<Tensor> result = pending.tensor_promise.get_future();
  enqueue(std::move(pending), true, deadline_us);
  return result;
}

void ModelServer::enqueue(Pending pending, bool has_deadline, long long deadline_us) {
  pending.enqueued = std::chrono::steady_clock::now();
  pending.deadline = has_deadline ? pending.enqueued + std::chrono::microseconds(deadline_us)
                                  : std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("ModelServer::submit: server is stopped");
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
      ++rejected_;
      metric_rejected_->add();
      throw QueueFullError("ModelServer::submit: queue full (" +
                           std::to_string(options_.max_queue) + " requests pending)");
    }
    ++accepted_;
    metric_accepted_->add();
    if (!saw_first_) {
      saw_first_ = true;
      first_enqueue_ = pending.enqueued;
    }
    queue_.push_back(std::move(pending));
  }
  wake_.notify_all();
}

void ModelServer::stop() {
  // Claim the thread under the lock: of racing stop() calls (e.g. an
  // explicit stop against the destructor) exactly one gets a joinable
  // handle and joins it. Losers must NOT return early — the dispatcher
  // may still be draining queue_ and touching executor_,
  // and the losing caller could be the destructor — so they block on
  // dispatcher_done_, which the winner flags after its join. Every
  // stop() therefore returns only once the queue is drained and the
  // dispatcher has exited.
  std::thread claimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    claimed = std::move(dispatcher_);
  }
  wake_.notify_all();
  if (claimed.joinable()) {
    claimed.join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      dispatcher_done_ = true;
    }
    wake_.notify_all();
  } else {
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [this] { return dispatcher_done_; });
  }
}

void ModelServer::drop_expired_locked(std::vector<Pending>& dropped) {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline <= now) {
      ++dropped_;
      metric_dropped_->add();
      dropped.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void ModelServer::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> dropped;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping with a drained queue

      // Admission control first: requests already past their deadline
      // never enter a batch (and never block one open).
      drop_expired_locked(dropped);
      if (!queue_.empty()) {
        // Hold the batch open until it is full, the oldest request has
        // waited max_wait_us, or the server is stopping.
        const auto deadline =
            queue_.front().enqueued + std::chrono::microseconds(options_.max_wait_us);
        while (!stopping_ && static_cast<int>(queue_.size()) < options_.max_batch &&
               wake_.wait_until(lock, deadline,
                                [this] {
                                  return stopping_ ||
                                         static_cast<int>(queue_.size()) >= options_.max_batch;
                                })) {
        }
        // ...and requests that expired during the hold are dropped,
        // not served late.
        drop_expired_locked(dropped);

        const std::size_t take =
            std::min(queue_.size(), static_cast<std::size_t>(options_.max_batch));
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
    // Promises resolve outside the lock; dropped_ was already counted,
    // so a client that observed the error also observes the counter.
    for (Pending& req : dropped) {
      req.fail(std::make_exception_ptr(DeadlineExpiredError(
          "ModelServer: request deadline expired before a batch picked it up")));
    }
    if (!batch.empty()) run_batch(batch);
  }
}

void ModelServer::run_batch(std::vector<Pending>& batch) {
  obs::Span span("serve.batch");
  span.tag("requests", static_cast<long long>(batch.size()));
  // Dispatch timestamp: the queue_ms / total_ms split in Response.
  const auto dispatched = std::chrono::steady_clock::now();
  std::vector<Tensor> results(batch.size());
  std::vector<std::exception_ptr> errors(batch.size());
  // ONE executor invocation for the whole coalesced batch. Requests
  // with a bad input shape fail individually (their future rethrows)
  // without poisoning the batch for everyone else.
  const ir::Node& in_node = model_->graph.node(model_->graph.input());
  std::vector<const Tensor*> good;
  std::vector<std::size_t> slot;  // good index -> batch index
  good.reserve(batch.size());
  slot.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].input.shape() == in_node.type.shape) {
      good.push_back(&batch[i].input);
      slot.push_back(i);
    } else {
      errors[i] = std::make_exception_ptr(std::invalid_argument(
          "ModelServer: input shape " + batch[i].input.shape().to_string() +
          " != model input " + in_node.type.shape.to_string()));
    }
  }
  if (!good.empty()) {
    try {
      std::vector<Tensor> logits =
          executor_->run_batch(std::span<const Tensor* const>(good.data(), good.size()));
      for (std::size_t g = 0; g < logits.size(); ++g) {
        results[slot[g]] = std::move(logits[g]);
      }
    } catch (...) {
      for (std::size_t g = 0; g < slot.size(); ++g) {
        errors[slot[g]] = std::current_exception();
      }
    }
  }

  // Telemetry strictly before the promises: a client that observed its
  // future ready must also observe its request in stats().
  const auto done = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++batches_;
    metric_batches_->add();
    completed_ += static_cast<long long>(batch.size());
    metric_completed_->add(batch.size());
    last_done_ = done;
    for (const Pending& req : batch) {
      const double ms = std::chrono::duration<double, std::milli>(done - req.enqueued).count();
      metric_latency_ms_->observe(ms);
      if (latency_ms_.size() < kLatencySampleCap) {
        latency_ms_.push_back(ms);
      } else {
        latency_ms_[latency_next_] = ms;
        latency_next_ = (latency_next_ + 1) % kLatencySampleCap;
      }
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (errors[i]) {
      batch[i].fail(errors[i]);
    } else if (batch[i].typed) {
      Response resp;
      resp.logits = std::move(results[i]);
      resp.model_key = std::move(batch[i].model_key);
      resp.queue_ms =
          std::chrono::duration<double, std::milli>(dispatched - batch[i].enqueued).count();
      resp.total_ms = std::chrono::duration<double, std::milli>(done - batch[i].enqueued).count();
      resp.batch_size = static_cast<int>(batch.size());
      batch[i].response_promise.set_value(std::move(resp));
    } else {
      batch[i].tensor_promise.set_value(std::move(results[i]));
    }
  }
}

ServerStats ModelServer::stats() const {
  std::vector<double> sorted;
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted = latency_ms_;
    s.requests = completed_;
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.dropped = dropped_;
    s.batches = batches_;
    if (completed_ > 0) {
      const double span =
          std::chrono::duration<double>(last_done_ - first_enqueue_).count();
      s.throughput_rps = span > 0.0 ? static_cast<double>(completed_) / span : 0.0;
    }
  }
  std::sort(sorted.begin(), sorted.end());
  s.mean_batch = s.batches > 0 ? static_cast<double>(s.requests) / static_cast<double>(s.batches)
                               : 0.0;
  s.p50_ms = percentile(sorted, 0.50);
  s.p90_ms = percentile(sorted, 0.90);
  s.p99_ms = percentile(sorted, 0.99);
  s.max_ms = sorted.empty() ? 0.0 : sorted.back();
  return s;
}

}  // namespace micronas::serve
