// The typed serving API surface: one request/response shape and one
// error taxonomy, shared by ModelServer (single model) and
// MultiModelServer (registry-routed).
//
// serve::Request names every axis of a request (input, deadline, which
// model), so a new axis is an aggregate field, not a submit() overload;
// every field but the input has a default, so `submit({x})` and
// `submit({x, deadline_us})` are complete requests. serve::Response
// carries the logits plus the per-request timing the server measured.
//
// Errors form one taxonomy rooted at ServeError (itself a
// std::runtime_error): clients that want "anything the serving layer
// refused" catch ServeError; the concrete types say why.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "src/tensor/tensor.hpp"

namespace micronas::serve {

/// Root of the serving error taxonomy. Every refusal the serving layer
/// itself originates (admission, deadlines, routing, a stopped server)
/// derives from this one type; executor errors (bad input shape, runtime failures)
/// propagate unwrapped, because they are the model's verdict, not the
/// server's.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// submit() refused the request because the bounded queue
/// (ServerOptions::max_queue) is at capacity. Thrown synchronously —
/// the caller never got a future, and the request counts as rejected.
class QueueFullError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// The request's deadline expired before the dispatcher placed it in a
/// batch. The request's future rethrows this, and the request counts
/// as dropped.
class DeadlineExpiredError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// The request named a model key the registry/router has not loaded
/// (or has evicted). Thrown synchronously by MultiModelServer::submit
/// and ModelRegistry::get.
class UnknownModelError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// One inference request, every axis named. Extend by adding fields —
/// never by adding submit() overloads.
struct Request {
  Tensor input;
  /// Deadline measured from submit(), in microseconds. nullopt defers
  /// to ServerOptions::deadline_us; values <= 0 are already expired (a
  /// guaranteed drop — tests use this for deterministic coverage).
  std::optional<long long> deadline_us = std::nullopt;
  /// Which model serves this request. Ignored by a single-model
  /// ModelServer; required routing key for MultiModelServer.
  std::string model_key = {};
};

/// What the future resolves to: logits plus the per-request timing the
/// server already measured for its own telemetry.
struct Response {
  Tensor logits;
  std::string model_key;      // echo of Request::model_key
  double queue_ms = 0.0;      // enqueue -> batch dispatch
  double total_ms = 0.0;      // enqueue -> logits ready
  int batch_size = 0;         // how many requests shared the invocation
};

}  // namespace micronas::serve
