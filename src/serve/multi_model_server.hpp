// Registry-routed serving: many models, one process, one API.
//
// A MultiModelServer composes the pieces this directory already has:
// a ModelRegistry (mmap-backed, deduped, zero-copy model handles) and
// one ModelServer lane per resident model (each lane its own executor
// at batch capacity max_batch, bounded queue, deadlines and admission
// ledger — exactly the single-model behavior, per model). Requests carry the
// routing axis themselves (serve::Request::model_key); submit() looks
// the lane up and forwards, so per-model isolation is structural: one
// model's overload rejects on ITS queue without touching another's.
//
// Lane lifetime rides the registry's ref-counted model handles: an
// unload() stops the lane (draining its queue per ModelServer::stop)
// and drops the registry entry, but the mapping itself lives until the
// last executor/handle releases — see docs/ARCHITECTURE.md "Model
// registry & zero-copy loading".
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/model_registry.hpp"
#include "src/serve/model_server.hpp"

namespace micronas::serve {

class MultiModelServer {
 public:
  /// `options` apply to every lane (per-lane tuning would be another
  /// Request-style axis; today the fleet shares one shape).
  explicit MultiModelServer(ServerOptions options = {});
  ~MultiModelServer();

  MultiModelServer(const MultiModelServer&) = delete;
  MultiModelServer& operator=(const MultiModelServer&) = delete;

  /// Load the package at `path` through the registry (mmap + validate
  /// + dedupe) and open a serving lane for it if one isn't already
  /// running. Returns the model key requests should carry. Safe to
  /// call for an already-served package: the registry dedupes and the
  /// existing lane is reused.
  std::string load(const std::string& path);

  /// Serve an already-built model under an explicit key (tests, or
  /// models compiled in-process). Throws std::invalid_argument when
  /// the key is empty or already serving.
  void add_model(const std::string& key, std::shared_ptr<const compile::CompiledModel> model);

  /// Route on request.model_key and forward to that model's lane.
  /// Throws UnknownModelError for a key without a lane, and the lane's
  /// admission errors (QueueFullError, stopped-server) synchronously —
  /// all deriving from ServeError except the latter.
  std::future<Response> submit(Request request);

  /// Blocking convenience wrapper around submit().
  Response infer(Request request) { return submit(std::move(request)).get(); }

  /// Stop `key`'s lane (drains its queue), then drop the registry
  /// entry. Outstanding model handles keep the mapping alive. Throws
  /// UnknownModelError when no lane serves `key`.
  void unload(const std::string& key);

  /// Stop every lane (each drains per ModelServer::stop). Idempotent;
  /// submit() afterwards throws per-lane. Lanes and registry entries
  /// stay queryable for stats.
  void stop();

  /// Per-model admission/latency ledger; throws UnknownModelError.
  ServerStats stats(const std::string& key) const;

  /// Keys with an open lane, sorted.
  std::vector<std::string> keys() const;

  /// The shared registry (metrics, direct get()/contains() checks).
  ModelRegistry& registry() { return registry_; }
  const ModelRegistry& registry() const { return registry_; }

 private:
  /// Snapshot the lane handle under the lock; callers invoke it
  /// outside, so a concurrent unload() can never free a server
  /// mid-call (shared_ptr pins it; stop() is idempotent and safe).
  std::shared_ptr<ModelServer> lane(const std::string& key) const;

  ServerOptions options_;
  ModelRegistry registry_;
  mutable std::mutex mutex_;  // guards servers_ (table shape, not the servers)
  std::map<std::string, std::shared_ptr<ModelServer>> servers_;
};

}  // namespace micronas::serve
