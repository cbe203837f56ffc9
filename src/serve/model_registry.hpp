// Multi-model package registry: map once, validate always, serve many.
//
// A ModelRegistry turns .mnpkg paths into immutable, shareable model
// handles. Each load mmaps the package read-only
// (serialize::MappedPackage — zero-copy weights), runs the full
// fail-closed validation, then dedupes on the package identity
// (arch + header checksum, which covers the section table and through
// it every section's checksum): a second load of byte-identical content
// discards its transient mapping and returns the FIRST load's entry,
// so however many callers hold the model, there is exactly one mapping
// and one CompiledModel in the process. The model handle is a
// shared_ptr aliased to the package, so holding the model is holding
// the mapping — an Executor built over a registry model can never
// outlive the bytes its weights point into.
//
// Eviction is ref-counted by construction: evict(key) only drops the
// registry's own reference. Outstanding handles (a ModelServer lane
// mid-drain, a client holding an Entry) keep the mapping alive until
// the last one releases; the munmap happens wherever that last release
// is. A key evicted and re-loaded maps the file afresh.
//
// Validation is never skipped for dedup: a load() that hits still
// mapped + validated its file first, so a corrupted copy of a resident
// package is rejected, not silently aliased to the good one.
//
// Thread safety: every public method is safe to call concurrently
// (one mutex over the table; MappedPackage/CompiledModel are immutable
// after construction). Metrics: `serve.models_loaded` counts fresh
// loads, `serve.registry_hits` counts dedup hits,
// `serve.models_resident` gauges the current table size.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/api.hpp"

namespace micronas::serve {

class ModelRegistry {
 public:
  /// One resident model: the registry key, the mapped package (lifetime
  /// anchor) and the model handle aliased to it. Copying an Entry
  /// copies shared_ptrs — cheap, and each copy pins the mapping.
  struct Entry {
    std::string key;
    std::shared_ptr<const serialize::MappedPackage> package;
    std::shared_ptr<const compile::CompiledModel> model;
  };

  ModelRegistry();

  /// Map + validate the package at `path`; dedupe against resident
  /// entries by identity. Returns the (new or shared) entry. Throws
  /// serialize::SerializeError on a corrupt/truncated package — a file
  /// that fails validation never touches the table.
  Entry load(const std::string& path);

  /// The resident entry for `key`; throws UnknownModelError when the
  /// key was never loaded or has been evicted.
  Entry get(const std::string& key) const;

  bool contains(const std::string& key) const;

  /// Drop the registry's reference to `key`. Returns false when the
  /// key is not resident. Outstanding Entry/model handles remain valid
  /// — the mapping unmaps when the last of them releases.
  bool evict(const std::string& key);

  /// Resident keys, sorted (the table is an ordered map).
  std::vector<std::string> keys() const;
  std::size_t size() const;

  /// The identity a package dedupes on: "<arch>@<16-hex header
  /// checksum>" of the validated file (MappedPackage::content_checksum).
  static std::string key_of(const serialize::MappedPackage& package);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;

  obs::Counter* metric_loaded_ = nullptr;  // fresh loads (mapped + validated)
  obs::Counter* metric_hits_ = nullptr;    // dedup hits (shared an entry)
  obs::Gauge* metric_resident_ = nullptr;  // current table size
};

}  // namespace micronas::serve
