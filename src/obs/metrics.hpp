// Process-wide metrics registry: named counters, gauges and
// fixed-bucket histograms with one JSON dump format.
//
// The registry is the single export path for every subsystem's
// telemetry — server admission counters, eval-engine cache hit rates,
// pass-manager timings, executor op profiles — so tools like
// serve_bench and pareto_sweep print and persist stats through one
// code path instead of each layer growing its own ad-hoc struct dump.
//
// Concurrency model: instrument handles (Counter*/Gauge*/Histogram*)
// are interned once under the registry mutex and then live for the
// process lifetime; updates through a handle are lock-free atomics.
// Hot paths should resolve their handle once (member pointer, static
// local) and call add()/set()/observe() on it — name lookup is for
// registration and export, not the fast path.
//
// Histograms use fixed upper-bound buckets with Prometheus "le"
// semantics: bucket[i] counts observations <= bounds[i], plus an
// implicit +inf bucket, with total count and sum kept alongside so
// means and interpolated percentiles can be derived at export time.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/json.hpp"

namespace micronas::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram ("le" upper bounds + implicit +inf).
class Histogram {
 public:
  /// `bounds` must be strictly increasing; NaN observations count
  /// toward the +inf bucket (and the total), not the sum.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double mean() const;

  /// Linear interpolation inside the winning bucket, Prometheus
  /// histogram_quantile-style. q in [0, 1]; returns 0 when empty. A
  /// quantile landing in the +inf bucket reports the largest finite
  /// bound (the histogram cannot resolve beyond its range).
  double percentile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last is +inf).
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

  /// Default latency bounds (ms): 193 bounds, 8 per octave from 2^-10
  /// (0.98 us) to 2^14 (16.4 s), each 2^(1/8) times the last. A
  /// percentile of samples in (2^-10, 2^14] therefore lands in the
  /// bucket of the nearest-rank sample and lies within 2^(1/8) - 1 =
  /// 9.05% of it — wide enough for sub-microsecond compile passes and
  /// whole-batch serves alike. The first bucket interpolates from 0,
  /// so a percentile there is off by at most 2^-10 ms.
  static std::vector<double> default_latency_ms_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  // Sum accumulated via CAS loop — std::atomic<double>::fetch_add is
  // C++20 but not universally lock-free; the loop is portable.
  std::atomic<double> sum_{0.0};
};

/// Name → instrument map. Interning the same name twice returns the
/// same handle (histograms additionally require identical bounds —
/// mismatches throw, catching accidental name collisions).
class MetricsRegistry {
 public:
  /// The process-wide registry used by all subsystems.
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  Histogram& latency_histogram(const std::string& name);  // default_latency_ms_bounds

  /// Everything, one deterministic document:
  ///   {"schema_version": 1,
  ///    "counters":   {"serve.accepted": 123, ...},
  ///    "gauges":     {"eval.lut_hit_rate": 0.87, ...},
  ///    "histograms": {"serve.latency_ms":
  ///        {"bounds": [...], "bucket_counts": [...],  // +inf last
  ///         "count": N, "sum": S,
  ///         "p50": ..., "p90": ..., "p99": ...}, ...}}
  json::Json to_json() const;
  void write_json(const std::string& path) const;

  /// Human-readable dump of every instrument whose name starts with
  /// `prefix` (empty = all) — the one table serve_bench and
  /// pareto_sweep both print.
  std::string render_table(const std::string& prefix = "") const;

  /// Zero all instruments (handles stay valid). For tests.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  // std::map: deterministic iteration for to_json/render_table.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace micronas::obs
