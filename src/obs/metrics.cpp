#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace micronas::obs {

// ------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::runtime_error("Histogram bounds must be strictly increasing");
    }
  }
}

void Histogram::observe(double value) {
  // First bucket whose upper bound admits the value ("le" semantics);
  // NaN fails every comparison and lands in +inf by construction.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  std::size_t idx = bounds_.size();
  if (it != bounds_.end() && value <= *it) idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (!std::isnan(value)) {
    double expected = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(expected, expected + value, std::memory_order_relaxed)) {
    }
  }
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::percentile(double q) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t prev = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank && counts[i] > 0) {
      if (i == bounds_.size()) {
        // +inf bucket: report the largest finite bound (or 0 if none).
        return bounds_.empty() ? 0.0 : bounds_.back();
      }
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within = (rank - static_cast<double>(prev)) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_latency_ms_bounds() {
  constexpr int kPerOctave = 8;
  std::vector<double> bounds;
  for (int i = -10 * kPerOctave; i <= 14 * kPerOctave; ++i) {
    bounds.push_back(std::exp2(static_cast<double>(i) / kPerOctave));
  }
  return bounds;
}

// -------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked: process lifetime
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else if (slot->bounds() != bounds) {
    throw std::runtime_error("Histogram '" + name + "' re-registered with different bounds");
  }
  return *slot;
}

Histogram& MetricsRegistry::latency_histogram(const std::string& name) {
  return histogram(name, Histogram::default_latency_ms_bounds());
}

json::Json MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::JsonObject counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = static_cast<std::size_t>(c->value());
  }
  json::JsonObject gauges;
  for (const auto& [name, g] : gauges_) gauges[name] = g->value();
  json::JsonObject histograms;
  for (const auto& [name, h] : histograms_) {
    json::JsonObject entry;
    json::JsonArray bounds;
    for (double b : h->bounds()) bounds.emplace_back(b);
    json::JsonArray bucket_counts;
    for (std::uint64_t c : h->bucket_counts()) {
      bucket_counts.emplace_back(static_cast<std::size_t>(c));
    }
    entry["bounds"] = std::move(bounds);
    entry["bucket_counts"] = std::move(bucket_counts);
    entry["count"] = static_cast<std::size_t>(h->count());
    entry["sum"] = h->sum();
    entry["p50"] = h->percentile(0.50);
    entry["p90"] = h->percentile(0.90);
    entry["p99"] = h->percentile(0.99);
    histograms[name] = std::move(entry);
  }
  json::JsonObject doc;
  doc["schema_version"] = 1;
  doc["counters"] = std::move(counters);
  doc["gauges"] = std::move(gauges);
  doc["histograms"] = std::move(histograms);
  return json::Json(std::move(doc));
}

void MetricsRegistry::write_json(const std::string& path) const {
  json::save_json_file(to_json(), path);
}

std::string MetricsRegistry::render_table(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto matches = [&prefix](const std::string& name) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  };
  std::ostringstream out;
  out.precision(4);
  for (const auto& [name, c] : counters_) {
    if (matches(name)) out << "  " << name << " = " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    if (matches(name)) out << "  " << name << " = " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    if (!matches(name)) continue;
    out << "  " << name << ": count=" << h->count() << " mean=" << h->mean()
        << " p50=" << h->percentile(0.50) << " p90=" << h->percentile(0.90)
        << " p99=" << h->percentile(0.99) << "\n";
  }
  return out.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace micronas::obs
