// Deterministic random number generation utilities.
//
// All stochastic components of MicroNAS (weight initialization, data
// synthesis, search tie-breaking, simulator jitter) draw from an
// explicitly seeded Rng so that every experiment in bench/ is exactly
// reproducible from its seed.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace micronas {

/// Deterministic pseudo-random source wrapping a 64-bit Mersenne twister.
///
/// A thin, value-semantic wrapper so that components can hold their own
/// independent stream (split via `fork`) instead of sharing hidden
/// global state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal (mean 0, stddev 1) scaled to (mean, stddev).
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: empty range");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Fill a span with i.i.d. normal samples.
  void fill_normal(std::span<float> out, float mean = 0.0F, float stddev = 1.0F) {
    std::normal_distribution<float> dist(mean, stddev);
    for (auto& v : out) v = dist(engine_);
  }

  /// Fill a span with i.i.d. uniform samples in [lo, hi).
  void fill_uniform(std::span<float> out, float lo, float hi) {
    std::uniform_real_distribution<float> dist(lo, hi);
    for (auto& v : out) v = dist(engine_);
  }

  /// Sample k distinct indices from [0, n) (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Derive an independent child stream; deterministic given (this, salt).
  Rng fork(std::uint64_t salt);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// SplitMix64 step — used for stateless hashing of seeds and arch ids.
std::uint64_t splitmix64(std::uint64_t x);

/// Stateless hash combining (used by the surrogate oracle for
/// deterministic per-architecture noise).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// Map a 64-bit hash to a deterministic standard normal value.
double hash_to_normal(std::uint64_t h);

/// Map a 64-bit hash to a deterministic uniform in [0,1).
double hash_to_uniform(std::uint64_t h);

/// FNV-1a over a byte range — the one stable content hash the repo
/// uses (preset-name seeds, ReLU-pattern counting, compiled-logits
/// golden hashes). Never std::hash: results must not depend on the
/// standard library implementation.
std::uint64_t fnv1a64(const void* data, std::size_t n);

}  // namespace micronas
