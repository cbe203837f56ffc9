#include "src/common/rng.hpp"

#include <cmath>
#include <numbers>

namespace micronas {

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

Rng Rng::fork(std::uint64_t salt) {
  const std::uint64_t base = engine_();
  return Rng(splitmix64(base ^ splitmix64(salt)));
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (splitmix64(b) + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

double hash_to_uniform(std::uint64_t h) {
  // Take the top 53 bits for a uniform double in [0,1).
  return static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
}

double hash_to_normal(std::uint64_t h) {
  // Box–Muller on two independent uniforms derived from h.
  const double u1 = hash_to_uniform(h);
  const double u2 = hash_to_uniform(splitmix64(h ^ 0xA5A5A5A5A5A5A5A5ULL));
  const double r = std::sqrt(-2.0 * std::log(u1 + 1e-300));
  return r * std::cos(2.0 * std::numbers::pi * u2);
}

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t state = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= 0x100000001B3ULL;
  }
  return state;
}

}  // namespace micronas
