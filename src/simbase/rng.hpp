#pragma once

#include <cstdint>

namespace tpio::sim {

/// Deterministic 64-bit PRNG (SplitMix64).
///
/// Chosen over std::mt19937_64 because its output for a given seed is fully
/// specified here, not by the standard library implementation — a requirement
/// for bit-identical simulation schedules across toolchains.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Standard normal deviate (Box-Muller, one value per call).
  double next_normal();

  /// Derive an independent stream; mixing `salt` gives per-purpose streams
  /// (per rank, per resource, per repetition) from one master seed.
  static std::uint64_t derive_seed(std::uint64_t master, std::uint64_t salt);

 private:
  std::uint64_t state_;
};

/// Multiplicative log-normal noise around 1.0.
///
/// Models run-to-run variability of shared resources (a busy parallel file
/// system, a congested fabric). `sigma` is the standard deviation of the
/// underlying normal; sigma == 0 disables noise entirely and is the
/// deterministic fast path used by correctness tests.
class NoiseModel {
 public:
  NoiseModel(double sigma, std::uint64_t seed) : sigma_(sigma), rng_(seed) {}

  /// A factor >= ~e^{-3 sigma}; multiply a service duration by it.
  double factor();

 private:
  double sigma_;
  Rng rng_;
};

}  // namespace tpio::sim
