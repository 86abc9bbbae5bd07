#pragma once

// Pure helpers shared by the collective write and read engines (internal to
// src/core): phase-time attribution, the pack/unpack CPU cost, and the
// retry backoff schedule.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/types.hpp"
#include "sched/conductor.hpp"
#include "simbase/rng.hpp"
#include "simbase/time.hpp"

namespace tpio::coll {

/// Measure the virtual time a rank spends inside `fn`, attributing it to
/// the given PhaseTimings field.
template <class F>
void timed(sim::RankCtx& ctx, sim::Duration& field, F&& fn) {
  const sim::Time before = ctx.now();
  fn();
  field += ctx.now() - before;
}

/// Host-CPU model of the engines: memcpy bandwidth of pack/unpack at the
/// sender or aggregator, and the cost per segment packed, unpacked or put.
inline constexpr double kPackBandwidth = 6e9;
inline constexpr sim::Duration kSegmentCpu = sim::nanoseconds(1500);

/// CPU cost of packing/unpacking `segs` segments totalling `bytes`.
inline sim::Duration pack_cost(std::size_t segs, std::uint64_t bytes) {
  return static_cast<sim::Duration>(segs) * kSegmentCpu +
         sim::transfer_time(bytes, kPackBandwidth);
}

/// Backoff before re-issuing attempt `attempt + 1` of `cycle`'s operation:
/// Options::retry_backoff * 2^min(attempt-1, 16) * (1 + jitter). The
/// jitter is a pure function of (fault seed ^ salt, rank, cycle, attempt)
/// — no shared stream, so the schedule is identical at any worker count.
/// Each engine passes its own salt, so interleaved writes and reads never
/// share a jitter draw.
inline sim::Duration backoff_delay(const Options& opt, std::uint64_t fault_seed,
                                   std::uint64_t salt, int rank, int cycle,
                                   int attempt) {
  const int exp = std::min(attempt - 1, 16);
  const auto scaled = static_cast<sim::Duration>(
      opt.retry_backoff * (sim::Duration{1} << exp));
  sim::Rng rng(sim::Rng::derive_seed(
      sim::Rng::derive_seed(fault_seed ^ salt,
                            static_cast<std::uint64_t>(rank)),
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cycle)) << 8) ^
          static_cast<std::uint64_t>(attempt)));
  return scaled +
         static_cast<sim::Duration>(std::llround(
             rng.next_double() * static_cast<double>(scaled)));
}

}  // namespace tpio::coll
