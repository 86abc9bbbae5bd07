#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/plan.hpp"

namespace tpio::coll::segcopy {

/// Host-side memcpy coalescing over Plan segment lists. Two structural
/// facts make this safe:
///
///  * `Plan::segments_in(r, lo, hi)` walks a rank's sorted extents without
///    skipping, so the returned segments always occupy ONE contiguous run
///    of the rank's local buffer (each segment's local end equals the next
///    segment's local start). A multi-segment pack from the local buffer
///    is therefore a single copy — or no copy at all, when the packed
///    bytes can be sent as a span of the source.
///
///  * Within such a list, consecutive segments may additionally be
///    contiguous *in the file*; the per-segment copies into/out of a
///    collective buffer then collapse into one memcpy per file-contiguous
///    run.
///
/// Coalescing only changes how many host memcpys move the same bytes; the
/// virtual-timeline pack cost is still charged from the original segment
/// count by the callers.

/// One contiguous run of a rank's local buffer covering a whole segment
/// list. `ok` always holds for the segments_in output of one range (the
/// shuffle paths check it); pieces gathered across several aggregators'
/// ranges need not be contiguous, so the gather keeps a packing path.
struct LocalRun {
  bool ok = false;
  std::uint64_t local_offset = 0;  // run start in the local buffer
  std::uint64_t total = 0;         // run length, == sum of segment lengths
};

inline LocalRun local_run(std::span<const Segment> segs) {
  LocalRun run;
  if (segs.empty()) {
    run.ok = true;
    return run;
  }
  run.local_offset = segs.front().local_offset;
  std::uint64_t next = run.local_offset;
  for (const Segment& s : segs) {
    if (s.local_offset != next) return run;  // ok == false
    next += s.length;
  }
  run.ok = true;
  run.total = next - run.local_offset;
  return run;
}

/// Invoke `fn(first, count, file_offset, length)` once per file-contiguous
/// run of `segs`: `first`/`count` delimit the run's segments, and
/// [file_offset, file_offset + length) is the file region they jointly
/// cover.
template <class Fn>
void for_file_runs(std::span<const Segment> segs, Fn&& fn) {
  std::size_t i = 0;
  while (i < segs.size()) {
    std::size_t j = i + 1;
    std::uint64_t len = segs[i].length;
    while (j < segs.size() &&
           segs[j].file_offset == segs[j - 1].file_offset + segs[j - 1].length) {
      len += segs[j].length;
      ++j;
    }
    fn(i, j - i, segs[i].file_offset, len);
    i = j;
  }
}

/// Invoke `fn(first, count, local_offset, length)` once per run of `segs`
/// that is contiguous in the *local* buffer — the right grouping when the
/// source is the rank's own data and the destination is sequential (pack).
/// Per the segments_in contiguity property, the segments of one cycle
/// range always collapse into a single run here.
template <class Fn>
void for_local_runs(std::span<const Segment> segs, Fn&& fn) {
  std::size_t i = 0;
  while (i < segs.size()) {
    std::size_t j = i + 1;
    std::uint64_t len = segs[i].length;
    while (j < segs.size() &&
           segs[j].local_offset == segs[j - 1].local_offset + segs[j - 1].length) {
      len += segs[j].length;
      ++j;
    }
    fn(i, j - i, segs[i].local_offset, len);
    i = j;
  }
}

}  // namespace tpio::coll::segcopy
