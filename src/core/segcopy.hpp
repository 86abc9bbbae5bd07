#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/plan.hpp"

namespace tpio::coll::segcopy {

/// Host-side memcpy coalescing over a message's pieces. Two structural
/// facts make the engines' copies cheap:
///
///  * `Plan::segments_in(r, lo, hi)` returns the extents of rank r's view
///    that the range touches, without skipping, so its pieces always
///    occupy ONE contiguous run of the rank's local buffer; the
///    SegmentRange reports that run's start and length in O(1). A message
///    built from one range is therefore a slice of the local buffer, sent
///    or received in place with no pack at all; only the virtual pack cost
///    is charged, from the piece count.
///
///  * Within one message, consecutive pieces may additionally be
///    contiguous *in the file*; the per-piece copies into/out of a
///    collective buffer or a lane leader's stage then collapse into one
///    memcpy per file-contiguous run (for_file_runs).
///
/// Coalescing only changes how many host memcpys move the same bytes; the
/// virtual-timeline pack cost is still charged from the original piece
/// count by the callers. Timing-only runs copy nothing and so never walk
/// the pieces: counts and byte totals come from the range.

/// Byte total of a message's pieces: O(1) for a range of one view, a sum
/// over a lane's merged segment list.
inline std::uint64_t total_bytes(const SegmentRange& pieces) {
  return pieces.bytes();
}
inline std::uint64_t total_bytes(std::span<const Segment> pieces) {
  std::uint64_t n = 0;
  for (const Segment& g : pieces) n += g.length;
  return n;
}

/// Invoke `fn(first, count, file_offset, length)` once per file-contiguous
/// run of `segs` (a SegmentRange or a Segment list): `first`/`count`
/// delimit the run's pieces, and [file_offset, file_offset + length) is
/// the file region they jointly cover.
template <class Segs, class Fn>
void for_file_runs(const Segs& segs, Fn&& fn) {
  const std::size_t n = segs.size();
  std::size_t i = 0;
  while (i < n) {
    const Segment head = segs[i];
    std::uint64_t end = head.file_offset + head.length;
    std::size_t j = i + 1;
    for (; j < n; ++j) {
      const Segment g = segs[j];
      if (g.file_offset != end) break;
      end += g.length;
    }
    fn(i, j - i, head.file_offset, end - head.file_offset);
    i = j;
  }
}

}  // namespace tpio::coll::segcopy
