#include "core/types.hpp"

#include <algorithm>
#include <cstring>

#include "simbase/error.hpp"

namespace tpio::coll {

void FileView::validate() const {
  std::uint64_t prev_end = 0;
  bool first = true;
  for (const Extent& e : extents) {
    TPIO_CHECK(e.length > 0, "file view contains an empty extent");
    TPIO_CHECK(first || e.offset >= prev_end,
               "file view extents unsorted or overlapping");
    TPIO_CHECK(e.offset + e.length >= e.offset, "extent overflows uint64");
    prev_end = e.end();
    first = false;
  }
}

ViewSummary FileView::summarize() const {
  ViewSummary s;
  for (const Extent& e : extents) {
    s.first_offset = std::min(s.first_offset, e.offset);
    s.last_end = std::max(s.last_end, e.end());
    s.total_bytes += e.length;
  }
  s.extent_count = extents.size();
  return s;
}

std::vector<std::byte> FileView::serialize() const {
  std::vector<std::byte> out(extents.size() * sizeof(Extent));
  if (!extents.empty()) {
    std::memcpy(out.data(), extents.data(), out.size());
  }
  return out;
}

FileView FileView::deserialize(const std::vector<std::byte>& blob) {
  TPIO_CHECK(blob.size() % sizeof(Extent) == 0, "corrupt file-view blob");
  // One memcpy'd extent appended at a time: resize would zero every extent
  // before the copy overwrote it.
  FileView v;
  const std::size_t n = blob.size() / sizeof(Extent);
  v.extents.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Extent e;
    std::memcpy(&e, blob.data() + i * sizeof(Extent), sizeof e);
    v.extents.push_back(e);
  }
  return v;
}

const char* to_string(OverlapMode m) {
  switch (m) {
    case OverlapMode::None: return "no-overlap";
    case OverlapMode::Comm: return "comm-overlap";
    case OverlapMode::Write: return "write-overlap";
    case OverlapMode::WriteComm: return "write-comm-overlap";
    case OverlapMode::WriteComm2: return "write-comm-2-overlap";
    case OverlapMode::Auto: return "auto";
  }
  return "?";
}

const char* to_string(Transfer t) {
  switch (t) {
    case Transfer::TwoSided: return "two-sided";
    case Transfer::OneSidedFence: return "one-sided-fence";
    case Transfer::OneSidedLock: return "one-sided-lock";
  }
  return "?";
}

const char* to_string(LeaderPolicy p) {
  switch (p) {
    case LeaderPolicy::Lowest: return "lowest";
    case LeaderPolicy::Spread: return "spread";
    case LeaderPolicy::Superset: return "superset";
  }
  return "?";
}

PhaseTimings& PhaseTimings::operator+=(const PhaseTimings& o) {
  meta += o.meta;
  pack += o.pack;
  gather += o.gather;
  forward += o.forward;
  shuffle += o.shuffle;
  sync += o.sync;
  write += o.write;
  backoff += o.backoff;
  total += o.total;
  return *this;
}

FaultStats& FaultStats::operator+=(const FaultStats& o) {
  retries += o.retries;
  giveups += o.giveups;
  degraded_cycles += o.degraded_cycles;
  return *this;
}

}  // namespace tpio::coll
