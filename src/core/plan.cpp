#include "core/plan.hpp"

#include <algorithm>

#include "simbase/error.hpp"

namespace tpio::coll {

int auto_aggregator_count(std::uint64_t total_bytes, std::uint64_t cb_size,
                          const net::Topology& topo) {
  TPIO_CHECK(cb_size > 0, "collective buffer size must be positive");
  // One aggregator can usefully absorb a few buffers' worth per cycle
  // sequence; cap at one aggregator per node (NIC incast is per node).
  const std::uint64_t by_volume = (total_bytes + cb_size - 1) / cb_size;
  const auto a = static_cast<int>(
      std::min<std::uint64_t>(by_volume, static_cast<std::uint64_t>(topo.nodes)));
  return std::clamp(a, 1, topo.nprocs());
}

PlanSkeleton::PlanSkeleton(std::span<const ViewSummary> summaries,
                           const net::Topology& topo,
                           std::uint64_t stripe_size, const Options& opt)
    : topo_(topo) {
  const int P = topo.nprocs();
  TPIO_CHECK(static_cast<int>(summaries.size()) == P,
             "one view summary per rank required");

  // Global range and volume. Empty views carry the identity summary
  // (first_offset = MAX, last_end = 0), so min/max skip them naturally.
  range_begin_ = UINT64_MAX;
  range_end_ = 0;
  for (const ViewSummary& s : summaries) {
    range_begin_ = std::min(range_begin_, s.first_offset);
    range_end_ = std::max(range_end_, s.last_end);
    global_bytes_ += s.total_bytes;
  }
  if (global_bytes_ == 0) {
    range_begin_ = range_end_ = 0;
  }

  // Aggregator count and placement: spread across nodes first, then within
  // — (slot, node) pairs slot-major, skipping slots a partial node lacks.
  // With every node full this is aggregator i on node i % nodes, slot
  // i / nodes; a partial first or last node simply drops out of the
  // rotation once its members run out, and A <= P always finds A ranks.
  int A = opt.num_aggregators > 0
              ? std::min(opt.num_aggregators, P)
              : auto_aggregator_count(global_bytes_, opt.cb_size, topo);
  A = std::max(A, 1);
  agg_ranks_.reserve(static_cast<std::size_t>(A));
  agg_index_of_rank_.assign(static_cast<std::size_t>(P), -1);
  for (int slot = 0;
       slot < topo.procs_per_node && static_cast<int>(agg_ranks_.size()) < A;
       ++slot) {
    for (int node = 0; node < topo.nodes &&
                       static_cast<int>(agg_ranks_.size()) < A;
         ++node) {
      const int rank = topo.node_first(node) + slot;
      if (rank >= topo.node_last(node)) continue;
      agg_index_of_rank_[static_cast<std::size_t>(rank)] =
          static_cast<int>(agg_ranks_.size());
      agg_ranks_.push_back(rank);
    }
  }
  TPIO_CHECK(static_cast<int>(agg_ranks_.size()) == A,
             "more aggregators than processes");

  // Even byte-range file domains over [range_begin, range_end), optionally
  // aligned to stripe boundaries so one target is written by one aggregator.
  const std::uint64_t range = range_end_ - range_begin_;
  std::uint64_t per = (range + static_cast<std::uint64_t>(A) - 1) /
                      static_cast<std::uint64_t>(A);
  if (opt.stripe_align && stripe_size > 0 && per > 0) {
    per = (per + stripe_size - 1) / stripe_size * stripe_size;
  }
  domains_.reserve(static_cast<std::size_t>(A));
  std::uint64_t begin = range_begin_;
  for (int i = 0; i < A; ++i) {
    const std::uint64_t end = std::min(range_end_, begin + per);
    domains_.push_back(Range{begin, std::max(begin, end)});
    begin = domains_.back().end;
  }

  // Stripe-aligned rounding can exhaust the range before the last
  // aggregators get any bytes. Domains fill front to back, so only a
  // trailing run can be empty: drop those aggregators entirely rather than
  // have them allocate buffers and windows, join barriers, and inflate the
  // reported aggregator count for zero bytes of I/O.
  while (!domains_.empty() && domains_.back().size() == 0) {
    agg_index_of_rank_[static_cast<std::size_t>(agg_ranks_.back())] = -1;
    agg_ranks_.pop_back();
    domains_.pop_back();
  }

  // Domain-overlap index. The surviving domains tile [range_begin,
  // range_end) in order, so the aggregators overlapping a rank's extent
  // span form one interval, found by two binary searches. Inverting the
  // intervals in ascending rank order lists each aggregator's sources
  // ascending; the table holds sum over ranks of |aggs_of(r)| entries.
  aggs_of_.assign(static_cast<std::size_t>(P), {0, 0});
  src_begin_.assign(domains_.size() + 1, 0);
  for (int r = 0; r < P; ++r) {
    const ViewSummary& s = summaries[static_cast<std::size_t>(r)];
    if (s.total_bytes == 0) continue;
    const auto first = std::partition_point(
        domains_.begin(), domains_.end(),
        [&](const Range& d) { return d.end <= s.first_offset; });
    const auto last = std::partition_point(
        first, domains_.end(),
        [&](const Range& d) { return d.begin < s.last_end; });
    const auto a0 = static_cast<int>(first - domains_.begin());
    const auto a1 = static_cast<int>(last - domains_.begin());
    aggs_of_[static_cast<std::size_t>(r)] = {a0, a1};
    for (int a = a0; a < a1; ++a) ++src_begin_[static_cast<std::size_t>(a) + 1];
  }
  for (std::size_t a = 1; a < src_begin_.size(); ++a) {
    src_begin_[a] += src_begin_[a - 1];
  }
  src_ranks_.resize(src_begin_.back());
  std::vector<std::size_t> fill(src_begin_.begin(), src_begin_.end() - 1);
  for (int r = 0; r < P; ++r) {
    const auto [a0, a1] = aggs_of_[static_cast<std::size_t>(r)];
    for (int a = a0; a < a1; ++a) {
      src_ranks_[fill[static_cast<std::size_t>(a)]++] = r;
    }
  }

  // Lane geometry and leader election for the two-level shuffle. Each
  // node's members split into L = min(local_aggregators, members)
  // contiguous lanes, each electing one leader per leader_policy; co = 1
  // makes the whole node one lane (Lowest -> first, Spread -> last - 1).
  // Computed for every plan (cheap, O(P) total) so tests and tools can
  // query lane geometry without opting into hierarchical routing. Runs
  // after the empty-domain trim above so the Superset policy elects
  // against the aggregators that actually survive. The shuffle runs two
  // levels only where some node has a member to gather from; node_first /
  // node_last count the partial first node of a rank-offset sub-view.
  const int co = std::max(opt.local_aggregators, 1);
  lane_leaders_.reserve(static_cast<std::size_t>(topo.nodes));
  lane_bounds_.reserve(static_cast<std::size_t>(topo.nodes));
  for (int n = 0; n < topo.nodes; ++n) {
    const auto [first, last] = node_rank_range(n);
    const int m = last - first;
    if (opt.hierarchical && m >= 2) hierarchical_ = true;
    const int L = std::min(co, m);
    std::vector<int> bounds(static_cast<std::size_t>(L) + 1);
    std::vector<int> leaders(static_cast<std::size_t>(L));
    bounds.front() = first;
    bounds.back() = last;
    if (opt.leader_policy == LeaderPolicy::Superset) {
      // Leaders sit on the node's global aggregators first (ascending), so
      // their forward hop is node-local; remaining slots fall back to the
      // Spread pick (even-block ends) to keep gather CPU off aggregators.
      std::vector<int> picks;
      for (int r = first; r < last && static_cast<int>(picks.size()) < L; ++r)
        if (is_aggregator(r)) picks.push_back(r);
      const auto picked = [&](int r) {
        return std::find(picks.begin(), picks.end(), r) != picks.end();
      };
      for (int j = L - 1; j >= 0 && static_cast<int>(picks.size()) < L; --j) {
        int cand = first + ((j + 1) * m) / L - 1;
        while (cand >= first && picked(cand)) --cand;
        if (cand >= first) picks.push_back(cand);
      }
      for (int r = first; r < last && static_cast<int>(picks.size()) < L; ++r)
        if (!picked(r)) picks.push_back(r);
      std::sort(picks.begin(), picks.end());
      // Lane boundaries near the even split, clamped so that leader j lands
      // inside lane j; the clamp range is non-empty because the picks are
      // strictly increasing, and it keeps the lanes non-empty and ordered.
      for (int j = 1; j < L; ++j) {
        bounds[static_cast<std::size_t>(j)] =
            std::clamp(first + (j * m) / L, picks[static_cast<std::size_t>(j) - 1] + 1,
                       picks[static_cast<std::size_t>(j)]);
      }
      leaders = std::move(picks);
    } else {
      for (int j = 1; j < L; ++j)
        bounds[static_cast<std::size_t>(j)] = first + (j * m) / L;
      for (int j = 0; j < L; ++j) {
        leaders[static_cast<std::size_t>(j)] =
            opt.leader_policy == LeaderPolicy::Spread
                ? bounds[static_cast<std::size_t>(j) + 1] - 1
                : bounds[static_cast<std::size_t>(j)];
      }
    }
    lane_leaders_.push_back(std::move(leaders));
    lane_bounds_.push_back(std::move(bounds));
  }

  // Cycle count: the largest domain processed `sub_buffer_` bytes at a time.
  // Overlap modes split the collective buffer in two (paper, section III-A).
  // Auto always takes the split geometry: the plan is fixed for the whole
  // operation, and two sub-buffers let any scheduler — including the
  // blocking baseline — take over at the probe/switch boundary without
  // reallocation.
  sub_buffer_ = opt.overlap == OverlapMode::None ? opt.cb_size
                                                 : opt.cb_size / 2;
  TPIO_CHECK(sub_buffer_ > 0, "collective buffer too small to split");
  std::uint64_t max_domain = 0;
  for (const Range& d : domains_) max_domain = std::max(max_domain, d.size());
  num_cycles_ = static_cast<int>((max_domain + sub_buffer_ - 1) / sub_buffer_);
}

PlanSkeleton::Range PlanSkeleton::cycle_range(int a, int c) const {
  const Range d = domains_[static_cast<std::size_t>(a)];
  const std::uint64_t lo =
      d.begin + static_cast<std::uint64_t>(c) * sub_buffer_;
  if (lo >= d.end) return Range{d.end, d.end};
  return Range{lo, std::min(d.end, lo + sub_buffer_)};
}

std::pair<int, int> PlanSkeleton::node_rank_range(int node) const {
  TPIO_CHECK(node >= 0 && node < topo_.nodes, "node outside topology");
  const int first = topo_.node_first(node);
  const int last = topo_.node_last(node);
  TPIO_CHECK(first < last, "empty node in topology");
  return {first, last};
}

std::pair<int, int> PlanSkeleton::lane_rank_range(int node, int lane) const {
  TPIO_CHECK(node >= 0 && node < topo_.nodes, "node outside topology");
  const auto& bounds = lane_bounds_[static_cast<std::size_t>(node)];
  TPIO_CHECK(lane >= 0 && lane + 1 < static_cast<int>(bounds.size()),
             "lane outside the node's lane count");
  return {bounds[static_cast<std::size_t>(lane)],
          bounds[static_cast<std::size_t>(lane) + 1]};
}

int PlanSkeleton::lane_of(int rank) const {
  const int node = topo_.node_of(rank);
  const auto& bounds = lane_bounds_[static_cast<std::size_t>(node)];
  auto it = std::upper_bound(bounds.begin(), bounds.end(), rank);
  TPIO_CHECK(it != bounds.begin() && it != bounds.end(),
             "rank outside its node's lane bounds");
  return static_cast<int>(it - bounds.begin()) - 1;
}

Plan::Plan(std::shared_ptr<const PlanSkeleton> skeleton,
           std::vector<std::pair<int, FileView>> held)
    : skel_(std::move(skeleton)) {
  TPIO_CHECK(skel_ != nullptr, "plan requires a skeleton");
  const int P = skel_->topology().nprocs();
  held_ranks_.reserve(held.size());
  views_.reserve(held.size());
  prefix_.reserve(held.size());
  int prev = -1;
  for (auto& [r, v] : held) {
    TPIO_CHECK(r > prev, "held views must be ascending by rank");
    TPIO_CHECK(r >= 0 && r < P, "held view rank outside the job");
    std::vector<std::uint64_t>& prefix = prefix_.emplace_back();
    prefix.reserve(v.extents.size());
    std::uint64_t pos = 0;
    for (const Extent& e : v.extents) {
      prefix.push_back(pos);
      pos += e.length;
    }
    held_ranks_.push_back(r);
    views_.push_back(std::move(v));
    prev = r;
  }
  dense_ = static_cast<int>(held_ranks_.size()) == P &&
           (held_ranks_.empty() || held_ranks_.front() == 0);
}

namespace {

/// The views-only constructor's held-views Plan: each view validated
/// before its summary enters the skeleton, then held as rank r's. This is
/// the only validation its views get; the held-views constructor does
/// none.
Plan hold_every_view(std::vector<FileView> views, const net::Topology& topo,
                     std::uint64_t stripe_size, const Options& opt) {
  TPIO_CHECK(static_cast<int>(views.size()) == topo.nprocs(),
             "one view per rank required");
  std::vector<ViewSummary> summaries;
  summaries.reserve(views.size());
  std::vector<std::pair<int, FileView>> held;
  held.reserve(views.size());
  for (std::size_t r = 0; r < views.size(); ++r) {
    views[r].validate();
    summaries.push_back(views[r].summarize());
    held.emplace_back(static_cast<int>(r), std::move(views[r]));
  }
  return Plan(std::make_shared<const PlanSkeleton>(summaries, topo,
                                                   stripe_size, opt),
              std::move(held));
}

}  // namespace

Plan::Plan(std::vector<FileView> views, const net::Topology& topo,
           std::uint64_t stripe_size, const Options& opt)
    : Plan(hold_every_view(std::move(views), topo, stripe_size, opt)) {}

bool Plan::holds_view(int r) const {
  if (dense_) return r >= 0 && r < static_cast<int>(held_ranks_.size());
  return std::binary_search(held_ranks_.begin(), held_ranks_.end(), r);
}

std::size_t Plan::held_slot(int r) const {
  if (dense_) {
    TPIO_CHECK(r >= 0 && r < static_cast<int>(held_ranks_.size()),
               "rank outside the job");
    return static_cast<std::size_t>(r);
  }
  auto it = std::lower_bound(held_ranks_.begin(), held_ranks_.end(), r);
  TPIO_CHECK(it != held_ranks_.end() && *it == r,
             "view queried for a rank whose view was not delivered here — "
             "widen that rank's want interval in the metadata exchange");
  return static_cast<std::size_t>(it - held_ranks_.begin());
}

SegmentRange Plan::segments_in(int r, std::uint64_t lo,
                              std::uint64_t hi) const {
  if (lo >= hi) return {};
  const std::size_t slot = held_slot(r);
  const auto& exts = views_[slot].extents;
  // First extent ending past lo, and first extent starting at or past hi.
  const auto first = std::partition_point(
      exts.begin(), exts.end(), [&](const Extent& e) { return e.end() <= lo; });
  const auto last = std::partition_point(
      first, exts.end(), [&](const Extent& e) { return e.offset < hi; });
  return SegmentRange(exts.data(), prefix_[slot].data(),
                      static_cast<std::size_t>(first - exts.begin()),
                      static_cast<std::size_t>(last - exts.begin()), lo, hi);
}

std::vector<Segment> Plan::lane_segments_in(int node, int lane,
                                            std::uint64_t lo,
                                            std::uint64_t hi) const {
  const auto [first, last] = lane_rank_range(node, lane);
  if (last - first == 1) {
    const SegmentRange own = segments_in(first, lo, hi);
    return std::vector<Segment>(own.begin(), own.end());
  }
  std::vector<Segment> all;
  for (int m = first; m < last; ++m) {
    for (const Segment& g : segments_in(m, lo, hi)) all.push_back(g);
  }
  std::sort(all.begin(), all.end(),
            [](const Segment& a, const Segment& b) {
              return a.file_offset < b.file_offset;
            });
  std::vector<Segment> out;
  for (const Segment& g : all) {
    if (!out.empty() &&
        g.file_offset <= out.back().file_offset + out.back().length) {
      Segment& back = out.back();
      back.length = std::max(back.file_offset + back.length,
                             g.file_offset + g.length) -
                    back.file_offset;
    } else {
      out.push_back(Segment{g.file_offset, 0, g.length});
    }
  }
  std::uint64_t pos = 0;
  for (Segment& g : out) {
    g.local_offset = pos;
    pos += g.length;
  }
  return out;
}

}  // namespace tpio::coll
