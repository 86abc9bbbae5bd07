#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "net/topology.hpp"

namespace tpio::coll {

/// One piece of a rank's data destined for (a cycle of) a file domain.
struct Segment {
  std::uint64_t file_offset = 0;   // absolute offset in the file
  std::uint64_t local_offset = 0;  // offset into the rank's local buffer
  std::uint64_t length = 0;
};

/// The pieces of one rank's view inside a file range [lo, hi): the
/// interval [i0, i1) of its sorted extents that the range touches, each
/// extent clipped to the range. Consecutive extents sit back to back in
/// the rank's local buffer, so the pieces always form ONE contiguous local
/// run: the count, the byte total and where the run starts are O(1) reads
/// of the view's prefix sums. Iterating yields Segments by value and
/// allocates nothing. Points into the Plan that made it; valid while that
/// Plan lives.
class SegmentRange {
 public:
  SegmentRange() = default;

  std::size_t size() const { return i1_ - i0_; }
  bool empty() const { return i0_ == i1_; }
  /// Start of the pieces' run in the local buffer.
  std::uint64_t local_offset() const {
    return empty() ? 0 : local_begin(i0_, std::max(ext_[i0_].offset, lo_));
  }
  /// Sum of the piece lengths: the length of the local run.
  std::uint64_t bytes() const {
    if (empty()) return 0;
    const Extent& last = ext_[i1_ - 1];
    return local_begin(i1_ - 1, std::min(last.end(), hi_)) - local_offset();
  }
  /// Piece `k` (k < size()): extent i0 + k clipped to [lo, hi).
  Segment operator[](std::size_t k) const {
    const std::size_t i = i0_ + k;
    const std::uint64_t s = std::max(ext_[i].offset, lo_);
    return Segment{s, local_begin(i, s), std::min(ext_[i].end(), hi_) - s};
  }
  Segment front() const { return (*this)[0]; }
  Segment back() const { return (*this)[size() - 1]; }

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Segment;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Segment;

    Segment operator*() const { return (*r_)[k_]; }
    iterator& operator++() {
      ++k_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class SegmentRange;
    iterator(const SegmentRange* r, std::size_t k) : r_(r), k_(k) {}
    const SegmentRange* r_ = nullptr;
    std::size_t k_ = 0;
  };
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

 private:
  friend class Plan;
  SegmentRange(const Extent* ext, const std::uint64_t* prefix, std::size_t i0,
               std::size_t i1, std::uint64_t lo, std::uint64_t hi)
      : ext_(ext), prefix_(prefix), i0_(i0), i1_(i1), lo_(lo), hi_(hi) {}
  /// Local-buffer position of file offset `at` inside extent `i`.
  std::uint64_t local_begin(std::size_t i, std::uint64_t at) const {
    return prefix_[i] + (at - ext_[i].offset);
  }

  const Extent* ext_ = nullptr;
  const std::uint64_t* prefix_ = nullptr;  // local start of each extent
  std::size_t i0_ = 0, i1_ = 0;
  std::uint64_t lo_ = 0, hi_ = 0;
};

/// Everything about a collective write's geometry that is derivable from
/// the per-rank ViewSummary table alone: file range, global volume,
/// aggregator placement, file domains, lane leader election, cycle count,
/// whether the two-level shuffle runs. Built
/// once per (summary table, topology, options) and shared across ranks via
/// shared_ptr — per-rank copies of the O(P) placement arrays would put the
/// O(P²) aggregate memory the two-stage exchange removes right back.
class PlanSkeleton {
 public:
  PlanSkeleton(std::span<const ViewSummary> summaries,
               const net::Topology& topo, std::uint64_t stripe_size,
               const Options& opt);

  int num_aggregators() const { return static_cast<int>(domains_.size()); }
  int num_cycles() const { return num_cycles_; }
  std::uint64_t sub_buffer_bytes() const { return sub_buffer_; }
  std::uint64_t global_bytes() const { return global_bytes_; }
  std::uint64_t range_begin() const { return range_begin_; }
  std::uint64_t range_end() const { return range_end_; }

  bool is_aggregator(int rank) const {
    return agg_index_of_rank_[static_cast<std::size_t>(rank)] >= 0;
  }
  int agg_index(int rank) const {
    return agg_index_of_rank_[static_cast<std::size_t>(rank)];
  }
  int agg_rank(int a) const { return agg_ranks_[static_cast<std::size_t>(a)]; }

  struct Range {
    std::uint64_t begin = 0, end = 0;
    std::uint64_t size() const { return end - begin; }
  };
  Range domain(int a) const { return domains_[static_cast<std::size_t>(a)]; }
  Range cycle_range(int a, int c) const;

  // ----- domain-overlap index (from the summaries' extent spans) ---------
  /// Aggregator indices [first, second) whose domains overlap rank `rank`'s
  /// span [first_offset, last_end); empty for an empty view. A superset of
  /// the aggregators that receive from the rank: the span may hold holes.
  std::pair<int, int> aggs_of(int rank) const {
    return aggs_of_[static_cast<std::size_t>(rank)];
  }
  /// The ranks whose aggs_of interval holds aggregator `a`, ascending —
  /// every rank with pieces in one of `a`'s cycle ranges, and maybe more.
  std::span<const int> sources_of(int a) const {
    const auto i = static_cast<std::size_t>(a);
    return std::span<const int>(src_ranks_).subspan(
        src_begin_[i], src_begin_[i + 1] - src_begin_[i]);
  }

  /// Whether the two-level shuffle runs: Options::hierarchical is set and
  /// at least one node holds two or more ranks. With one rank per node
  /// every lane is a single rank, so the run is exactly the direct path.
  bool hierarchical() const { return hierarchical_; }
  const net::Topology& topology() const { return topo_; }
  /// Lane leader of `rank`'s own lane.
  int leader_of(int rank) const {
    const int node = topo_.node_of(rank);
    return lane_leader(node, lane_of(rank));
  }
  bool is_leader(int rank) const { return leader_of(rank) == rank; }
  std::pair<int, int> node_rank_range(int node) const;

  // ----- lane geometry (Options::local_aggregators, Kang et al.'s co) -----
  /// Lanes on `node`: min(co, members).
  int lanes(int node) const {
    return static_cast<int>(lane_leaders_[static_cast<std::size_t>(node)].size());
  }
  /// The rank elected leader of lane `lane` on `node`.
  int lane_leader(int node, int lane) const {
    return lane_leaders_[static_cast<std::size_t>(node)]
                        [static_cast<std::size_t>(lane)];
  }
  /// Half-open rank interval [first, last) of lane `lane` on `node`.
  /// Lanes are contiguous, non-empty, and partition the node's members;
  /// each lane's leader lives inside its own lane.
  std::pair<int, int> lane_rank_range(int node, int lane) const;
  /// Index of the lane containing `rank` within its node.
  int lane_of(int rank) const;

 private:
  net::Topology topo_;
  bool hierarchical_ = false;
  std::vector<std::vector<int>> lane_leaders_;  // per node, per lane
  std::vector<std::vector<int>> lane_bounds_;   // per node: lanes+1 boundaries
  std::vector<Range> domains_;       // per aggregator index
  std::vector<int> agg_ranks_;       // per aggregator index
  std::vector<int> agg_index_of_rank_;
  std::vector<std::pair<int, int>> aggs_of_;  // per rank
  // sources_of as a CSR table: aggregator a's ranks are
  // src_ranks_[src_begin_[a], src_begin_[a + 1]).
  std::vector<std::size_t> src_begin_;
  std::vector<int> src_ranks_;
  std::uint64_t range_begin_ = 0;
  std::uint64_t range_end_ = 0;
  std::uint64_t global_bytes_ = 0;
  std::uint64_t sub_buffer_ = 0;
  int num_cycles_ = 0;
};

/// The distribution plan of one collective write: a shared geometry
/// skeleton plus the full views this rank actually holds. After the
/// metadata exchange every rank's Plan shares that exchange's one
/// skeleton: a plain sender holds only its own view, a lane leader its
/// lane's views, and an aggregator all of them (one Plan per exchange,
/// shared by its aggregators through PlanCache). Geometry queries are
/// answered by the skeleton and are identical on every rank regardless of
/// which views it holds; view queries (segments_in, view, ...) require the
/// view to be held and fail loudly otherwise. Owns no payload.
class Plan {
 public:
  /// The one construction path: a shared skeleton plus the (rank, view)
  /// pairs delivered to this rank, ascending by rank. Does not validate
  /// the views: a metadata exchange delivers views that collective_write
  /// or collective_read validated on their owners before stage 2.
  Plan(std::shared_ptr<const PlanSkeleton> skeleton,
       std::vector<std::pair<int, FileView>> held);

  /// Every view held, `views[r]` rank r's, for callers without an exchange.
  /// Validates each view (nothing upstream did), builds the skeleton from
  /// their summaries — the geometry an exchange of these views derives —
  /// and delegates to the held-views constructor.
  Plan(std::vector<FileView> views, const net::Topology& topo,
       std::uint64_t stripe_size, const Options& opt);

  int num_aggregators() const { return skel_->num_aggregators(); }
  int num_cycles() const { return skel_->num_cycles(); }
  std::uint64_t sub_buffer_bytes() const { return skel_->sub_buffer_bytes(); }
  std::uint64_t global_bytes() const { return skel_->global_bytes(); }
  std::uint64_t range_begin() const { return skel_->range_begin(); }
  std::uint64_t range_end() const { return skel_->range_end(); }

  bool is_aggregator(int rank) const { return skel_->is_aggregator(rank); }
  /// Index into domains for an aggregator rank (-1 otherwise).
  int agg_index(int rank) const { return skel_->agg_index(rank); }
  /// The rank serving aggregator index `a`.
  int agg_rank(int a) const { return skel_->agg_rank(a); }

  using Range = PlanSkeleton::Range;
  /// File-domain of aggregator `a` (may be empty).
  Range domain(int a) const { return skel_->domain(a); }
  /// The slice of domain `a` processed in cycle `c`.
  Range cycle_range(int a, int c) const { return skel_->cycle_range(a, c); }

  /// The pieces of rank `r`'s view that fall in [lo, hi), with local
  /// offsets: two binary searches, no allocation. Requires rank `r`'s view
  /// to be held.
  SegmentRange segments_in(int r, std::uint64_t lo, std::uint64_t hi) const;

  /// Domain-overlap index (PlanSkeleton::aggs_of / sources_of): which
  /// aggregators a rank may send to, which ranks an aggregator may hear
  /// from. Answered from the skeleton on every rank.
  std::pair<int, int> aggs_of(int r) const { return skel_->aggs_of(r); }
  std::span<const int> sources_of(int a) const { return skel_->sources_of(a); }

  // ----- two-level (hierarchical) routing ---------------------------------
  /// Whether the two-level shuffle runs (PlanSkeleton::hierarchical).
  bool hierarchical() const { return skel_->hierarchical(); }
  const net::Topology& topology() const { return skel_->topology(); }
  /// The leader of `rank`'s lane.
  int leader_of(int rank) const { return skel_->leader_of(rank); }
  bool is_leader(int rank) const { return skel_->is_leader(rank); }
  /// Half-open rank interval [first, last) living on `node` (block
  /// mapping; the last node may be partially filled).
  std::pair<int, int> node_rank_range(int node) const {
    return skel_->node_rank_range(node);
  }

  // ----- lanes (Options::local_aggregators) -------------------------------
  /// Lanes on `node` (min(co, members)); 1 at the default co = 1.
  int lanes(int node) const { return skel_->lanes(node); }
  int lane_leader(int node, int lane) const {
    return skel_->lane_leader(node, lane);
  }
  std::pair<int, int> lane_rank_range(int node, int lane) const {
    return skel_->lane_rank_range(node, lane);
  }
  int lane_of(int rank) const { return skel_->lane_of(rank); }
  /// Union of the lane members' segments inside [lo, hi) — the merged
  /// message lane `lane`'s leader forwards: coalesced (touching or
  /// overlapping pieces merged), ordered by file offset, with
  /// `local_offset` re-purposed as the position inside the merged message.
  /// A single-member lane returns segments_in(member)'s pieces verbatim,
  /// so it sends exactly what the direct path would. Requires the lane
  /// members' views. The engine asks once per (lane, aggregator, cycle) on
  /// the lane's leader, which keeps the result as its stage layout, and
  /// once on the aggregator that posts the matching message.
  std::vector<Segment> lane_segments_in(int node, int lane, std::uint64_t lo,
                                        std::uint64_t hi) const;

  /// Rank `r`'s full view; requires it to be held on this rank.
  const FileView& view(int r) const {
    return views_[static_cast<std::size_t>(held_slot(r))];
  }
  /// Whether rank `r`'s full view was delivered to this rank.
  bool holds_view(int r) const;

  const PlanSkeleton& skeleton() const { return *skel_; }
  std::shared_ptr<const PlanSkeleton> skeleton_ptr() const { return skel_; }

 private:
  /// Index into views_/prefix_ for a held rank; fails if not held.
  std::size_t held_slot(int r) const;

  std::shared_ptr<const PlanSkeleton> skel_;
  std::vector<int> held_ranks_;   // ascending; == [0, P) on a full plan
  std::vector<FileView> views_;   // parallel to held_ranks_
  std::vector<std::vector<std::uint64_t>> prefix_;  // parallel, per extent
  bool dense_ = false;            // held_ranks_ is exactly [0, P)
};

/// Automatic aggregator-count selection (approximation of Chaarawi &
/// Gabriel's runtime algorithm, ref [5]): enough aggregators that each has
/// work, at most one per node by default.
int auto_aggregator_count(std::uint64_t total_bytes, std::uint64_t cb_size,
                          const net::Topology& topo);

}  // namespace tpio::coll
