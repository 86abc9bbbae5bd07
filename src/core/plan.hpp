#pragma once

#include <cstdint>
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

/// Everything about a collective write's geometry that is derivable from
/// the per-rank ViewSummary table alone: file range, global volume,
/// aggregator placement, file domains, leader election, cycle count. Built
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

  bool hierarchical() const { return hierarchical_; }
  const net::Topology& topology() const { return topo_; }
  int leader_rank(int node) const {
    return leader_by_node_[static_cast<std::size_t>(node)];
  }
  /// Lane leader of `rank`'s own lane (== leader_rank(node) at co = 1).
  int leader_of(int rank) const {
    const int node = topo_.node_of(rank);
    return lane_leader(node, lane_of(rank));
  }
  bool is_leader(int rank) const { return leader_of(rank) == rank; }
  std::pair<int, int> node_rank_range(int node) const;

  // ----- lane geometry (Options::local_aggregators, Kang et al.'s co) -----
  /// The requested co (>= 1); per-node lane counts are clamped to the
  /// node's member count.
  int local_aggregators() const { return local_aggs_; }
  /// Lanes on `node`: min(co, members). 1 at co = 1.
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
  int local_aggs_ = 1;
  std::vector<int> leader_by_node_;  // per node: lane 0's leader
  std::vector<std::vector<int>> lane_leaders_;  // per node, per lane
  std::vector<std::vector<int>> lane_bounds_;   // per node: lanes+1 boundaries
  std::vector<Range> domains_;       // per aggregator index
  std::vector<int> agg_ranks_;       // per aggregator index
  std::vector<int> agg_index_of_rank_;
  std::uint64_t range_begin_ = 0;
  std::uint64_t range_end_ = 0;
  std::uint64_t global_bytes_ = 0;
  std::uint64_t sub_buffer_ = 0;
  int num_cycles_ = 0;
};

/// The distribution plan of one collective write: a shared geometry
/// skeleton plus the full views this rank actually holds. After the
/// metadata exchange a plain sender holds only its own view, a lane leader
/// its lane's views, and an aggregator all of them (the full constructor
/// below, shared through PlanCache). Geometry queries are answered by the
/// skeleton and are identical on every rank regardless of which views it
/// holds; view queries (segments_in, view, ...) require the view to be
/// held and fail loudly otherwise. Owns no payload.
class Plan {
 public:
  /// Full construction, the aggregators' path: `views[r]` is rank r's file
  /// view. Builds the skeleton from the views' own summaries — the same
  /// geometry as a skeleton built from the exchanged summaries — and holds
  /// every view.
  Plan(std::vector<FileView> views, const net::Topology& topo,
       std::uint64_t stripe_size, const Options& opt);

  /// Partial construction from a shared skeleton plus the (rank, view)
  /// pairs delivered to this rank, ascending by rank.
  Plan(std::shared_ptr<const PlanSkeleton> skeleton,
       std::vector<std::pair<int, FileView>> held);

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

  /// Segments of rank `r`'s view that fall in [lo, hi), with local offsets.
  /// Requires rank `r`'s view to be held.
  std::vector<Segment> segments_in(int r, std::uint64_t lo,
                                   std::uint64_t hi) const;
  /// Total bytes of rank `r`'s view inside [lo, hi) (cheaper than
  /// materializing the segments). Requires rank `r`'s view to be held.
  std::uint64_t bytes_in(int r, std::uint64_t lo, std::uint64_t hi) const;

  // ----- two-level (hierarchical) routing ---------------------------------
  /// Whether this plan was built with Options::hierarchical.
  bool hierarchical() const { return skel_->hierarchical(); }
  const net::Topology& topology() const { return skel_->topology(); }
  /// The rank elected leader of `node` (per Options::leader_policy).
  int leader_rank(int node) const { return skel_->leader_rank(node); }
  /// The leader of `rank`'s node.
  int leader_of(int rank) const { return skel_->leader_of(rank); }
  bool is_leader(int rank) const { return skel_->is_leader(rank); }
  /// Half-open rank interval [first, last) living on `node` (block
  /// mapping; the last node may be partially filled).
  std::pair<int, int> node_rank_range(int node) const {
    return skel_->node_rank_range(node);
  }
  /// Union of the node's members' segments inside [lo, hi): coalesced
  /// (touching/overlapping pieces merged), ordered by file offset, with
  /// `local_offset` re-purposed as the position inside the node's merged
  /// message. Single-member nodes return segments_in(member) verbatim so
  /// the hierarchical path degenerates to the direct one exactly. Requires
  /// every member's view to be held.
  std::vector<Segment> node_segments_in(int node, std::uint64_t lo,
                                        std::uint64_t hi) const;
  /// Bytes of the merged node message for [lo, hi) (coalesced size).
  std::uint64_t node_bytes_in(int node, std::uint64_t lo,
                              std::uint64_t hi) const;

  // ----- lanes (Options::local_aggregators > 1) ---------------------------
  /// Requested local aggregators per node (co); 1 = single-leader scheme.
  int local_aggregators() const { return skel_->local_aggregators(); }
  /// Lanes on `node` (min(co, members)).
  int lanes(int node) const { return skel_->lanes(node); }
  int lane_leader(int node, int lane) const {
    return skel_->lane_leader(node, lane);
  }
  std::pair<int, int> lane_rank_range(int node, int lane) const {
    return skel_->lane_rank_range(node, lane);
  }
  int lane_of(int rank) const { return skel_->lane_of(rank); }
  /// Union of the lane members' segments inside [lo, hi) — the merged
  /// message lane `lane`'s leader forwards; same coalescing and
  /// local_offset convention as node_segments_in. With one lane per node
  /// this is node_segments_in verbatim. Requires the lane members' views.
  std::vector<Segment> lane_segments_in(int node, int lane, std::uint64_t lo,
                                        std::uint64_t hi) const;
  /// Bytes of the merged lane message for [lo, hi).
  std::uint64_t lane_bytes_in(int node, int lane, std::uint64_t lo,
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
  /// Coalesced union of ranks [first, last)'s segments in [lo, hi) — the
  /// shared core of node_segments_in / lane_segments_in.
  std::vector<Segment> merged_segments_in(int first, int last,
                                          std::uint64_t lo,
                                          std::uint64_t hi) const;
  /// Index into views_/prefix_ for a held rank; fails if not held.
  std::size_t held_slot(int r) const;
  void index_views();

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
