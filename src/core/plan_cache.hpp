#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/plan.hpp"
#include "core/types.hpp"
#include "net/topology.hpp"

namespace tpio::coll {

/// One build per metadata exchange (DESIGN.md §5d). An exchange hands its
/// P ranks one shared summary table and its A aggregators one shared view
/// table; from them it needs one PlanSkeleton and one full Plan, and every
/// rank would otherwise build its own. PlanCache memoizes each answer by
/// the identity of the live table it was built from: the first lookup
/// builds, the others of that exchange get the same object back in O(1).
/// A memo entry names its table through a weak_ptr, so it never extends
/// the table's life and a recycled address can never alias a dead table;
/// the entry goes at the first lookup after its table dies. Nothing is
/// shared across exchanges: a later exchange of byte-identical tables
/// builds afresh.
///
/// Plans and skeletons are immutable after construction (const accessors
/// only, no payload), so one instance can back any number of concurrent
/// engines. A global mutex serializes lookup-and-build, so concurrent sweep
/// workers are race-free. Host-side only: building a Plan never advances
/// the virtual clock, so a memoized and a fresh plan produce identical
/// RunResults.
class PlanCache {
 public:
  /// Stage 1, every rank: the skeleton of the summary table one exchange
  /// generation hands every rank (Mpi::allgather_shared of each rank's
  /// ViewSummary bytes), under the topology, the stripe size and the
  /// Options fields a skeleton reads (cb_size, the None-vs-split overlap
  /// geometry, num_aggregators, local_aggregators, stripe_align,
  /// hierarchical, leader_policy). Memoized by the live table plus that
  /// Options header.
  static std::shared_ptr<const PlanSkeleton> get_or_build_skeleton(
      const std::shared_ptr<const std::vector<std::vector<std::byte>>>&
          summary_table,
      const net::Topology& topo, std::uint64_t stripe_size,
      const Options& opt);

  /// Stage 2, the aggregators: `skeleton` plus every view of the view
  /// table one exchange generation hands them (Mpi::sparse_allgatherv_shared
  /// of each rank's serialized view, all of them delivered to an
  /// aggregator). Memoized by the identities of the live table and the
  /// skeleton. Every other rank's Plan holds the views delivered to it and
  /// is built per rank, not here: its held set differs per rank.
  static std::shared_ptr<const Plan> get_or_build(
      const std::shared_ptr<const std::vector<std::vector<std::byte>>>&
          view_table,
      const std::shared_ptr<const PlanSkeleton>& skeleton);

  /// Copying forms for callers that hold the inputs but no exchange table.
  /// `view_blobs[r]` is rank r's FileView::serialize() blob. Each keeps one
  /// slot: a lookup whose content key (every input byte plus the Options
  /// header) equals the slot's returns its answer; any other builds the
  /// answer and takes the slot. Each lookup builds and compares that
  /// O(input bytes) key.
  static std::shared_ptr<const Plan> get_or_build(
      const std::vector<std::vector<std::byte>>& view_blobs,
      const net::Topology& topo, std::uint64_t stripe_size,
      const Options& opt);
  static std::shared_ptr<const PlanSkeleton> get_or_build_skeleton(
      const std::vector<ViewSummary>& summaries, const net::Topology& topo,
      std::uint64_t stripe_size, const Options& opt);

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t entries = 0;  // live exchanges' memos plus filled slots
  };
  static Stats stats();

  /// Drop every memo and both slots (in-flight shared_ptrs stay valid).
  static void clear();
};

}  // namespace tpio::coll
