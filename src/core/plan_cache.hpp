#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/plan.hpp"
#include "core/types.hpp"
#include "net/topology.hpp"

namespace tpio::coll {

/// Process-wide memoization of collective-write/read Plans.
///
/// Every aggregator of every run derives the same full Plan from the
/// exchanged views — A identical constructions per collective call,
/// repeated again for every repetition and sweep point that shares the
/// geometry. A Plan is immutable after construction (const accessors only,
/// no payload), so one instance can safely back any number of concurrent
/// engines; this cache hands out `shared_ptr<const Plan>` keyed by the full
/// input material:
///
///   (serialized views, topology, stripe size, plan-relevant Options)
///
/// The key embeds the exact serialized view blobs an aggregator holds
/// after the metadata exchange, so two workloads collide only when they
/// are byte-identical — a hit returns a Plan bit-identical to the one the
/// caller would have built. Options enter through the fields the Plan
/// constructor reads: cb_size, the None-vs-split overlap geometry,
/// num_aggregators, stripe_align, hierarchical, and leader_policy.
///
/// Race-free under the sweep executor like the tuning cache: a global
/// mutex serializes lookup-and-build, so the P ranks of one run (and any
/// concurrent sweep workers sharing a geometry) trigger exactly one
/// construction. Memoization is a host-side optimization only — Plan
/// construction never advances the virtual clock, so cached and fresh
/// plans produce identical RunResults.
class PlanCache {
 public:
  /// Return the cached Plan for this key material, building (and caching)
  /// it on a miss. `view_blobs[r]` is rank r's FileView::serialize() blob.
  /// Each lookup builds and hashes the O(total blob bytes) key; the engines
  /// use the shared-table overload below, which does so once per run.
  static std::shared_ptr<const Plan> get_or_build(
      const std::vector<std::vector<std::byte>>& view_blobs,
      const net::Topology& topo, std::uint64_t stripe_size,
      const Options& opt);

  /// The same lookup over the shared view table one stage-2 exchange
  /// generation hands every rank (Mpi::sparse_allgatherv_shared of each
  /// rank's serialized view), made by the ranks that hold every view — the
  /// aggregators. A memo keyed by that live table's identity plus the
  /// Options header answers the A lookups of one run in O(1) each: only the
  /// first aggregator builds, hashes and probes the content key above (so
  /// hits across runs behave exactly as before); the other A - 1 get that
  /// Plan back without touching the table. The memo holds the table through
  /// a weak_ptr, so it never extends a generation's life and a recycled
  /// address can never alias a dead table. Every other rank's Plan is a
  /// thin wrapper (shared skeleton + the few views delivered to it), built
  /// per rank and not cached: its held set differs per rank.
  static std::shared_ptr<const Plan> get_or_build(
      const std::shared_ptr<const std::vector<std::vector<std::byte>>>&
          view_table,
      const net::Topology& topo, std::uint64_t stripe_size,
      const Options& opt);

  /// Skeleton twin of get_or_build for the two-stage metadata exchange:
  /// keyed by the raw ViewSummary table (O(P·32B)) plus the same topology /
  /// stripe / Options header, so the P ranks of a run trigger exactly one
  /// skeleton construction — but each lookup still builds and hashes the
  /// O(P) key; the engines use the shared-table overload below, which does
  /// so once per run.
  static std::shared_ptr<const PlanSkeleton> get_or_build_skeleton(
      const std::vector<ViewSummary>& summaries, const net::Topology& topo,
      std::uint64_t stripe_size, const Options& opt);

  /// The same lookup over the shared summary table one exchange generation
  /// hands every rank (Mpi::allgather_shared of each rank's ViewSummary
  /// bytes), memoized per live table and Options header exactly like the
  /// shared-table Plan lookup above: only the first of the P ranks decodes
  /// the table and probes the content key; the other P - 1 get that
  /// skeleton back in O(1) without touching the table.
  static std::shared_ptr<const PlanSkeleton> get_or_build_skeleton(
      const std::shared_ptr<const std::vector<std::vector<std::byte>>>&
          summary_table,
      const net::Topology& topo, std::uint64_t stripe_size,
      const Options& opt);

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t entries = 0;  // currently cached plans + skeletons
  };
  static Stats stats();

  /// Drop every cached plan, skeleton and both table memos (in-flight
  /// shared_ptrs stay valid).
  static void clear();
};

}  // namespace tpio::coll
