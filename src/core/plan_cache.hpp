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
/// Every rank of every run derives the same Plan from the exchanged views —
/// P identical constructions per collective call, repeated again for every
/// repetition and sweep point that shares the geometry. A Plan is immutable
/// after construction (const accessors only, no payload), so one instance
/// can safely back any number of concurrent engines; this cache hands out
/// `shared_ptr<const Plan>` keyed by the full input material:
///
///   (serialized views, topology, stripe size, plan-relevant Options)
///
/// The key embeds the exact serialized view blobs every rank already holds
/// after the metadata allgatherv, so two workloads collide only when they
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
  /// it on a miss. `view_blobs[r]` is rank r's FileView::serialize() blob,
  /// as produced by the metadata allgatherv.
  static std::shared_ptr<const Plan> get_or_build(
      const std::vector<std::vector<std::byte>>& view_blobs,
      const net::Topology& topo, std::uint64_t stripe_size,
      const Options& opt);

  /// Skeleton twin of get_or_build for the two-stage metadata exchange:
  /// keyed by the raw ViewSummary table (O(P·32B)) plus the same topology /
  /// stripe / Options header, so the P ranks of a run trigger exactly one
  /// skeleton construction — but each lookup still builds and hashes the
  /// O(P) key; the engines use the shared-table overload below, which does
  /// so once per run. Plans themselves are not cached on the sparse
  /// path — each rank's Plan is a thin wrapper (shared skeleton + the few
  /// views delivered to it) whose construction is cheap and whose held set
  /// differs per rank.
  static std::shared_ptr<const PlanSkeleton> get_or_build_skeleton(
      const std::vector<ViewSummary>& summaries, const net::Topology& topo,
      std::uint64_t stripe_size, const Options& opt);

  /// The same lookup over the shared summary table one exchange generation
  /// hands every rank (Mpi::allgather_shared of each rank's ViewSummary
  /// bytes). A memo keyed by that live table's identity plus the Options
  /// header answers the P lookups of one run in O(1) each: only the first
  /// rank decodes the table and builds, hashes and probes the content key
  /// above (so hits across runs behave exactly as before); the other P - 1
  /// get that skeleton back without touching the table. The memo holds the
  /// table through a weak_ptr, so it never extends a generation's life and
  /// a recycled address can never alias a dead table.
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

  /// Drop every cached plan, skeleton and table memo (in-flight
  /// shared_ptrs stay valid).
  static void clear();

  /// Test hook: false makes every lookup construct afresh (no content
  /// cache, no table memo), the legacy behaviour. Thread-safe; default
  /// true.
  static void set_enabled(bool on);
  static bool enabled();
};

}  // namespace tpio::coll
