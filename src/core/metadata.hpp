#pragma once

#include <cstdint>
#include <memory>

#include "core/plan.hpp"
#include "core/types.hpp"
#include "mpi/mpi.hpp"

namespace tpio::coll {

/// The two-stage metadata phase that opens collective_write and
/// collective_read (DESIGN.md §5d), in the order the engines run it:
///
///   MetadataExchange meta(mpi, view);         // stage 1: summary allgather
///   ... meta.global_bytes() ...               // optional: e.g. warm start
///   auto plan = meta.plan(stripe, opt);       // skeleton + stage 2
///
/// Per-rank host work is O(1) in P outside the stage-2 blobs a rank
/// actually pulls: every rank holds the generation's one shared summary
/// table (never a copy of it). Each exchange builds one skeleton, from that
/// table, and one aggregator Plan, from that skeleton and its stage-2 view
/// table (PlanCache); every rank's Plan shares the skeleton, and nothing
/// is kept once the exchange's tables die.
class MetadataExchange {
 public:
  /// Stage 1: allgather this rank's 32-byte ViewSummary. Collective.
  MetadataExchange(smpi::Mpi& mpi, const FileView& view);

  /// Sum of every rank's view bytes; an O(P) scan of the shared table.
  std::uint64_t global_bytes() const;

  /// Skeleton, then stage 2: derive the run's shared PlanSkeleton from the
  /// summary table under `opt`, deliver full view blobs to the ranks that
  /// plan over them, and return this rank's Plan. Aggregators pull every
  /// view; a lane leader of a two-level plan pulls its lane's rank
  /// interval; every other rank keeps only its own view. Collective; call
  /// once. Drops the summary table before the stage-2 exchange.
  std::shared_ptr<const Plan> plan(std::uint64_t stripe_size,
                                   const Options& opt);

 private:
  smpi::Mpi& mpi_;
  const FileView& view_;
  std::shared_ptr<const smpi::Mpi::BlobTable> summaries_;
};

}  // namespace tpio::coll
