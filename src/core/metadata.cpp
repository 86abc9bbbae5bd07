#include "core/metadata.hpp"

#include <cstring>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/plan_cache.hpp"

namespace tpio::coll {

MetadataExchange::MetadataExchange(smpi::Mpi& mpi, const FileView& view)
    : mpi_(mpi), view_(view) {
  const ViewSummary mine = view.summarize();
  summaries_ = mpi.allgather_shared(std::as_bytes(std::span(&mine, 1)));
}

std::uint64_t MetadataExchange::global_bytes() const {
  std::uint64_t total = 0;
  for (const auto& blob : *summaries_) {
    ViewSummary s;
    std::memcpy(&s, blob.data(), sizeof s);
    total += s.total_bytes;
  }
  return total;
}

std::shared_ptr<const Plan> MetadataExchange::plan(std::uint64_t stripe_size,
                                                   const Options& opt) {
  const net::Topology& topo = mpi_.machine().fabric().topology();
  std::shared_ptr<const PlanSkeleton> skel =
      PlanCache::get_or_build_skeleton(summaries_, topo, stripe_size, opt);
  summaries_.reset();

  // Stage 2: targeted delivery of the full view blobs. Aggregators plan
  // over every source (any rank may be among their sources_of); lane
  // leaders of a two-level plan additionally place their members' pieces
  // in the stage (a write's gather, a read's scatter), so they pull their
  // lane's rank interval; everyone else keeps only its own view.
  const int me = mpi_.rank();
  const int P = topo.nprocs();
  int want_b = 0, want_e = 0;
  if (skel->is_aggregator(me)) {
    want_e = P;
  } else if (skel->hierarchical() && skel->is_leader(me)) {
    std::tie(want_b, want_e) =
        skel->lane_rank_range(topo.node_of(me), skel->lane_of(me));
  }
  // Every rank holds the generation's one table and reads only the entries
  // delivered to it.
  const auto table =
      mpi_.sparse_allgatherv_shared(view_.serialize(), want_b, want_e);
  const bool own_outside = me < want_b || me >= want_e;
  if (want_e - want_b + (own_outside ? 1 : 0) == P) {
    // Every view held (an aggregator): the exchange's skeleton plus every
    // view, built once and shared by all of the exchange's aggregators.
    return PlanCache::get_or_build(table, skel);
  }
  // This rank's own view is the one it holds (and collective_write or
  // collective_read validated); only the others come out of the table.
  std::vector<std::pair<int, FileView>> held;
  smpi::Mpi::held_sources(me, want_b, want_e, [&](int r) {
    held.emplace_back(
        r, r == me ? view_
                   : FileView::deserialize(
                         (*table)[static_cast<std::size_t>(r)]));
  });
  return std::make_shared<const Plan>(std::move(skel), std::move(held));
}

}  // namespace tpio::coll
