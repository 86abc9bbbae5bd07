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
                                                   const Options& opt,
                                                   bool lane_routing) {
  const net::Topology& topo = mpi_.machine().fabric().topology();
  std::shared_ptr<const PlanSkeleton> skel =
      PlanCache::get_or_build_skeleton(summaries_, topo, stripe_size, opt);
  summaries_.reset();

  // Stage 2: targeted delivery of the full view blobs. Aggregators plan
  // over every source (their incoming_segments walk all views); lane
  // leaders additionally unpack their members' gather pieces, so they pull
  // their lane's rank interval (the whole node at co = 1, where the lane
  // is the node); everyone else keeps only its own view.
  const int me = mpi_.rank();
  const int P = topo.nprocs();
  int want_b = 0, want_e = 0;
  if (skel->is_aggregator(me)) {
    want_e = P;
  } else if (lane_routing && opt.hierarchical && skel->is_leader(me)) {
    std::tie(want_b, want_e) =
        skel->lane_rank_range(topo.node_of(me), skel->lane_of(me));
  }
  auto delivered = mpi_.sparse_allgatherv(view_.serialize(), want_b, want_e);
  if (static_cast<int>(delivered.size()) == P) {
    // Every view held (an aggregator): share one full plan per geometry
    // through the memoizing cache — bit-identical to a fresh construction.
    std::vector<std::vector<std::byte>> blobs;
    blobs.reserve(delivered.size());
    for (auto& [r, b] : delivered) blobs.push_back(std::move(b));
    return PlanCache::get_or_build(blobs, topo, stripe_size, opt);
  }
  std::vector<std::pair<int, FileView>> held;
  held.reserve(delivered.size());
  for (auto& [r, b] : delivered) held.emplace_back(r, FileView::deserialize(b));
  return std::make_shared<const Plan>(std::move(skel), std::move(held));
}

}  // namespace tpio::coll
