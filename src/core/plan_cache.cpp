#include "core/plan_cache.hpp"

#include <atomic>
#include <cstring>
#include <mutex>
#include <string>

#include "simbase/error.hpp"

namespace tpio::coll {

namespace {

std::atomic<std::uint64_t> g_lookups{0};
std::atomic<std::uint64_t> g_hits{0};

/// One exchange generation's table of per-rank blobs (Mpi::BlobTable):
/// ViewSummary bytes in stage 1, serialized views in stage 2.
using BlobTable = std::vector<std::vector<std::byte>>;

/// A live exchange's skeleton: built from `table` under the Options
/// `header`.
struct SkeletonMemo {
  std::weak_ptr<const BlobTable> table;
  std::string header;
  std::shared_ptr<const PlanSkeleton> value;
};

/// A live exchange's aggregator Plan: built from `table` and the skeleton
/// `value` holds.
struct PlanMemo {
  std::weak_ptr<const BlobTable> table;
  std::shared_ptr<const Plan> value;
};

/// A copying form's one remembered answer and the content key it answers.
template <class T>
struct Slot {
  std::string key;
  std::shared_ptr<const T> value;
};

struct CacheState {
  std::mutex mu;
  // One entry per exchange table still alive somewhere: a handful, one per
  // concurrently running collective.
  std::vector<SkeletonMemo> skeletons;
  std::vector<PlanMemo> plans;
  Slot<PlanSkeleton> summaries_slot;
  Slot<Plan> blobs_slot;
};

CacheState& state() {
  static CacheState* s = new CacheState;
  return *s;
}

/// Drop the memos of exchanges whose table has died; the caller holds
/// `s.mu`.
void prune(CacheState& s) {
  const auto dead = [](const auto& m) { return m.table.expired(); };
  std::erase_if(s.skeletons, dead);
  std::erase_if(s.plans, dead);
}

bool same_table(const std::weak_ptr<const BlobTable>& memo,
                const std::shared_ptr<const BlobTable>& table) {
  return !memo.owner_before(table) && !table.owner_before(memo);
}

void append_u64(std::string& key, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  key.append(buf, sizeof v);
}

/// Every non-view input the PlanSkeleton constructor reads, serialized
/// verbatim.
void append_header(std::string& key, const net::Topology& topo,
                   std::uint64_t stripe, const Options& opt) {
  append_u64(key, static_cast<std::uint64_t>(topo.nodes));
  append_u64(key, static_cast<std::uint64_t>(topo.procs_per_node));
  append_u64(key, static_cast<std::uint64_t>(topo.rank_offset));
  append_u64(key, static_cast<std::uint64_t>(topo.nprocs()));
  append_u64(key, stripe);
  append_u64(key, opt.cb_size);
  append_u64(key, opt.overlap == OverlapMode::None ? 0 : 1);  // split geometry
  append_u64(key, static_cast<std::uint64_t>(opt.num_aggregators));
  append_u64(key, static_cast<std::uint64_t>(opt.local_aggregators));
  append_u64(key, (opt.stripe_align ? 1u : 0u) | (opt.hierarchical ? 2u : 0u) |
                      (opt.leader_policy == LeaderPolicy::Spread ? 4u : 0u) |
                      (opt.leader_policy == LeaderPolicy::Superset ? 8u : 0u));
}

/// The answer `slot` holds for content `key`, else `build()`, which then
/// takes the slot. The caller holds the mutex across the build on purpose:
/// concurrent callers with one key get one construction.
template <class T, class Build>
std::shared_ptr<const T> slotted(Slot<T>& slot, std::string key,
                                 Build&& build) {
  if (slot.value != nullptr && slot.key == key) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return slot.value;
  }
  slot = Slot<T>{std::move(key), build()};
  return slot.value;
}

}  // namespace

std::shared_ptr<const PlanSkeleton> PlanCache::get_or_build_skeleton(
    const std::shared_ptr<const BlobTable>& summary_table,
    const net::Topology& topo, std::uint64_t stripe_size,
    const Options& opt) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  std::string header;
  append_header(header, topo, stripe_size, opt);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  prune(s);
  for (const SkeletonMemo& m : s.skeletons) {
    if (same_table(m.table, summary_table) && m.header == header) {
      g_hits.fetch_add(1, std::memory_order_relaxed);
      return m.value;
    }
  }
  std::vector<ViewSummary> summaries(summary_table->size());
  for (std::size_t r = 0; r < summaries.size(); ++r) {
    TPIO_CHECK((*summary_table)[r].size() == sizeof(ViewSummary),
               "summary table entry is not one ViewSummary");
    std::memcpy(&summaries[r], (*summary_table)[r].data(),
                sizeof(ViewSummary));
  }
  auto skel =
      std::make_shared<const PlanSkeleton>(summaries, topo, stripe_size, opt);
  s.skeletons.push_back(SkeletonMemo{summary_table, std::move(header), skel});
  return skel;
}

std::shared_ptr<const Plan> PlanCache::get_or_build(
    const std::shared_ptr<const BlobTable>& view_table,
    const std::shared_ptr<const PlanSkeleton>& skeleton) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  prune(s);
  for (const PlanMemo& m : s.plans) {
    if (same_table(m.table, view_table) &&
        &m.value->skeleton() == skeleton.get()) {
      g_hits.fetch_add(1, std::memory_order_relaxed);
      return m.value;
    }
  }
  std::vector<std::pair<int, FileView>> held;
  held.reserve(view_table->size());
  for (std::size_t r = 0; r < view_table->size(); ++r) {
    held.emplace_back(static_cast<int>(r),
                      FileView::deserialize((*view_table)[r]));
  }
  auto plan = std::make_shared<const Plan>(skeleton, std::move(held));
  s.plans.push_back(PlanMemo{view_table, plan});
  return plan;
}

std::shared_ptr<const Plan> PlanCache::get_or_build(
    const std::vector<std::vector<std::byte>>& view_blobs,
    const net::Topology& topo, std::uint64_t stripe_size, const Options& opt) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  std::string key;
  append_header(key, topo, stripe_size, opt);
  for (const auto& b : view_blobs) {
    append_u64(key, b.size());
    key.append(reinterpret_cast<const char*>(b.data()), b.size());
  }
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return slotted(s.blobs_slot, std::move(key), [&] {
    std::vector<FileView> views;
    views.reserve(view_blobs.size());
    for (const auto& b : view_blobs) views.push_back(FileView::deserialize(b));
    return std::make_shared<const Plan>(std::move(views), topo, stripe_size,
                                        opt);
  });
}

std::shared_ptr<const PlanSkeleton> PlanCache::get_or_build_skeleton(
    const std::vector<ViewSummary>& summaries, const net::Topology& topo,
    std::uint64_t stripe_size, const Options& opt) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  std::string key;
  append_header(key, topo, stripe_size, opt);
  if (!summaries.empty()) {
    key.append(reinterpret_cast<const char*>(summaries.data()),
               summaries.size() * sizeof(ViewSummary));
  }
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return slotted(s.summaries_slot, std::move(key), [&] {
    return std::make_shared<const PlanSkeleton>(summaries, topo, stripe_size,
                                                opt);
  });
}

PlanCache::Stats PlanCache::stats() {
  Stats st;
  st.lookups = g_lookups.load(std::memory_order_relaxed);
  st.hits = g_hits.load(std::memory_order_relaxed);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  prune(s);
  st.entries = s.skeletons.size() + s.plans.size() +
               (s.summaries_slot.value ? 1 : 0) +
               (s.blobs_slot.value ? 1 : 0);
  return st;
}

void PlanCache::clear() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.skeletons.clear();
  s.plans.clear();
  s.summaries_slot = {};
  s.blobs_slot = {};
}

}  // namespace tpio::coll
