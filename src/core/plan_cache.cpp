#include "core/plan_cache.hpp"

#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>

#include "simbase/error.hpp"

namespace tpio::coll {

namespace {

std::atomic<std::uint64_t> g_lookups{0};
std::atomic<std::uint64_t> g_hits{0};

/// One exchange generation's table of per-rank blobs (Mpi::BlobTable):
/// ViewSummary bytes in stage 1, serialized views in stage 2.
using BlobTable = std::vector<std::vector<std::byte>>;

/// One live exchange generation's answer: the skeleton or Plan built for
/// `table` under the Options `header`.
template <class T>
struct TableMemo {
  std::weak_ptr<const BlobTable> table;
  std::string header;
  std::shared_ptr<const T> value;
};

struct CacheState {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const Plan>> plans;
  std::unordered_map<std::string, std::shared_ptr<const PlanSkeleton>>
      skeletons;
  // One entry per exchange table still alive somewhere — a handful, one per
  // concurrently running collective; expired entries are pruned on every
  // lookup of their memo.
  std::vector<TableMemo<PlanSkeleton>> skeleton_memo;
  std::vector<TableMemo<Plan>> plan_memo;
  // Bound the footprint: past this many distinct geometries the cache is
  // simply cleared (in-use plans stay alive through their shared_ptrs).
  static constexpr std::size_t kMaxEntries = 256;
};

CacheState& state() {
  static CacheState* s = new CacheState;
  return *s;
}

void append_u64(std::string& key, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  key.append(buf, sizeof v);
}

/// Shared key header: every non-view input the Plan/PlanSkeleton
/// constructors read, serialized verbatim.
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

/// Exact key material: every input the Plan constructor reads, serialized
/// verbatim (binary string; collisions require byte-identical inputs).
std::string make_key(const std::vector<std::vector<std::byte>>& blobs,
                     const net::Topology& topo, std::uint64_t stripe,
                     const Options& opt) {
  std::size_t total = 11 * sizeof(std::uint64_t);
  for (const auto& b : blobs) total += b.size() + sizeof(std::uint64_t);
  std::string key;
  key.reserve(total);
  append_header(key, topo, stripe, opt);
  for (const auto& b : blobs) {
    append_u64(key, b.size());
    key.append(reinterpret_cast<const char*>(b.data()), b.size());
  }
  return key;
}

/// Skeleton key: the same header plus the raw summary table (trivially
/// copyable, fixed 32 bytes per rank).
std::string make_skeleton_key(const std::vector<ViewSummary>& summaries,
                              const net::Topology& topo, std::uint64_t stripe,
                              const Options& opt) {
  std::string key;
  key.reserve(11 * sizeof(std::uint64_t) +
              summaries.size() * sizeof(ViewSummary));
  append_header(key, topo, stripe, opt);
  if (!summaries.empty()) {
    key.append(reinterpret_cast<const char*>(summaries.data()),
               summaries.size() * sizeof(ViewSummary));
  }
  return key;
}

std::shared_ptr<const Plan> build(
    const std::vector<std::vector<std::byte>>& blobs,
    const net::Topology& topo, std::uint64_t stripe, const Options& opt) {
  std::vector<FileView> views;
  views.reserve(blobs.size());
  for (const auto& b : blobs) views.push_back(FileView::deserialize(b));
  return std::make_shared<const Plan>(std::move(views), topo, stripe, opt);
}

/// Content-keyed Plan lookup-or-build; the caller holds `s.mu`. The mutex
/// is held across the build on purpose: concurrent ranks of one run present
/// the same key, and one construction should serve them all.
std::shared_ptr<const Plan> plan_locked(
    CacheState& s, const std::vector<std::vector<std::byte>>& blobs,
    const net::Topology& topo, std::uint64_t stripe, const Options& opt) {
  std::string key = make_key(blobs, topo, stripe, opt);
  auto it = s.plans.find(key);
  if (it != s.plans.end()) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  if (s.plans.size() >= CacheState::kMaxEntries) s.plans.clear();
  auto plan = build(blobs, topo, stripe, opt);
  s.plans.emplace(std::move(key), plan);
  return plan;
}

/// Content-keyed skeleton lookup-or-build; the caller holds `s.mu` (held
/// across the build on purpose, as in plan_locked).
std::shared_ptr<const PlanSkeleton> skeleton_locked(
    CacheState& s, const std::vector<ViewSummary>& summaries,
    const net::Topology& topo, std::uint64_t stripe, const Options& opt) {
  std::string key = make_skeleton_key(summaries, topo, stripe, opt);
  auto it = s.skeletons.find(key);
  if (it != s.skeletons.end()) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  if (s.skeletons.size() >= CacheState::kMaxEntries) s.skeletons.clear();
  auto skel = std::make_shared<const PlanSkeleton>(summaries, topo, stripe,
                                                   opt);
  s.skeletons.emplace(std::move(key), skel);
  return skel;
}

std::vector<ViewSummary> decode_summaries(const BlobTable& table) {
  std::vector<ViewSummary> out(table.size());
  for (std::size_t r = 0; r < table.size(); ++r) {
    TPIO_CHECK(table[r].size() == sizeof(ViewSummary),
               "summary table entry is not one ViewSummary");
    std::memcpy(&out[r], table[r].data(), sizeof(ViewSummary));
  }
  return out;
}

/// The lookup both shared-table overloads make: the answer `memo` holds
/// for this live table under this Options header, else `build(s)` (a
/// content-key probe, run with the lock held), remembered for the rest of
/// the table's generation.
template <class T, class Build>
std::shared_ptr<const T> memoized(std::vector<TableMemo<T>> CacheState::*memo,
                                  const std::shared_ptr<const BlobTable>& table,
                                  const net::Topology& topo,
                                  std::uint64_t stripe, const Options& opt,
                                  Build&& build) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  std::string header;
  append_header(header, topo, stripe, opt);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  std::vector<TableMemo<T>>& entries = s.*memo;
  std::erase_if(entries,
                [](const TableMemo<T>& m) { return m.table.expired(); });
  for (const TableMemo<T>& m : entries) {
    const bool same_table =
        !m.table.owner_before(table) && !table.owner_before(m.table);
    if (same_table && m.header == header) {
      g_hits.fetch_add(1, std::memory_order_relaxed);
      return m.value;
    }
  }
  std::shared_ptr<const T> value = build(s);
  entries.push_back(TableMemo<T>{table, std::move(header), value});
  return value;
}

}  // namespace

std::shared_ptr<const Plan> PlanCache::get_or_build(
    const std::vector<std::vector<std::byte>>& view_blobs,
    const net::Topology& topo, std::uint64_t stripe_size, const Options& opt) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return plan_locked(s, view_blobs, topo, stripe_size, opt);
}

std::shared_ptr<const Plan> PlanCache::get_or_build(
    const std::shared_ptr<const BlobTable>& view_table,
    const net::Topology& topo, std::uint64_t stripe_size, const Options& opt) {
  return memoized(&CacheState::plan_memo, view_table, topo, stripe_size, opt,
                  [&](CacheState& s) {
                    return plan_locked(s, *view_table, topo, stripe_size, opt);
                  });
}

std::shared_ptr<const PlanSkeleton> PlanCache::get_or_build_skeleton(
    const std::vector<ViewSummary>& summaries, const net::Topology& topo,
    std::uint64_t stripe_size, const Options& opt) {
  g_lookups.fetch_add(1, std::memory_order_relaxed);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return skeleton_locked(s, summaries, topo, stripe_size, opt);
}

std::shared_ptr<const PlanSkeleton> PlanCache::get_or_build_skeleton(
    const std::shared_ptr<const BlobTable>& summary_table,
    const net::Topology& topo, std::uint64_t stripe_size,
    const Options& opt) {
  return memoized(&CacheState::skeleton_memo, summary_table, topo,
                  stripe_size, opt, [&](CacheState& s) {
                    return skeleton_locked(s, decode_summaries(*summary_table),
                                           topo, stripe_size, opt);
                  });
}

PlanCache::Stats PlanCache::stats() {
  Stats st;
  st.lookups = g_lookups.load(std::memory_order_relaxed);
  st.hits = g_hits.load(std::memory_order_relaxed);
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  st.entries = s.plans.size() + s.skeletons.size();
  return st;
}

void PlanCache::clear() {
  CacheState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.plans.clear();
  s.skeletons.clear();
  s.skeleton_memo.clear();
  s.plan_memo.clear();
}

}  // namespace tpio::coll
