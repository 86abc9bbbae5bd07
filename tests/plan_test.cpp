#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "simbase/error.hpp"
#include "simbase/rng.hpp"
#include "simbase/units.hpp"

namespace coll = tpio::coll;
namespace net = tpio::net;
namespace sim = tpio::sim;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

namespace {

coll::Options opts(std::uint64_t cb, coll::OverlapMode m = coll::OverlapMode::None) {
  coll::Options o;
  o.cb_size = cb;
  o.overlap = m;
  o.stripe_align = false;
  return o;
}

/// 1-D block decomposition: rank r owns [r*n, (r+1)*n).
std::vector<coll::FileView> block_views(int P, std::uint64_t n) {
  std::vector<coll::FileView> v(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    v[static_cast<std::size_t>(r)].extents.push_back(
        coll::Extent{static_cast<std::uint64_t>(r) * n, n});
  }
  return v;
}

using SummaryTable = std::vector<std::vector<std::byte>>;

/// The summary table one exchange generation hands every rank:
/// views[r].summarize() as raw bytes, indexed by rank.
std::shared_ptr<const SummaryTable> summary_table(
    const std::vector<coll::FileView>& views) {
  auto table = std::make_shared<SummaryTable>();
  for (const coll::FileView& v : views) {
    const coll::ViewSummary s = v.summarize();
    const auto bytes = std::as_bytes(std::span(&s, 1));
    table->emplace_back(bytes.begin(), bytes.end());
  }
  return table;
}

/// Empties the plan cache around a test body.
struct FreshPlanCache {
  FreshPlanCache() { coll::PlanCache::clear(); }
  ~FreshPlanCache() { coll::PlanCache::clear(); }
};

}  // namespace

TEST(FileView, ValidateRejectsOverlapsAndEmpties) {
  coll::FileView ok;
  ok.extents = {{0, 10}, {10, 5}, {100, 1}};
  EXPECT_NO_THROW(ok.validate());

  coll::FileView empty_extent;
  empty_extent.extents = {{0, 0}};
  EXPECT_THROW(empty_extent.validate(), tpio::Error);

  coll::FileView overlapping;
  overlapping.extents = {{0, 10}, {5, 10}};
  EXPECT_THROW(overlapping.validate(), tpio::Error);

  coll::FileView unsorted;
  unsorted.extents = {{100, 10}, {0, 10}};
  EXPECT_THROW(unsorted.validate(), tpio::Error);
}

TEST(FileView, SerializeRoundTrip) {
  coll::FileView v;
  v.extents = {{7, 13}, {1000, 1}, {4096, 4096}};
  const auto blob = v.serialize();
  const auto w = coll::FileView::deserialize(blob);
  EXPECT_EQ(v.extents, w.extents);
  EXPECT_TRUE(coll::FileView::deserialize({}).extents.empty());
}

TEST(AutoAggregators, VolumeCappedByNodes) {
  net::Topology topo{16, 48};
  // Tiny job: one buffer's worth -> 1 aggregator.
  EXPECT_EQ(coll::auto_aggregator_count(1, 32 << 20, topo), 1);
  EXPECT_EQ(coll::auto_aggregator_count(32 << 20, 32 << 20, topo), 1);
  // Two buffers -> 2.
  EXPECT_EQ(coll::auto_aggregator_count((32 << 20) + 1, 32 << 20, topo), 2);
  // Huge volume -> capped at node count.
  EXPECT_EQ(coll::auto_aggregator_count(1ull << 40, 32 << 20, topo), 16);
}

TEST(AutoAggregators, CappedByProcs) {
  net::Topology topo{4, 1};
  EXPECT_EQ(coll::auto_aggregator_count(1ull << 40, 1 << 20, topo), 4);
}

TEST(Plan, DomainsPartitionRangeExactly) {
  net::Topology topo{4, 2};
  auto views = block_views(8, 1000);
  coll::Plan plan(views, topo, 0, opts(2000));
  const int A = plan.num_aggregators();
  ASSERT_GE(A, 1);
  std::uint64_t covered = 0;
  std::uint64_t prev_end = plan.range_begin();
  for (int a = 0; a < A; ++a) {
    auto d = plan.domain(a);
    EXPECT_EQ(d.begin, prev_end);
    prev_end = d.end;
    covered += d.size();
  }
  EXPECT_EQ(prev_end, plan.range_end());
  EXPECT_EQ(covered, 8000u);
  EXPECT_EQ(plan.global_bytes(), 8000u);
}

TEST(Plan, AggregatorsSpreadAcrossNodes) {
  net::Topology topo{4, 2};
  auto views = block_views(8, 1 << 20);
  coll::Options o = opts(1 << 20);
  o.num_aggregators = 4;
  coll::Plan plan(views, topo, 0, o);
  ASSERT_EQ(plan.num_aggregators(), 4);
  // One per node: ranks 0, 2, 4, 6.
  EXPECT_EQ(plan.agg_rank(0), 0);
  EXPECT_EQ(plan.agg_rank(1), 2);
  EXPECT_EQ(plan.agg_rank(2), 4);
  EXPECT_EQ(plan.agg_rank(3), 6);
  EXPECT_TRUE(plan.is_aggregator(2));
  EXPECT_FALSE(plan.is_aggregator(1));
  EXPECT_EQ(plan.agg_index(4), 2);
  EXPECT_EQ(plan.agg_index(5), -1);
}

TEST(Plan, MoreAggregatorsThanNodesWrapWithinNodes) {
  net::Topology topo{2, 4};
  auto views = block_views(8, 100);
  coll::Options o = opts(100);
  o.num_aggregators = 4;
  coll::Plan plan(views, topo, 0, o);
  // Nodes 0,1 then second pass: ranks 0, 4, 1, 5.
  EXPECT_EQ(plan.agg_rank(0), 0);
  EXPECT_EQ(plan.agg_rank(1), 4);
  EXPECT_EQ(plan.agg_rank(2), 1);
  EXPECT_EQ(plan.agg_rank(3), 5);
}

TEST(Plan, CycleCountFromLargestDomain) {
  net::Topology topo{2, 1};
  auto views = block_views(2, 1000);  // 2000 bytes, 2 aggregators
  coll::Options o = opts(300);        // sub-buffer 300 (no overlap)
  o.num_aggregators = 2;
  coll::Plan plan(views, topo, 0, o);
  // Domain of 1000 bytes each; ceil(1000/300) = 4 cycles.
  EXPECT_EQ(plan.num_cycles(), 4);
  EXPECT_EQ(plan.sub_buffer_bytes(), 300u);
}

TEST(Plan, OverlapHalvesSubBuffer) {
  net::Topology topo{2, 1};
  auto views = block_views(2, 1000);
  coll::Options o = opts(300, coll::OverlapMode::WriteComm2);
  o.num_aggregators = 2;
  coll::Plan plan(views, topo, 0, o);
  EXPECT_EQ(plan.sub_buffer_bytes(), 150u);
  EXPECT_EQ(plan.num_cycles(), 7);  // ceil(1000/150)
}

TEST(Plan, CycleRangesTileTheDomain) {
  net::Topology topo{1, 4};
  auto views = block_views(4, 777);
  coll::Options o = opts(100);
  o.num_aggregators = 2;
  coll::Plan plan(views, topo, 0, o);
  for (int a = 0; a < plan.num_aggregators(); ++a) {
    const auto d = plan.domain(a);
    std::uint64_t pos = d.begin;
    for (int c = 0; c < plan.num_cycles(); ++c) {
      const auto r = plan.cycle_range(a, c);
      EXPECT_EQ(r.begin, std::min(pos, d.end));
      pos = r.end;
    }
    EXPECT_EQ(pos, d.end);
  }
}

TEST(Plan, StripeAlignmentRoundsDomains) {
  net::Topology topo{2, 1};
  auto views = block_views(2, 1500);  // range 3000
  coll::Options o = opts(8192);
  o.num_aggregators = 2;
  o.stripe_align = true;
  coll::Plan plan(views, topo, 1024, o);
  // Unaligned split would be 1500/1500; aligned: 2048 then the rest.
  EXPECT_EQ(plan.domain(0).begin, 0u);
  EXPECT_EQ(plan.domain(0).end, 2048u);
  EXPECT_EQ(plan.domain(1).begin, 2048u);
  EXPECT_EQ(plan.domain(1).end, 3000u);
}

TEST(Plan, StripeAlignmentTrimsEmptyTrailingDomains) {
  // Four aggregators over a 2048-byte range with 1024-byte stripes:
  // rounding the per-aggregator share (512) up to a stripe leaves the last
  // two aggregators with nothing. They must be dropped from the plan, not
  // kept as zero-byte aggregators that allocate buffers and join barriers.
  net::Topology topo{4, 1};
  auto views = block_views(4, 512);
  coll::Options o = opts(8192);
  o.num_aggregators = 4;
  o.stripe_align = true;
  coll::Plan plan(views, topo, 1024, o);

  ASSERT_EQ(plan.num_aggregators(), 2);
  EXPECT_EQ(plan.domain(0).begin, 0u);
  EXPECT_EQ(plan.domain(0).end, 1024u);
  EXPECT_EQ(plan.domain(1).begin, 1024u);
  EXPECT_EQ(plan.domain(1).end, 2048u);
  EXPECT_TRUE(plan.is_aggregator(0));
  EXPECT_TRUE(plan.is_aggregator(1));
  EXPECT_FALSE(plan.is_aggregator(2));
  EXPECT_FALSE(plan.is_aggregator(3));
  EXPECT_EQ(plan.agg_index(2), -1);
  EXPECT_EQ(plan.num_cycles(), 1);  // 1024 <= 8192 sub-buffer
}

TEST(Plan, UnalignedTinyRangeAlsoTrims) {
  // Even without stripe alignment, a range smaller than the aggregator
  // count (per-aggregator share of 1 byte) exhausts before the tail.
  net::Topology topo{4, 1};
  std::vector<coll::FileView> views(4);
  views[0].extents = {{0, 3}};  // 3 bytes, 4 requested aggregators
  coll::Options o = opts(64);
  o.num_aggregators = 4;
  coll::Plan plan(views, topo, 0, o);
  EXPECT_EQ(plan.num_aggregators(), 3);
  EXPECT_EQ(plan.global_bytes(), 3u);
}

TEST(Plan, SegmentsRespectLocalOffsets) {
  // Rank with two extents: [100,150) and [300,400); local buffer holds
  // 50 + 100 bytes contiguously.
  net::Topology topo{1, 1};
  std::vector<coll::FileView> views(1);
  views[0].extents = {{100, 50}, {300, 100}};
  coll::Plan plan(views, topo, 0, opts(1 << 20));

  // Window covering the tail of extent 0 and head of extent 1.
  auto segs = plan.segments_in(0, 120, 350);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].file_offset, 120u);
  EXPECT_EQ(segs[0].local_offset, 20u);
  EXPECT_EQ(segs[0].length, 30u);
  EXPECT_EQ(segs[1].file_offset, 300u);
  EXPECT_EQ(segs[1].local_offset, 50u);
  EXPECT_EQ(segs[1].length, 50u);

  EXPECT_EQ(plan.bytes_in(0, 120, 350), 80u);
  EXPECT_EQ(plan.bytes_in(0, 0, 100), 0u);
  EXPECT_EQ(plan.bytes_in(0, 0, 1000), 150u);
  EXPECT_TRUE(plan.segments_in(0, 150, 300).empty());
}

TEST(Plan, LeaderPolicies) {
  net::Topology topo{3, 4, 10};  // partial last node: ranks 8, 9
  auto views = block_views(10, 100);
  coll::Options lo = opts(1 << 20);
  lo.hierarchical = true;
  coll::Plan lowest(views, topo, 0, lo);
  EXPECT_TRUE(lowest.hierarchical());
  EXPECT_EQ(lowest.leader_rank(0), 0);
  EXPECT_EQ(lowest.leader_rank(1), 4);
  EXPECT_EQ(lowest.leader_rank(2), 8);
  EXPECT_EQ(lowest.leader_of(5), 4);
  EXPECT_TRUE(lowest.is_leader(4));
  EXPECT_FALSE(lowest.is_leader(5));

  coll::Options sp = lo;
  sp.leader_policy = coll::LeaderPolicy::Spread;
  coll::Plan spread(views, topo, 0, sp);
  EXPECT_EQ(spread.leader_rank(0), 3);
  EXPECT_EQ(spread.leader_rank(1), 7);
  EXPECT_EQ(spread.leader_rank(2), 9);  // last node holds only 8, 9

  // Non-hierarchical plans still elect leaders (cheap) but report off.
  coll::Plan flat(views, topo, 0, opts(1 << 20));
  EXPECT_FALSE(flat.hierarchical());
}

TEST(Plan, NodeRankRanges) {
  net::Topology topo{3, 4, 10};
  auto views = block_views(10, 100);
  coll::Plan plan(views, topo, 0, opts(1 << 20));
  EXPECT_EQ(plan.node_rank_range(0), (std::pair<int, int>{0, 4}));
  EXPECT_EQ(plan.node_rank_range(1), (std::pair<int, int>{4, 8}));
  EXPECT_EQ(plan.node_rank_range(2), (std::pair<int, int>{8, 10}));
}

TEST(Plan, NodeSegmentsCoalesceAcrossMembers) {
  // Node 0 holds ranks 0 and 1 with interleaved-but-touching pieces; the
  // merged node message must be one run with dense local offsets.
  net::Topology topo{2, 2};
  std::vector<coll::FileView> views(4);
  views[0].extents = {{0, 100}, {200, 100}};
  views[1].extents = {{100, 100}, {400, 50}};
  views[2].extents = {{500, 100}};
  views[3].extents = {{600, 100}};
  coll::Plan plan(views, topo, 0, opts(1 << 20));

  const auto segs = plan.node_segments_in(0, 0, 1000);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].file_offset, 0u);    // [0,100)+[100,200)+[200,300)
  EXPECT_EQ(segs[0].length, 300u);
  EXPECT_EQ(segs[0].local_offset, 0u);
  EXPECT_EQ(segs[1].file_offset, 400u);
  EXPECT_EQ(segs[1].length, 50u);
  EXPECT_EQ(segs[1].local_offset, 300u);  // dense in the merged message
  EXPECT_EQ(plan.node_bytes_in(0, 0, 1000), 350u);

  // Window clipping applies before the merge.
  const auto clipped = plan.node_segments_in(0, 150, 250);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0].file_offset, 150u);
  EXPECT_EQ(clipped[0].length, 100u);
  EXPECT_EQ(plan.node_bytes_in(0, 150, 250), 100u);
}

TEST(Plan, SingleMemberNodePassesSegmentsThrough) {
  // ppn=1: node_segments_in must return segments_in(member) verbatim —
  // including its local buffer offsets — so the hierarchical path
  // degenerates to the direct one exactly.
  net::Topology topo{2, 1};
  std::vector<coll::FileView> views(2);
  views[0].extents = {{100, 50}, {300, 100}};
  views[1].extents = {{150, 100}};
  coll::Plan plan(views, topo, 0, opts(1 << 20));
  const auto direct = plan.segments_in(0, 120, 350);
  const auto node = plan.node_segments_in(0, 120, 350);
  ASSERT_EQ(node.size(), direct.size());
  for (std::size_t i = 0; i < node.size(); ++i) {
    EXPECT_EQ(node[i].file_offset, direct[i].file_offset);
    EXPECT_EQ(node[i].local_offset, direct[i].local_offset);
    EXPECT_EQ(node[i].length, direct[i].length);
  }
  EXPECT_EQ(plan.node_bytes_in(0, 120, 350), plan.bytes_in(0, 120, 350));
}

TEST(Plan, EmptyJob) {
  net::Topology topo{2, 2};
  std::vector<coll::FileView> views(4);
  coll::Plan plan(views, topo, 0, opts(1 << 20));
  EXPECT_EQ(plan.global_bytes(), 0u);
  EXPECT_EQ(plan.num_cycles(), 0);
}

TEST(Plan, ViewsWithHolesStillPartition) {
  // Ranks write disjoint extents with large gaps; domains span the holes.
  net::Topology topo{2, 1};
  std::vector<coll::FileView> views(2);
  views[0].extents = {{0, 100}};
  views[1].extents = {{1'000'000, 100}};
  coll::Options o = opts(512);
  o.num_aggregators = 2;
  coll::Plan plan(views, topo, 0, o);
  EXPECT_EQ(plan.range_begin(), 0u);
  EXPECT_EQ(plan.range_end(), 1'000'100u);
  EXPECT_EQ(plan.global_bytes(), 200u);
  // Cycle count is driven by the (mostly empty) domain size.
  EXPECT_GT(plan.num_cycles(), 900);
}

TEST(Plan, PartialLastNodeSkipsSlotsItLacks) {
  // P = 10 on ppn = 4 leaves node 2 with ranks 8 and 9 only. Placement
  // walks (slot, node) pairs slot-major and skips (node 2, slot 2), which
  // used to abort the plan; node 0's slot 3 takes the ninth aggregator.
  net::Topology topo{3, 4, 10};
  auto views = block_views(10, 100);
  coll::Options o = opts(100);
  o.num_aggregators = 9;
  coll::Plan plan(views, topo, 0, o);
  ASSERT_EQ(plan.num_aggregators(), 9);
  const int expect[] = {0, 4, 8, 1, 5, 9, 2, 6, 3};
  for (int a = 0; a < 9; ++a) EXPECT_EQ(plan.agg_rank(a), expect[a]) << a;
  EXPECT_FALSE(plan.is_aggregator(7));

  // A = P places every rank exactly once.
  o.num_aggregators = 10;
  coll::Plan all(views, topo, 0, o);
  ASSERT_EQ(all.num_aggregators(), 10);
  for (int r = 0; r < 10; ++r) EXPECT_TRUE(all.is_aggregator(r)) << r;
}

TEST(Plan, PartialNodePlacementsVerifyByteExact) {
  // End to end: both configurations that used to abort inside placement
  // now run and read back byte-exact.
  xp::RunSpec small;
  small.platform = xp::scaled(xp::ibex());
  small.platform.procs_per_node = 4;
  small.workload = wl::make_ior(64 * sim::KiB);
  small.nprocs = 10;
  small.options.cb_size = xp::kCbSize;
  small.options.num_aggregators = 9;
  small.options.stripe_align = false;  // keep all nine domains non-empty
  small.verify = true;
  const xp::RunResult r = xp::execute(small);
  EXPECT_EQ(r.aggregators, 9);
  EXPECT_EQ(r.verify_error, "");

  // tpio_sim --platform ibex --procs 16 --aggregators 16 (scaled ibex puts
  // 10 ranks on node 0 and 6 on node 1).
  xp::RunSpec ibex;
  ibex.platform = xp::scaled(xp::ibex());
  ibex.workload = wl::make_tile1m(1, 2);
  ibex.nprocs = 16;
  ibex.options.cb_size = xp::kCbSize;
  ibex.options.overlap = coll::OverlapMode::WriteComm2;
  ibex.options.num_aggregators = 16;
  ibex.verify = true;
  const xp::RunResult q = xp::execute(ibex);
  EXPECT_EQ(q.aggregators, 16);
  EXPECT_EQ(q.verify_error, "");
}

TEST(PlanCache, SameSummaryTableSameSkeleton) {
  // Every rank of a generation presents the same table object: all of them
  // get the one skeleton, each lookup counted as a hit after the first.
  FreshPlanCache fresh;
  net::Topology topo{4, 2};
  const auto table = summary_table(block_views(8, 1000));
  const auto before = coll::PlanCache::stats();
  const auto a = coll::PlanCache::get_or_build_skeleton(table, topo, 0,
                                                        opts(2000));
  const auto b = coll::PlanCache::get_or_build_skeleton(table, topo, 0,
                                                        opts(2000));
  EXPECT_EQ(a.get(), b.get());
  const auto after = coll::PlanCache::stats();
  EXPECT_EQ(after.lookups - before.lookups, 2u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(a->global_bytes(), 8000u);
}

TEST(PlanCache, IdenticalTableOfANewGenerationHitsThroughContentKey) {
  // A later run exchanging byte-identical summaries gets a fresh table
  // object; the memo misses, the content key hits — as does the
  // ViewSummary-vector overload the same key serves.
  FreshPlanCache fresh;
  net::Topology topo{4, 2};
  const auto views = block_views(8, 1000);
  const auto first = coll::PlanCache::get_or_build_skeleton(
      summary_table(views), topo, 0, opts(2000));
  const auto before = coll::PlanCache::stats();
  const auto second = coll::PlanCache::get_or_build_skeleton(
      summary_table(views), topo, 0, opts(2000));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(coll::PlanCache::stats().hits - before.hits, 1u);

  std::vector<coll::ViewSummary> summaries;
  for (const coll::FileView& v : views) summaries.push_back(v.summarize());
  EXPECT_EQ(coll::PlanCache::get_or_build_skeleton(summaries, topo, 0,
                                                   opts(2000))
                .get(),
            first.get());
}

TEST(PlanCache, DifferentOptionsHeaderMisses) {
  // The same live table under different plan-relevant Options is a
  // different skeleton.
  FreshPlanCache fresh;
  net::Topology topo{4, 2};
  const auto table = summary_table(block_views(8, 1000));
  const auto a = coll::PlanCache::get_or_build_skeleton(table, topo, 0,
                                                        opts(2000));
  coll::Options more = opts(2000);
  more.num_aggregators = 4;
  const auto b = coll::PlanCache::get_or_build_skeleton(table, topo, 0, more);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(b->num_aggregators(), 4);
  const auto c = coll::PlanCache::get_or_build_skeleton(table, topo, 0,
                                                        opts(500));
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a->num_cycles(), c->num_cycles());
}

TEST(PlanCache, ClearedCacheBypassesTheMemo) {
  FreshPlanCache fresh;
  net::Topology topo{4, 2};
  const auto table = summary_table(block_views(8, 1000));
  const auto a = coll::PlanCache::get_or_build_skeleton(table, topo, 0,
                                                        opts(2000));
  // Cleared: the memo goes with the content cache.
  coll::PlanCache::clear();
  const auto d = coll::PlanCache::get_or_build_skeleton(table, topo, 0,
                                                        opts(2000));
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(coll::PlanCache::get_or_build_skeleton(table, topo, 0, opts(2000))
                .get(),
            d.get());
}

// The two-stage metadata exchange plans from per-rank summaries: every
// rank builds the skeleton from the exchanged ViewSummary table, while
// aggregators also build the full Plan from every delivered view.
TEST(MetadataDiff, SkeletonFromSummariesMatchesDensePlanGeometry) {
  // PlanSkeleton sees 32 bytes per rank; the full Plan (the aggregators'
  // path) sees every extent. Both must derive the same geometry —
  // aggregator placement, domains, cycles, leaders — for random
  // decompositions.
  sim::Rng rng(0x5EED);
  for (int trial = 0; trial < 20; ++trial) {
    const int ppn = 1 + static_cast<int>(rng.next_below(4));
    const int nodes = 2 + static_cast<int>(rng.next_below(7));
    const int P = nodes * ppn;
    const net::Topology topo{nodes, ppn};
    std::vector<coll::FileView> views(static_cast<std::size_t>(P));
    std::uint64_t pos = rng.next_below(1 << 20);
    for (int k = 0; k < 50; ++k) {
      const int owner =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
      const std::uint64_t len = 1 + rng.next_below(100'000);
      views[static_cast<std::size_t>(owner)].extents.push_back(
          coll::Extent{pos, len});
      pos += len + rng.next_below(4096);
    }
    coll::Options opt;
    opt.cb_size = 1 << 20;
    opt.hierarchical = (trial % 2 == 1);
    const std::uint64_t stripe = 128 * sim::KiB;

    std::vector<coll::ViewSummary> summaries;
    summaries.reserve(views.size());
    for (const auto& v : views) summaries.push_back(v.summarize());
    const coll::PlanSkeleton skel(summaries, topo, stripe, opt);
    const coll::Plan dense(views, topo, stripe, opt);

    ASSERT_EQ(skel.num_aggregators(), dense.num_aggregators()) << trial;
    EXPECT_EQ(skel.num_cycles(), dense.num_cycles()) << trial;
    EXPECT_EQ(skel.sub_buffer_bytes(), dense.sub_buffer_bytes()) << trial;
    EXPECT_EQ(skel.global_bytes(), dense.global_bytes()) << trial;
    EXPECT_EQ(skel.range_begin(), dense.range_begin()) << trial;
    EXPECT_EQ(skel.range_end(), dense.range_end()) << trial;
    for (int a = 0; a < skel.num_aggregators(); ++a) {
      EXPECT_EQ(skel.agg_rank(a), dense.agg_rank(a)) << trial;
      EXPECT_EQ(skel.domain(a).begin, dense.domain(a).begin) << trial;
      EXPECT_EQ(skel.domain(a).end, dense.domain(a).end) << trial;
    }
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(skel.is_aggregator(r), dense.is_aggregator(r)) << trial;
      EXPECT_EQ(skel.agg_index(r), dense.agg_index(r)) << trial;
    }
  }
}
