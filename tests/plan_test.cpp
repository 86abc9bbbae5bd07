#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>

#include "core/metadata.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "sched/conductor.hpp"
#include "simbase/error.hpp"
#include "simbase/rng.hpp"
#include "simbase/units.hpp"

namespace coll = tpio::coll;
namespace net = tpio::net;
namespace sim = tpio::sim;
namespace smpi = tpio::smpi;
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

using BlobTable = std::vector<std::vector<std::byte>>;

/// The summary table one exchange generation hands every rank:
/// views[r].summarize() as raw bytes, indexed by rank.
std::shared_ptr<const BlobTable> summary_table(
    const std::vector<coll::FileView>& views) {
  auto table = std::make_shared<BlobTable>();
  for (const coll::FileView& v : views) {
    const coll::ViewSummary s = v.summarize();
    const auto bytes = std::as_bytes(std::span(&s, 1));
    table->emplace_back(bytes.begin(), bytes.end());
  }
  return table;
}

/// The stage-2 table one exchange generation hands every rank:
/// views[r].serialize(), indexed by rank.
std::shared_ptr<const BlobTable> view_table(
    const std::vector<coll::FileView>& views) {
  auto table = std::make_shared<BlobTable>();
  for (const coll::FileView& v : views) table->push_back(v.serialize());
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

  EXPECT_EQ(plan.segments_in(0, 120, 350).bytes(), 80u);
  EXPECT_EQ(plan.segments_in(0, 0, 100).bytes(), 0u);
  EXPECT_EQ(plan.segments_in(0, 0, 1000).bytes(), 150u);
  EXPECT_TRUE(plan.segments_in(0, 150, 300).empty());
  EXPECT_TRUE(plan.segments_in(0, 350, 120).empty());  // inverted window

  // The pieces are one local run: it starts at the first piece's local
  // offset and its length is the byte total; iteration yields them in
  // order, each starting where the previous one ends.
  EXPECT_EQ(segs.local_offset(), 20u);
  EXPECT_EQ(segs.front().file_offset, 120u);
  EXPECT_EQ(segs.back().file_offset, 300u);
  std::uint64_t next = segs.local_offset();
  for (const coll::Segment& piece : segs) {
    EXPECT_EQ(piece.local_offset, next);
    next += piece.length;
  }
  EXPECT_EQ(next, segs.local_offset() + segs.bytes());
}

TEST(Plan, OverlapIndexListsEachAggregatorsSources) {
  // Four 100-byte blocks over two aggregators: rank 1's block straddles
  // the domain boundary at 150, so both aggregators list it; rank 2 holds
  // nothing and is nobody's source.
  net::Topology topo{4, 1};
  std::vector<coll::FileView> views(4);
  views[0].extents = {{0, 100}};
  views[1].extents = {{100, 100}};
  views[3].extents = {{200, 100}};
  coll::Options o = opts(1 << 20);
  o.num_aggregators = 2;
  coll::Plan plan(views, topo, 0, o);
  ASSERT_EQ(plan.domain(0).end, 150u);
  EXPECT_EQ(plan.aggs_of(0), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(plan.aggs_of(1), (std::pair<int, int>{0, 2}));
  EXPECT_EQ(plan.aggs_of(2), (std::pair<int, int>{0, 0}));
  EXPECT_EQ(plan.aggs_of(3), (std::pair<int, int>{1, 2}));
  const auto s0 = plan.sources_of(0);
  const auto s1 = plan.sources_of(1);
  EXPECT_EQ(std::vector<int>(s0.begin(), s0.end()), (std::vector<int>{0, 1}));
  EXPECT_EQ(std::vector<int>(s1.begin(), s1.end()), (std::vector<int>{1, 3}));
}

TEST(Plan, LeaderPolicies) {
  net::Topology topo{3, 4, 10};  // partial last node: ranks 8, 9
  auto views = block_views(10, 100);
  coll::Options lo = opts(1 << 20);
  lo.hierarchical = true;
  coll::Plan lowest(views, topo, 0, lo);
  EXPECT_TRUE(lowest.hierarchical());
  EXPECT_EQ(lowest.lane_leader(0, 0), 0);
  EXPECT_EQ(lowest.lane_leader(1, 0), 4);
  EXPECT_EQ(lowest.lane_leader(2, 0), 8);
  EXPECT_EQ(lowest.leader_of(5), 4);
  EXPECT_TRUE(lowest.is_leader(4));
  EXPECT_FALSE(lowest.is_leader(5));

  coll::Options sp = lo;
  sp.leader_policy = coll::LeaderPolicy::Spread;
  coll::Plan spread(views, topo, 0, sp);
  EXPECT_EQ(spread.lane_leader(0, 0), 3);
  EXPECT_EQ(spread.lane_leader(1, 0), 7);
  EXPECT_EQ(spread.lane_leader(2, 0), 9);  // last node holds only 8, 9

  // Non-hierarchical plans still elect leaders (cheap) but report off.
  coll::Plan flat(views, topo, 0, opts(1 << 20));
  EXPECT_FALSE(flat.hierarchical());

  // One rank per node leaves nobody to gather from: the plan runs the
  // direct path even when hierarchy is requested.
  coll::Plan ppn1(block_views(3, 100), net::Topology{3, 1}, 0, lo);
  EXPECT_FALSE(ppn1.hierarchical());
  // So does a rank-offset sub-view of two ranks straddling a node
  // boundary, though each of its nodes has four slots.
  coll::Plan straddle(block_views(2, 100), net::Topology::sub_view(topo, 3, 2),
                      0, lo);
  EXPECT_FALSE(straddle.hierarchical());
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
  // merged message of its one lane (co = 1) must be one run with dense
  // local offsets.
  net::Topology topo{2, 2};
  std::vector<coll::FileView> views(4);
  views[0].extents = {{0, 100}, {200, 100}};
  views[1].extents = {{100, 100}, {400, 50}};
  views[2].extents = {{500, 100}};
  views[3].extents = {{600, 100}};
  coll::Plan plan(views, topo, 0, opts(1 << 20));

  const auto segs = plan.lane_segments_in(0, 0, 0, 1000);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].file_offset, 0u);    // [0,100)+[100,200)+[200,300)
  EXPECT_EQ(segs[0].length, 300u);
  EXPECT_EQ(segs[0].local_offset, 0u);
  EXPECT_EQ(segs[1].file_offset, 400u);
  EXPECT_EQ(segs[1].length, 50u);
  EXPECT_EQ(segs[1].local_offset, 300u);  // dense in the merged message

  // Window clipping applies before the merge.
  const auto clipped = plan.lane_segments_in(0, 0, 150, 250);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0].file_offset, 150u);
  EXPECT_EQ(clipped[0].length, 100u);
}

TEST(Plan, SingleMemberNodePassesSegmentsThrough) {
  // ppn=1: a single-member lane's merged message must be
  // segments_in(member) verbatim — including its local buffer offsets —
  // so it sends exactly what the direct path would.
  net::Topology topo{2, 1};
  std::vector<coll::FileView> views(2);
  views[0].extents = {{100, 50}, {300, 100}};
  views[1].extents = {{150, 100}};
  coll::Plan plan(views, topo, 0, opts(1 << 20));
  const auto direct = plan.segments_in(0, 120, 350);
  const auto node = plan.lane_segments_in(0, 0, 120, 350);
  ASSERT_EQ(node.size(), direct.size());
  for (std::size_t i = 0; i < node.size(); ++i) {
    EXPECT_EQ(node[i].file_offset, direct[i].file_offset);
    EXPECT_EQ(node[i].local_offset, direct[i].local_offset);
    EXPECT_EQ(node[i].length, direct[i].length);
  }
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

// ---------------------------------------------------------------------------
// Piece queries and the domain-overlap index against brute force
// ---------------------------------------------------------------------------

namespace {

/// Rank view `v` clipped extent by extent to [lo, hi), with local offsets:
/// the reference every SegmentRange must equal element for element.
std::vector<coll::Segment> clip_each_extent(const coll::FileView& v,
                                            std::uint64_t lo,
                                            std::uint64_t hi) {
  std::vector<coll::Segment> out;
  std::uint64_t local = 0;
  for (const coll::Extent& e : v.extents) {
    const std::uint64_t s = std::max(e.offset, lo);
    const std::uint64_t t = std::min(e.end(), hi);
    if (s < t) out.push_back(coll::Segment{s, local + (s - e.offset), t - s});
    local += e.length;
  }
  return out;
}

/// `P` random views over one shared file: each rank holds no extent (one
/// in five), one, or up to 8, 64 or 2048; owners interleave along the
/// file, and a zero gap makes neighbours touch (file-contiguous pieces of
/// one rank and runs that cross owners).
std::vector<coll::FileView> random_job(sim::Rng& rng, int P) {
  static constexpr std::uint64_t kMaxExtents[] = {1, 8, 64, 2048};
  std::vector<int> owners;
  for (int r = 0; r < P; ++r) {
    if (rng.next_below(5) == 0) continue;
    const std::uint64_t n = 1 + rng.next_below(kMaxExtents[rng.next_below(4)]);
    owners.insert(owners.end(), n, r);
  }
  for (std::size_t i = owners.size(); i > 1; --i) {
    std::swap(owners[i - 1], owners[rng.next_below(i)]);
  }
  std::vector<coll::FileView> views(static_cast<std::size_t>(P));
  std::uint64_t pos = rng.next_below(10'000);
  for (const int r : owners) {
    const std::uint64_t len = 1 + rng.next_below(3'000);
    views[static_cast<std::size_t>(r)].extents.push_back(
        coll::Extent{pos, len});
    pos += len + (rng.next_below(3) == 0 ? 0 : rng.next_below(2'000));
  }
  return views;
}

}  // namespace

TEST(PieceQueries, MatchPerExtentClippingAndTheIndexDropsNothing) {
  sim::Rng rng(0x5E6);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Partial last nodes, and (every third trial) a sub-communicator
    // whose ranks start mid-node.
    const int ppn = 1 + static_cast<int>(rng.next_below(4));
    const int nodes = 1 + static_cast<int>(rng.next_below(6));
    const int missing =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ppn)));
    const net::Topology world{nodes, ppn, nodes * ppn - missing};
    net::Topology topo = world;
    if (trial % 3 == 2 && world.nprocs() > 1) {
      const int base = 1 + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(world.nprocs() - 1)));
      topo = net::Topology::sub_view(world, base, world.nprocs() - base);
    }
    const int P = topo.nprocs();
    const auto views = random_job(rng, P);
    coll::Options o = opts(4096 + rng.next_below(200'000),
                           trial % 2 == 0 ? coll::OverlapMode::None
                                          : coll::OverlapMode::WriteComm2);
    o.num_aggregators =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P) + 1));
    o.stripe_align = trial % 4 == 1;
    const coll::Plan plan(views, topo, 64 * sim::KiB, o);
    std::vector<coll::ViewSummary> summaries;
    for (const auto& v : views) summaries.push_back(v.summarize());
    const coll::PlanSkeleton skel(summaries, topo, 64 * sim::KiB, o);
    const int A = plan.num_aggregators();

    // Piece queries: every cycle range and random windows, some inverted
    // or past the file's end.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
    for (int a = 0; a < A; ++a) {
      for (int c = 0; c < plan.num_cycles(); ++c) {
        const auto r = plan.cycle_range(a, c);
        windows.emplace_back(r.begin, r.end);
      }
    }
    const std::uint64_t end = plan.range_end() + 100;
    for (int k = 0; k < 16; ++k) {
      windows.emplace_back(rng.next_below(end), rng.next_below(end));
    }
    for (int r = 0; r < P; ++r) {
      const coll::FileView& v = views[static_cast<std::size_t>(r)];
      for (const auto& [lo, hi] : windows) {
        const coll::SegmentRange got = plan.segments_in(r, lo, hi);
        const auto want = clip_each_extent(v, lo, hi);
        ASSERT_EQ(got.size(), want.size()) << "rank " << r << " [" << lo
                                           << ", " << hi << ")";
        std::uint64_t sum = 0;
        std::size_t k = 0;
        for (const coll::Segment& g : got) {
          EXPECT_EQ(g.file_offset, want[k].file_offset);
          EXPECT_EQ(g.local_offset, want[k].local_offset);
          EXPECT_EQ(g.length, want[k].length);
          sum += g.length;
          ++k;
        }
        EXPECT_EQ(k, want.size());
        EXPECT_EQ(got.bytes(), sum);
        EXPECT_EQ(got.empty(), want.empty());
        if (!want.empty()) {
          EXPECT_EQ(got.local_offset(), want.front().local_offset);
          // One contiguous local run, ending where the last piece ends.
          EXPECT_EQ(got.local_offset() + got.bytes(),
                    want.back().local_offset + want.back().length);
        }
      }
    }

    // The index: the skeleton from summaries agrees with the full plan,
    // sources are strictly ascending and exactly the inverse of aggs_of,
    // and no (rank, aggregator, cycle) with pieces falls outside it.
    ASSERT_EQ(skel.num_aggregators(), A);
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(skel.aggs_of(r), plan.aggs_of(r)) << r;
    }
    for (int a = 0; a < A; ++a) {
      const auto src = plan.sources_of(a);
      const auto skel_src = skel.sources_of(a);
      EXPECT_TRUE(std::equal(src.begin(), src.end(), skel_src.begin(),
                             skel_src.end()))
          << a;
      EXPECT_TRUE(std::adjacent_find(src.begin(), src.end(),
                                     std::greater_equal<int>()) == src.end())
          << "sources of " << a << " not strictly ascending";
      for (int r = 0; r < P; ++r) {
        const auto [a0, a1] = plan.aggs_of(r);
        const bool listed = std::binary_search(src.begin(), src.end(), r);
        EXPECT_EQ(listed, a0 <= a && a < a1) << "rank " << r << " agg " << a;
        for (int c = 0; c < plan.num_cycles(); ++c) {
          const auto cr = plan.cycle_range(a, c);
          if (clip_each_extent(views[static_cast<std::size_t>(r)], cr.begin,
                               cr.end)
                  .empty()) {
            continue;
          }
          EXPECT_TRUE(listed) << "rank " << r << " has pieces for agg " << a
                              << " cycle " << c << " but is not its source";
        }
      }
    }

    // A partial plan (one held view on a shared skeleton) answers the
    // same pieces as the full one.
    const int r =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
    std::vector<std::pair<int, coll::FileView>> held;
    held.emplace_back(r, views[static_cast<std::size_t>(r)]);
    const coll::Plan partial(plan.skeleton_ptr(), std::move(held));
    for (const auto& [lo, hi] : windows) {
      const auto a = partial.segments_in(r, lo, hi);
      const auto b = plan.segments_in(r, lo, hi);
      EXPECT_EQ(a.size(), b.size());
      EXPECT_EQ(a.bytes(), b.bytes());
      EXPECT_EQ(a.local_offset(), b.local_offset());
    }
  }
}

TEST(PlanCache, SameSummaryTableSameSkeleton) {
  // Every rank of a generation presents the same summary table object: all
  // of them get the one skeleton, and every aggregator, presenting the
  // generation's view table with that skeleton, the one Plan; each lookup
  // after the first of its kind is a hit.
  FreshPlanCache fresh;
  net::Topology topo{4, 2};
  const auto views = block_views(8, 1000);
  const auto summaries = summary_table(views);
  const auto table = view_table(views);
  const auto before = coll::PlanCache::stats();
  const auto a = coll::PlanCache::get_or_build_skeleton(summaries, topo, 0,
                                                        opts(2000));
  const auto b = coll::PlanCache::get_or_build_skeleton(summaries, topo, 0,
                                                        opts(2000));
  EXPECT_EQ(a.get(), b.get());
  const auto p = coll::PlanCache::get_or_build(table, a);
  const auto q = coll::PlanCache::get_or_build(table, b);
  EXPECT_EQ(p.get(), q.get());
  EXPECT_EQ(p->skeleton_ptr(), a);
  const auto after = coll::PlanCache::stats();
  EXPECT_EQ(after.lookups - before.lookups, 4u);
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(p->global_bytes(), 8000u);
}

TEST(PlanCache, NewExchangeBuildsAfresh) {
  // A later exchange of byte-identical tables hands its ranks new table
  // objects: it gets its own skeleton and its own Plan, and neither memo
  // outlives the tables it was built from.
  FreshPlanCache fresh;
  net::Topology topo{4, 2};
  const auto views = block_views(8, 1000);
  {
    const auto summaries1 = summary_table(views);
    const auto table1 = view_table(views);
    const auto skel1 = coll::PlanCache::get_or_build_skeleton(
        summaries1, topo, 0, opts(2000));
    const auto plan1 = coll::PlanCache::get_or_build(table1, skel1);

    const auto summaries2 = summary_table(views);
    const auto table2 = view_table(views);
    const auto before = coll::PlanCache::stats();
    const auto skel2 = coll::PlanCache::get_or_build_skeleton(
        summaries2, topo, 0, opts(2000));
    const auto plan2 = coll::PlanCache::get_or_build(table2, skel2);
    EXPECT_NE(skel1.get(), skel2.get());
    EXPECT_NE(plan1.get(), plan2.get());
    const auto after = coll::PlanCache::stats();
    EXPECT_EQ(after.lookups - before.lookups, 2u);
    EXPECT_EQ(after.hits - before.hits, 0u);
    EXPECT_EQ(after.entries, 4u);
  }
  EXPECT_EQ(coll::PlanCache::stats().entries, 0u);
}

TEST(PlanCache, DifferentOptionsHeaderMisses) {
  // The same live summary table under different plan-relevant Options is
  // a different skeleton; the same view table over a different skeleton
  // is a different Plan.
  FreshPlanCache fresh;
  net::Topology topo{4, 2};
  const auto views = block_views(8, 1000);
  const auto summaries = summary_table(views);
  const auto table = view_table(views);
  const auto a =
      coll::PlanCache::get_or_build_skeleton(summaries, topo, 0, opts(2000));
  coll::Options more = opts(2000);
  more.num_aggregators = 4;
  const auto b =
      coll::PlanCache::get_or_build_skeleton(summaries, topo, 0, more);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(b->num_aggregators(), 4);
  const auto c =
      coll::PlanCache::get_or_build_skeleton(summaries, topo, 0, opts(500));
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a->num_cycles(), c->num_cycles());
  const auto pa = coll::PlanCache::get_or_build(table, a);
  const auto pb = coll::PlanCache::get_or_build(table, b);
  EXPECT_NE(pa.get(), pb.get());
  EXPECT_EQ(pb->num_aggregators(), 4);
}

TEST(PlanCache, ClearedCacheBypassesTheMemo) {
  // Cleared: both memos go, so the same live tables build afresh and are
  // memoized again.
  FreshPlanCache fresh;
  net::Topology topo{4, 2};
  const auto views = block_views(8, 1000);
  const auto summaries = summary_table(views);
  const auto table = view_table(views);
  const auto skel =
      coll::PlanCache::get_or_build_skeleton(summaries, topo, 0, opts(2000));
  const auto plan = coll::PlanCache::get_or_build(table, skel);
  coll::PlanCache::clear();
  const auto skel2 =
      coll::PlanCache::get_or_build_skeleton(summaries, topo, 0, opts(2000));
  EXPECT_NE(skel.get(), skel2.get());
  EXPECT_EQ(coll::PlanCache::get_or_build_skeleton(summaries, topo, 0,
                                                   opts(2000))
                .get(),
            skel2.get());
  const auto plan2 = coll::PlanCache::get_or_build(table, skel);
  EXPECT_NE(plan.get(), plan2.get());
  EXPECT_EQ(coll::PlanCache::get_or_build(table, skel).get(), plan2.get());
}

// The two-stage metadata exchange plans from per-rank summaries: every
// rank builds the skeleton from the exchanged ViewSummary table, while
// aggregators also build the full Plan from every delivered view.
TEST(MetadataDiff, SkeletonFromSummariesMatchesDensePlanGeometry) {
  // PlanSkeleton sees 32 bytes per rank; the views-only Plan sees every
  // extent; the aggregators' Plan (PlanCache over the exchange's view table
  // and that skeleton) sees both. All three must derive the same geometry —
  // aggregator placement, domains, cycles, lanes — for random
  // decompositions, and both Plans the same pieces in any window.
  sim::Rng rng(0x5EED);
  FreshPlanCache fresh;
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
    opt.local_aggregators = 1 + trial % 3;
    const std::uint64_t stripe = 128 * sim::KiB;

    std::vector<coll::ViewSummary> summaries;
    summaries.reserve(views.size());
    for (const auto& v : views) summaries.push_back(v.summarize());
    const auto skel =
        std::make_shared<const coll::PlanSkeleton>(summaries, topo, stripe, opt);
    const coll::Plan dense(views, topo, stripe, opt);
    const auto shared = coll::PlanCache::get_or_build(view_table(views), skel);
    ASSERT_EQ(&shared->skeleton(), skel.get()) << trial;

    ASSERT_EQ(skel->num_aggregators(), dense.num_aggregators()) << trial;
    EXPECT_EQ(skel->num_cycles(), dense.num_cycles()) << trial;
    EXPECT_EQ(skel->sub_buffer_bytes(), dense.sub_buffer_bytes()) << trial;
    EXPECT_EQ(skel->global_bytes(), dense.global_bytes()) << trial;
    EXPECT_EQ(skel->range_begin(), dense.range_begin()) << trial;
    EXPECT_EQ(skel->range_end(), dense.range_end()) << trial;
    for (int a = 0; a < skel->num_aggregators(); ++a) {
      EXPECT_EQ(skel->agg_rank(a), dense.agg_rank(a)) << trial;
      EXPECT_EQ(skel->domain(a).begin, dense.domain(a).begin) << trial;
      EXPECT_EQ(skel->domain(a).end, dense.domain(a).end) << trial;
      const auto s = skel->sources_of(a);
      const auto d = dense.sources_of(a);
      EXPECT_TRUE(std::equal(s.begin(), s.end(), d.begin(), d.end()))
          << trial;
    }
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(skel->is_aggregator(r), dense.is_aggregator(r)) << trial;
      EXPECT_EQ(skel->agg_index(r), dense.agg_index(r)) << trial;
      EXPECT_EQ(skel->aggs_of(r), dense.aggs_of(r)) << trial;
      EXPECT_EQ(skel->leader_of(r), dense.leader_of(r)) << trial;
      EXPECT_TRUE(shared->holds_view(r)) << trial;
    }
    EXPECT_EQ(skel->hierarchical(), dense.hierarchical()) << trial;
    for (int n = 0; n < nodes; ++n) {
      ASSERT_EQ(skel->lanes(n), dense.lanes(n)) << trial;
      for (int l = 0; l < skel->lanes(n); ++l) {
        EXPECT_EQ(skel->lane_rank_range(n, l), dense.lane_rank_range(n, l))
            << trial;
      }
    }

    const auto same = [](const coll::Segment& x, const coll::Segment& y) {
      return x.file_offset == y.file_offset &&
             x.local_offset == y.local_offset && x.length == y.length;
    };
    const std::uint64_t span = dense.range_end() - dense.range_begin();
    for (int w = 0; w < 8; ++w) {
      const std::uint64_t lo = dense.range_begin() + rng.next_below(span);
      const std::uint64_t hi = lo + 1 + rng.next_below(span / 4 + 1);
      for (int r = 0; r < P; ++r) {
        const coll::SegmentRange a = shared->segments_in(r, lo, hi);
        const coll::SegmentRange b = dense.segments_in(r, lo, hi);
        ASSERT_EQ(a.size(), b.size()) << trial;
        EXPECT_EQ(a.bytes(), b.bytes()) << trial;
        EXPECT_EQ(a.local_offset(), b.local_offset()) << trial;
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end(), same))
            << trial;
      }
      for (int n = 0; n < nodes; ++n) {
        for (int l = 0; l < dense.lanes(n); ++l) {
          const auto a = shared->lane_segments_in(n, l, lo, hi);
          const auto b = dense.lane_segments_in(n, l, lo, hi);
          EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end(), same))
              << trial;
        }
      }
    }
  }
}

TEST(Metadata, EveryRankSharesOneSkeleton) {
  // One MetadataExchange on a 4 x 3 cluster, two-level with two lanes per
  // node: plain senders, lane leaders and aggregators all plan over the
  // exchange's one skeleton, and the aggregators share one Plan.
  FreshPlanCache fresh;
  const net::Topology topo{4, 3};
  const int P = topo.nprocs();
  net::Fabric fabric(topo, net::FabricParams{});
  sim::Conductor conductor(P);
  smpi::Machine machine(fabric, smpi::MpiParams{});
  const auto views = block_views(P, 4096);
  coll::Options opt = opts(8192, coll::OverlapMode::WriteComm2);
  opt.num_aggregators = 2;
  opt.hierarchical = true;
  opt.local_aggregators = 2;
  std::vector<std::shared_ptr<const coll::Plan>> plans(
      static_cast<std::size_t>(P));
  conductor.run([&](sim::RankCtx& ctx) {
    smpi::Mpi mpi(machine, ctx);
    const auto r = static_cast<std::size_t>(mpi.rank());
    coll::MetadataExchange meta(mpi, views[r]);
    plans[r] = meta.plan(0, opt);
  });
  const coll::PlanSkeleton* skel = &plans[0]->skeleton();
  const coll::Plan* agg_plan = nullptr;
  int aggregators = 0, leaders = 0;
  for (int r = 0; r < P; ++r) {
    const coll::Plan& plan = *plans[static_cast<std::size_t>(r)];
    EXPECT_EQ(plan.skeleton_ptr().get(), skel) << "rank " << r;
    if (plan.is_aggregator(r)) {
      ++aggregators;
      if (agg_plan == nullptr) agg_plan = &plan;
      EXPECT_EQ(&plan, agg_plan) << "rank " << r;
    } else if (plan.is_leader(r)) {
      ++leaders;
    }
  }
  EXPECT_EQ(aggregators, 2);
  EXPECT_GT(leaders, 0);
}
