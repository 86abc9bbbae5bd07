// Local-aggregation (Options::local_aggregators, Kang et al.'s co) suite:
//
//  - lane geometry invariants for every placement policy, including
//    partially-filled last nodes and co that does not divide ppn;
//  - per-lane byte conservation: the lanes of a node carry exactly its
//    members' bytes, split but never duplicated or dropped;
//  - executor worker counts never perturb a co grid's results;
//  - co > 1 correctness fuzz: multi-lane runs must land the same bytes as
//    the one-lane run on randomized topologies and decompositions;
//  - successive writes with different lane layouts on one Machine;
//  - the forward timing bucket and the pipelined-overlap statistic.
//
// Registered under the `localaggs` ctest label (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "harness/cli.hpp"
#include "harness/executor.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "simbase/crc.hpp"
#include "simbase/rng.hpp"
#include "test_rig.hpp"
#include "workloads/workloads.hpp"

namespace coll = tpio::coll;
namespace net = tpio::net;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace wl = tpio::wl;
namespace xp = tpio::xp;
using tpio::test::Cluster;
using tpio::test::ClusterSpec;
using tpio::wl::expected_byte;
using tpio::wl::fill_local;

namespace {

/// Round-robin chunk decomposition (as hier_diff_test's): co-located ranks
/// own adjacent chunks, so lane coalescing has real work to do.
std::vector<coll::FileView> strided_views(int P, std::uint64_t chunk,
                                          int rounds) {
  std::vector<coll::FileView> views(static_cast<std::size_t>(P));
  for (int k = 0; k < rounds; ++k) {
    for (int r = 0; r < P; ++r) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(P) +
           static_cast<std::uint64_t>(r)) *
          chunk;
      views[static_cast<std::size_t>(r)].extents.push_back(
          coll::Extent{off, chunk});
    }
  }
  return views;
}

/// Random dense decomposition covering [0, total) exactly, disjoint across
/// ranks.
std::vector<coll::FileView> random_views(std::uint64_t seed, int P,
                                         std::uint64_t* total) {
  sim::Rng rng(seed);
  std::vector<coll::FileView> views(static_cast<std::size_t>(P));
  std::uint64_t pos = 0;
  const int pieces = 20 + static_cast<int>(rng.next_below(60));
  for (int k = 0; k < pieces; ++k) {
    const std::uint64_t len = 1 + rng.next_below(25'000);
    const int owner =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
    auto& v = views[static_cast<std::size_t>(owner)];
    if (!v.extents.empty() && v.extents.back().end() == pos) {
      v.extents.back().length += len;
    } else {
      v.extents.push_back(coll::Extent{pos, len});
    }
    pos += len;
  }
  *total = pos;
  return views;
}

struct RunOut {
  sim::Duration makespan = 0;
  std::uint64_t crc = 0;
  std::uint64_t inter_msgs = 0;
  std::uint64_t inter_bytes = 0;
  std::uint64_t intra_bytes = 0;
};

RunOut run_once(const ClusterSpec& cs,
                const std::vector<coll::FileView>& views, std::uint64_t total,
                const coll::Options& o) {
  Cluster cluster(cs);
  auto file = cluster.storage().create("lanes", pfs::Integrity::Store);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto& view = views[static_cast<std::size_t>(mpi.rank())];
    const auto data = fill_local(view);
    coll::collective_write(mpi, *file, view, data, o);
  });
  EXPECT_EQ(file->verify(expected_byte), "")
      << "co=" << o.local_aggregators
      << " leader=" << coll::to_string(o.leader_policy)
      << " overlap=" << coll::to_string(o.overlap)
      << " transfer=" << coll::to_string(o.transfer);
  RunOut out;
  out.makespan = cluster.conductor().makespan();
  const auto bytes = file->read_back(0, total);
  out.crc = sim::crc64(bytes);
  out.inter_msgs = cluster.fabric().inter_node_messages();
  out.inter_bytes = cluster.fabric().inter_node_bytes();
  out.intra_bytes = cluster.fabric().intra_node_bytes();
  return out;
}

coll::Plan make_plan(const net::Topology& topo,
                     std::vector<coll::FileView> views,
                     const coll::Options& o) {
  return coll::Plan(std::move(views), topo, 4096, o);
}

}  // namespace

// ---------------------------------------------------------------------------
// Lane geometry
// ---------------------------------------------------------------------------

// Lanes partition every node's members into contiguous non-empty intervals;
// each lane's leader lives inside its own lane; lane_of inverts
// lane_rank_range. Covers partial last nodes, co > ppn (clamped) and co
// that does not divide the member count, for all three policies.
TEST(LaneGeometry, PartitionLeadersAndInverse) {
  for (const coll::LeaderPolicy pol :
       {coll::LeaderPolicy::Lowest, coll::LeaderPolicy::Spread,
        coll::LeaderPolicy::Superset}) {
    for (int nodes = 1; nodes <= 4; ++nodes) {
      for (int ppn = 1; ppn <= 5; ++ppn) {
        for (int drop = 0; drop < ppn && drop < 2; ++drop) {
          const int P = nodes * ppn - drop;
          if (P < 1) continue;
          net::Topology topo{nodes, ppn, P == nodes * ppn ? 0 : P};
          for (const int co : {1, 2, 3, 5, 9}) {
            coll::Options o;
            o.cb_size = 4096;
            o.local_aggregators = co;
            o.leader_policy = pol;
            const coll::Plan plan =
                make_plan(topo, strided_views(P, 64, 1), o);
            for (int n = 0; n < nodes; ++n) {
              const auto [first, last] = plan.node_rank_range(n);
              const int m = last - first;
              const int L = plan.lanes(n);
              EXPECT_EQ(L, std::min(co, m));
              int prev_leader = -1;
              int cursor = first;
              for (int l = 0; l < L; ++l) {
                const auto [lo, hi] = plan.lane_rank_range(n, l);
                EXPECT_EQ(lo, cursor) << "lanes must be contiguous";
                EXPECT_LT(lo, hi) << "lanes must be non-empty";
                cursor = hi;
                const int leader = plan.lane_leader(n, l);
                EXPECT_GE(leader, lo);
                EXPECT_LT(leader, hi) << "leader outside its own lane";
                EXPECT_GT(leader, prev_leader) << "leaders must ascend";
                prev_leader = leader;
                for (int r = lo; r < hi; ++r) {
                  EXPECT_EQ(plan.lane_of(r), l);
                  EXPECT_EQ(plan.leader_of(r), leader);
                }
              }
              EXPECT_EQ(cursor, last) << "lanes must cover the node";
            }
          }
        }
      }
    }
  }
}

// co == 1 makes each node one lane whose leader is the node's first member
// (Lowest) or last member (Spread).
TEST(LaneGeometry, Co1MatchesLegacyElection) {
  net::Topology topo{3, 4, 10};  // partial last node
  for (const auto& [pol, pick_last] :
       {std::pair{coll::LeaderPolicy::Lowest, false},
        std::pair{coll::LeaderPolicy::Spread, true}}) {
    coll::Options o;
    o.cb_size = 4096;
    o.leader_policy = pol;
    const coll::Plan plan = make_plan(topo, strided_views(10, 64, 1), o);
    for (int n = 0; n < 3; ++n) {
      const auto [first, last] = plan.node_rank_range(n);
      EXPECT_EQ(plan.lane_leader(n, 0), pick_last ? last - 1 : first);
      EXPECT_EQ(plan.lanes(n), 1);
    }
  }
}

// Superset with enough explicitly-placed aggregators: every lane leader is
// one of the node's global aggregators, so the forward hop is node-local.
TEST(LaneGeometry, SupersetLeadersSitOnAggregators) {
  const int nodes = 3, ppn = 6, co = 2;
  net::Topology topo{nodes, ppn, 0};
  coll::Options o;
  o.cb_size = 4096;
  o.hierarchical = true;
  o.leader_policy = coll::LeaderPolicy::Superset;
  o.local_aggregators = co;
  o.num_aggregators = nodes * co;  // round-robin placement: co per node
  // Enough volume that stripe-aligned domains keep all nodes*co aggregators
  // non-empty (tiny totals collapse trailing domains, trimming their
  // aggregators — and Superset elects against the survivors).
  const coll::Plan plan =
      make_plan(topo, strided_views(nodes * ppn, 4096, 1), o);
  ASSERT_EQ(plan.num_aggregators(), nodes * co);
  for (int n = 0; n < nodes; ++n) {
    ASSERT_EQ(plan.lanes(n), co);
    for (int l = 0; l < co; ++l) {
      EXPECT_TRUE(plan.is_aggregator(plan.lane_leader(n, l)))
          << "node " << n << " lane " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Byte conservation
// ---------------------------------------------------------------------------

// For disjoint per-rank views, splitting a node into lanes must neither
// duplicate nor drop a byte: over any window, the lane messages sum to the
// members' raw bytes.
TEST(LaneBytes, LanesConserveNodePayload) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Rng rng(sim::Rng::derive_seed(seed, 0x1A9E5));
    const int nodes = 2 + static_cast<int>(rng.next_below(3));
    const int ppn = 2 + static_cast<int>(rng.next_below(4));
    const int P = nodes * ppn -
                  static_cast<int>(rng.next_below(2));  // maybe partial
    net::Topology topo{nodes, ppn, P == nodes * ppn ? 0 : P};
    std::uint64_t total = 0;
    const auto views = random_views(seed, P, &total);
    coll::Options o;
    o.cb_size = 4096 + rng.next_below(20'000);
    o.local_aggregators = 2 + static_cast<int>(rng.next_below(3));
    o.leader_policy = rng.next_below(2) == 0 ? coll::LeaderPolicy::Spread
                                             : coll::LeaderPolicy::Superset;
    const coll::Plan plan = make_plan(topo, views, o);
    const std::uint64_t windows[][2] = {
        {0, total}, {0, total / 2}, {total / 3, 2 * total / 3}};
    for (const auto& w : windows) {
      const std::uint64_t lo = w[0], hi = w[1];
      for (int n = 0; n < nodes; ++n) {
        const auto [first, last] = plan.node_rank_range(n);
        std::uint64_t member_bytes = 0;
        for (int r = first; r < last; ++r) {
          member_bytes += plan.segments_in(r, lo, hi).bytes();
        }
        std::uint64_t lane_bytes = 0;
        for (int l = 0; l < plan.lanes(n); ++l) {
          for (const coll::Segment& s : plan.lane_segments_in(n, l, lo, hi)) {
            lane_bytes += s.length;
          }
        }
        EXPECT_EQ(lane_bytes, member_bytes)
            << "seed=" << seed << " node=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Executor determinism
// ---------------------------------------------------------------------------

// The executor worker count must not leak into results: the same co grid
// produces bit-identical measurement tables at --jobs 1 and --jobs 8.
TEST(Co1Degeneracy, ExecutorJobsDoNotPerturbResults) {
  auto grid = [] {
    std::vector<xp::SweepJob> jobs;
    for (int m = 0; m < 5; ++m) {
      for (const int co : {1, 2}) {
        xp::RunSpec spec;
        spec.platform = xp::scaled(xp::crill());
        spec.workload = wl::make_tile1m(1, 1);
        spec.nprocs = 24;
        spec.options.cb_size = xp::kCbSize;
        spec.options.overlap = static_cast<coll::OverlapMode>(m);
        spec.options.hierarchical = true;
        spec.options.local_aggregators = co;
        spec.options.leader_policy = coll::LeaderPolicy::Spread;
        spec.seed = 0xBEEF + static_cast<std::uint64_t>(m);
        jobs.push_back({std::to_string(m) + "/co" + std::to_string(co),
                        [spec] {
                          return sim::to_millis(xp::execute(spec).makespan);
                        }});
      }
    }
    return jobs;
  }();
  xp::ExecOptions serial;
  serial.jobs = 1;
  xp::ExecOptions pool;
  pool.jobs = 8;
  const auto a = xp::run_jobs(grid, serial);
  const auto b = xp::run_jobs(grid, pool);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << grid[i].key;
  }
}

// ---------------------------------------------------------------------------
// co > 1 correctness fuzz
// ---------------------------------------------------------------------------

// Randomized topology / decomposition / tuning grid: the multi-lane run
// must land exactly the one-lane (co = 1) run's bytes. Includes
// partially-filled last nodes and co that does not divide ppn.
TEST(PipelinedLanes, RandomizedGridMatchesSingleLeader) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Rng rng(sim::Rng::derive_seed(seed, 0x1A9E));
    ClusterSpec cs;
    cs.nodes = 2 + static_cast<int>(rng.next_below(3));   // 2..4
    cs.ppn = 2 + static_cast<int>(rng.next_below(5));     // 2..6
    const int cap = cs.nodes * cs.ppn;
    const int floor = (cs.nodes - 1) * cs.ppn + 1;
    cs.ranks = rng.next_below(2) == 0
                   ? 0
                   : floor + static_cast<int>(rng.next_below(
                                 static_cast<std::uint64_t>(cap - floor + 1)));
    const int P = cs.ranks > 0 ? cs.ranks : cap;

    std::uint64_t total = 0;
    const auto views = random_views(seed, P, &total);
    coll::Options o;
    o.cb_size = 4096 + rng.next_below(30'000);
    o.overlap = static_cast<coll::OverlapMode>(rng.next_below(5));
    o.transfer = static_cast<coll::Transfer>(rng.next_below(3));
    o.hierarchical = true;
    // Superset rides the automatic election here (one aggregator per
    // node), exercising its Spread-style fallback fill.
    const std::uint64_t pol = rng.next_below(3);
    o.leader_policy = pol == 0   ? coll::LeaderPolicy::Lowest
                      : pol == 1 ? coll::LeaderPolicy::Spread
                                 : coll::LeaderPolicy::Superset;
    const RunOut single = run_once(cs, views, total, o);
    // 2..ppn+1: sometimes clamped, usually co does not divide ppn.
    o.local_aggregators =
        2 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cs.ppn)));
    const RunOut lanes = run_once(cs, views, total, o);
    EXPECT_EQ(single.crc, lanes.crc)
        << "seed=" << seed << " nodes=" << cs.nodes << " ppn=" << cs.ppn
        << " ranks=" << cs.ranks << " co=" << o.local_aggregators
        << " overlap=" << coll::to_string(o.overlap)
        << " transfer=" << coll::to_string(o.transfer)
        << " leader=" << coll::to_string(o.leader_policy);
    // Same payload crosses the network (lanes split messages, never
    // duplicate bytes).
    EXPECT_EQ(single.inter_bytes, lanes.inter_bytes) << "seed=" << seed;
  }
}

// Two hierarchical writes with different lane layouts on one Machine: each
// lane syncs on the sync point of its own rank interval, so the second
// write never meets a sync point sized for the first one's lanes. Both
// writes run inside one Cluster::run (a Conductor runs once).
TEST(PipelinedLanes, SuccessiveLaneLayoutsOnOneMachine) {
  ClusterSpec cs;
  cs.nodes = 2;
  cs.ppn = 6;
  const int P = cs.nodes * cs.ppn;
  const auto views = strided_views(P, 1000, 4);
  for (const auto& layouts : {std::pair{1, 2}, std::pair{2, 3}}) {
    const int co_a = layouts.first, co_b = layouts.second;
    Cluster cluster(cs);
    auto first = cluster.storage().create("a", pfs::Integrity::Store);
    auto second = cluster.storage().create("b", pfs::Integrity::Store);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const auto& view = views[static_cast<std::size_t>(mpi.rank())];
      const auto data = fill_local(view);
      coll::Options o;
      o.cb_size = 8192;
      o.hierarchical = true;
      o.local_aggregators = co_a;
      coll::collective_write(mpi, *first, view, data, o);
      o.local_aggregators = co_b;
      coll::collective_write(mpi, *second, view, data, o);
    });
    EXPECT_EQ(first->verify(expected_byte), "") << "co " << co_a;
    EXPECT_EQ(second->verify(expected_byte), "") << "co " << co_a << " -> " << co_b;
  }
}

// ---------------------------------------------------------------------------
// Forward bucket and overlap statistic
// ---------------------------------------------------------------------------

// Two-sided hierarchical runs report forward time split out of shuffle and
// a pipelined-overlap fraction in [0, 1] at every co; one-sided runs book
// forward puts too but have no per-message lifetime. The accounting
// identity holds with the forward bucket included.
TEST(PipelinedStats, ForwardBucketAndOverlapFraction) {
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_tile256(2, 512);
  spec.nprocs = 20;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::WriteComm2;
  spec.options.hierarchical = true;
  spec.options.leader_policy = coll::LeaderPolicy::Spread;
  spec.seed = 7;
  spec.verify = true;

  const xp::RunResult single = xp::execute(spec);
  EXPECT_EQ(single.verify_error, "");
  EXPECT_GT(single.rank_sum.forward, 0);
  EXPECT_GE(single.pipelined_overlap, 0.0);
  EXPECT_LE(single.pipelined_overlap, 1.0);

  spec.options.local_aggregators = 2;
  const xp::RunResult lanes = xp::execute(spec);
  EXPECT_EQ(lanes.verify_error, "");
  EXPECT_GT(lanes.rank_sum.forward, 0);
  EXPECT_GE(lanes.pipelined_overlap, 0.0);
  EXPECT_LE(lanes.pipelined_overlap, 1.0);
  const auto& t = lanes.rank_sum;
  EXPECT_LE(t.meta + t.pack + t.gather + t.forward + t.shuffle + t.sync +
                t.write + t.backoff,
            t.total);

  // gather_critical is the max per-rank gather bucket; forwards are booked
  // separately at every co. Both layouts gather here (multi-member lanes),
  // so both report a nonzero chain. No monotonicity claim: the
  // bucket also counts waits induced by member arrival skew, which a
  // scheduler can shift between buckets; where the reduction lands is the
  // fig_local_aggs grid's business.
  EXPECT_GT(single.gather_critical, 0);
  EXPECT_GT(lanes.gather_critical, 0);

  // Under comm-overlap a leader starts the next cycle's lane gather
  // between posting its forwards and waiting on them, so part of the
  // forward lifetime is genuinely hidden; write-comm-2 posts then
  // immediately waits, which is why the check above only bounds the
  // fraction. This pins the stat actually registering overlap.
  spec.options.overlap = coll::OverlapMode::Comm;
  const xp::RunResult comm = xp::execute(spec);
  EXPECT_EQ(comm.verify_error, "");
  EXPECT_GT(comm.rank_sum.forward, 0);
  EXPECT_GT(comm.pipelined_overlap, 0.0);
  EXPECT_LE(comm.pipelined_overlap, 1.0);
  spec.options.overlap = coll::OverlapMode::WriteComm2;

  // One-sided transfers complete forwards under the global epoch; no
  // per-message lifetime exists, so the stat stays zero but the forward
  // issue time is still split out of shuffle, at co = 1 as at co = 2.
  spec.options.transfer = coll::Transfer::OneSidedFence;
  for (const int co : {1, 2}) {
    spec.options.local_aggregators = co;
    const xp::RunResult fence = xp::execute(spec);
    EXPECT_EQ(fence.verify_error, "") << "co=" << co;
    EXPECT_GT(fence.rank_sum.forward, 0) << "co=" << co;
    EXPECT_EQ(fence.pipelined_overlap, 0.0) << "co=" << co;
  }
}
