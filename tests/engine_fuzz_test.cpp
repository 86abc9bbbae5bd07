// Property fuzz: random disjoint file decompositions, random tuning
// options — every combination must produce a byte-exact file and be
// deterministic. This is the repository's broadest correctness net for
// the collective-write and -read engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/read_engine.hpp"
#include "simbase/rng.hpp"
#include "test_rig.hpp"
#include "workloads/workloads.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
using tpio::test::Cluster;
using tpio::test::ClusterSpec;
using tpio::wl::expected_byte;
using tpio::wl::fill_local;

namespace {

/// Deterministically partition a random-length file into random pieces
/// assigned to random ranks. Returns per-rank views (sorted, disjoint,
/// covering [base, base+total) exactly).
std::vector<coll::FileView> random_views(std::uint64_t seed, int P) {
  sim::Rng rng(seed);
  std::vector<coll::FileView> views(static_cast<std::size_t>(P));
  std::uint64_t pos = 0;  // dense: verify() models a fully-covered file
  const int pieces = 20 + static_cast<int>(rng.next_below(60));
  for (int k = 0; k < pieces; ++k) {
    const std::uint64_t len = 1 + rng.next_below(30'000);
    const int owner = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
    auto& v = views[static_cast<std::size_t>(owner)];
    // Merge with the previous extent when the same owner continues.
    if (!v.extents.empty() && v.extents.back().end() == pos) {
      v.extents.back().length += len;
    } else {
      v.extents.push_back(coll::Extent{pos, len});
    }
    pos += len;
  }
  return views;
}

/// Views with deliberate holes and a nonzero base offset; verified by
/// reading back each extent instead of whole-file coverage.
std::vector<coll::FileView> holey_views(std::uint64_t seed, int P) {
  sim::Rng rng(seed);
  std::vector<coll::FileView> views(static_cast<std::size_t>(P));
  std::uint64_t pos = 1 + rng.next_below(10'000);
  for (int k = 0; k < 40; ++k) {
    const std::uint64_t len = 1 + rng.next_below(20'000);
    const int owner = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
    views[static_cast<std::size_t>(owner)].extents.push_back(
        coll::Extent{pos, len});
    pos += len + rng.next_below(8'000);  // hole after every piece
  }
  return views;
}

struct FuzzCase {
  std::uint64_t seed;
  coll::OverlapMode overlap;
  coll::Transfer transfer;
};

class EngineFuzz : public testing::TestWithParam<std::uint64_t> {};

}  // namespace

TEST_P(EngineFuzz, RandomViewsAllOptionCombos) {
  const std::uint64_t seed = GetParam();
  sim::Rng opt_rng(sim::Rng::derive_seed(seed, 0xF0));

  // A few random option combinations per seed.
  for (int combo = 0; combo < 3; ++combo) {
    Cluster cluster;
    const auto views = random_views(seed, cluster.nprocs());
    coll::Options o;
    o.cb_size = 2048 + opt_rng.next_below(30'000);
    o.overlap = static_cast<coll::OverlapMode>(opt_rng.next_below(5));
    o.transfer = static_cast<coll::Transfer>(opt_rng.next_below(3));
    o.num_aggregators = static_cast<int>(opt_rng.next_below(4));  // 0=auto
    o.stripe_align = opt_rng.next_below(2) == 0;

    auto file = cluster.storage().create("fuzz", pfs::Integrity::Store);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const auto& view = views[static_cast<std::size_t>(mpi.rank())];
      const auto data = fill_local(view);
      coll::collective_write(mpi, *file, view, data, o);
    });
    ASSERT_EQ(file->verify(expected_byte), "")
        << "seed=" << seed << " combo=" << combo
        << " overlap=" << coll::to_string(o.overlap)
        << " transfer=" << coll::to_string(o.transfer)
        << " cb=" << o.cb_size << " aggs=" << o.num_aggregators;
  }
}

TEST_P(EngineFuzz, HoleyViewsExtentsLandExactly) {
  // Sparse decompositions (holes, nonzero base): each rank's extents must
  // read back exactly; holes stay zero.
  const std::uint64_t seed = GetParam();
  Cluster cluster;
  const auto views = holey_views(seed, cluster.nprocs());
  coll::Options o;
  o.cb_size = 16384;
  o.overlap = coll::OverlapMode::WriteComm2;
  auto file = cluster.storage().create("fuzz", pfs::Integrity::Store);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto& view = views[static_cast<std::size_t>(mpi.rank())];
    const auto data = fill_local(view);
    coll::collective_write(mpi, *file, view, data, o);
  });
  for (const auto& view : views) {
    for (const auto& e : view.extents) {
      const auto got = file->read_back(e.offset, e.length);
      for (std::uint64_t i = 0; i < e.length; ++i) {
        ASSERT_EQ(got[i], expected_byte(e.offset + i))
            << "seed=" << seed << " offset=" << e.offset + i;
      }
    }
  }
}

TEST_P(EngineFuzz, WriteThenReadRoundTrip) {
  const std::uint64_t seed = GetParam();
  Cluster cluster;
  const auto views = random_views(seed ^ 0xABCDEF, cluster.nprocs());
  sim::Rng opt_rng(sim::Rng::derive_seed(seed, 0xF1));
  coll::Options wopt;
  wopt.cb_size = 4096 + opt_rng.next_below(20'000);
  coll::Options ropt = wopt;
  ropt.overlap = static_cast<coll::OverlapMode>(opt_rng.next_below(5));
  // The read may route through lanes: the rig's 2-rank nodes make one
  // 2-member lane (co = 1) or two single-member ones (co = 2).
  ropt.hierarchical = opt_rng.next_below(2) == 1;
  ropt.local_aggregators = 1 + static_cast<int>(opt_rng.next_below(2));
  ropt.leader_policy = static_cast<coll::LeaderPolicy>(opt_rng.next_below(3));

  auto file = cluster.storage().create("fuzz", pfs::Integrity::Store);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto& view = views[static_cast<std::size_t>(mpi.rank())];
    const auto data = fill_local(view);
    coll::collective_write(mpi, *file, view, data, wopt);
    mpi.barrier();
    std::vector<std::byte> out(view.total_bytes());
    coll::collective_read(mpi, *file, view, out, ropt);
    ASSERT_EQ(out, data) << "seed=" << seed << " rank=" << mpi.rank();
  });
}

TEST_P(EngineFuzz, DeterministicUnderFuzz) {
  const std::uint64_t seed = GetParam();
  auto once = [&] {
    Cluster cluster;
    const auto views = random_views(seed, cluster.nprocs());
    coll::Options o;
    o.cb_size = 16384;
    o.overlap = coll::OverlapMode::WriteComm2;
    auto file = cluster.storage().create("fuzz", pfs::Integrity::None);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const auto& view = views[static_cast<std::size_t>(mpi.rank())];
      const auto data = fill_local(view);
      coll::collective_write(mpi, *file, view, data, o);
    });
    return cluster.conductor().makespan();
  };
  EXPECT_EQ(once(), once());
}

namespace {

/// Random topology with ppn from the interesting set {1, 3, 8}; half the
/// draws leave the last node partially filled (the Topology::fit edge).
ClusterSpec random_topology(sim::Rng& rng, int ppn) {
  ClusterSpec cs;
  cs.nodes = 2 + static_cast<int>(rng.next_below(3));  // 2..4
  cs.ppn = ppn;
  const int cap = cs.nodes * ppn;
  const int min_ranks = (cs.nodes - 1) * ppn + 1;
  cs.ranks = rng.next_below(2) == 0
                 ? 0
                 : min_ranks + static_cast<int>(rng.next_below(
                       static_cast<std::uint64_t>(cap - min_ranks + 1)));
  return cs;
}

}  // namespace

TEST_P(EngineFuzz, HierarchicalRandomTopologiesByteExact) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(sim::Rng::derive_seed(seed, 0x41E2));
  for (int ppn : {1, 3, 8}) {
    const ClusterSpec cs = random_topology(rng, ppn);
    Cluster cluster(cs);
    const auto views =
        random_views(seed ^ static_cast<std::uint64_t>(ppn), cluster.nprocs());
    coll::Options o;
    o.cb_size = 2048 + rng.next_below(30'000);
    o.overlap = static_cast<coll::OverlapMode>(rng.next_below(5));
    o.transfer = static_cast<coll::Transfer>(rng.next_below(3));
    o.hierarchical = true;
    o.leader_policy = rng.next_below(2) == 0 ? coll::LeaderPolicy::Lowest
                                             : coll::LeaderPolicy::Spread;
    auto file = cluster.storage().create("fuzz", pfs::Integrity::Store);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const auto& view = views[static_cast<std::size_t>(mpi.rank())];
      const auto data = fill_local(view);
      coll::collective_write(mpi, *file, view, data, o);
    });
    ASSERT_EQ(file->verify(expected_byte), "")
        << "seed=" << seed << " nodes=" << cs.nodes << " ppn=" << cs.ppn
        << " ranks=" << cs.ranks << " overlap=" << coll::to_string(o.overlap)
        << " transfer=" << coll::to_string(o.transfer)
        << " leader=" << coll::to_string(o.leader_policy);
  }
}

TEST_P(EngineFuzz, HierarchicalLeaderAndSegmentProperties) {
  // Plan-level invariants of the two-level routing: exactly one leader per
  // node, each rank's leader lives on its own node, and the merged node
  // message neither drops nor duplicates any member byte.
  const std::uint64_t seed = GetParam();
  sim::Rng rng(sim::Rng::derive_seed(seed, 0x41E3));
  for (int ppn : {1, 3, 8}) {
    const ClusterSpec cs = random_topology(rng, ppn);
    const tpio::net::Topology topo{cs.nodes, cs.ppn, cs.ranks};
    const int P = topo.nprocs();
    const auto views = holey_views(seed ^ static_cast<std::uint64_t>(ppn), P);
    coll::Options o;
    o.cb_size = 4096 + rng.next_below(20'000);
    o.hierarchical = true;
    o.leader_policy = rng.next_below(2) == 0 ? coll::LeaderPolicy::Lowest
                                             : coll::LeaderPolicy::Spread;
    const coll::Plan plan(views, topo, 4096, o);

    // Leader assignment covers every rank exactly once.
    int leaders = 0;
    for (int r = 0; r < P; ++r) {
      if (plan.is_leader(r)) ++leaders;
      EXPECT_EQ(topo.node_of(plan.leader_of(r)), topo.node_of(r))
          << "rank " << r << " led from a foreign node";
    }
    EXPECT_EQ(leaders, topo.nodes);
    for (int n = 0; n < topo.nodes; ++n) {
      const auto [first, last] = plan.node_rank_range(n);
      EXPECT_GE(plan.lane_leader(n, 0), first);
      EXPECT_LT(plan.lane_leader(n, 0), last);
    }

    // Per (aggregator, cycle): the merged message of the node's one lane
    // (co = 1) equals the interval union of the members' segments —
    // nothing dropped, nothing duplicated.
    for (int a = 0; a < plan.num_aggregators(); ++a) {
      for (int c = 0; c < plan.num_cycles(); ++c) {
        const auto r = plan.cycle_range(a, c);
        if (r.begin >= r.end) continue;
        for (int n = 0; n < topo.nodes; ++n) {
          const auto [first, last] = plan.node_rank_range(n);
          const auto merged = plan.lane_segments_in(n, 0, r.begin, r.end);
          // Expected: members' pieces merged with the same touching rule
          // (single-member nodes pass segments through verbatim).
          std::vector<coll::Segment> expect;
          if (last - first == 1) {
            const auto own = plan.segments_in(first, r.begin, r.end);
            expect.assign(own.begin(), own.end());
          } else {
            std::vector<coll::Segment> all;
            for (int m = first; m < last; ++m) {
              const auto segs = plan.segments_in(m, r.begin, r.end);
              all.insert(all.end(), segs.begin(), segs.end());
            }
            std::sort(all.begin(), all.end(),
                      [](const coll::Segment& x, const coll::Segment& y) {
                        return x.file_offset < y.file_offset;
                      });
            for (const auto& g : all) {
              if (!expect.empty() &&
                  g.file_offset <=
                      expect.back().file_offset + expect.back().length) {
                expect.back().length =
                    std::max(expect.back().file_offset + expect.back().length,
                             g.file_offset + g.length) -
                    expect.back().file_offset;
              } else {
                expect.push_back(g);
              }
            }
          }
          ASSERT_EQ(merged.size(), expect.size())
              << "seed=" << seed << " ppn=" << ppn << " node=" << n
              << " agg=" << a << " cycle=" << c;
          std::uint64_t pos = merged.empty() ? 0 : merged.front().local_offset;
          for (std::size_t i = 0; i < merged.size(); ++i) {
            EXPECT_EQ(merged[i].file_offset, expect[i].file_offset);
            EXPECT_EQ(merged[i].length, expect[i].length);
            if (last - first > 1) {
              // Merged messages are dense: local offsets form a prefix sum.
              EXPECT_EQ(merged[i].local_offset, pos);
              pos += merged[i].length;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                         88u));
