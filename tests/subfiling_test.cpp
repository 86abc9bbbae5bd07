// Subfiling (Options::sub_comm_count > 1) behaviour suite: partition and
// sub-view geometry units, edge geometries (k not dividing P, k == P
// file-per-rank, single-node subgroups under the hierarchical shuffle),
// composition with fault injection and multi-tenant contention, and the
// pure auto-k decision functions. The golden suite (tests/golden/) pins
// the shared-file (k == 1) results.
//
// Registered under the `subfiling` ctest label (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/autotune.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"
#include "net/topology.hpp"
#include "simbase/error.hpp"

namespace coll = tpio::coll;
namespace net = tpio::net;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

namespace {

xp::RunSpec base_spec(wl::Spec w, int procs) {
  xp::RunSpec s;
  s.platform = xp::scaled(xp::ibex());
  s.workload = std::move(w);
  s.nprocs = procs;
  s.options.cb_size = xp::kCbSize;
  s.seed = 0x5F11;
  s.verify = true;
  return s;
}

/// Structural invariants every subfiled result must satisfy.
void expect_valid_subfiled(const xp::RunResult& r, int nprocs, int k,
                           const std::string& what) {
  EXPECT_EQ(r.verify_error, "") << what;
  EXPECT_EQ(r.io_error, "") << what;
  ASSERT_EQ(r.subfiles.size(), static_cast<std::size_t>(k)) << what;
  int ranks = 0, aggs = 0;
  std::uint64_t bytes = 0;
  for (int g = 0; g < k; ++g) {
    const xp::SubfileResult& f = r.subfiles[static_cast<std::size_t>(g)];
    EXPECT_EQ(f.group, g) << what;
    EXPECT_GE(f.ranks, 1) << what;
    EXPECT_GE(f.aggregators, 1) << what;
    EXPECT_LE(f.completion, r.completion) << what;
    ranks += f.ranks;
    aggs += f.aggregators;
    bytes += f.bytes;
  }
  EXPECT_EQ(ranks, nprocs) << what;
  EXPECT_EQ(aggs, r.aggregators) << what;
  EXPECT_EQ(bytes, r.bytes) << what;
}

}  // namespace

// ---------------------------------------------------------------------------
// Geometry units
// ---------------------------------------------------------------------------

TEST(SubCommPartition, BlockSplitShapes) {
  // k | P: equal blocks.
  const auto even = xp::sub_comm_partition(12, 4);
  ASSERT_EQ(even.size(), 4u);
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(even[static_cast<std::size_t>(g)].first, g * 3);
    EXPECT_EQ(even[static_cast<std::size_t>(g)].second, 3);
  }
  // k not dividing P: first P%k groups take the extra rank, contiguous.
  const auto uneven = xp::sub_comm_partition(10, 3);
  ASSERT_EQ(uneven.size(), 3u);
  EXPECT_EQ(uneven[0], (std::pair{0, 4}));
  EXPECT_EQ(uneven[1], (std::pair{4, 3}));
  EXPECT_EQ(uneven[2], (std::pair{7, 3}));
  // k == P: one rank per group. k == 1: the whole world.
  const auto per_rank = xp::sub_comm_partition(5, 5);
  for (int g = 0; g < 5; ++g) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(g)], (std::pair{g, 1}));
  }
  EXPECT_EQ(xp::sub_comm_partition(7, 1), (std::vector{std::pair{0, 7}}));
  EXPECT_THROW(xp::sub_comm_partition(4, 5), tpio::Error);
  EXPECT_THROW(xp::sub_comm_partition(4, 0), tpio::Error);
}

TEST(SubCommPartition, CoversEveryRankExactlyOnce) {
  for (int P : {1, 2, 7, 16, 100}) {
    for (int k = 1; k <= P; ++k) {
      const auto part = xp::sub_comm_partition(P, k);
      ASSERT_EQ(part.size(), static_cast<std::size_t>(k));
      int next = 0;
      for (const auto& [base, count] : part) {
        EXPECT_EQ(base, next);
        EXPECT_GE(count, 1);
        next += count;
      }
      EXPECT_EQ(next, P);
    }
  }
}

TEST(TopologySubView, MidNodeSplitKeepsPhysicalSlots) {
  // World: 3 nodes x 4 ppn. A subgroup carved mid-node must keep each
  // member on its physical node: sub.node_of(r) maps to the same node
  // (relative to the subgroup's first node) as world.node_of(base + r).
  const net::Topology world{3, 4};
  for (int base = 0; base < 12; ++base) {
    for (int count = 1; base + count <= 12; ++count) {
      const net::Topology sub = net::Topology::sub_view(world, base, count);
      EXPECT_EQ(sub.nprocs(), count);
      const int first_node = world.node_of(base);
      for (int r = 0; r < count; ++r) {
        EXPECT_EQ(sub.node_of(r) + first_node, world.node_of(base + r))
            << "base=" << base << " count=" << count << " r=" << r;
      }
    }
  }
  // Whole-world view reduces to the historical block mapping.
  const net::Topology all = net::Topology::sub_view(world, 0, 12);
  EXPECT_EQ(all.rank_offset, 0);
  EXPECT_EQ(all.nodes, 3);
}

TEST(AutoK, CandidatesArePowersOfTwoCappedByGeometry) {
  EXPECT_EQ(coll::sub_comm_candidates(net::Topology{8, 4}, 16),
            (std::vector{1, 2, 4, 8}));
  // Single node or single target: nothing to split over.
  EXPECT_EQ(coll::sub_comm_candidates(net::Topology{1, 48}, 16),
            (std::vector{1}));
  EXPECT_EQ(coll::sub_comm_candidates(net::Topology{8, 4}, 1),
            (std::vector{1}));
  // Target count binds below the node count.
  EXPECT_EQ(coll::sub_comm_candidates(net::Topology{16, 2}, 4),
            (std::vector{1, 2, 4}));
  // Cap at 8 regardless of geometry.
  EXPECT_EQ(coll::sub_comm_candidates(net::Topology{64, 1}, 64),
            (std::vector{1, 2, 4, 8}));
}

TEST(AutoK, DecideAcceptsOnlyMeasuredImprovement) {
  // Shared file only.
  EXPECT_EQ(coll::decide_sub_comm_count({100.0}, 0.02), 1);
  // k=2 wins by more than the floor.
  EXPECT_EQ(coll::decide_sub_comm_count({100.0, 97.0}, 0.02), 2);
  // Near-tie stays with the shared file.
  EXPECT_EQ(coll::decide_sub_comm_count({100.0, 99.0}, 0.02), 1);
  // Doubling continues while each step beats the accepted probe.
  EXPECT_EQ(coll::decide_sub_comm_count({100.0, 80.0, 70.0, 69.0}, 0.02), 4);
  EXPECT_EQ(coll::decide_sub_comm_count({100.0, 80.0, 70.0, 50.0}, 0.02), 8);
  // First regression ends the search even when a later probe dips.
  EXPECT_EQ(coll::decide_sub_comm_count({100.0, 90.0, 95.0, 50.0}, 0.02), 2);
  // Zero floor accepts any strict improvement.
  EXPECT_EQ(coll::decide_sub_comm_count({100.0, 99.9}, 0.0), 2);
  EXPECT_THROW(coll::decide_sub_comm_count({}, 0.02), tpio::Error);
  EXPECT_THROW(coll::decide_sub_comm_count({100.0, -1.0}, 0.02), tpio::Error);
}

TEST(AutoK, HarnessResolutionIsDeterministic) {
  xp::RunSpec spec = base_spec(wl::make_tile256(2, 256), 16);
  spec.options.sub_comm_count = 0;
  const int k1 = xp::auto_sub_comm_count(spec);
  const int k2 = xp::auto_sub_comm_count(spec);
  EXPECT_GE(k1, 1);
  EXPECT_EQ(k1, k2);
  // execute() refuses unresolved auto.
  EXPECT_THROW(xp::execute(spec), tpio::Error);
}

// ---------------------------------------------------------------------------
// Edge geometries (all verified byte-exact)
// ---------------------------------------------------------------------------

TEST(Subfiling, UnevenPartitionVerifies) {
  // k does not divide P: subgroup sizes 3,3,3,3,2 — and the interleaved
  // tile workload forces the subfile offset compaction (each subgroup's
  // file-region union has gaps the engine never writes).
  xp::RunSpec spec = base_spec(wl::make_tile256(2, 256), 14);
  spec.options.sub_comm_count = 5;
  expect_valid_subfiled(xp::execute(spec), 14, 5, "P=14 k=5");
}

TEST(Subfiling, FilePerRank) {
  // k == P: every rank is its own sub-communicator, aggregator and file.
  xp::RunSpec spec = base_spec(wl::make_ior(1u << 18), 8);
  spec.options.sub_comm_count = 8;
  const xp::RunResult r = xp::execute(spec);
  expect_valid_subfiled(r, 8, 8, "file-per-rank");
  for (const xp::SubfileResult& f : r.subfiles) {
    EXPECT_EQ(f.ranks, 1);
    EXPECT_EQ(f.aggregators, 1);
  }
}

TEST(Subfiling, MidNodeSubgroupsHierarchical) {
  // scaled(ibex) has ppn = 10, so P=20 and k=4 carve 5-rank subgroups that
  // straddle node boundaries mid-node; the hierarchical shuffle must elect
  // node leaders within each sub-view's physical slots.
  for (bool hier : {false, true}) {
    xp::RunSpec spec = base_spec(wl::make_tile1m(1, 1), 20);
    spec.options.sub_comm_count = 4;
    spec.options.hierarchical = hier;
    expect_valid_subfiled(xp::execute(spec), 20, 4,
                          hier ? "mid-node hier" : "mid-node flat");
  }
}

TEST(Subfiling, AllSchedulersAndPrimitivesVerify) {
  for (int m = 0; m < 5; ++m) {
    for (int t = 0; t < 3; ++t) {
      xp::RunSpec spec = base_spec(wl::make_tile256(2, 256), 16);
      spec.options.sub_comm_count = 2;
      spec.options.overlap = static_cast<coll::OverlapMode>(m);
      spec.options.transfer = static_cast<coll::Transfer>(t);
      expect_valid_subfiled(
          xp::execute(spec), 16, 2,
          std::string(coll::to_string(spec.options.overlap)) + "/" +
              coll::to_string(spec.options.transfer));
    }
  }
}

TEST(Subfiling, SharedFileRunsCarryNoSubfileResults) {
  // A k == 1 RunResult lists no subfiles, with or without a per-file
  // stripe override.
  xp::RunSpec spec = base_spec(wl::make_ior(1u << 19), 16);
  EXPECT_TRUE(xp::execute(spec).subfiles.empty());
  spec.options.subfile_stripe_unit = spec.platform.pfs.stripe_size;
  EXPECT_TRUE(xp::execute(spec).subfiles.empty());
}

TEST(Subfiling, StripeOverridesVerify) {
  // Per-subfile stripe unit/factor sweepable without breaking contents.
  for (std::uint64_t unit : {std::uint64_t{1} << 20, std::uint64_t{4} << 20}) {
    xp::RunSpec spec = base_spec(wl::make_tile256(2, 256), 16);
    spec.options.sub_comm_count = 2;
    spec.options.subfile_stripe_unit = unit;
    spec.options.subfile_stripe_factor = 4;
    expect_valid_subfiled(xp::execute(spec), 16, 2,
                          "unit=" + std::to_string(unit));
  }
}

// ---------------------------------------------------------------------------
// Composition and determinism
// ---------------------------------------------------------------------------

TEST(Subfiling, ComposesWithFaults) {
  xp::RunSpec spec = base_spec(wl::make_ior(1u << 19), 16);
  spec.options.sub_comm_count = 4;
  // Deterministic schedule: the first attempt of every write op fails, so
  // each subgroup's engine must retry regardless of how few ops it issues.
  spec.platform.pfs.faults.fail_until_attempt = 2;
  spec.platform.pfs.faults.seed = 0xFA17;
  const xp::RunResult a = xp::execute(spec);
  expect_valid_subfiled(a, 16, 4, "faulty");
  EXPECT_GT(a.faults.retries, 0);
  EXPECT_EQ(a.faults.giveups, 0);
  // The fault scenario is deterministic per subgroup: identical reruns.
  EXPECT_EQ(xp::fingerprint(a), xp::fingerprint(xp::execute(spec)));
}

TEST(Subfiling, ComposesWithContention) {
  // Two subfiled tenants sharing the PFS: both verify byte-exact and the
  // run is deterministic.
  xp::MultiRunSpec m;
  for (int t = 0; t < 2; ++t) {
    xp::RunSpec s = base_spec(wl::make_tile256(2, 256), 12);
    s.options.sub_comm_count = 3;
    m.tenants.push_back(s);
  }
  m.arrival.model = xp::ArrivalModel::Fixed;
  m.arrival.gap = sim::Duration{1'000'000};
  m.seed = 0xC057;
  const xp::MultiRunResult a = xp::execute_multi(m);
  ASSERT_EQ(a.tenants.size(), 2u);
  for (const xp::TenantResult& t : a.tenants) {
    expect_valid_subfiled(t.run, 12, 3, "contended tenant");
  }
  const xp::MultiRunResult b = xp::execute_multi(m);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(xp::fingerprint(a.tenants[t].run),
              xp::fingerprint(b.tenants[t].run));
  }
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Subfiling, SubfiledSweepIdenticalAcrossJobs) {
  // The sweep layer must stay bit-identical at any worker count with
  // k > 1.
  std::vector<std::vector<xp::OverlapSeries>> tables;
  for (int jobs : {1, 8}) {
    xp::ExecOptions exec;
    exec.jobs = jobs;
    coll::Options base;
    base.sub_comm_count = 2;
    tables.push_back(
        xp::run_overlap_sweep(xp::ibex(), base, 1, 0x57AB, true, exec));
  }
  ASSERT_EQ(tables[0].size(), tables[1].size());
  for (std::size_t i = 0; i < tables[0].size(); ++i) {
    EXPECT_EQ(tables[0][i].min_ms, tables[1][i].min_ms) << "series " << i;
  }
}
