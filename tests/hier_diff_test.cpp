// Differential harness for the hierarchical (two-level) shuffle: for the
// same decomposition and tuning, the hierarchical and direct code paths
// must produce byte-identical files, and the hierarchy may never *increase*
// inter-node traffic — member->leader hops are intra-node and each byte
// crosses the network at most once (leader -> aggregator), coalesced.

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "simbase/crc.hpp"
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

/// Round-robin chunk decomposition: rank r owns chunks r, r+P, r+2P, ...
/// Co-located ranks own adjacent chunks, so the leader's coalescing has
/// real work to do. Returns views; the file is [0, chunk*P*rounds).
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

/// Random dense decomposition (as engine_fuzz_test's): random-length pieces
/// handed to random ranks, covering [0, total) exactly.
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
  auto file = cluster.storage().create("diff", pfs::Integrity::Store);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto& view = views[static_cast<std::size_t>(mpi.rank())];
    const auto data = fill_local(view);
    coll::collective_write(mpi, *file, view, data, o);
  });
  EXPECT_EQ(file->verify(expected_byte), "")
      << "hier=" << o.hierarchical << " overlap=" << coll::to_string(o.overlap)
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

}  // namespace

// Every scheduler x primitive combination: hierarchical output must equal
// the direct output byte for byte, with no extra inter-node bytes.
TEST(HierDiff, AllSchedulerPrimitiveCombosByteIdentical) {
  ClusterSpec cs;
  cs.nodes = 3;
  cs.ppn = 3;
  const auto views = strided_views(9, 1500, 8);
  const std::uint64_t total = 1500ull * 9 * 8;

  for (int m = 0; m < 5; ++m) {
    for (int t = 0; t < 3; ++t) {
      coll::Options o;
      o.cb_size = 16384;
      o.overlap = static_cast<coll::OverlapMode>(m);
      o.transfer = static_cast<coll::Transfer>(t);
      const RunOut direct = run_once(cs, views, total, o);
      o.hierarchical = true;
      const RunOut hier = run_once(cs, views, total, o);
      EXPECT_EQ(direct.crc, hier.crc)
          << "overlap=" << coll::to_string(o.overlap)
          << " transfer=" << coll::to_string(o.transfer);
      EXPECT_LE(hier.inter_bytes, direct.inter_bytes)
          << "overlap=" << coll::to_string(o.overlap)
          << " transfer=" << coll::to_string(o.transfer);
    }
  }
}

// Randomized grid over topology shape (including partially-filled last
// nodes), decomposition, tuning and leader policy.
TEST(HierDiff, RandomizedGridHierMatchesDirect) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    sim::Rng rng(sim::Rng::derive_seed(seed, 0xD1FF));
    ClusterSpec cs;
    cs.nodes = 2 + static_cast<int>(rng.next_below(3));   // 2..4
    cs.ppn = 1 + static_cast<int>(rng.next_below(4));     // 1..4
    const int cap = cs.nodes * cs.ppn;
    const int floor = (cs.nodes - 1) * cs.ppn + 1;
    // Half the cases leave the last node partially filled.
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
    o.leader_policy = rng.next_below(2) == 0 ? coll::LeaderPolicy::Lowest
                                             : coll::LeaderPolicy::Spread;
    const RunOut direct = run_once(cs, views, total, o);
    o.hierarchical = true;
    const RunOut hier = run_once(cs, views, total, o);
    EXPECT_EQ(direct.crc, hier.crc)
        << "seed=" << seed << " nodes=" << cs.nodes << " ppn=" << cs.ppn
        << " ranks=" << cs.ranks << " overlap=" << coll::to_string(o.overlap)
        << " transfer=" << coll::to_string(o.transfer)
        << " leader=" << coll::to_string(o.leader_policy);
    EXPECT_LE(hier.inter_bytes, direct.inter_bytes)
        << "seed=" << seed << " nodes=" << cs.nodes << " ppn=" << cs.ppn
        << " ranks=" << cs.ranks;
  }
}

// Dense node population: coalescing must strictly cut the inter-node
// message count (many co-located senders collapse into one per cycle).
TEST(HierDiff, HighPpnStrictlyReducesInterNodeMessages) {
  ClusterSpec cs;
  cs.nodes = 2;
  cs.ppn = 8;
  const auto views = strided_views(16, 800, 6);
  const std::uint64_t total = 800ull * 16 * 6;
  coll::Options o;
  o.cb_size = 16384;
  o.overlap = coll::OverlapMode::WriteComm2;
  const RunOut direct = run_once(cs, views, total, o);
  o.hierarchical = true;
  const RunOut hier = run_once(cs, views, total, o);
  EXPECT_EQ(direct.crc, hier.crc);
  EXPECT_LT(hier.inter_msgs, direct.inter_msgs);
  EXPECT_LE(hier.inter_bytes, direct.inter_bytes);
}

// One process per node: there is nothing to merge, so the hierarchical
// path must degenerate to the direct one exactly — same bytes, same
// messages, same virtual finishing time.
TEST(HierDiff, Ppn1DegeneratesToDirectExactly) {
  ClusterSpec cs;
  cs.nodes = 6;
  cs.ppn = 1;
  const auto views = strided_views(6, 2000, 5);
  const std::uint64_t total = 2000ull * 6 * 5;
  for (int m = 0; m < 5; ++m) {
    for (int t = 0; t < 3; ++t) {
      coll::Options o;
      o.cb_size = 8192;
      o.overlap = static_cast<coll::OverlapMode>(m);
      o.transfer = static_cast<coll::Transfer>(t);
      const RunOut direct = run_once(cs, views, total, o);
      o.hierarchical = true;
      const RunOut hier = run_once(cs, views, total, o);
      EXPECT_EQ(direct.crc, hier.crc);
      EXPECT_EQ(direct.makespan, hier.makespan)
          << "overlap=" << coll::to_string(o.overlap)
          << " transfer=" << coll::to_string(o.transfer);
      EXPECT_EQ(direct.inter_msgs, hier.inter_msgs);
      EXPECT_EQ(direct.inter_bytes, hier.inter_bytes);
      EXPECT_EQ(direct.intra_bytes, hier.intra_bytes);
    }
  }
}

// Both leader policies agree on file contents; Spread keeps the gather
// off the aggregator rank but must not change what lands on disk.
TEST(HierDiff, LeaderPoliciesAgreeOnFileContents) {
  ClusterSpec cs;
  cs.nodes = 3;
  cs.ppn = 4;
  cs.ranks = 10;  // partial last node
  const auto views = strided_views(10, 1200, 6);
  const std::uint64_t total = 1200ull * 10 * 6;
  coll::Options o;
  o.cb_size = 16384;
  o.overlap = coll::OverlapMode::WriteComm;
  o.hierarchical = true;
  o.leader_policy = coll::LeaderPolicy::Lowest;
  const RunOut lowest = run_once(cs, views, total, o);
  o.leader_policy = coll::LeaderPolicy::Spread;
  const RunOut spread = run_once(cs, views, total, o);
  EXPECT_EQ(lowest.crc, spread.crc);
}
