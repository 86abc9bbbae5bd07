#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "simbase/error.hpp"
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

/// View generators ------------------------------------------------------

/// Contiguous 1-D block per rank (IOR-like).
coll::FileView block_view(int rank, int /*P*/, std::uint64_t n) {
  coll::FileView v;
  v.extents.push_back(coll::Extent{static_cast<std::uint64_t>(rank) * n, n});
  return v;
}

/// Strided view (tile-like): rank owns `rows` pieces of `piece` bytes with
/// stride P*piece (row-major interleave of P columns).
coll::FileView strided_view(int rank, int P, std::uint64_t piece, int rows) {
  coll::FileView v;
  for (int r = 0; r < rows; ++r) {
    const std::uint64_t off =
        (static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(P) +
         static_cast<std::uint64_t>(rank)) *
        piece;
    v.extents.push_back(coll::Extent{off, piece});
  }
  return v;
}

/// Irregular view: deterministic pseudo-random disjoint extents per rank.
coll::FileView ragged_view(int rank, int P, std::uint64_t chunk, int pieces) {
  // Global layout: sequence of `P * pieces` chunks; chunk k belongs to rank
  // (k*7+3) % P — deterministic and covering.
  coll::FileView v;
  const int total = P * pieces;
  for (int k = 0; k < total; ++k) {
    if ((k * 7 + 3) % P == rank) {
      v.extents.push_back(
          coll::Extent{static_cast<std::uint64_t>(k) * chunk, chunk});
    }
  }
  return v;
}

struct Config {
  coll::OverlapMode overlap;
  coll::Transfer transfer;
};

std::string config_name(const testing::TestParamInfo<Config>& info) {
  std::string s = coll::to_string(info.param.overlap);
  s += "_";
  s += coll::to_string(info.param.transfer);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class CollectiveWrite : public testing::TestWithParam<Config> {};

/// Run a collective write with per-rank views from `make_view` and verify
/// the file contents byte-for-byte.
void run_and_verify(
    Cluster& cluster, const coll::Options& opt,
    const std::function<coll::FileView(int rank, int P)>& make_view,
    pfs::Integrity integrity = pfs::Integrity::Store) {
  auto file = cluster.storage().create("out", integrity);
  std::vector<coll::Result> results(
      static_cast<std::size_t>(cluster.nprocs()));
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const coll::FileView view = make_view(mpi.rank(), mpi.size());
    const auto data = fill_local(view);
    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, opt);
  });
  ASSERT_EQ(file->verify(expected_byte), "");
  // Every rank reports the same global geometry.
  for (const auto& r : results) {
    EXPECT_EQ(r.cycles, results[0].cycles);
    EXPECT_EQ(r.aggregators, results[0].aggregators);
    EXPECT_EQ(r.bytes_global, results[0].bytes_global);
  }
}

coll::Options base_options(const Config& cfg, std::uint64_t cb = 16384) {
  coll::Options o;
  o.cb_size = cb;
  o.overlap = cfg.overlap;
  o.transfer = cfg.transfer;
  return o;
}

}  // namespace

TEST_P(CollectiveWrite, BlockViewCorrect) {
  Cluster cluster;
  run_and_verify(cluster, base_options(GetParam()),
                 [](int r, int P) { return block_view(r, P, 20'000); });
}

TEST_P(CollectiveWrite, StridedViewCorrect) {
  Cluster cluster;
  run_and_verify(cluster, base_options(GetParam()), [](int r, int P) {
    return strided_view(r, P, 512, 24);
  });
}

TEST_P(CollectiveWrite, TinyPiecesManySegments) {
  Cluster cluster;
  run_and_verify(cluster, base_options(GetParam(), 4096), [](int r, int P) {
    return strided_view(r, P, 64, 40);
  });
}

TEST_P(CollectiveWrite, RaggedViewCorrect) {
  Cluster cluster;
  run_and_verify(cluster, base_options(GetParam()), [](int r, int P) {
    return ragged_view(r, P, 700, 12);
  });
}

TEST_P(CollectiveWrite, SingleCycleJob) {
  // Everything fits in one (sub-)buffer: overlap degenerates gracefully.
  Cluster cluster;
  run_and_verify(cluster, base_options(GetParam(), 1 << 20),
                 [](int r, int P) { return block_view(r, P, 1000); });
}

TEST_P(CollectiveWrite, UnevenContributions) {
  // Rank r owns r+1 KiB: aggregator loads are skewed.
  Cluster cluster;
  run_and_verify(cluster, base_options(GetParam()), [](int r, int P) {
    coll::FileView v;
    std::uint64_t off = 0;
    for (int k = 0; k < r; ++k) off += static_cast<std::uint64_t>(k + 1) * 1024;
    v.extents.push_back(
        coll::Extent{off, static_cast<std::uint64_t>(r + 1) * 1024});
    (void)P;
    return v;
  });
}

TEST_P(CollectiveWrite, SomeRanksContributeNothing) {
  Cluster cluster;
  run_and_verify(cluster, base_options(GetParam()), [](int r, int P) {
    coll::FileView v;
    if (r % 2 == 0) {
      v.extents.push_back(
          coll::Extent{static_cast<std::uint64_t>(r / 2) * 8000, 8000});
    }
    (void)P;
    return v;
  });
}

TEST_P(CollectiveWrite, DigestIntegrityMode) {
  Cluster cluster;
  run_and_verify(
      cluster, base_options(GetParam()),
      [](int r, int P) { return strided_view(r, P, 1024, 16); },
      pfs::Integrity::Digest);
}

TEST_P(CollectiveWrite, SingleAggregatorForced) {
  Cluster cluster;
  coll::Options o = base_options(GetParam());
  o.num_aggregators = 1;
  run_and_verify(cluster, o,
                 [](int r, int P) { return block_view(r, P, 12'000); });
}

TEST_P(CollectiveWrite, ManyAggregatorsForced) {
  Cluster cluster;  // 8 ranks
  coll::Options o = base_options(GetParam());
  o.num_aggregators = 8;
  run_and_verify(cluster, o,
                 [](int r, int P) { return block_view(r, P, 9'000); });
}

TEST_P(CollectiveWrite, NoStripeAlignment) {
  Cluster cluster;
  coll::Options o = base_options(GetParam());
  o.stripe_align = false;
  run_and_verify(cluster, o,
                 [](int r, int P) { return block_view(r, P, 10'001); });
}

TEST_P(CollectiveWrite, DeterministicMakespan) {
  auto once = [&] {
    Cluster cluster;
    auto file = cluster.storage().create("out", pfs::Integrity::None);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const auto view = strided_view(mpi.rank(), mpi.size(), 768, 10);
      const auto data = fill_local(view);
      coll::collective_write(mpi, *file, view, data,
                             base_options(GetParam()));
    });
    return cluster.conductor().makespan();
  };
  EXPECT_EQ(once(), once());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CollectiveWrite,
    testing::Values(
        Config{coll::OverlapMode::None, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::Comm, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::Write, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::WriteComm, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::WriteComm2, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::None, coll::Transfer::OneSidedFence},
        Config{coll::OverlapMode::Comm, coll::Transfer::OneSidedFence},
        Config{coll::OverlapMode::Write, coll::Transfer::OneSidedFence},
        Config{coll::OverlapMode::WriteComm, coll::Transfer::OneSidedFence},
        Config{coll::OverlapMode::WriteComm2, coll::Transfer::OneSidedFence},
        Config{coll::OverlapMode::None, coll::Transfer::OneSidedLock},
        Config{coll::OverlapMode::Comm, coll::Transfer::OneSidedLock},
        Config{coll::OverlapMode::Write, coll::Transfer::OneSidedLock},
        Config{coll::OverlapMode::WriteComm, coll::Transfer::OneSidedLock},
        Config{coll::OverlapMode::WriteComm2, coll::Transfer::OneSidedLock}),
    config_name);

// ---------------------------------------------------------------------------
// Non-parameterized engine behaviour
// ---------------------------------------------------------------------------

TEST(CollectiveWriteMisc, MismatchedBufferThrows) {
  Cluster cluster;
  auto file = cluster.storage().create("out", pfs::Integrity::None);
  EXPECT_THROW(cluster.run([&](tpio::smpi::Mpi& mpi) {
                 coll::FileView v = block_view(mpi.rank(), mpi.size(), 100);
                 std::vector<std::byte> data(50);  // wrong size
                 coll::collective_write(mpi, *file, v, data, coll::Options{});
               }),
               tpio::Error);
}

TEST(CollectiveWriteMisc, MaterializedWriteNeedsPayloadMachine) {
  // On a Machine that carries message sizes only, a materialized write
  // would record bytes the shuffle never moved. FileStage refuses it and
  // names both sides of the mismatch.
  for (const coll::Transfer transfer :
       {coll::Transfer::TwoSided, coll::Transfer::OneSidedFence}) {
    ClusterSpec spec;
    spec.payloads = false;
    Cluster cluster(spec);
    auto file = cluster.storage().create("out", pfs::Integrity::Store);
    coll::Options opt;
    opt.transfer = transfer;
    try {
      cluster.run([&](tpio::smpi::Mpi& mpi) {
        const coll::FileView v = block_view(mpi.rank(), mpi.size(), 4096);
        const auto data = fill_local(v);
        coll::collective_write(mpi, *file, v, data, opt);
      });
      ADD_FAILURE() << coll::to_string(transfer) << ": expected a throw";
    } catch (const tpio::Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("Options::materialize == true"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("payloads"), std::string::npos) << msg;
    }
  }
}

TEST(CollectiveWriteMisc, TimingOnlyWriteNeedsIntegrityNone) {
  // A timing-only write materializes no bytes, so a file that stores
  // (Store) or hashes (Digest) its content refuses it.
  for (const pfs::Integrity integrity :
       {pfs::Integrity::Store, pfs::Integrity::Digest}) {
    Cluster cluster;
    auto file = cluster.storage().create("out", integrity);
    coll::Options opt;
    opt.materialize = false;
    try {
      cluster.run([&](tpio::smpi::Mpi& mpi) {
        const coll::FileView v = block_view(mpi.rank(), mpi.size(), 4096);
        std::vector<std::byte> data(v.total_bytes());
        coll::collective_write(mpi, *file, v, data, opt);
      });
      ADD_FAILURE() << "integrity " << static_cast<int>(integrity)
                    << ": expected a throw";
    } catch (const tpio::Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("Options::materialize == false requires "
                         "Integrity::None"),
                std::string::npos)
          << msg;
    }
  }
  // The timing-only job itself: Integrity::None on a size-only Machine.
  ClusterSpec spec;
  spec.payloads = false;
  Cluster cluster(spec);
  auto file = cluster.storage().create("out", pfs::Integrity::None);
  coll::Options opt;
  opt.materialize = false;
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const coll::FileView v = block_view(mpi.rank(), mpi.size(), 4096);
    std::vector<std::byte> data(v.total_bytes());
    const coll::Result r = coll::collective_write(mpi, *file, v, data, opt);
    EXPECT_EQ(r.bytes_global, 4096u * static_cast<unsigned>(mpi.size()));
  });
  EXPECT_EQ(file->bytes_written(),
            4096u * static_cast<unsigned>(cluster.nprocs()));
}

TEST(CollectiveWriteMisc, EmptyJobCompletes) {
  Cluster cluster;
  auto file = cluster.storage().create("out", pfs::Integrity::Store);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    coll::FileView v;
    auto res = coll::collective_write(mpi, *file, v, {}, coll::Options{});
    EXPECT_EQ(res.cycles, 0);
    EXPECT_EQ(res.bytes_global, 0u);
  });
  EXPECT_EQ(file->size(), 0u);
}

TEST(CollectiveWriteMisc, MoreAggregatorsThanStripesTrimsCleanly) {
  // 8 ranks x 512 B = one 4096 B stripe; four requested aggregators with
  // stripe alignment collapse to a single populated file domain. The empty
  // trailing aggregators are trimmed: every rank reports one aggregator
  // and the write is still complete and correct.
  Cluster cluster;
  auto file = cluster.storage().create("out", pfs::Integrity::Store);
  std::vector<coll::Result> results(
      static_cast<std::size_t>(cluster.nprocs()));
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto view = block_view(mpi.rank(), mpi.size(), 512);
    const auto data = fill_local(view);
    coll::Options o;
    o.cb_size = 16384;
    o.num_aggregators = 4;
    o.overlap = coll::OverlapMode::WriteComm2;
    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, o);
  });
  ASSERT_EQ(file->verify(expected_byte), "");
  for (const auto& r : results) {
    EXPECT_EQ(r.aggregators, 1);
    EXPECT_EQ(r.bytes_global, 4096u);
  }
}

TEST(CollectiveWriteMisc, TimingsAccountedAndTotalCovers) {
  Cluster cluster;
  auto file = cluster.storage().create("out", pfs::Integrity::None);
  std::vector<coll::Result> results(static_cast<std::size_t>(cluster.nprocs()));
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto view = block_view(mpi.rank(), mpi.size(), 30'000);
    const auto data = fill_local(view);
    coll::Options o;
    o.cb_size = 16384;
    o.overlap = coll::OverlapMode::None;
    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, o);
  });
  for (const auto& r : results) {
    const auto& t = r.timings;
    EXPECT_GT(t.total, 0);
    // All eight buckets: omitting gather hid hierarchical-shuffle time from
    // the accounting identity.
    EXPECT_LE(t.meta + t.pack + t.gather + t.forward + t.shuffle + t.sync +
                  t.write + t.backoff,
              t.total);
    EXPECT_GT(t.shuffle + t.write + t.sync, 0);
  }
  // Aggregators spend time writing; pure senders do not.
  bool some_writer = false, some_nonwriter = false;
  for (const auto& r : results) {
    if (r.timings.write > 0) some_writer = true;
    else some_nonwriter = true;
  }
  EXPECT_TRUE(some_writer);
  EXPECT_TRUE(some_nonwriter);
}

TEST(CollectiveWriteMisc, GatherBucketAccountedInHierarchicalRuns) {
  // Regression: breakdown consumers summed {meta,pack,shuffle,sync,write}
  // and silently dropped the gather bucket, understating hierarchical
  // runs' communication time. The intra-node gather phase must show up in
  // the per-rank breakdown and still obey the accounting identity.
  Cluster cluster;
  auto file = cluster.storage().create("out_hier", pfs::Integrity::None);
  std::vector<coll::Result> results(static_cast<std::size_t>(cluster.nprocs()));
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto view = block_view(mpi.rank(), mpi.size(), 30'000);
    const auto data = fill_local(view);
    coll::Options o;
    o.cb_size = 16384;
    o.overlap = coll::OverlapMode::WriteComm2;
    o.hierarchical = true;
    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, o);
  });
  bool some_gather = false;
  for (const auto& r : results) {
    const auto& t = r.timings;
    if (t.gather > 0) some_gather = true;
    EXPECT_LE(t.meta + t.pack + t.gather + t.forward + t.shuffle + t.sync +
                  t.write + t.backoff,
              t.total);
  }
  EXPECT_TRUE(some_gather);
}

TEST(CollectiveWriteMisc, TwoConsecutiveCollectivesSameFileRegionsDisjoint) {
  Cluster cluster;
  auto file = cluster.storage().create("out", pfs::Integrity::Store);
  const std::uint64_t half = 8 * 10'000;
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    coll::Options o;
    o.cb_size = 16384;
    // First half of the file, then second half, through the same engine.
    for (int round = 0; round < 2; ++round) {
      coll::FileView v;
      v.extents.push_back(coll::Extent{
          static_cast<std::uint64_t>(round) * half +
              static_cast<std::uint64_t>(mpi.rank()) * 10'000,
          10'000});
      const auto data = fill_local(v);
      coll::collective_write(mpi, *file, v, data, o);
    }
  });
  EXPECT_EQ(file->verify(expected_byte), "");
  EXPECT_EQ(file->size(), 2 * half);
}

TEST(CollectiveWriteMisc, ExclusiveLockSlowerThanShared) {
  auto run = [](tpio::smpi::Mpi::LockType lt) {
    Cluster cluster;
    auto file = cluster.storage().create("out", pfs::Integrity::None);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const auto view = block_view(mpi.rank(), mpi.size(), 40'000);
      const auto data = fill_local(view);
      coll::Options o;
      o.cb_size = 32768;
      o.transfer = coll::Transfer::OneSidedLock;
      o.overlap = coll::OverlapMode::None;
      o.lock_type = lt;
      coll::collective_write(mpi, *file, view, data, o);
    });
    return cluster.conductor().makespan();
  };
  // The paper's argument for MPI_LOCK_SHARED: exclusive serializes origins.
  EXPECT_LT(run(tpio::smpi::Mpi::LockType::Shared),
            run(tpio::smpi::Mpi::LockType::Exclusive));
}
