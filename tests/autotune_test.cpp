// OverlapMode::Auto: decision-model unit tests, differential byte-equality
// against every fixed scheduler it can switch to (the probe/switch handoff
// must never corrupt the file), tuning-cache behaviour (cold probe -> warm
// start, concurrent writers), and determinism of Auto-bearing sweeps under
// the parallel executor.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/autotune.hpp"
#include "core/engine.hpp"
#include "harness/sweep.hpp"
#include "simbase/crc.hpp"
#include "test_rig.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace xp = tpio::xp;
using tpio::test::Cluster;
using tpio::test::ClusterSpec;
using tpio::test::file_byte;
using tpio::test::fill_view;

namespace {

/// A scratch file path removed on destruction.
struct TempFile {
  explicit TempFile(const char* stem)
      : path(std::string(::testing::TempDir()) + stem) {
    std::remove(path.c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

coll::ProbeStats stats(double shuffle, double write_block,
                       double write_async) {
  coll::ProbeStats s;
  s.shuffle_ns = shuffle;
  s.write_block_ns = write_block;
  s.write_async_ns = write_async;
  s.has_async = write_async > 0.0;
  return s;
}

/// Round-robin chunk decomposition (as hier_diff_test's): rank r owns
/// chunks r, r+P, r+2P, ...
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

struct RunOut {
  std::uint64_t crc = 0;
  coll::AutoDecision decision;
};

RunOut run_once(const ClusterSpec& cs,
                const std::vector<coll::FileView>& views, std::uint64_t total,
                const coll::Options& o) {
  Cluster cluster(cs);
  auto file = cluster.storage().create("auto_diff", pfs::Integrity::Store);
  std::vector<coll::Result> results(static_cast<std::size_t>(cluster.nprocs()));
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto& view = views[static_cast<std::size_t>(mpi.rank())];
    const auto data = fill_view(view);
    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, o);
  });
  EXPECT_EQ(file->verify(file_byte), "")
      << "overlap=" << coll::to_string(o.overlap)
      << " transfer=" << coll::to_string(o.transfer)
      << " hier=" << o.hierarchical;
  RunOut out;
  out.crc = sim::crc64(file->read_back(0, total));
  out.decision = results[0].autotune;
  return out;
}

/// Policy knobs that force decide() onto one scheduler regardless of the
/// measured probe costs, so every switch target is exercised.
coll::Options forced(coll::OverlapMode target) {
  coll::Options o;
  o.overlap = coll::OverlapMode::Auto;
  switch (target) {
    case coll::OverlapMode::None:
      o.auto_aio_margin = -1.0;  // async floor > 0: always bad-aio branch
      o.auto_comm_floor = 2.0;   // comm share can never reach it
      break;
    case coll::OverlapMode::Comm:
      o.auto_aio_margin = -1.0;
      o.auto_comm_floor = 0.0;
      break;
    case coll::OverlapMode::Write:
      o.auto_aio_margin = 1e9;  // good-aio branch
      o.auto_write_only_ceiling = 2.0;
      break;
    case coll::OverlapMode::WriteComm:
      o.auto_aio_margin = 1e9;
      o.auto_write_only_ceiling = -1.0;
      o.auto_joint_wait_floor = 0.0;
      break;
    case coll::OverlapMode::WriteComm2:
      o.auto_aio_margin = 1e9;
      o.auto_write_only_ceiling = -1.0;
      o.auto_joint_wait_floor = 2.0;
      break;
    case coll::OverlapMode::Auto:
      break;
  }
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// Decision model
// ---------------------------------------------------------------------------

TEST(AutoDecide, ProbeShareAndRatio) {
  EXPECT_DOUBLE_EQ(coll::probe_comm_share(stats(25.0, 75.0, 0.0)), 0.25);
  EXPECT_DOUBLE_EQ(coll::probe_comm_share(stats(0.0, 0.0, 0.0)), 0.0);
  EXPECT_DOUBLE_EQ(coll::probe_aio_ratio(stats(10.0, 100.0, 150.0)), 1.5);
  // No async probe (single-cycle operation): neutral ratio, not zero.
  EXPECT_DOUBLE_EQ(coll::probe_aio_ratio(stats(10.0, 100.0, 0.0)), 1.0);
}

TEST(AutoDecide, GoodAioPicksAsyncSchedulers) {
  const coll::AutoPolicy p;  // defaults
  // Tiny comm share: nothing worth hiding; plain async Write wins.
  EXPECT_EQ(coll::decide(stats(1.0, 99.0, 99.0), p), coll::OverlapMode::Write);
  // Typical share: the data-flow scheduler (the paper's overall winner).
  EXPECT_EQ(coll::decide(stats(23.0, 77.0, 78.0), p),
            coll::OverlapMode::WriteComm2);
}

TEST(AutoDecide, BadAioFallsBackToBlockingSchedulers) {
  const coll::AutoPolicy p;  // defaults: aio_margin 1.0, comm_floor 0.10
  // Lustre regime: async premium (1.2x of write) dwarfs the hideable
  // shuffle cost. Visible comm share -> overlap shuffle only (Comm).
  EXPECT_EQ(coll::decide(stats(20.0, 80.0, 176.0), p),
            coll::OverlapMode::Comm);
  // Same pathology with negligible communication -> plain NoOverlap.
  EXPECT_EQ(coll::decide(stats(2.0, 98.0, 215.0), p), coll::OverlapMode::None);
}

TEST(AutoDecide, JointWaitReachableViaKnob) {
  coll::AutoPolicy p;
  p.joint_wait_floor = 0.20;
  EXPECT_EQ(coll::decide(stats(23.0, 77.0, 78.0), p),
            coll::OverlapMode::WriteComm);
}

TEST(AutoDecide, MarginGovernsTheAioGuard) {
  // Async floor 88ns vs blocking floor 80ns: a 10% premium passes the
  // default 15% margin but trips a tightened 5% one.
  const auto s = stats(20.0, 80.0, 88.0);
  coll::AutoPolicy p;
  EXPECT_EQ(coll::decide(s, p), coll::OverlapMode::WriteComm2);
  p.aio_margin = 0.05;
  EXPECT_EQ(coll::decide(s, p), coll::OverlapMode::Comm);
}

TEST(AutoDecide, PlatformSignatureIgnoresNoiseAndAioJitter) {
  const tpio::net::Topology topo{4, 8, 0};
  tpio::net::FabricParams fabric;
  tpio::smpi::MpiParams mpi;
  pfs::PfsParams a;
  pfs::PfsParams b = a;
  b.aio_penalty = 3.7;        // jittered per run by the harness
  b.aio_penalty_sigma = 0.9;  // noise shape
  b.noise_sigma = 0.5;
  EXPECT_EQ(coll::platform_signature(topo, fabric, mpi, a),
            coll::platform_signature(topo, fabric, mpi, b));
  b.target_bw = a.target_bw * 2;  // a real hardware difference
  EXPECT_NE(coll::platform_signature(topo, fabric, mpi, a),
            coll::platform_signature(topo, fabric, mpi, b));
}

// ---------------------------------------------------------------------------
// Differential byte-equality: probe phase + mid-operation switch
// ---------------------------------------------------------------------------

// Every switch target x shuffle primitive x hierarchy: the Auto run (probe
// cycles, then handoff at a cycle boundary) must land the same bytes as the
// fixed scheduler it chose, and must report that choice.
TEST(AutoDiff, AllSwitchTargetsBytesMatchFixedScheduler) {
  ClusterSpec cs;
  cs.nodes = 3;
  cs.ppn = 3;
  const auto views = strided_views(9, 1500, 8);
  const std::uint64_t total = 1500ull * 9 * 8;

  for (int m = 0; m < 5; ++m) {
    const auto target = static_cast<coll::OverlapMode>(m);
    for (int t = 0; t < 3; ++t) {
      for (bool hier : {false, true}) {
        coll::Options fixed;
        fixed.cb_size = 16384;
        fixed.overlap = target;
        fixed.transfer = static_cast<coll::Transfer>(t);
        fixed.hierarchical = hier;
        const RunOut ref = run_once(cs, views, total, fixed);
        EXPECT_FALSE(ref.decision.engaged);

        coll::Options au = forced(target);
        au.cb_size = fixed.cb_size;
        au.transfer = fixed.transfer;
        au.hierarchical = hier;
        const RunOut got = run_once(cs, views, total, au);
        EXPECT_TRUE(got.decision.engaged);
        EXPECT_EQ(got.decision.chosen, target)
            << "transfer=" << coll::to_string(fixed.transfer)
            << " hier=" << hier;
        EXPECT_FALSE(got.decision.from_cache);
        EXPECT_GT(got.decision.probe_cycles, 0);
        EXPECT_EQ(got.crc, ref.crc)
            << "target=" << coll::to_string(target)
            << " transfer=" << coll::to_string(fixed.transfer)
            << " hier=" << hier;
      }
    }
  }
}

// Degenerate handoffs: probes covering every cycle (no switch), and a
// single probe cycle (switch after cycle 0, odd/even probe split collapses
// to one blocking write).
TEST(AutoDiff, ProbeWindowEdgeCases) {
  ClusterSpec cs;
  cs.nodes = 2;
  cs.ppn = 2;
  const auto views = strided_views(4, 1200, 6);
  const std::uint64_t total = 1200ull * 4 * 6;

  coll::Options fixed;
  fixed.cb_size = 16384;
  fixed.overlap = coll::OverlapMode::None;
  const RunOut ref = run_once(cs, views, total, fixed);

  for (int probes : {1, 1000}) {
    coll::Options au = forced(coll::OverlapMode::None);
    au.cb_size = fixed.cb_size;
    au.probe_cycles = probes;
    const RunOut got = run_once(cs, views, total, au);
    EXPECT_EQ(got.crc, ref.crc) << "probe_cycles=" << probes;
    EXPECT_TRUE(got.decision.engaged);
    EXPECT_EQ(got.decision.chosen, coll::OverlapMode::None);
  }
}

// ---------------------------------------------------------------------------
// Tuning cache
// ---------------------------------------------------------------------------

TEST(TuningCache, ColdRunProbesWarmRunSkipsThem) {
  TempFile cache("autotune_cache_coldwarm.json");
  ClusterSpec cs;
  cs.nodes = 2;
  cs.ppn = 2;
  const auto views = strided_views(4, 1500, 6);
  const std::uint64_t total = 1500ull * 4 * 6;

  coll::Options o;
  o.cb_size = 16384;
  o.overlap = coll::OverlapMode::Auto;
  o.tuning_cache = cache.path;
  const RunOut cold = run_once(cs, views, total, o);
  EXPECT_TRUE(cold.decision.engaged);
  EXPECT_FALSE(cold.decision.from_cache);
  EXPECT_GT(cold.decision.probe_cycles, 0);

  const RunOut warm = run_once(cs, views, total, o);
  EXPECT_TRUE(warm.decision.engaged);
  EXPECT_TRUE(warm.decision.from_cache);
  EXPECT_EQ(warm.decision.probe_cycles, 0);
  EXPECT_EQ(warm.decision.chosen, cold.decision.chosen);
  EXPECT_EQ(warm.crc, cold.crc);

  // A different workload shape misses the cache and probes again.
  const auto views2 = strided_views(4, 1500, 10);
  const std::uint64_t total2 = 1500ull * 4 * 10;
  const RunOut other = run_once(cs, views2, total2, o);
  EXPECT_FALSE(other.decision.from_cache);
}

TEST(TuningCache, LookupMissesOnAbsentAndGarbageFiles) {
  coll::OverlapMode m{};
  EXPECT_FALSE(coll::TuningCache::lookup("/nonexistent/cache.json", "k", m));

  TempFile f("autotune_cache_garbage.json");
  std::FILE* out = std::fopen(f.path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  std::fputs("not a cache", out);
  std::fclose(out);
  EXPECT_FALSE(coll::TuningCache::lookup(f.path, "k", m));

  // store() on top of garbage replaces it with a valid cache.
  coll::TuningCache::store(f.path, "k", coll::OverlapMode::Comm);
  ASSERT_TRUE(coll::TuningCache::lookup(f.path, "k", m));
  EXPECT_EQ(m, coll::OverlapMode::Comm);
}

TEST(TuningCache, StoreMergesAndOverwrites) {
  TempFile f("autotune_cache_merge.json");
  coll::TuningCache::store(f.path, "a", coll::OverlapMode::Write);
  coll::TuningCache::store(f.path, "b", coll::OverlapMode::None);
  coll::TuningCache::store(f.path, "a", coll::OverlapMode::WriteComm2);
  coll::OverlapMode m{};
  ASSERT_TRUE(coll::TuningCache::lookup(f.path, "a", m));
  EXPECT_EQ(m, coll::OverlapMode::WriteComm2);
  ASSERT_TRUE(coll::TuningCache::lookup(f.path, "b", m));
  EXPECT_EQ(m, coll::OverlapMode::None);
  EXPECT_FALSE(coll::TuningCache::lookup(f.path, "c", m));
}

TEST(TuningCache, ConcurrentWritersOfDistinctKeysLoseNothing) {
  TempFile f("autotune_cache_race.json");
  constexpr int kWriters = 8;
  constexpr int kKeysPerWriter = 10;
  {
    std::vector<std::jthread> pool;
    for (int w = 0; w < kWriters; ++w) {
      pool.emplace_back([&, w] {
        for (int k = 0; k < kKeysPerWriter; ++k) {
          coll::TuningCache::store(
              f.path, "w" + std::to_string(w) + "/k" + std::to_string(k),
              static_cast<coll::OverlapMode>((w + k) % 5));
        }
      });
    }
  }
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      coll::OverlapMode m{};
      ASSERT_TRUE(coll::TuningCache::lookup(
          f.path, "w" + std::to_string(w) + "/k" + std::to_string(k), m))
          << "w" << w << "/k" << k;
      EXPECT_EQ(m, static_cast<coll::OverlapMode>((w + k) % 5));
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism under the parallel sweep executor
// ---------------------------------------------------------------------------

TEST(AutoSweep, SixColumnSweepBitIdenticalAcrossWorkerCounts) {
  const xp::Platform plat = xp::ibex();
  xp::ExecOptions serial;
  serial.jobs = 1;
  xp::ExecOptions parallel;
  parallel.jobs = 4;
  const auto a = xp::run_overlap_sweep(plat, coll::Options{}, 1, 21, true,
                                       serial, /*include_auto=*/true);
  const auto b = xp::run_overlap_sweep(plat, coll::Options{}, 1, 21, true,
                                       parallel, /*include_auto=*/true);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].min_ms.size(), 6u);
    EXPECT_EQ(a[i].min_ms, b[i].min_ms);  // exact double equality
    EXPECT_EQ(a[i].winner(), b[i].winner());
    EXPECT_NE(a[i].winner(), coll::OverlapMode::Auto);
  }
  // The five fixed columns are seeded independently of the Auto column, so
  // a five-column sweep of the same seed reproduces them exactly.
  const auto five = xp::run_overlap_sweep(plat, coll::Options{}, 1, 21, true,
                                          serial, /*include_auto=*/false);
  ASSERT_EQ(five.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (const auto& [mode, ms] : five[i].min_ms) {
      EXPECT_EQ(ms, a[i].min_ms.at(mode)) << coll::to_string(mode);
    }
  }
}

TEST(AutoSweep, ExecuteRepeatableForSeed) {
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::crill());
  spec.workload = tpio::wl::make_tile1m(1, 2);
  spec.nprocs = 16;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::Auto;
  spec.seed = 77;
  EXPECT_EQ(xp::fingerprint(xp::execute(spec)),
            xp::fingerprint(xp::execute(spec)));
}
