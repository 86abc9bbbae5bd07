// OverlapMode::Auto: decision-model unit tests, differential byte-equality
// against every fixed scheduler it can switch to (the probe/switch handoff
// must never corrupt the file), tuning-cache behaviour (cold probe -> warm
// start, concurrent writers), and determinism of Auto-bearing sweeps under
// the parallel executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/autotune.hpp"
#include "core/engine.hpp"
#include "core/metadata.hpp"
#include "harness/sweep.hpp"
#include "simbase/crc.hpp"
#include "test_rig.hpp"
#include "workloads/workloads.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace xp = tpio::xp;
using tpio::test::Cluster;
using tpio::test::ClusterSpec;
using tpio::wl::expected_byte;
using tpio::wl::fill_local;

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
  int cycles = 0;
  coll::AutoDecision decision;  // collective_write's report
  coll::ProbeStats probe;       // rank 0's probe, forced runs only
};

/// One collective write of `views`. With `forced`, the Plan and Engine are
/// built as collective_write builds them for a cold Auto write and probe
/// as it does, but the remaining cycles run under `*forced` whatever the
/// probes measured, so every switch target is exercised.
RunOut run_once(const ClusterSpec& cs,
                const std::vector<coll::FileView>& views, std::uint64_t total,
                const coll::Options& o,
                std::optional<coll::OverlapMode> forced = std::nullopt) {
  Cluster cluster(cs);
  auto file = cluster.storage().create("auto_diff", pfs::Integrity::Store);
  std::vector<coll::Result> results(static_cast<std::size_t>(cluster.nprocs()));
  std::vector<coll::ProbeStats> probes(results.size());
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto r = static_cast<std::size_t>(mpi.rank());
    const auto& view = views[r];
    const auto data = fill_local(view);
    if (!forced) {
      results[r] = coll::collective_write(mpi, *file, view, data, o);
      return;
    }
    coll::MetadataExchange meta(mpi, view);
    const auto plan = meta.plan(file->stripe_size(), o);
    coll::PhaseTimings t;
    coll::Engine engine(mpi, *file, *plan, data, o, t);
    probes[r] = engine.probe();
    engine.run(*forced, probes[r].cycles);
    results[r].cycles = plan->num_cycles();
  });
  EXPECT_EQ(file->verify(expected_byte), "")
      << "overlap=" << coll::to_string(o.overlap)
      << " transfer=" << coll::to_string(o.transfer)
      << " hier=" << o.hierarchical;
  // decide() relies on every rank probing the same job-wide costs.
  for (const coll::ProbeStats& p : probes) {
    EXPECT_EQ(p.shuffle_ns, probes[0].shuffle_ns);
    EXPECT_EQ(p.write_block_ns, probes[0].write_block_ns);
    EXPECT_EQ(p.write_async_ns, probes[0].write_async_ns);
    EXPECT_EQ(p.cycles, probes[0].cycles);
  }
  RunOut out;
  out.crc = sim::crc64(file->read_back(0, total));
  out.cycles = results[0].cycles;
  out.decision = results[0].autotune;
  out.probe = probes[0];
  return out;
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
  // Tiny comm share: nothing worth hiding; plain async Write wins.
  EXPECT_EQ(coll::decide(stats(1.0, 99.0, 99.0)), coll::OverlapMode::Write);
  // Typical share: the data-flow scheduler (the paper's overall winner).
  EXPECT_EQ(coll::decide(stats(23.0, 77.0, 78.0)),
            coll::OverlapMode::WriteComm2);
}

TEST(AutoDecide, BadAioFallsBackToBlockingSchedulers) {
  // Lustre regime: async premium (1.2x of write) dwarfs the hideable
  // shuffle cost. Visible comm share (at least 10%) -> overlap shuffle
  // only (Comm).
  EXPECT_EQ(coll::decide(stats(20.0, 80.0, 176.0)), coll::OverlapMode::Comm);
  // Same pathology with negligible communication -> plain NoOverlap.
  EXPECT_EQ(coll::decide(stats(2.0, 98.0, 215.0)), coll::OverlapMode::None);
}

TEST(AutoDecide, MarginGovernsTheAioGuard) {
  // Blocking floor 80ns. An async floor of 88ns (a 10% premium) passes
  // the 15% margin; one of 96ns (20%) trips it.
  EXPECT_EQ(coll::decide(stats(20.0, 80.0, 88.0)),
            coll::OverlapMode::WriteComm2);
  EXPECT_EQ(coll::decide(stats(20.0, 80.0, 96.0)), coll::OverlapMode::Comm);
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
// fixed scheduler it switched to. WriteComm is no decide() outcome, but the
// handoff must hold for every fixed scheduler.
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

        coll::Options au = fixed;
        au.overlap = coll::OverlapMode::Auto;
        const RunOut got = run_once(cs, views, total, au, target);
        EXPECT_GT(got.probe.cycles, 0);
        EXPECT_LT(got.probe.cycles, got.cycles) << "no cycle left to switch";
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
    coll::Options au = fixed;
    au.overlap = coll::OverlapMode::Auto;
    au.probe_cycles = probes;
    const RunOut got =
        run_once(cs, views, total, au, coll::OverlapMode::None);
    EXPECT_EQ(got.crc, ref.crc) << "probe_cycles=" << probes;
    EXPECT_EQ(got.probe.cycles, std::min(probes, got.cycles));
    EXPECT_EQ(got.probe.has_async, probes > 1);
  }
}

// An Auto write without cycles has nothing to probe: it reports no
// decision, and a tuning cache stays untouched.
TEST(AutoDiff, ZeroCycleAutoWriteReportsNoDecision) {
  TempFile cache("autotune_cache_zerocycle.json");
  ClusterSpec cs;
  cs.nodes = 2;
  cs.ppn = 2;
  const std::vector<coll::FileView> views(4);

  coll::Options o;
  o.cb_size = 16384;
  o.overlap = coll::OverlapMode::Auto;
  o.tuning_cache = cache.path;
  const RunOut got = run_once(cs, views, 0, o);
  ASSERT_EQ(got.cycles, 0);
  EXPECT_FALSE(got.decision.engaged);
  EXPECT_EQ(got.decision.probe_cycles, 0);
  EXPECT_FALSE(std::filesystem::exists(cache.path));
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

// A one-cycle Auto write never samples aio, so it teaches the cache
// nothing: no entry is stored, and the same write probes again.
TEST(TuningCache, OneCycleAutoWriteStoresNothing) {
  TempFile cache("autotune_cache_onecycle.json");
  ClusterSpec cs;
  cs.nodes = 2;
  cs.ppn = 2;
  const auto views = strided_views(4, 500, 2);
  const std::uint64_t total = 500ull * 4 * 2;

  coll::Options o;
  o.cb_size = 16384;
  o.overlap = coll::OverlapMode::Auto;
  o.tuning_cache = cache.path;
  for (int run = 0; run < 2; ++run) {
    const RunOut got = run_once(cs, views, total, o);
    ASSERT_EQ(got.cycles, 1);
    EXPECT_TRUE(got.decision.engaged);
    EXPECT_FALSE(got.decision.from_cache) << "run " << run;
    EXPECT_EQ(got.decision.probe_cycles, 1);
  }
  EXPECT_FALSE(std::filesystem::exists(cache.path));
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
