#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/plan_cache.hpp"
#include "harness/sweep.hpp"
#include "simbase/error.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

TEST(Sweep, ScaledPlatformGeometry) {
  const xp::Platform c = xp::scaled(xp::crill());
  EXPECT_EQ(c.pfs.stripe_size, sim::MiB / xp::kGeometryScale);
  EXPECT_EQ(c.mpi.eager_limit,
            512 * sim::KiB * xp::kProcScale / xp::kGeometryScale);
  EXPECT_EQ(c.procs_per_node, 48 / xp::kProcScale);
  const xp::Platform i = xp::scaled(xp::ibex());
  EXPECT_EQ(i.procs_per_node, 40 / xp::kProcScale);
}

TEST(Sweep, PaperWorkloadsCoverAllKinds) {
  const auto cases = xp::paper_workloads();
  EXPECT_EQ(cases.size(), 8u);  // two sizes per benchmark
  int kinds[4] = {0, 0, 0, 0};
  for (const auto& c : cases) {
    kinds[static_cast<int>(c.kind)] += 1;
    EXPECT_GT(c.workload.bytes_per_proc(), 0u);
  }
  for (int k : kinds) EXPECT_EQ(k, 2);
}

TEST(Sweep, ProcCountsQuickIsSubset) {
  const auto full = xp::paper_proc_counts(false);
  const auto quick = xp::paper_proc_counts(true);
  EXPECT_GT(full.size(), quick.size());
  for (int q : quick) {
    EXPECT_NE(std::find(full.begin(), full.end(), q), full.end());
  }
}

TEST(Sweep, SeriesWinnerAndImprovement) {
  xp::OverlapSeries s;
  s.min_ms[coll::OverlapMode::None] = 100.0;
  s.min_ms[coll::OverlapMode::Comm] = 90.0;
  s.min_ms[coll::OverlapMode::Write] = 80.0;
  s.min_ms[coll::OverlapMode::WriteComm] = 95.0;
  s.min_ms[coll::OverlapMode::WriteComm2] = 85.0;
  EXPECT_EQ(s.winner(), coll::OverlapMode::Write);
  EXPECT_DOUBLE_EQ(s.improvement(coll::OverlapMode::Write), 0.2);
  EXPECT_DOUBLE_EQ(s.improvement(coll::OverlapMode::None), 0.0);
}

TEST(Sweep, SeriesWinnerTieGoesToBaseline) {
  // Regression: std::map iteration order used to decide exact ties, which
  // silently credited an overlap algorithm with a "win" it did not earn.
  xp::OverlapSeries s;
  s.min_ms[coll::OverlapMode::None] = 80.0;
  s.min_ms[coll::OverlapMode::Comm] = 90.0;
  s.min_ms[coll::OverlapMode::Write] = 80.0;  // exact tie with baseline
  s.min_ms[coll::OverlapMode::WriteComm] = 95.0;
  s.min_ms[coll::OverlapMode::WriteComm2] = 85.0;
  EXPECT_EQ(s.winner(), coll::OverlapMode::None);
}

TEST(Sweep, SeriesWinnerIgnoresAutoColumn) {
  // Auto is a selector over the fixed five; even when its measured time is
  // the fastest (warm cache, no probes) it must not count as a Table I win.
  xp::OverlapSeries s;
  s.min_ms[coll::OverlapMode::None] = 100.0;
  s.min_ms[coll::OverlapMode::Comm] = 90.0;
  s.min_ms[coll::OverlapMode::Write] = 80.0;
  s.min_ms[coll::OverlapMode::WriteComm] = 95.0;
  s.min_ms[coll::OverlapMode::WriteComm2] = 85.0;
  s.min_ms[coll::OverlapMode::Auto] = 70.0;
  EXPECT_EQ(s.winner(), coll::OverlapMode::Write);

  xp::OverlapSeries only_auto;
  only_auto.min_ms[coll::OverlapMode::Auto] = 70.0;
  EXPECT_THROW(only_auto.winner(), tpio::Error);
}

TEST(Sweep, PrimitiveWinnerTieGoesToTwoSided) {
  xp::PrimitiveSeries s;
  s.min_ms[coll::Transfer::TwoSided] = 50.0;
  s.min_ms[coll::Transfer::OneSidedFence] = 50.0;  // exact tie
  s.min_ms[coll::Transfer::OneSidedLock] = 60.0;
  EXPECT_EQ(s.winner(), coll::Transfer::TwoSided);
}

TEST(Sweep, PrimitiveSeriesWinner) {
  xp::PrimitiveSeries s;
  s.min_ms[coll::Transfer::TwoSided] = 50.0;
  s.min_ms[coll::Transfer::OneSidedFence] = 40.0;
  s.min_ms[coll::Transfer::OneSidedLock] = 60.0;
  EXPECT_EQ(s.winner(), coll::Transfer::OneSidedFence);
  EXPECT_DOUBLE_EQ(s.improvement(coll::Transfer::OneSidedFence), 0.2);
  EXPECT_DOUBLE_EQ(s.improvement(coll::Transfer::OneSidedLock), -0.2);
}

TEST(Sweep, MiniOverlapSweepRuns) {
  // One tiny platform variant so the sweep machinery itself is covered.
  xp::Platform plat = xp::ibex();
  const auto series = xp::run_overlap_sweep(plat, /*reps=*/1, 7, /*quick=*/true,
                                            xp::ExecOptions{});
  EXPECT_EQ(series.size(), 8u * 2u);  // 8 workloads x 2 quick proc counts
  for (const auto& s : series) {
    EXPECT_EQ(s.min_ms.size(), 5u);
    for (const auto& [mode, ms] : s.min_ms) {
      EXPECT_GT(ms, 0.0) << coll::to_string(mode);
    }
    // The winner is one of the measured modes and has the smallest time.
    const double best = s.min_ms.at(s.winner());
    for (const auto& [mode, ms] : s.min_ms) EXPECT_GE(ms, best);
  }
}

TEST(Sweep, QuickSweepBuildsOncePerExchange) {
  // Each run opens with one metadata exchange, which builds one skeleton
  // for its ranks and one Plan for its aggregators, shares nothing with
  // another run (two at a time here), and keeps neither once it ends.
  coll::PlanCache::clear();
  const coll::PlanCache::Stats before = coll::PlanCache::stats();
  xp::ExecOptions exec;
  exec.jobs = 2;
  const auto series =
      xp::run_overlap_sweep(xp::ibex(), /*reps=*/1, 23, /*quick=*/true, exec);
  std::uint64_t runs = 0;
  for (const auto& s : series) runs += s.min_ms.size();
  ASSERT_EQ(runs, 80u);
  const coll::PlanCache::Stats after = coll::PlanCache::stats();
  const std::uint64_t builds =
      (after.lookups - before.lookups) - (after.hits - before.hits);
  EXPECT_EQ(builds, 2 * runs);
  EXPECT_EQ(after.entries, 0u);
}

TEST(Sweep, MiniPrimitiveSweepRuns) {
  xp::Platform plat = xp::crill();
  const auto series =
      xp::run_primitive_sweep(plat, coll::Options{}, /*reps=*/1, 7,
                              /*quick=*/true, xp::ExecOptions{});
  EXPECT_EQ(series.size(), 6u * 2u);  // flash excluded, 2 proc counts
  for (const auto& s : series) {
    EXPECT_EQ(s.min_ms.size(), 3u);
    EXPECT_NE(s.kind, wl::Kind::Flash);
  }
}

TEST(Sweep, SweepDeterministicForSeed) {
  xp::Platform plat = xp::ibex();
  const auto a = xp::run_overlap_sweep(plat, 1, 11, true, xp::ExecOptions{});
  const auto b = xp::run_overlap_sweep(plat, 1, 11, true, xp::ExecOptions{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].min_ms, b[i].min_ms);
  }
}

TEST(Sweep, ParallelExecutionBitIdenticalToSerial) {
  // Every grid point derives its own seed, so the worker count must not
  // change a single bit of the result tables (EXPECT_EQ on the double maps
  // is exact equality, not a tolerance).
  xp::Platform plat = xp::ibex();
  xp::ExecOptions serial;
  serial.jobs = 1;
  xp::ExecOptions parallel;
  parallel.jobs = 4;
  const auto a =
      xp::run_primitive_sweep(plat, coll::Options{}, 1, 42, true, serial);
  const auto b =
      xp::run_primitive_sweep(plat, coll::Options{}, 1, 42, true, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].min_ms, b[i].min_ms);
    EXPECT_EQ(a[i].platform, b[i].platform);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].procs, b[i].procs);
  }
}

TEST(Sweep, ResumeFromCheckpointReproducesTable) {
  const std::string path =
      std::string(::testing::TempDir()) + "sweep_resume_ckpt.json";
  std::remove(path.c_str());
  xp::ExecOptions e;
  e.jobs = 2;
  e.checkpoint = path;
  const auto a =
      xp::run_primitive_sweep(xp::crill(), coll::Options{}, 1, 99, true, e);
  // The rerun restores every job from the checkpoint file (the default
  // manifest encodes platform/seed/reps/quick, so the grids match) and
  // must reproduce the identical table.
  const auto b =
      xp::run_primitive_sweep(xp::crill(), coll::Options{}, 1, 99, true, e);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].min_ms, b[i].min_ms);
  }
  std::remove(path.c_str());
}
