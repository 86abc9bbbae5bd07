// Paper-scale stress suite for the cooperative rank scheduler: the 576-rank
// Tile-I/O point the paper actually measures and a 4096-rank smoke run,
// both with peak-RSS ceilings, the smoke also with a host-time one.
//
// Registered under the `scale` ctest label with a wall-clock budget (see
// tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "simbase/sanitizers.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

/// Peak-RSS ceilings. ctest runs each test in a process of its own, so a
/// ceiling bounds that test's runs. Sanitizer runtimes multiply resident
/// memory (shadow pages, fatter fiber stacks), so sanitized builds keep
/// only a hang-and-blowup guard.
#if defined(TPIO_ASAN) || defined(TPIO_TSAN)
constexpr double kTileCellRssMiB = 8192.0;
constexpr double kMetadataSmokeRssMiB = 8192.0;
#else
constexpr double kTileCellRssMiB = 64.0;
constexpr double kMetadataSmokeRssMiB = 96.0;
#endif

double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

TEST(Scale, TileIoTableCellAt576Ranks) {
  // The paper's headline Tile-I/O geometry runs at 576 processes. One
  // quick cell: tile1m, write-comm-2 scheduler, scaled Ibex.
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_tile1m(1, 1);
  spec.nprocs = 576;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::WriteComm2;
  spec.seed = 576;
  const xp::RunResult r = xp::execute(spec);
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.bytes, 576ull * sim::MiB);
  EXPECT_GT(r.aggregators, 0);
  // And it must be a *measurement*, not a fluke: the same spec reruns to
  // the identical virtual schedule.
  EXPECT_EQ(xp::execute(spec).makespan, r.makespan);
  // The cell is timing-only, so its simulated MPI carries message sizes
  // and no bytes. It peaked at 246 MiB while smpi still copied every
  // payload and zero-filled every window, at about 17 MiB after that, at
  // about 15 MiB once stage 2 of the metadata exchange shared one view
  // table and fiber stacks were recycled, at about 11 MiB while each rank
  // still held a heap data buffer nothing read, and at about 8.5 MiB since
  // timing-only payload buffers are unbacked: the ceiling fails if payload
  // traffic comes back.
  EXPECT_LT(peak_rss_mib(), kTileCellRssMiB)
      << "peak RSS after two 576-rank runs (MiB)";
}

TEST(Scale, MetadataExchangeSmokeAt4096Ranks) {
  // The two-stage metadata exchange at 4096 ranks must account a nonzero
  // metadata phase. The peak-RSS ceiling is what catches an O(P^2) host
  // regression: per-rank copies of the 32-byte
  // summary table alone come to 32 B x 4096^2 = 512 MiB here (this run
  // peaked at 578 MiB while every rank kept one), against 112 MiB with
  // the one shared table, about 51 MiB once its timing-only MPI carried
  // message sizes instead of bytes, about 48 MiB once its 16 aggregators
  // shared one stage-2 view table instead of copying 4096 blobs each,
  // about 47 MiB while each rank still held a 16 KiB heap data buffer
  // nothing read, and about 31 MiB since timing-only payload buffers are
  // unbacked. The wall-time ceiling only
  // guards against hangs. Host time at 8192 ranks is tracked by the
  // repository benchmark's scale8192 workload (bench/e2e, records in
  // BENCH_PERF.json).
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(16 * sim::KiB);
  spec.nprocs = 4096;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.seed = 4096;
  const auto t0 = std::chrono::steady_clock::now();
  const xp::RunResult r = xp::execute(spec);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(r.makespan, 0);
  EXPECT_GT(r.rank_sum.meta, 0);
  EXPECT_EQ(r.bytes, 4096ull * 16 * sim::KiB);
  EXPECT_LT(wall_s, 60.0);
  EXPECT_LT(peak_rss_mib(), kMetadataSmokeRssMiB)
      << "peak RSS after the 4096-rank run (MiB)";
}
