// Paper-scale stress suite for the cooperative rank scheduler: the 576-rank
// Tile-I/O point the paper actually measures and a 4096-rank smoke run with
// host-time and peak-RSS ceilings.
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

/// Peak-RSS ceiling of the 4096-rank metadata smoke. Sanitizer runtimes
/// multiply resident memory (shadow pages, fatter fiber stacks), so
/// sanitized builds keep only a hang-and-blowup guard.
#if defined(TPIO_ASAN) || defined(TPIO_TSAN)
constexpr double kMetadataSmokeRssMiB = 8192.0;
#else
constexpr double kMetadataSmokeRssMiB = 256.0;
#endif

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
}

TEST(Scale, MetadataExchangeSmokeAt4096Ranks) {
  // The two-stage metadata exchange at 4096 ranks must account a nonzero
  // metadata phase. The peak-RSS ceiling is what catches an O(P^2) host
  // regression: per-rank copies of the 32-byte
  // summary table alone come to 32 B x 4096^2 = 512 MiB here (this run
  // peaked at 578 MiB while every rank kept one), against about 115 MiB
  // with the one shared table. The wall-time ceiling only guards against
  // hangs. The tracked host numbers live in BENCH_PERF.json
  // (tools/bench_report, `metadata` section).
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
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  EXPECT_LT(static_cast<double>(ru.ru_maxrss) / 1024.0, kMetadataSmokeRssMiB)
      << "peak RSS after the 4096-rank run (MiB)";
}
