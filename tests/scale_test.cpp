// Paper-scale stress suite for the cooperative rank scheduler: the 576-rank
// Tile-I/O point the paper actually measures, a 4096-rank smoke run, and
// differential checks that the fiber substrate reproduces the legacy
// thread-per-rank results bit-identically.
//
// Registered under the `scale` ctest label with a wall-clock budget (see
// tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TPIO_SCALE_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TPIO_SCALE_SANITIZED 1
#endif

/// Peak-RSS ceiling of the 4096-rank metadata smoke. Sanitizer runtimes
/// multiply resident memory (shadow pages, fatter fiber stacks), so
/// sanitized builds keep only a hang-and-blowup guard.
#ifdef TPIO_SCALE_SANITIZED
constexpr double kMetadataSmokeRssMiB = 8192.0;
#else
constexpr double kMetadataSmokeRssMiB = 256.0;
#endif

/// Force a backend for the duration of one test body.
class BackendGuard {
 public:
  explicit BackendGuard(sim::ConductorBackend b)
      : prev_(sim::Conductor::default_backend()) {
    sim::Conductor::set_default_backend(b);
  }
  ~BackendGuard() { sim::Conductor::set_default_backend(prev_); }

 private:
  sim::ConductorBackend prev_;
};

}  // namespace

TEST(Scale, TileIoTableCellAt576Ranks) {
  // The paper's headline Tile-I/O geometry runs at 576 processes — the
  // point the thread-per-rank conductor could never reach. One quick cell:
  // tile1m, write-comm-2 scheduler, scaled Ibex.
  BackendGuard guard(sim::ConductorBackend::Fibers);
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

TEST(Scale, SmokeRunAt4096Ranks) {
  // 4096 ranks, small per-rank volume: completes in seconds and in memory
  // (fiber stacks are MAP_NORESERVE; RSS stays bounded — measured numbers
  // live in docs/HANDBOOK.md).
  BackendGuard guard(sim::ConductorBackend::Fibers);
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(64 * sim::KiB);
  spec.nprocs = 4096;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.seed = 4096;
  const xp::RunResult r = xp::execute(spec);
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.bytes, 4096ull * 64 * sim::KiB);
}

TEST(Scale, BackendsAgreeOnEveryRunResultField) {
  // Differential at small scale: every observable of a run — not just the
  // makespan — must match between substrates.
  auto run_with = [](sim::ConductorBackend b, int nprocs) {
    BackendGuard guard(b);
    xp::RunSpec spec;
    spec.platform = xp::scaled(xp::ibex());
    spec.workload = wl::make_tile1m(1, 2);
    spec.nprocs = nprocs;
    spec.options.cb_size = xp::kCbSize;
    spec.options.overlap = coll::OverlapMode::WriteComm2;
    spec.seed = 11;
    spec.verify = true;
    return xp::execute(spec);
  };
  for (int nprocs : {8, 16, 64}) {
    const xp::RunResult f = run_with(sim::ConductorBackend::Fibers, nprocs);
    const xp::RunResult t = run_with(sim::ConductorBackend::Threads, nprocs);
    EXPECT_EQ(f.makespan, t.makespan) << nprocs;
    EXPECT_EQ(f.cycles, t.cycles) << nprocs;
    EXPECT_EQ(f.aggregators, t.aggregators) << nprocs;
    EXPECT_EQ(f.bytes, t.bytes) << nprocs;
    EXPECT_EQ(f.inter_node_bytes, t.inter_node_bytes) << nprocs;
    EXPECT_EQ(f.inter_node_messages, t.inter_node_messages) << nprocs;
    EXPECT_EQ(f.intra_node_bytes, t.intra_node_bytes) << nprocs;
    EXPECT_EQ(f.verify_error, "") << nprocs;
    EXPECT_EQ(t.verify_error, "") << nprocs;
  }
}

TEST(Scale, QuickSweepByteIdenticalAcrossBackendsAndJobs) {
  // The acceptance differential: the quick Table-I sweep (16 and 64 ranks,
  // five schedulers) must produce identical tables on the fiber scheduler
  // at --jobs 8 and the legacy thread backend at --jobs 1. Exact double
  // equality — the virtual timeline is integer nanoseconds underneath.
  const xp::Platform plat = xp::ibex();  // run_overlap_sweep scales it
  std::vector<xp::OverlapSeries> fibers, threads;
  {
    BackendGuard guard(sim::ConductorBackend::Fibers);
    xp::ExecOptions exec;
    exec.jobs = 8;
    fibers = xp::run_overlap_sweep(plat, coll::Options{}, 1, 0xC57, true, exec);
  }
  {
    BackendGuard guard(sim::ConductorBackend::Threads);
    xp::ExecOptions exec;
    exec.jobs = 1;
    threads =
        xp::run_overlap_sweep(plat, coll::Options{}, 1, 0xC57, true, exec);
  }
  ASSERT_EQ(fibers.size(), threads.size());
  for (std::size_t i = 0; i < fibers.size(); ++i) {
    EXPECT_EQ(fibers[i].procs, threads[i].procs);
    EXPECT_EQ(fibers[i].min_ms, threads[i].min_ms) << "series " << i;
  }
}

TEST(Scale, MetadataExchangeSmokeAt4096Ranks) {
  // The two-stage metadata exchange at 4096 ranks: the sparse and dense
  // paths must agree on every RunResult field even at a scale where the
  // dense path materializes 4096 views on each of 4096 ranks, and the run
  // must account a nonzero metadata phase. The peak-RSS ceiling is what
  // catches an O(P^2) host regression: per-rank copies of the 32-byte
  // summary table alone come to 32 B x 4096^2 = 512 MiB here (this run
  // peaked at 578 MiB while every rank kept one), against about 115 MiB
  // with the one shared table. The wall-time ceiling only guards against
  // hangs. The tracked dense-vs-sparse host numbers live in
  // BENCH_PERF.json (tools/bench_report, `metadata` section).
  BackendGuard guard(sim::ConductorBackend::Fibers);
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(16 * sim::KiB);
  spec.nprocs = 4096;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.seed = 4096;
  const auto t0 = std::chrono::steady_clock::now();
  const xp::RunResult sparse = xp::execute(spec);
  const double sparse_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(sparse.makespan, 0);
  EXPECT_GT(sparse.rank_sum.meta, 0);
  EXPECT_EQ(sparse.bytes, 4096ull * 16 * sim::KiB);
  EXPECT_LT(sparse_wall_s, 60.0);
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  EXPECT_LT(static_cast<double>(ru.ru_maxrss) / 1024.0, kMetadataSmokeRssMiB)
      << "peak RSS after the sparse 4096-rank run (MiB)";

  spec.options.dense_metadata = true;
  const xp::RunResult dense = xp::execute(spec);
  EXPECT_EQ(dense.makespan, sparse.makespan);
  EXPECT_EQ(dense.completion, sparse.completion);
  EXPECT_EQ(dense.cycles, sparse.cycles);
  EXPECT_EQ(dense.aggregators, sparse.aggregators);
  EXPECT_EQ(dense.bytes, sparse.bytes);
  EXPECT_EQ(dense.inter_node_bytes, sparse.inter_node_bytes);
  EXPECT_EQ(dense.inter_node_messages, sparse.inter_node_messages);
  EXPECT_EQ(dense.intra_node_bytes, sparse.intra_node_bytes);
  EXPECT_EQ(dense.rank_sum.meta, sparse.rank_sum.meta);
}
