// Wall-clock performance of the simulation substrate itself (not of the
// simulated schedulers): how fast the host executes whole collective-write
// runs and the quick Table I sweep. This is the tracked counterpart of
// BENCH_PERF.json (tools/bench_report) — the substrate-performance work
// (buffer pooling, copy coalescing, plan memoization, the timing-only fast
// path) is judged against these numbers, not against simulated makespans,
// which must stay bit-identical.
//
// Full run:  build/bench/perf_substrate            (or: ctest -C perf -L perf)
// Smoke run: --benchmark_min_time=0  (one iteration per benchmark; wired
//            into the default ctest pass so the suite cannot bit-rot).

#include <benchmark/benchmark.h>

#include <cstdint>

#include "harness/sweep.hpp"

namespace {

namespace coll = tpio::coll;
namespace sim = tpio::sim;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

constexpr coll::OverlapMode kModes[] = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2,
};

xp::RunSpec make_spec(int nprocs, std::uint64_t block_bytes,
                      coll::OverlapMode mode, bool verify) {
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(block_bytes);
  spec.nprocs = nprocs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = mode;
  spec.verify = verify;
  return spec;
}

// One full simulated run per iteration; args = (nprocs, MiB/proc, mode).
// items/sec == runs/sec; bytes/sec == simulated bytes shuffled+written per
// wall second (the substrate-throughput headline).
void BM_CollectiveWrite(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const std::uint64_t block = static_cast<std::uint64_t>(state.range(1)) << 20;
  const coll::OverlapMode mode = kModes[state.range(2)];
  xp::RunSpec spec = make_spec(nprocs, block, mode, /*verify=*/false);
  std::uint64_t seed = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    spec.seed = ++seed;  // distinct measurements, as the sweep takes them
    const xp::RunResult r = xp::execute(spec);
    benchmark::DoNotOptimize(r.makespan);
    bytes += r.bytes;
  }
  state.SetLabel(coll::to_string(mode));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CollectiveWrite)
    ->ArgsProduct({{16, 64}, {1, 4}, {0, 1, 2, 3, 4}})
    ->Unit(benchmark::kMillisecond);

// The materialized (verify=true) path for contrast: payload generation,
// every host-side copy, the digest. The gap between this and the
// verify=false twin is what the timing-only fast path buys.
void BM_CollectiveWriteVerified(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  xp::RunSpec spec = make_spec(nprocs, 1ull << 20,
                               coll::OverlapMode::WriteComm2, /*verify=*/true);
  std::uint64_t seed = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    spec.seed = ++seed;
    const xp::RunResult r = xp::execute(spec);
    benchmark::DoNotOptimize(r.makespan);
    bytes += r.bytes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CollectiveWriteVerified)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

// The quick Table I sweep end to end (every workload x process count x
// scheduler at one rep), serial, verify off — the wall-clock figure quoted
// in EXPERIMENTS.md and tracked across PRs in BENCH_PERF.json.
void BM_QuickSweep(benchmark::State& state) {
  xp::ExecOptions exec;
  exec.jobs = 1;
  for (auto _ : state) {
    const auto series = xp::run_overlap_sweep(xp::scaled(xp::ibex()),
                                              /*reps=*/1, /*seed=*/0xC0FFEE,
                                              /*quick=*/true, exec);
    benchmark::DoNotOptimize(series.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuickSweep)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
