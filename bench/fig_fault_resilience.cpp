// Fault resilience of the five overlap schedulers (fault-injection
// extension; pfs::FaultParams + coll::Options resilience knobs):
//
//   A. Completion time and retry volume vs injected write-fault rate, per
//      scheduler: transient failures cost retries + backoff but never
//      correctness (every run is byte-verified).
//   B. Straggler sweep: service-time factor on half the storage targets.
//      Asynchronous requests pay the factor squared (the paper's
//      pathological-aio asymmetry, section V), so the per-series winner
//      flips from an async-write scheduler on the healthy system to the
//      blocking NoOverlap baseline under heavy straggling.
//   C. Degraded mode: with Options::degrade_slowdown, an aggregator that
//      observes its async writes collapsing abandons the aio pipeline and
//      drains blocking — recovering most of the straggler loss.
//
// Self-checks (exit 1 on failure):
//   - rate 0 is bit-identical to the fault-free model, per scheduler and
//     repetition, at any resilience-knob setting (inert-knob guarantee);
//   - the straggler-free series is won by an async-write scheduler and the
//     heaviest one by NoOverlap (the winner flip);
//   - retry counts are identical at --jobs 1 and --jobs 8 (fault verdicts
//     and backoff jitter are pure functions, not shared-stream draws);
//   - degraded mode fires (degraded_cycles > 0) and beats the plain aio
//     pipeline under a late-onset straggler.
//
//   ./build/bench/fig_fault_resilience [--quick]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "simbase/rng.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;

namespace {

constexpr coll::OverlapMode kModes[] = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2,
};

/// The tpio_sim default configuration (scaled ibex, tile1m, 16 procs): the
/// regime docs/FAULTS.md walks through, so the tables here are directly
/// comparable with the handbook's worked example.
xp::RunSpec base_spec() {
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_tile1m(1, 2);
  spec.nprocs = 16;
  spec.options.cb_size = xp::kCbSize;
  // Deep retry budget: at the highest rate swept here (0.3) the per-op
  // give-up probability is 0.3^9 ~ 2e-5, so every table cell verifies.
  spec.options.max_retries = 8;
  spec.verify = true;
  return spec;
}

struct Cell {
  double min_ms = 0.0;
  int retries = 0;                   // summed over repetitions
  int giveups = 0;
  int degraded = 0;
  std::vector<sim::Duration> makespans;  // per repetition, for bit-compares
};

Cell run_cell(xp::RunSpec spec, int reps, std::uint64_t seed_base,
              bool* verified) {
  Cell c;
  for (int i = 0; i < reps; ++i) {
    spec.seed = sim::Rng::derive_seed(seed_base, static_cast<std::uint64_t>(i));
    const xp::RunResult r = xp::execute(spec);
    if (!r.verify_error.empty()) {
      std::printf("FAIL: verification: %s\n", r.verify_error.c_str());
      *verified = false;
    }
    if (c.makespans.empty() || sim::to_millis(r.makespan) < c.min_ms) {
      c.min_ms = sim::to_millis(r.makespan);
    }
    c.retries += r.faults.retries;
    c.giveups += r.faults.giveups;
    c.degraded += r.faults.degraded_cycles;
    c.makespans.push_back(r.makespan);
  }
  return c;
}

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(argc, argv, {"--quick"});
  const int reps = args.quick ? 2 : 3;
  const std::uint64_t seed_base = 1;
  bool ok = true;

  // -------------------------------------------------------------------------
  // A. Completion time vs fault rate
  // -------------------------------------------------------------------------
  const double rates[] = {0.0, 0.05, 0.1, 0.2, 0.3};
  std::printf("== A. Completion time (min over %d reps, ms) vs write-fault "
              "rate — scaled ibex, tile1m, 16 procs ==\n\n", reps);
  xp::Table rate_table(
      {"scheduler", "rate 0", "0.05", "0.1", "0.2", "0.3", "retries@0.3"});
  std::vector<std::vector<Cell>> rate_cells;  // [mode][rate]
  for (coll::OverlapMode m : kModes) {
    std::vector<Cell> row;
    std::vector<std::string> cells = {coll::to_string(m)};
    for (double rate : rates) {
      xp::RunSpec spec = base_spec();
      spec.options.overlap = m;
      spec.platform.pfs.faults.write_fail_rate = rate;
      spec.platform.pfs.faults.seed = 7;
      row.push_back(run_cell(spec, reps, seed_base, &ok));
      cells.push_back(fmt3(row.back().min_ms));
      if (row.back().giveups != 0) {
        std::printf("FAIL: %d give-ups at rate %.2f (%s)\n",
                    row.back().giveups, rate, coll::to_string(m));
        ok = false;
      }
    }
    cells.push_back(std::to_string(row.back().retries));
    rate_table.add_row(cells);
    rate_cells.push_back(std::move(row));
  }
  rate_table.print();
  std::puts("");

  // Self-check: the rate-0 column is bit-identical to the fault-free model
  // even with every resilience knob turned up — a disabled FaultModel
  // consumes no randomness and perturbs no timing.
  for (std::size_t mi = 0; mi < std::size(kModes); ++mi) {
    xp::RunSpec spec = base_spec();
    spec.options.overlap = kModes[mi];
    spec.options.max_retries = 2;                      // differs from column
    spec.options.retry_backoff = sim::milliseconds(9); // differs from column
    spec.platform.pfs.faults = pfs::FaultParams{};     // knob-free default
    bool v = true;
    const Cell healthy = run_cell(spec, reps, seed_base, &v);
    ok = ok && v;
    if (healthy.makespans != rate_cells[mi][0].makespans) {
      std::printf("FAIL: rate 0 not bit-identical to fault-free (%s)\n",
                  coll::to_string(kModes[mi]));
      ok = false;
    }
    if (rate_cells[mi][0].retries != 0) {
      std::printf("FAIL: retries at rate 0 (%s)\n",
                  coll::to_string(kModes[mi]));
      ok = false;
    }
  }
  std::puts("self-check A: rate 0 bit-identical to fault-free, all "
            "schedulers");

  // -------------------------------------------------------------------------
  // B. Straggler sweep: the winner flip
  // -------------------------------------------------------------------------
  // The sweep runs against a constant transient-fault backdrop (rate 0.3):
  // a degrading storage system stutters before it slows down. The backdrop
  // also separates the two blocking-write schedulers — comm-overlap issues
  // twice the write ops (half-size sub-buffers), so it carries twice the
  // retry/backoff exposure and falls behind the NoOverlap baseline.
  const double factors[] = {1.0, 2.0, 4.0, 6.0};
  std::printf("\n== B. Straggler sweep (factor on 8 of 16 targets, async "
              "pays factor^2; 0.3 fault backdrop) ==\n\n");
  xp::Table strag_table({"factor", "none", "comm", "write", "write-comm",
                         "write-comm-2", "winner"});
  coll::OverlapMode healthy_winner = coll::OverlapMode::None;
  coll::OverlapMode heavy_winner = coll::OverlapMode::None;
  for (double factor : factors) {
    std::vector<std::string> cells = {fmt3(factor)};
    double best = 0.0;
    coll::OverlapMode winner = coll::OverlapMode::None;
    bool first = true;
    for (coll::OverlapMode m : kModes) {
      xp::RunSpec spec = base_spec();
      spec.options.overlap = m;
      spec.platform.pfs.faults.write_fail_rate = 0.3;
      spec.platform.pfs.faults.seed = 7;
      if (factor > 1.0) {
        spec.platform.pfs.faults.straggler_factor = factor;
        spec.platform.pfs.faults.straggler_targets = 8;
      }
      const Cell c = run_cell(spec, reps, seed_base, &ok);
      cells.push_back(fmt3(c.min_ms));
      if (first || c.min_ms < best) {
        best = c.min_ms;
        winner = m;
      }
      first = false;
    }
    cells.push_back(coll::to_string(winner));
    strag_table.add_row(cells);
    if (factor == factors[0]) healthy_winner = winner;
    heavy_winner = winner;  // last iteration sticks
  }
  strag_table.print();
  std::puts("");

  const bool healthy_async = healthy_winner == coll::OverlapMode::Write ||
                             healthy_winner == coll::OverlapMode::WriteComm ||
                             healthy_winner == coll::OverlapMode::WriteComm2;
  if (!healthy_async) {
    std::printf("FAIL: straggler-free series won by %s, expected an "
                "async-write scheduler\n", coll::to_string(healthy_winner));
    ok = false;
  }
  if (heavy_winner != coll::OverlapMode::None) {
    std::printf("FAIL: heaviest straggler series won by %s, expected the "
                "blocking NoOverlap baseline\n",
                coll::to_string(heavy_winner));
    ok = false;
  }
  if (ok) {
    std::printf("self-check B: winner flips %s -> no_overlap under "
                "straggling\n", coll::to_string(healthy_winner));
  }

  // -------------------------------------------------------------------------
  // C. Degraded mode under a late-onset straggler
  // -------------------------------------------------------------------------
  std::printf("\n== C. Degraded mode (factor 6 on 8 targets after 5 ms, "
              "write scheduler) ==\n\n");
  xp::RunSpec plain = base_spec();
  plain.options.overlap = coll::OverlapMode::Write;
  plain.platform.pfs.faults.straggler_factor = 6.0;
  plain.platform.pfs.faults.straggler_targets = 8;
  plain.platform.pfs.faults.straggler_after = sim::milliseconds(5);
  xp::RunSpec degraded = plain;
  degraded.options.degrade_slowdown = 2.5;

  const Cell plain_c = run_cell(plain, reps, seed_base, &ok);
  const Cell degraded_c = run_cell(degraded, reps, seed_base, &ok);
  xp::Table deg_table({"variant", "min(ms)", "degraded cycles"});
  deg_table.add_row({"aio pipeline", fmt3(plain_c.min_ms), "0"});
  deg_table.add_row({"degrade 2.5x", fmt3(degraded_c.min_ms),
                     std::to_string(degraded_c.degraded)});
  deg_table.print();
  std::puts("");

  if (degraded_c.degraded == 0) {
    std::puts("FAIL: degraded mode never fired");
    ok = false;
  }
  if (degraded_c.min_ms >= plain_c.min_ms) {
    std::puts("FAIL: degraded mode no faster than the stalled aio pipeline");
    ok = false;
  }

  // -------------------------------------------------------------------------
  // D. Worker-count determinism of the retry counters
  // -------------------------------------------------------------------------
  auto retry_jobs = [&] {
    std::vector<xp::SweepJob> jobs;
    for (coll::OverlapMode m : kModes) {
      for (double rate : {0.1, 0.3}) {
        xp::RunSpec spec = base_spec();
        spec.options.overlap = m;
        spec.platform.pfs.faults.write_fail_rate = rate;
        spec.platform.pfs.faults.seed = 7;
        jobs.push_back(xp::SweepJob{
            std::string(coll::to_string(m)) + "/r" + fmt3(rate),
            [spec, reps, seed_base] {
              bool v = true;
              return static_cast<double>(
                  run_cell(spec, reps, seed_base, &v).retries);
            }});
      }
    }
    return jobs;
  }();
  xp::ExecOptions serial, eight;
  serial.jobs = 1;
  eight.jobs = 8;
  const std::vector<double> r1 = xp::run_jobs(retry_jobs, serial);
  const std::vector<double> r8 = xp::run_jobs(retry_jobs, eight);
  if (r1 != r8) {
    std::puts("FAIL: retry counts differ between --jobs 1 and --jobs 8");
    ok = false;
  } else {
    std::puts("self-check D: retry counts identical at --jobs 1 and "
              "--jobs 8");
  }

  if (ok) std::puts("\nOK: fault-resilience acceptance criteria hold");
  return ok ? 0 : 1;
}
