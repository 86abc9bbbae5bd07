#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "passes.hpp"

// The parent side of tpio_bench: it forks one child per pass, one child at
// a time, collects what each reports, and turns the reports into metric
// samples. It never runs a simulation itself.

namespace tpio::bench {

struct RunOptions {
  std::uint64_t seed = 0xC0FFEE;
  /// Time budget of one workload, setup included; passes (or traced
  /// rounds) start while the previous one still fits in it.
  double seconds = 30.0;
  /// Fixed pass (or traced round) count in place of the budget; 0 = as
  /// many as fit in `seconds`, at least kMinPasses end-to-end passes.
  int passes = 0;
  bool trace = false;
  /// Trace mode: write the first round's spans here as Chrome-trace JSON.
  std::string trace_out;
};

inline constexpr int kMinPasses = 3;
/// Budget of each workload when no `--seconds` is given; the same as
/// BENCHMARK.json's run_seconds.
inline constexpr int kWorkloadSeconds = 25;
/// setup_s repeats the cluster build in at least kSetupChildren fresh
/// children of kSetupSeconds / kSetupChildren each; each child reports its
/// median build. One build of a small cell takes tens of microseconds, far
/// below the host's run-to-run noise.
inline constexpr double kSetupSeconds = 0.5;
inline constexpr int kSetupChildren = 20;

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

struct WorkloadReport {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  int passes = 0;  // end-to-end passes, or traced rounds
  int runs_per_pass = 0;
  long attempted = 0;
  long failed = 0;
  std::string fingerprint;  // sim_fingerprint of the first good pass
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Trace mode: per-layer host seconds of the first good round.
  std::vector<std::pair<std::string, double>> layer_split;
};

/// Run workload `w`: end-to-end passes, or traced rounds with `o.trace`.
WorkloadReport run_workload(const Workload& w, const RunOptions& o);

/// One JSON line with the run's identity, counts, errors, layer split and
/// every metric's raw samples; run.py turns these lines into the report.
std::string samples_line(const WorkloadReport& r);

}  // namespace tpio::bench
