#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/executor.hpp"
#include "harness/runner.hpp"
#include "harness/tenancy.hpp"

namespace tpio::xp {

/// Scaled-experiment constants shared by every paper-reproduction bench.
///
/// The published experiments use GB-scale files, a 32 MiB collective
/// buffer, 1 MiB stripes and a 512 KiB eager limit on clusters of up to
/// 704 cores. The simulation reproduces the *dimensionless* regime at 1/8
/// geometry (collective buffer 4 MiB, stripe 128 KiB, eager limit 64 KiB)
/// with process counts {16..196} standing in for the paper's {64..704}
/// (a factor ~4 reduction) and per-process volumes of 0.5-4 MiB. Ratios
/// preserved: stripes per sub-buffer (16 = number of storage targets),
/// cycles per file domain (4-50), shuffle-message sizes straddling the
/// eager/rendezvous boundary.
inline constexpr std::uint64_t kGeometryScale = 8;
inline constexpr std::uint64_t kCbSize = 4ull << 20;
/// Process counts scale by ~4 vs the paper; procs-per-node scales with
/// them so node (and thus aggregator) counts match the published runs —
/// per-aggregator storage share, NIC incast degree and file-domain sizes
/// all depend on the node count, not the rank count.
inline constexpr int kProcScale = 4;
/// Collective buffer of the *unscaled* (paper-scale) runs: the published
/// 32 MiB (scaled runs use kCbSize).
inline constexpr std::uint64_t kPaperCbSize = 32ull << 20;

/// Platform preset with the benchmark geometry scaling applied.
Platform scaled(Platform p);

/// Platform for one bench grid: the preset verbatim at paper scale, the
/// 1/8-geometry stand-in otherwise.
Platform bench_platform(const Platform& p, bool paper_scale);
/// Collective buffer for one bench grid (paper 32 MiB vs scaled 4 MiB).
std::uint64_t bench_cb_size(bool paper_scale);

/// One benchmark configuration of the Table I / Figs. 2-3 sweep.
struct SweepCase {
  wl::Kind kind;
  std::string size_label;
  wl::Spec workload;
};

/// The paper's four benchmarks, two problem sizes each (section IV).
std::vector<SweepCase> paper_workloads();

/// Process counts of one bench grid: the paper's published counts
/// (64..400, with the fiber conductor comfortably past the 576-proc Fig. 1
/// cells) at paper scale, the 1/kProcScale stand-ins otherwise.
std::vector<int> paper_proc_counts(bool quick, bool paper_scale = false);

/// Result of one test *series*: a fixed (platform, workload, process
/// count) measured `reps` times for every column of the sweep (overlap
/// algorithm or shuffle primitive); per-column minima decide the winner,
/// as in the paper's methodology.
template <class Column>
struct SweepSeries {
  std::string platform;
  wl::Kind kind;
  std::string size_label;
  int procs = 0;
  std::map<Column, double> min_ms;
  /// Fastest competing column. OverlapMode::Auto entries (present on
  /// six-column grids) are skipped — Auto is a selector, not a competitor
  /// — and exact ties resolve to the baseline (NoOverlap, two-sided), so
  /// a column only counts as a Table I / Fig. 4 win when it strictly
  /// beats it.
  Column winner() const;
  /// (min_baseline - min_c) / min_baseline; positive = c faster.
  double improvement(Column c) const;
};
using OverlapSeries = SweepSeries<coll::OverlapMode>;
using PrimitiveSeries = SweepSeries<coll::Transfer>;

/// Run the full overlap-algorithm sweep on one platform.
///
/// Every sweep is planned as a flat grid of independent (series, column)
/// jobs — each with its seed derived up front from (seed, series, column)
/// — and executed by the parallel sweep executor (harness/executor.hpp).
/// A job is the minimum over `reps` of tenant 0's turnaround from
/// execute_multi, each rep on its own derived seed. Results are merged
/// back in grid order, so the returned tables are bit-identical for every
/// `exec.jobs` value; `exec.jobs == 1` runs the historical serial path on
/// the calling thread.
/// `paper_scale` runs the grid at the unscaled geometry: the platform
/// preset verbatim, the paper's process counts, and the 32 MiB collective
/// buffer.
std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             int reps, std::uint64_t seed,
                                             bool quick,
                                             const ExecOptions& exec,
                                             bool paper_scale = false);
/// Same sweep with caller-supplied base options (e.g. hierarchical mode);
/// the grid still overrides cb_size and the overlap algorithm per job.
/// With include_auto the grid gains a sixth column, OverlapMode::Auto,
/// measured exactly like the fixed schedulers (its job seed slot is
/// distinct, so the five fixed columns are bit-identical either way);
/// winner() ignores it.
std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             const coll::Options& base,
                                             int reps, std::uint64_t seed,
                                             bool quick,
                                             const ExecOptions& exec,
                                             bool include_auto = false,
                                             bool paper_scale = false);

/// The Table I overlap sweep under contention: every (series, algorithm)
/// cell runs as tenant 0 of the system contended() shapes around it, and
/// the recorded measurement is the *measured tenant's* minimum turnaround
/// (completion - arrival) across reps. Same executor guarantees as
/// run_overlap_sweep.
std::vector<OverlapSeries> run_contended_sweep(const Platform& platform,
                                               const coll::Options& base,
                                               const ContentionConfig& tenancy,
                                               int reps, std::uint64_t seed,
                                               bool quick,
                                               const ExecOptions& exec);

/// Same sweep shape for the data-transfer-primitive study (Fig. 4):
/// Write-Comm-2 scheduler, three shuffle primitives, IOR and Tile cases;
/// the grid still overrides cb_size, the scheduler and the transfer
/// primitive per job.
std::vector<PrimitiveSeries> run_primitive_sweep(const Platform& platform,
                                                 const coll::Options& base,
                                                 int reps, std::uint64_t seed,
                                                 bool quick,
                                                 const ExecOptions& exec);

/// Command-line flags of the paper-reproduction bench drivers:
///   --quick        reduced grid / fewer reps
///   --jobs N       worker threads (0 = hardware concurrency, 1 = serial)
///   --progress     live sweep progress on stderr
///   --paper-scale  unscaled geometry: platform presets verbatim, the
///                  paper's process counts (incl. the 576-proc Fig. 1
///                  cells), 32 MiB collective buffer
/// parse_cli holds their rules; each driver passes the subset it honours
/// as `takes`. A flag outside that subset, a flag no driver takes, or a
/// bad value sets `error`, naming the flag (the caller prints it with its
/// usage and exits 2).
struct BenchArgs {
  bool quick = false;
  bool paper_scale = false;
  ExecOptions exec;
  std::string error;  // non-empty: the command line is refused
};
BenchArgs parse_bench_args(int argc, char** argv,
                           std::initializer_list<std::string_view> takes);

}  // namespace tpio::xp
