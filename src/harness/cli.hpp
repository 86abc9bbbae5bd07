#pragma once

#include <string>
#include <vector>

#include "harness/executor.hpp"
#include "harness/runner.hpp"
#include "harness/tenancy.hpp"

namespace tpio::xp {

/// The front ends whose command lines parse_cli reads: the `tpio_sim` and
/// `tpio_sweep` tools and the paper-reproduction bench drivers
/// (parse_bench_args).
enum class Tool { Sim, Sweep, Bench };

/// Parsed command line of one front end. Kept separate from the binaries
/// so the parsing rules are unit-testable.
struct CliConfig {
  /// tpio_sim: the one job exactly as it will run (the scaled platform
  /// with its fault knobs, the process count, the options). tpio_sweep:
  /// what every grid cell shares — the unscaled platform preset with its
  /// fault knobs, which the sweep scales, and the base options.
  RunSpec spec;
  int reps = 3;
  std::uint64_t seed_base = 1;
  /// Multi-tenant shape (--tenants > 1 switches either tool to the shared
  /// system): the measured spec runs as tenant 0 of the system
  /// contended() builds with tenants - 1 neighbors.
  int tenants = 1;
  ArrivalSpec arrival;
  pfs::QosPolicy qos = pfs::QosPolicy::Fifo;
  /// Grid switches of tpio_sweep and the bench drivers: the reduced grid,
  /// the Fig. 4 primitive grid, the Auto column, the unscaled geometry,
  /// and how the grid's jobs run. tpio_sweep's exec.manifest is its
  /// command line less --jobs, --progress and --resume.
  bool quick = false;
  bool primitives = false;
  bool include_auto = false;
  bool paper_scale = false;
  ExecOptions exec;
  bool quick_help = false;
  std::string error;  // non-empty = parse failure (message for the user)
};

/// Parse the arguments of `tool`. Every flag is one rule — the tools that
/// take it, its value range and the message naming it — and cli_usage
/// lists the rules of one tool. Sizes accept K/M/G suffixes. A flag no
/// tool takes, a flag of another tool, a missing value, a malformed,
/// overflowing or out-of-range number and a zero byte size all produce an
/// error naming the flag, as does any configuration check_cli rejects —
/// for tpio_sweep at every process count of its grid.
CliConfig parse_cli(const std::vector<std::string>& args,
                    Tool tool = Tool::Sim);

/// The flags `tool` takes, sorted.
std::vector<std::string> cli_flags(Tool tool);

/// The configuration checks both tools run before simulating anything:
/// `cfg.spec` is one job exactly as it will run (the scaled platform with
/// its fault knobs, the process count, the options) and `cfg.tenants`
/// same-shape copies of it share the machine. Rejects what would
/// otherwise abort inside the run or be silently clamped — straggler
/// targets beyond the storage targets of one job's nodes, more
/// sub-communicators than processes, more aggregators than the processes
/// of the smallest sub-communicator, more local aggregators than
/// processes per node, superset lane leaders without an aggregator each,
/// an arrival trace whose length is not the tenant count. Returns an
/// empty string when the configuration runs, else a message naming the
/// flag.
std::string check_cli(const CliConfig& cfg);

/// Strict decimal integer parse shared by the CLI front ends: the whole
/// string must be consumed, the value must fit a long long and lie in
/// [lo, hi]. Returns false (leaving `out` untouched) otherwise.
bool parse_int_arg(const std::string& s, long long lo, long long hi,
                   long long& out);
/// Same strictness for unsigned 64-bit values (e.g. seeds).
bool parse_u64_arg(const std::string& s, std::uint64_t& out);

/// The usage text of `tool`, printed for --help / errors.
std::string cli_usage(Tool tool = Tool::Sim);

/// Platform preset lookup by name ("crill", "ibex", "lustre").
/// Returns scaled (simulation-geometry) profiles; throws on unknown names.
Platform platform_by_name(const std::string& name);

}  // namespace tpio::xp
