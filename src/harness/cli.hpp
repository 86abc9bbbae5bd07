#pragma once

#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/tenancy.hpp"

namespace tpio::xp {

/// Parsed command line of the `tpio_sim` tool. Kept separate from the
/// binary so the parsing rules are unit-testable.
struct CliConfig {
  RunSpec spec;
  int reps = 3;
  std::uint64_t seed_base = 1;
  /// Multi-tenant shape (--tenants > 1 switches tpio_sim to the shared
  /// system): the measured spec runs as tenant 0 and each extra tenant
  /// clones it with the NoOverlap scheduler — a same-shape background
  /// writer hammering the same storage targets.
  int tenants = 1;
  ArrivalSpec arrival;
  pfs::QosPolicy qos = pfs::QosPolicy::Fifo;
  bool quick_help = false;
  std::string error;  // non-empty = parse failure (message for the user)
};

/// Parse `tpio_sim` arguments:
///   --platform crill|ibex|lustre     (default ibex)
///   --workload ior|tile256|tile1m|flash  (default tile1m)
///   --procs N                        (default 64)
///   --bytes-per-proc SIZE            (workload-dependent default)
///   --cb SIZE                        (default 4M)
///   --overlap none|comm|write|write-comm|write-comm-2|auto
///                                    (default write-comm-2)
///   --transfer two-sided|fence|lock  (default two-sided)
///   --aggregators N                  (default auto)
///   --probe-cycles N                 (OverlapMode::Auto probes, default 4)
///   --tuning-cache FILE              (OverlapMode::Auto decision cache)
///   --hierarchical                   (two-level shuffle, off by default)
///   --leader lowest|spread           (default lowest)
///   --reps N                         (default 3)
///   --seed N                         (default 1)
///   --verify                         (off by default)
///   --fault-rate R                   (per-attempt write-failure prob., 0)
///   --fault-seed N                   (fault-scenario seed, default 1)
///   --fail-until N                   (attempts 1..N-1 of every op fail)
///   --straggler F                    (service multiplier of slow targets)
///   --straggler-targets N            (how many targets straggle, 0)
///   --straggler-after MS             (virtual onset of the slowdown, 0)
///   --max-retries N                  (retry budget per op, default 4)
///   --degrade F                      (degraded-mode trigger ratio, off)
///   --help
/// Sizes accept K/M/G suffixes. Unknown flags, non-numeric / overflowing /
/// non-positive counts and zero byte-sizes all produce an error.
CliConfig parse_cli(const std::vector<std::string>& args);

/// Strict decimal integer parse shared by the CLI front ends: the whole
/// string must be consumed, the value must fit a long long and lie in
/// [lo, hi]. Returns false (leaving `out` untouched) otherwise.
bool parse_int_arg(const std::string& s, long long lo, long long hi,
                   long long& out);
/// Same strictness for unsigned 64-bit values (e.g. seeds).
bool parse_u64_arg(const std::string& s, std::uint64_t& out);
/// Same strictness for doubles (e.g. fault rates, straggler factors): the
/// whole string must parse, the value must be finite and in [lo, hi].
bool parse_double_arg(const std::string& s, double lo, double hi,
                      double& out);
/// Parse an `--arrival` value: "fixed:GAP_MS" | "poisson:MEAN_MS" |
/// "trace:MS,MS,..." (milliseconds of virtual time, >= 0). Returns false
/// on malformed input, leaving `out` untouched.
bool parse_arrival_arg(const std::string& s, ArrivalSpec& out);

/// The usage text printed for --help / errors.
std::string cli_usage();

/// Platform preset lookup by name ("crill", "ibex", "lustre").
/// Returns scaled (simulation-geometry) profiles; throws on unknown names.
Platform platform_by_name(const std::string& name);

}  // namespace tpio::xp
