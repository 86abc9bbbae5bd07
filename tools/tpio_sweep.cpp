// tpio_sweep: run the paper's benchmark sweep on one platform and emit
// machine-readable CSV (one row per series x algorithm) for external
// analysis/plotting.
//
//   tpio_sweep --platform crill [--primitives] [--auto] [--quick]
//              [--reps N] [--jobs N] [--resume FILE] [--progress] > out.csv
//
// The flags are xp::parse_cli's rules for Tool::Sweep (cli_usage lists
// them): the grid switches above, plus the flags tpio_sim shares — the
// hierarchical shuffle, the fault scenario, tenancy and subfiling. The
// same checks gate both tools; the sweep runs them at every process count
// of its grid.
//
// --auto adds a sixth column to the overlap sweep: the adaptive
// scheduler (OverlapMode::Auto), measured like the fixed five.
// --tenants N runs each overlap cell as tenant 0 of a shared system with
// N-1 NoOverlap background writers (xp::contended, the rule tpio_sim
// --tenants runs); under --qos priority tenant 0 rides the top class.
//
// Series are independent simulations, so the sweep fans out over a worker
// pool (--jobs, default: hardware concurrency); any worker count produces a
// byte-identical CSV because every grid point derives its own seed.
// --resume FILE checkpoints completed grid points to FILE (JSON) and, when
// re-run with the same grid, skips everything already recorded there.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/sweep.hpp"
#include "simbase/error.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;

namespace {

template <class Column>
void print_csv(const char* column,
               const std::vector<xp::SweepSeries<Column>>& rows) {
  std::printf("platform,benchmark,size,procs,%s,min_ms\n", column);
  for (const auto& s : rows) {
    for (const auto& [c, ms] : s.min_ms) {
      std::printf("%s,%s,%s,%d,%s,%.6f\n", s.platform.c_str(),
                  wl::to_string(s.kind), s.size_label.c_str(), s.procs,
                  coll::to_string(c), ms);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const xp::CliConfig cfg = xp::parse_cli(
      std::vector<std::string>(argv + 1, argv + argc), xp::Tool::Sweep);
  if (cfg.quick_help) {
    std::fputs(xp::cli_usage(xp::Tool::Sweep).c_str(), stdout);
    return 0;
  }
  if (!cfg.error.empty()) {
    std::fprintf(stderr, "error: %s\n\n%s", cfg.error.c_str(),
                 xp::cli_usage(xp::Tool::Sweep).c_str());
    return 2;
  }

  // The executor refuses stale --resume checkpoints (and other invariant
  // violations) by throwing; report those as a clean CLI error, not an
  // uncaught-exception abort.
  constexpr std::uint64_t kSeed = 0xC57;
  try {
    if (cfg.tenants > 1) {
      print_csv("overlap",
                xp::run_contended_sweep(
                    cfg.spec.platform, cfg.spec.options,
                    {.neighbors = cfg.tenants - 1,
                     .arrival = cfg.arrival,
                     .qos = cfg.qos},
                    cfg.reps, kSeed, cfg.quick, cfg.exec));
    } else if (cfg.primitives) {
      print_csv("transfer", xp::run_primitive_sweep(
                                cfg.spec.platform, cfg.spec.options, cfg.reps,
                                kSeed, cfg.quick, cfg.exec));
    } else {
      print_csv("overlap", xp::run_overlap_sweep(
                               cfg.spec.platform, cfg.spec.options, cfg.reps,
                               kSeed, cfg.quick, cfg.exec, cfg.include_auto));
    }
  } catch (const tpio::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
