// tpio_sweep: run the paper's benchmark sweep on one platform and emit
// machine-readable CSV (one row per series x algorithm) for external
// analysis/plotting.
//
//   tpio_sweep --platform crill [--primitives] [--auto] [--hierarchical]
//              [--leader lowest|spread|superset] [--local-aggs N]
//              [--quick] [--reps N]
//              [--jobs N] [--resume FILE] [--progress] > out.csv
//
// --auto adds a sixth column to the overlap sweep: the adaptive
// scheduler (OverlapMode::Auto), measured like the fixed five.
//
// Series are independent simulations, so the sweep fans out over a worker
// pool (--jobs, default: hardware concurrency); any worker count produces a
// byte-identical CSV because every grid point derives its own seed.
// --resume FILE checkpoints completed grid points to FILE (JSON) and, when
// re-run with the same grid, skips everything already recorded there.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/sweep.hpp"
#include "simbase/error.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;

int main(int argc, char** argv) {
  std::string platform = "ibex";
  bool primitives = false;
  bool include_auto = false;
  bool quick = false;
  long long reps = 3;
  coll::Options base;
  tpio::pfs::FaultParams faults;
  xp::ExecOptions exec;
  exec.jobs = 0;  // hardware concurrency
  // --tenants > 1 switches the overlap sweep to the contended variant:
  // every grid cell runs as tenant 0 of a shared system with N-1
  // same-shape NoOverlap background writers.
  long long tenants = 1;
  xp::ContentionConfig tenancy;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--platform" && i + 1 < argc) {
      platform = argv[++i];
    } else if (a == "--primitives") {
      primitives = true;
    } else if (a == "--auto") {
      include_auto = true;
    } else if (a == "--hierarchical") {
      base.hierarchical = true;
    } else if (a == "--leader" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "lowest") base.leader_policy = coll::LeaderPolicy::Lowest;
      else if (v == "spread") base.leader_policy = coll::LeaderPolicy::Spread;
      else if (v == "superset")
        base.leader_policy = coll::LeaderPolicy::Superset;
      else {
        std::fprintf(stderr, "unknown leader policy '%s'\n", v.c_str());
        return 2;
      }
    } else if (a == "--local-aggs" && i + 1 < argc) {
      long long co = 0;
      if (!xp::parse_int_arg(argv[++i], 1, 1'000'000, co)) {
        std::fprintf(stderr, "--local-aggs wants a count >= 1, got '%s'\n",
                     argv[i]);
        return 2;
      }
      base.local_aggregators = static_cast<int>(co);
    } else if (a == "--quick") {
      quick = true;
    } else if (a == "--reps" && i + 1 < argc) {
      if (!xp::parse_int_arg(argv[++i], 1, 1'000'000, reps)) {
        std::fprintf(stderr, "--reps wants a count >= 1, got '%s'\n", argv[i]);
        return 2;
      }
    } else if (a == "--jobs" && i + 1 < argc) {
      long long jobs = 0;
      if (!xp::parse_int_arg(argv[++i], 0, 10'000, jobs)) {
        std::fprintf(stderr,
                     "--jobs wants a count >= 0 (0 = hardware), got '%s'\n",
                     argv[i]);
        return 2;
      }
      exec.jobs = static_cast<int>(jobs);
    } else if (a == "--resume" && i + 1 < argc) {
      exec.checkpoint = argv[++i];
    } else if (a == "--progress") {
      exec.progress = true;
    } else if (a == "--fault-rate" && i + 1 < argc) {
      if (!xp::parse_double_arg(argv[++i], 0.0, 1.0, faults.write_fail_rate)) {
        std::fprintf(stderr, "--fault-rate wants a probability, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (a == "--fault-seed" && i + 1 < argc) {
      if (!xp::parse_u64_arg(argv[++i], faults.seed)) {
        std::fprintf(stderr,
                     "--fault-seed wants an unsigned integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (a == "--straggler" && i + 1 < argc) {
      if (!xp::parse_double_arg(argv[++i], 1.0, 1e6,
                                faults.straggler_factor)) {
        std::fprintf(stderr, "--straggler wants a factor >= 1, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (a == "--straggler-targets" && i + 1 < argc) {
      long long n = 0;
      if (!xp::parse_int_arg(argv[++i], 0, 1'000'000, n)) {
        std::fprintf(stderr,
                     "--straggler-targets wants a count >= 0, got '%s'\n",
                     argv[i]);
        return 2;
      }
      faults.straggler_targets = static_cast<int>(n);
    } else if (a == "--max-retries" && i + 1 < argc) {
      long long n = 0;
      if (!xp::parse_int_arg(argv[++i], 0, 1'000, n)) {
        std::fprintf(stderr, "--max-retries wants a count >= 0, got '%s'\n",
                     argv[i]);
        return 2;
      }
      base.max_retries = static_cast<int>(n);
    } else if (a == "--tenants" && i + 1 < argc) {
      if (!xp::parse_int_arg(argv[++i], 1, 64, tenants)) {
        std::fprintf(stderr, "--tenants wants a count in [1, 64], got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (a == "--arrival" && i + 1 < argc) {
      if (!xp::parse_arrival_arg(argv[++i], tenancy.arrival)) {
        std::fprintf(stderr,
                     "--arrival wants fixed:MS|poisson:MS|trace:MS,MS,..., "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (a == "--qos" && i + 1 < argc) {
      try {
        tenancy.qos = tpio::pfs::parse_qos(argv[++i]);
      } catch (const tpio::Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (a == "--sub-comms" && i + 1 < argc) {
      long long k = 0;
      if (!xp::parse_int_arg(argv[++i], 1, 1'000'000, k)) {
        std::fprintf(stderr, "--sub-comms wants a count >= 1, got '%s'\n",
                     argv[i]);
        return 2;
      }
      base.sub_comm_count = static_cast<int>(k);
    } else if (a == "--stripe-unit" && i + 1 < argc) {
      try {
        base.subfile_stripe_unit = tpio::sim::parse_bytes(argv[++i]);
      } catch (const tpio::Error& e) {
        std::fprintf(stderr, "--stripe-unit: %s\n", e.what());
        return 2;
      }
    } else if (a == "--stripe-factor" && i + 1 < argc) {
      long long n = 0;
      if (!xp::parse_int_arg(argv[++i], 1, 1'000'000, n)) {
        std::fprintf(stderr, "--stripe-factor wants a count >= 1, got '%s'\n",
                     argv[i]);
        return 2;
      }
      base.subfile_stripe_factor = static_cast<int>(n);
    } else {
      std::fprintf(stderr,
                   "usage: tpio_sweep [--platform crill|ibex|lustre] "
                   "[--primitives] [--auto] [--hierarchical] "
                   "[--leader lowest|spread|superset] [--local-aggs N] "
                   "[--quick] [--reps N] [--jobs N] "
                   "[--resume FILE] [--progress] "
                   "[--fault-rate R] [--fault-seed N] [--straggler F] "
                   "[--straggler-targets N] [--max-retries N] "
                   "[--tenants N] [--arrival fixed:MS|poisson:MS|"
                   "trace:MS,MS,...] [--qos fifo|fair|priority] "
                   "[--sub-comms N] [--stripe-unit SIZE] "
                   "[--stripe-factor N]\n");
      return 2;
    }
  }

  // The sweep scales internally; pass the unscaled preset.
  xp::Platform plat;
  if (platform == "crill") plat = xp::crill();
  else if (platform == "ibex") plat = xp::ibex();
  else if (platform == "lustre") plat = xp::lustre();
  else {
    std::fprintf(stderr, "unknown platform '%s' (crill|ibex|lustre)\n",
                 platform.c_str());
    return 2;
  }
  // Fault scenario rides on the platform's storage system; the sweep's
  // checkpoint manifest is tagged with it, so a faulty grid can never
  // resume from a healthy checkpoint (or vice versa).
  plat.pfs.faults = faults;

  // The shared configuration checks, against each grid cell as it will
  // run: the scaled platform at every process count of the grid.
  for (const int procs : xp::paper_proc_counts(quick)) {
    xp::CliConfig cell;
    cell.spec.platform = xp::scaled(plat);
    cell.spec.nprocs = procs;
    cell.spec.options = base;
    cell.tenants = static_cast<int>(tenants);
    cell.arrival = tenancy.arrival;
    const std::string error = xp::check_cli(cell);
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }

  // The executor refuses stale --resume checkpoints (and other invariant
  // violations) by throwing; report those as a clean CLI error, not an
  // uncaught-exception abort.
  try {
    if (tenants > 1) {
      if (primitives) {
        std::fprintf(stderr,
                     "--primitives and --tenants cannot be combined "
                     "(the contended sweep covers the overlap grid)\n");
        return 2;
      }
      tenancy.neighbors = static_cast<int>(tenants) - 1;
      std::puts("platform,benchmark,size,procs,overlap,min_ms");
      for (const auto& s : xp::run_contended_sweep(
               plat, base, tenancy, static_cast<int>(reps), 0xC57, quick,
               exec)) {
        for (const auto& [m, ms] : s.min_ms) {
          std::printf("%s,%s,%s,%d,%s,%.6f\n", s.platform.c_str(),
                      wl::to_string(s.kind), s.size_label.c_str(), s.procs,
                      coll::to_string(m), ms);
        }
      }
    } else if (primitives) {
      std::puts("platform,benchmark,size,procs,transfer,min_ms");
      for (const auto& s : xp::run_primitive_sweep(
               plat, base, static_cast<int>(reps), 0xC57, quick, exec)) {
        for (const auto& [t, ms] : s.min_ms) {
          std::printf("%s,%s,%s,%d,%s,%.6f\n", s.platform.c_str(),
                      wl::to_string(s.kind), s.size_label.c_str(), s.procs,
                      coll::to_string(t), ms);
        }
      }
    } else {
      std::puts("platform,benchmark,size,procs,overlap,min_ms");
      for (const auto& s :
           xp::run_overlap_sweep(plat, base, static_cast<int>(reps), 0xC57,
                                 quick, exec, include_auto)) {
        for (const auto& [m, ms] : s.min_ms) {
          std::printf("%s,%s,%s,%d,%s,%.6f\n", s.platform.c_str(),
                      wl::to_string(s.kind), s.size_label.c_str(), s.procs,
                      coll::to_string(m), ms);
        }
      }
    }
  } catch (const tpio::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
