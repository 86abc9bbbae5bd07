// tpio_sim: command-line front end for one-off simulated collective-write
// experiments — the tool an I/O engineer points at a cluster profile and a
// workload shape before committing to MCA parameters.
//
//   tpio_sim --platform crill --workload tile1m --procs 100 \
//            --overlap write-comm-2 --reps 5 --verify

#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/tenancy.hpp"
#include "simbase/error.hpp"
#include "simbase/rng.hpp"
#include "simbase/stats.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace sim = tpio::sim;
namespace coll = tpio::coll;

namespace {

// --tenants N: the measured spec runs as tenant 0 of a shared system with
// N-1 same-shape NoOverlap background writers. Reports the measured
// tenant's turnaround across reps plus its interference accounting; the
// first rep also runs each tenant solo to report slowdown factors.
int run_multi(const xp::CliConfig& cfg) {
  xp::MultiRunSpec ms;
  ms.tenants.assign(static_cast<std::size_t>(cfg.tenants), cfg.spec);
  for (int t = 1; t < cfg.tenants; ++t) {
    ms.tenants[static_cast<std::size_t>(t)].options.overlap =
        coll::OverlapMode::None;
  }
  ms.arrival = cfg.arrival;
  ms.qos = cfg.qos;
  if (cfg.qos == tpio::pfs::QosPolicy::Priority) {
    // The measured tenant rides the top class; neighbors are best-effort.
    ms.priorities.assign(static_cast<std::size_t>(cfg.tenants), 0);
    ms.priorities[0] = 1;
  }

  std::printf("tenants=%d arrival=%s qos=%s (tenant 0 measured, %d "
              "no-overlap background writer%s)\n",
              cfg.tenants, xp::to_string(cfg.arrival.model),
              tpio::pfs::to_string(cfg.qos), cfg.tenants - 1,
              cfg.tenants == 2 ? "" : "s");

  sim::Summary times;
  xp::MultiRunResult first;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    ms.seed = sim::Rng::derive_seed(cfg.seed_base, static_cast<std::uint64_t>(rep));
    const xp::MultiRunResult r = xp::execute_multi(ms, rep == 0);
    if (rep == 0) first = r;
    times.add(sim::to_millis(r.tenants[0].run.makespan));
    for (int t = 0; t < cfg.tenants; ++t) {
      const auto& run = r.tenants[static_cast<std::size_t>(t)].run;
      if (!run.io_error.empty()) {
        std::printf("tenant %d io error: %s\n", t, run.io_error.c_str());
      }
      if (!run.verify_error.empty()) {
        std::printf("tenant %d verify error: %s\n", t,
                    run.verify_error.c_str());
        return 1;
      }
    }
  }

  for (int t = 0; t < cfg.tenants; ++t) {
    const auto& tr = first.tenants[static_cast<std::size_t>(t)];
    std::printf("tenant %d: arrival=%.3f ms turnaround=%.3f ms "
                "slowdown=%.2fx  [%llu storage reqs, cross-tenant wait "
                "%.3f ms, peak queue depth %d]\n",
                t, sim::to_millis(tr.run.arrival),
                sim::to_millis(tr.run.makespan), tr.slowdown,
                static_cast<unsigned long long>(tr.qos.requests),
                sim::to_millis(tr.qos.cross_wait), tr.qos.peak_active);
  }
  std::printf("system makespan (first rep): %.3f ms\n",
              sim::to_millis(first.makespan));
  std::printf("tenant 0 turnaround: min=%.3f ms  median=%.3f ms  "
              "max=%.3f ms\n",
              times.min(), times.median(), times.max());
  std::printf("tenant 0 effective bandwidth (best): %s\n",
              sim::format_bandwidth(
                  static_cast<double>(first.tenants[0].run.bytes) /
                  (times.min() * 1e-3))
                  .c_str());
  if (cfg.spec.verify) {
    std::puts("verification: OK (every tenant, all repetitions byte-exact)");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const xp::CliConfig cfg =
      xp::parse_cli(std::vector<std::string>(argv + 1, argv + argc));
  if (cfg.quick_help) {
    std::fputs(xp::cli_usage().c_str(), stdout);
    return 0;
  }
  if (!cfg.error.empty()) {
    std::fprintf(stderr, "error: %s\n\n%s", cfg.error.c_str(),
                 xp::cli_usage().c_str());
    return 2;
  }
  std::printf("platform=%s workload=[%s] procs=%d cb=%s overlap=%s "
              "transfer=%s reps=%d\n",
              cfg.spec.platform.name.c_str(),
              cfg.spec.workload.describe().c_str(), cfg.spec.nprocs,
              sim::format_bytes(cfg.spec.options.cb_size).c_str(),
              coll::to_string(cfg.spec.options.overlap),
              coll::to_string(cfg.spec.options.transfer), cfg.reps);

  xp::CliConfig resolved = cfg;
  if (cfg.spec.options.sub_comm_count == 0) {
    // --sub-comms auto: one blocking shared-file probe decides k.
    try {
      xp::RunSpec probe = cfg.spec;
      probe.seed = sim::Rng::derive_seed(cfg.seed_base, 0);
      const int k = xp::auto_sub_comm_count(probe);
      resolved.spec.options.sub_comm_count = k;
      std::printf("auto: sub-comms -> %d (probe-driven)\n", k);
    } catch (const tpio::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  const xp::CliConfig& run_cfg = resolved;

  if (run_cfg.tenants > 1) {
    try {
      return run_multi(run_cfg);
    } catch (const tpio::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  // execute_series asserts post-run verification; with injected faults a
  // give-up legitimately leaves a hole — report that as a clean error.
  xp::Series series;
  try {
    series = xp::execute_series(run_cfg.spec, run_cfg.reps,
                                run_cfg.seed_base);
  } catch (const tpio::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  sim::Summary times;
  for (const auto& r : series.runs) {
    times.add(sim::to_millis(r.makespan));
  }
  const auto& first = series.runs.front();
  std::printf("geometry: %d aggregators, %d cycles, %s total\n",
              first.aggregators, first.cycles,
              sim::format_bytes(first.bytes).c_str());
  if (cfg.spec.options.local_aggregators > 1 || first.rank_sum.forward > 0) {
    // Pipelined intra-node aggregation (--local-aggs > 1): how much of the
    // lane leaders' forward traffic was hidden under the next gather.
    std::printf("pipelined forwards: %.3f ms forward time (summed over "
                "ranks), %.1f%% of forward lifetime hidden\n",
                sim::to_millis(first.rank_sum.forward),
                first.pipelined_overlap * 100.0);
  }
  for (const auto& sf : first.subfiles) {
    std::printf("subfile %d: %d ranks, %d aggregators, %s, done %.3f ms "
                "[%llu storage reqs, peak queue depth %d]\n",
                sf.group, sf.ranks, sf.aggregators,
                sim::format_bytes(sf.bytes).c_str(),
                sim::to_millis(sf.completion),
                static_cast<unsigned long long>(sf.qos.requests),
                sf.qos.peak_active);
  }
  if (first.autotune.engaged) {
    const auto& d = first.autotune;
    if (d.from_cache) {
      std::printf("auto: chose %s (tuning cache hit, no probes)\n",
                  coll::to_string(d.chosen));
    } else {
      std::printf(
          "auto: chose %s after %d probe cycles "
          "(comm share %.1f%%, aio ratio %.2f)\n",
          coll::to_string(d.chosen), d.probe_cycles, d.comm_share * 100.0,
          d.aio_ratio);
    }
  }
  if (tpio::pfs::FaultModel(cfg.spec.platform.pfs.faults).enabled()) {
    coll::FaultStats fs;
    for (const auto& r : series.runs) fs += r.faults;
    std::printf("faults: %d retries, %d giveups, %d degraded cycles "
                "(all reps; backoff %.3f ms total)\n",
                fs.retries, fs.giveups, fs.degraded_cycles,
                [&] {
                  sim::Duration b = 0;
                  for (const auto& r : series.runs) b += r.rank_sum.backoff;
                  return sim::to_millis(b);
                }());
    for (const auto& r : series.runs) {
      if (!r.io_error.empty()) {
        std::printf("io error: %s\n", r.io_error.c_str());
        break;
      }
    }
  }
  std::printf("time: min=%.3f ms  median=%.3f ms  max=%.3f ms\n",
              times.min(), times.median(), times.max());
  std::printf("effective bandwidth (best): %s\n",
              sim::format_bandwidth(static_cast<double>(first.bytes) /
                                    (times.min() * 1e-3))
                  .c_str());
  if (cfg.spec.verify) {
    std::puts("verification: OK (all repetitions byte-exact)");
  }
  return 0;
}
