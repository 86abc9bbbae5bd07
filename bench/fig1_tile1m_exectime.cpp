// Reproduces Figure 1: execution time of the Tile I/O benchmark (1 MiB
// tile elements) for each overlap algorithm, on both clusters, at two
// process counts. The paper reports, for its 256/576-process points, ~0%/6%
// best-case improvement over no-overlap on crill and ~34%/17% on Ibex,
// with asynchronous-write algorithms leading.
//
// Scaling (see harness/sweep.hpp): geometry 1/8, process counts 64/144
// stand in for the paper's 256/576 (same nodes-per-aggregator and
// cycles-per-domain regime).

#include <cstdio>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "simbase/stats.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

constexpr coll::OverlapMode kModes[] = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2,
};

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(
      argc, argv, {"--quick", "--jobs", "--progress", "--paper-scale"});
  const bool quick = args.quick;
  // --paper-scale runs the published 256/576-process points on the
  // unscaled platform presets (paper collective buffer, stripes, eager
  // limit); the default grid uses the 1/8-geometry stand-ins.
  const std::vector<int> proc_counts =
      args.paper_scale ? (quick ? std::vector<int>{256}
                                : std::vector<int>{256, 576})
                       : (quick ? std::vector<int>{16, 36}
                                : std::vector<int>{64, 144});
  const int reps = quick ? 2 : 3;

  std::puts("== Fig. 1: Tile I/O (1M elements) execution time per overlap "
            "algorithm ==");
  if (args.paper_scale) {
    std::puts("Paper (256/576 procs): crill ~0%/6% best improvement; "
              "ibex ~34%/17%. Unscaled geometry.\n");
  } else {
    std::puts("Paper (256/576 procs): crill ~0%/6% best improvement; "
              "ibex ~34%/17%. Scaled stand-ins: 64/144 procs.\n");
  }

  // Plan the (platform x procs x mode) grid, fan out over the executor,
  // then render rows in grid order. Seeds depend only on the grid point,
  // so any --jobs value prints the identical table.
  std::vector<xp::SweepJob> jobs;
  for (const auto& platform : {xp::crill(), xp::ibex()}) {
    const xp::Platform plat = xp::bench_platform(platform, args.paper_scale);
    for (int procs : proc_counts) {
      for (coll::OverlapMode mode : kModes) {
        xp::RunSpec spec;
        spec.platform = plat;
        spec.workload = wl::make_tile1m(1, 2);  // 2 MiB per process
        spec.nprocs = procs;
        spec.options.cb_size = xp::bench_cb_size(args.paper_scale);
        spec.options.overlap = mode;
        const std::uint64_t seed =
            0xF161000 + static_cast<std::uint64_t>(procs);
        jobs.push_back(xp::SweepJob{
            plat.name + "/p" + std::to_string(procs) + "/" +
                coll::to_string(mode),
            [spec, reps, seed] {
              return sim::to_millis(
                  xp::execute_series(spec, reps, seed).min_makespan());
            }});
      }
    }
  }
  const std::vector<double> min_ms = xp::run_jobs(jobs, args.exec);

  xp::Table table({"platform", "procs", "algorithm", "min time(ms)",
                   "vs no-overlap"});
  std::size_t i = 0;
  for (const auto& platform : {xp::crill(), xp::ibex()}) {
    const xp::Platform plat = xp::bench_platform(platform, args.paper_scale);
    for (int procs : proc_counts) {
      double base = 0.0;
      for (coll::OverlapMode mode : kModes) {
        const double t = min_ms[i++];
        if (mode == coll::OverlapMode::None) base = t;
        char tbuf[32], ibuf[32];
        std::snprintf(tbuf, sizeof(tbuf), "%.2f", t);
        std::snprintf(ibuf, sizeof(ibuf), "%+.1f%%", (base - t) / base * 100.0);
        table.add_row({plat.name, std::to_string(procs),
                       coll::to_string(mode), tbuf,
                       mode == coll::OverlapMode::None ? "--" : ibuf});
      }
    }
  }
  table.print();
  return 0;
}
