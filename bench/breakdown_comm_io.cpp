// Reproduces the paper's section IV-A breakdown analysis: using the
// no-overlap code path, how much of the collective-write time is spent in
// the shuffle (communication) phase vs. the file-access phase on each
// platform? The paper reports ~93% file I/O / ~7% communication on crill
// and ~77% / ~23% on Ibex for Tile I/O 1M at 576 processes — the key
// mechanism behind the platforms' different overlap benefits.

#include <cstdio>
#include <string>

#include "harness/sweep.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

struct Row {
  std::string platform;
  int procs;
  double comm_frac;
  double io_frac;
  sim::Duration makespan;
};

Row breakdown(const xp::Platform& platform, int procs) {
  xp::RunSpec spec;
  spec.platform = xp::scaled(platform);
  spec.workload = wl::make_tile1m(1, 2);  // Tile 1M geometry, scaled
  spec.nprocs = procs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.seed = 42;

  const xp::RunResult r = xp::execute(spec);
  // Attribution on the bottleneck aggregator, as in the paper's analysis:
  // the file phase only exists on aggregators, and only the critical
  // aggregator's shares are free of wait-for-straggler pollution.
  const auto& t = r.agg_max;
  // Synchronization waits absorb cycle-straggler noise (whichever
  // aggregator finishes early waits for the slowest at the next cycle), so
  // the communication share is computed from the data-movement phases.
  const double comm =
      static_cast<double>(t.shuffle + t.gather + t.forward + t.pack);
  const double io = static_cast<double>(t.write);
  const double denom = comm + io;
  return Row{spec.platform.name, procs, comm / denom, io / denom, r.makespan};
}

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(argc, argv, {"--quick"});
  const bool quick = args.quick;

  std::puts("== Communication vs. file-I/O breakdown (no-overlap, Tile 1M) ==");
  std::puts("Paper reference @576 procs: crill ~7% comm / 93% I/O;");
  std::puts("                            ibex ~23% comm / 77% I/O.\n");

  xp::Table table({"platform", "procs", "comm share", "I/O share", "time(ms)"});
  for (const auto& platform : {xp::crill(), xp::ibex()}) {
    for (int procs : quick ? std::vector<int>{16, 64}
                           : std::vector<int>{36, 64, 144}) {
      const Row row = breakdown(platform, procs);
      table.add_row({row.platform, std::to_string(row.procs),
                     xp::fmt_pct(row.comm_frac), xp::fmt_pct(row.io_frac),
                     xp::fmt_ms(row.makespan)});
    }
  }
  table.print();
  return 0;
}
