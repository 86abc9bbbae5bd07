// Ablation: pathological asynchronous-write support (paper, section V).
//
// "Some preliminary tests performed by the authors on a Lustre parallel
// file system showed very different results ... due to significant
// performance problems of the aio_write operations on Lustre."
// The storage model's aio_penalty reproduces this: as the async path
// degrades, the overlap algorithms that rely on it (Write, Write-Comm,
// Write-Comm-2) lose their advantage and eventually fall behind both the
// no-overlap baseline and the comm-only overlap.

#include <cstdio>

#include "harness/sweep.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

int main(int argc, char** argv) {
  xp::bench_args(argc, argv, {});
  std::puts("== Ablation: degrading aio quality (Lustre-like file system) ==");
  std::puts("Tile 1M, 64 procs, ibex fabric; aio penalty = async service "
            "multiplier.\n");

  xp::Table table({"aio penalty", "no-overlap", "comm", "write", "write-comm",
                   "write-comm-2", "best"});
  for (double penalty : {1.0, 1.3, 1.8, 2.5}) {
    xp::Platform plat = xp::scaled(xp::ibex());
    plat.pfs.aio_penalty = penalty;
    plat.pfs.aio_penalty_sigma = 0.0;
    std::vector<std::string> row{std::to_string(penalty).substr(0, 4)};
    double best = 1e300;
    const char* best_name = "";
    for (coll::OverlapMode m :
         {coll::OverlapMode::None, coll::OverlapMode::Comm,
          coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
          coll::OverlapMode::WriteComm2}) {
      xp::RunSpec spec;
      spec.platform = plat;
      spec.workload = wl::make_tile1m(1, 2);
      spec.nprocs = 64;
      spec.options.cb_size = xp::kCbSize;
      spec.options.overlap = m;
      spec.seed = 21;
      const double t = sim::to_millis(xp::execute(spec).makespan);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", t);
      row.push_back(buf);
      if (t < best) {
        best = t;
        best_name = coll::to_string(m);
      }
    }
    row.push_back(best_name);
    table.add_row(std::move(row));
  }
  table.print();
  std::puts("\nExpected: async-write algorithms lead at penalty 1.0 and "
            "surrender to blocking-write algorithms as aio degrades.");
  return 0;
}
