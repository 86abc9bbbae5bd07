// Extension experiment: the overlap design space applied to collective
// READ (the mirror of the paper's write study; related work: view-based
// collective I/O with read-ahead, Blas et al.). Per overlap scheduler,
// restart a Tile-1M-patterned file on both platforms (xp::execute_restart:
// write it, then read every rank's view back) and time the read.
// Expectation: read-ahead (the Write-mode mirror) hides the file-access
// phase behind the scatter, with larger gains on ibex.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/sweep.hpp"
#include "simbase/rng.hpp"
#include "workloads/workloads.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

int main(int argc, char** argv) {
  xp::bench_args(argc, argv, {});
  std::puts("== Extension: overlap schedulers applied to collective READ ==");
  std::puts("Tile 1M pattern, written then read back under each scheduler; "
            "read phase timed; every rank's bytes verified.\n");

  xp::Table table({"platform", "procs", "none(ms)", "comm", "read-ahead",
                   "read-comm", "read-comm-2", "best gain"});
  int failed = 0;
  std::uint64_t cell = 0;
  for (const char* pname : {"crill", "ibex"}) {
    for (int procs : {36, 64}) {
      std::vector<std::string> row{pname, std::to_string(procs)};
      double base = 0, best = 1e300;
      xp::RunSpec spec;
      spec.platform = xp::platform_by_name(pname);
      spec.workload = wl::make_tile1m(1, 2);
      spec.nprocs = procs;
      spec.options.cb_size = xp::kCbSize;
      for (coll::OverlapMode m :
           {coll::OverlapMode::None, coll::OverlapMode::Comm,
            coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
            coll::OverlapMode::WriteComm2}) {
        spec.options.overlap = m;
        spec.seed = sim::Rng::derive_seed(1, cell++);
        const xp::RestartResult r = xp::execute_restart(spec);
        for (const std::string& e :
             {r.write.io_error, r.write.verify_error, r.read.io_error,
              r.read.verify_error}) {
          if (e.empty()) continue;
          std::fprintf(stderr, "%s %d %s: %s\n", pname, procs,
                       coll::to_string(m), e.c_str());
          ++failed;
        }
        const double t = sim::to_millis(r.read.makespan);
        if (m == coll::OverlapMode::None) base = t;
        best = std::min(best, t);
        row.push_back(xp::fmt_ms(r.read.makespan));
      }
      char g[32];
      std::snprintf(g, sizeof(g), "%+.1f%%", (base - best) / base * 100.0);
      row.push_back(g);
      table.add_row(std::move(row));
    }
  }
  table.print();
  return failed == 0 ? 0 : 1;
}
