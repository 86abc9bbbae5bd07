// Reproduces Figure 2: average relative improvement of each overlap
// algorithm over the no-overlap baseline on the crill cluster, per
// benchmark — averaging only the series where the algorithm actually beat
// the baseline (the paper's convention: "the average improvement ... if a
// performance improvement over the no overlap version was observed").
//
// Paper: crill averages range 3.7% - 9.2%, with the asynchronous-write
// algorithms above the communication-only overlap in every benchmark.

#include <cstdio>
#include <string>

#include "harness/sweep.hpp"
#include "simbase/stats.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

int run_improvement_figure(const xp::Platform& platform, const char* figure,
                           const char* paper_note, int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(
      argc, argv, {"--quick", "--jobs", "--progress", "--paper-scale"});
  const bool quick = args.quick;
  const int reps = quick ? 2 : 3;

  std::printf("== %s: average positive improvement over no-overlap, %s ==\n",
              figure, platform.name.c_str());
  std::printf("%s%s\n\n", paper_note,
              args.paper_scale ? " (unscaled paper geometry)" : "");

  const auto sweep = xp::run_overlap_sweep(platform, reps, 0xF16, quick,
                                           args.exec, args.paper_scale);

  xp::Table table({"Benchmark", "Comm Overlap", "Write Overlap",
                   "Write-Comm Overlap", "Write-Comm 2 Overlap"});
  for (wl::Kind kind : {wl::Kind::Ior, wl::Kind::Tile256, wl::Kind::Tile1M,
                        wl::Kind::Flash}) {
    std::vector<std::string> row{wl::to_string(kind)};
    for (coll::OverlapMode m :
         {coll::OverlapMode::Comm, coll::OverlapMode::Write,
          coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2}) {
      sim::Summary positive;
      for (const auto& s : sweep) {
        if (s.kind != kind) continue;
        const double imp = s.improvement(m);
        if (imp > 0) positive.add(imp);
      }
      row.push_back(positive.empty() ? "--" : xp::fmt_pct(positive.mean()));
    }
    table.add_row(std::move(row));
  }
  table.print();
  return 0;
}

#ifndef TPIO_FIG3
int main(int argc, char** argv) {
  return run_improvement_figure(
      xp::crill(), "Fig. 2",
      "Paper: 3.7%-9.2%; async-write algorithms above comm overlap.", argc,
      argv);
}
#endif
