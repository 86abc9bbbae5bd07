// Reproduces Figure 4 and the section IV-B analysis: with the
// Write-Comm-2 overlap scheduler, which data-transfer primitive for the
// shuffle phase (non-blocking two-sided, Put + Win_fence, Put +
// Win_lock/unlock + Barrier) is fastest?
//
// Shapes to reproduce:
//  - two-sided wins the overwhelming majority (~75%) of series overall;
//  - the exception is Tile I/O 256: active-target RMA (fence) wins a large
//    minority (~37%) of those series with average gains of 27-30%,
//    because origin-side placement removes the aggregator's per-element
//    unpack work;
//  - on crill, one-sided gets relatively better at larger process counts
//    (deep unexpected-message queues make two-sided matching costly).

#include <cstdio>
#include <map>
#include <string>

#include "harness/sweep.hpp"
#include "simbase/stats.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

constexpr coll::Transfer kTransfers[] = {
    coll::Transfer::TwoSided,
    coll::Transfer::OneSidedFence,
    coll::Transfer::OneSidedLock,
};

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(
      argc, argv, {"--quick", "--jobs", "--progress"});
  const bool quick = args.quick;
  const int reps = quick ? 2 : 3;

  std::vector<xp::PrimitiveSeries> all;
  for (const auto& platform : {xp::crill(), xp::ibex()}) {
    auto sweep =
        xp::run_primitive_sweep(platform, coll::Options{}, reps, 0xF164,
                                quick, args.exec);
    all.insert(all.end(), sweep.begin(), sweep.end());
  }

  std::printf(
      "== Fig. 4: series won by each shuffle data-transfer primitive "
      "(Write-Comm-2 scheduler, %zu series) ==\n\n",
      all.size());

  std::map<wl::Kind, std::map<coll::Transfer, int>> wins;
  std::map<coll::Transfer, int> total;
  for (const auto& s : all) {
    wins[s.kind][s.winner()] += 1;
    total[s.winner()] += 1;
  }

  xp::Table table({"Benchmark", "two-sided", "one-sided fence",
                   "one-sided lock"});
  for (wl::Kind kind : {wl::Kind::Ior, wl::Kind::Tile256, wl::Kind::Tile1M}) {
    std::vector<std::string> row{wl::to_string(kind)};
    for (coll::Transfer t : kTransfers) row.push_back(std::to_string(wins[kind][t]));
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"Total:"};
    for (coll::Transfer t : kTransfers) row.push_back(std::to_string(total[t]));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\nPaper: two-sided fastest in ~75%% of cases overall; fence "
              "leads in ~37%% of Tile I/O 256 cases.\n");

  // Average fence gain on Tile 256 where it won (paper: ~27% crill, ~30%
  // ibex).
  for (const char* plat : {"crill", "ibex"}) {
    sim::Summary gain;
    for (const auto& s : all) {
      if (s.kind != wl::Kind::Tile256 || s.platform != plat) continue;
      const double imp = s.improvement(coll::Transfer::OneSidedFence);
      if (imp > 0) gain.add(imp);
    }
    if (!gain.empty()) {
      std::printf("Tile 256 on %s: fence beat two-sided by %s on average "
                  "when ahead (paper: 27-30%%).\n",
                  plat, xp::fmt_pct(gain.mean()).c_str());
    }
  }

  // Crossover with process count on crill (paper: one-sided benefits only
  // appear at >= 256 processes; scaled counts here, same trend).
  std::printf("\nOne-sided wins on crill by process count (paper: benefits "
              "only at larger scale):\n");
  std::map<int, std::pair<int, int>> by_procs;  // procs -> (one-sided, total)
  for (const auto& s : all) {
    if (s.platform != "crill") continue;
    auto& [osw, tot] = by_procs[s.procs];
    tot += 1;
    if (s.winner() != coll::Transfer::TwoSided) osw += 1;
  }
  for (const auto& [procs, counts] : by_procs) {
    std::printf("  %4d procs: one-sided fastest in %d/%d series\n", procs,
                counts.first, counts.second);
  }
  return 0;
}
