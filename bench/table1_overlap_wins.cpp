// Reproduces Table I: for every test series (benchmark x platform x
// process count x problem size), which overlap algorithm achieved the
// lowest execution time? The paper's counts over 352 series:
//
//   benchmark    | none | comm | write | write-comm | write-comm-2
//   IOR          |  21  |  11  |  32   |    28      |   15
//   Tile I/O 256 |  17  |  13  |  18   |    31      |   26
//   Tile I/O 1M  |  10  |   6  |  18   |    20      |   17
//   Flash I/O    |  11  |  12  |  11   |    16      |   19
//   total        |  59  |  42  |  79   |    95      |   77
//
// Shape to reproduce: no clear single winner; algorithms with asynchronous
// writes (write / write-comm / write-comm-2) collectively dominate (71%),
// yet plain no-overlap still wins a non-trivial share (~16%).

#include <cstdio>
#include <map>
#include <string>

#include "harness/sweep.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;

namespace {

constexpr coll::OverlapMode kModes[] = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2,
};

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(
      argc, argv, {"--quick", "--jobs", "--progress"});
  const bool quick = args.quick;
  const int reps = quick ? 2 : 3;

  std::map<wl::Kind, std::map<coll::OverlapMode, int>> wins;
  std::map<coll::OverlapMode, int> total;
  int series_count = 0;

  for (const auto& platform : {xp::crill(), xp::ibex()}) {
    const auto sweep =
        xp::run_overlap_sweep(platform, reps, 0x7AB1E1, quick, args.exec);
    for (const auto& s : sweep) {
      wins[s.kind][s.winner()] += 1;
      total[s.winner()] += 1;
      ++series_count;
    }
  }

  std::printf(
      "== Table I: number of series in which an overlap algorithm was "
      "fastest (%d series, %d reps each) ==\n\n",
      series_count, reps);
  xp::Table table({"Benchmark", "No Overlap", "Comm Overlap", "Write Overlap",
                   "Write-Comm Overlap", "Write-Comm 2 Overlap"});
  for (wl::Kind kind : {wl::Kind::Ior, wl::Kind::Tile256, wl::Kind::Tile1M,
                        wl::Kind::Flash}) {
    std::vector<std::string> row{wl::to_string(kind)};
    for (coll::OverlapMode m : kModes) {
      row.push_back(std::to_string(wins[kind][m]));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> row{"Total:"};
  int async_wins = 0;
  for (coll::OverlapMode m : kModes) {
    row.push_back(std::to_string(total[m]));
    if (m == coll::OverlapMode::Write || m == coll::OverlapMode::WriteComm ||
        m == coll::OverlapMode::WriteComm2) {
      async_wins += total[m];
    }
  }
  table.add_row(std::move(row));
  table.print();

  std::printf(
      "\nAsync-write algorithms won %d/%d series (%.0f%%; paper: 71%%); "
      "no-overlap won %d (%.0f%%; paper: ~16%%).\n",
      async_wins, series_count,
      100.0 * async_wins / series_count, total[coll::OverlapMode::None],
      100.0 * total[coll::OverlapMode::None] / series_count);
  return 0;
}
