// Adaptive scheduler selection (OverlapMode::Auto) vs the per-series
// oracle: on the quick Table I grid over crill, ibex, and the lustre
// (pathological-aio) profile, run all five fixed schedulers plus Auto and
// compare Auto's measured time against
//   oracle = min over the five fixed schedulers  (perfect hindsight)
//   worst  = max over the five fixed schedulers  (the cost of guessing
//            wrong with a static mca parameter)
//
// Auto pays for its probes only once per configuration: a shared tuning
// cache warm-starts repetition 2+, and the series minimum (the paper's
// methodology) therefore reflects the chosen scheduler at full speed.
//
// Self-check (exit 1 on failure): Auto within 5% of the oracle in >= 80%
// of series, and never slower than the worst fixed scheduler (modulo a 2%
// allowance for the columns' independent noise seeds).
//
//   ./build/bench/fig_auto_selection [--quick] [--jobs N] [--progress]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;

namespace {

constexpr coll::OverlapMode kFixed[] = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2,
};

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(
      argc, argv, {"--quick", "--jobs", "--progress"});
  // The acceptance grid is the quick one either way. Six repetitions even
  // in --quick mode: Auto's first rep is the cold probe run, so its series
  // minimum is a min over reps-1 warm samples while every fixed column
  // gets all reps — fewer repetitions would stack the noise statistics
  // against Auto rather than measure its decision (on the noisiest series
  // the min needs ~5 warm draws to converge to the chosen scheduler's own
  // column minimum).
  const int reps = 6;

  int series_count = 0, within_5pct = 0, beats_worst = 0, chose_oracle = 0;
  double worst_excess = 0.0;
  std::string worst_label;

  std::printf(
      "== Adaptive selection vs per-series oracle (quick grid, %d reps) "
      "==\n\n",
      reps);
  for (const auto& platform : {xp::crill(), xp::ibex(), xp::lustre()}) {
    // Fresh tuning cache per platform: repetition 1 of every Auto series
    // probes cold and seeds the cache; later repetitions warm-start.
    const std::string cache =
        "fig_auto_cache_" + platform.name + ".json";
    std::remove(cache.c_str());
    coll::Options base;
    base.tuning_cache = cache;
    const auto sweep = xp::run_overlap_sweep(platform, base, reps, 0xA07,
                                             /*quick=*/true, args.exec,
                                             /*include_auto=*/true);
    std::remove(cache.c_str());

    xp::Table table({"series", "oracle", "oracle(ms)", "auto(ms)", "worst(ms)",
                     "vs oracle"});
    for (const auto& s : sweep) {
      const double auto_ms = s.min_ms.at(coll::OverlapMode::Auto);
      double oracle = 0.0, worst = 0.0;
      coll::OverlapMode oracle_mode = coll::OverlapMode::None;
      bool first = true;
      for (coll::OverlapMode m : kFixed) {
        const double ms = s.min_ms.at(m);
        if (first || ms < oracle) {
          oracle = ms;
          oracle_mode = m;
        }
        if (first || ms > worst) worst = ms;
        first = false;
      }
      const double excess = auto_ms / oracle - 1.0;
      ++series_count;
      if (auto_ms <= oracle * 1.05) ++within_5pct;
      // Every column runs under its own noise seeds (separate measurements
      // on the machine), so in a near-tie series Auto's draw can land a
      // hair past the worst column's minimum even when its *decision* is
      // within a percent of the oracle. 2% covers the platforms' run-to-run
      // sigma without masking a genuinely bad selection.
      if (auto_ms <= worst * 1.02) ++beats_worst;
      if (oracle_mode == s.winner()) ++chose_oracle;
      const std::string label = s.platform + "/" +
                                std::string(wl::to_string(s.kind)) + "/" +
                                s.size_label + "/p" + std::to_string(s.procs);
      if (excess > worst_excess) {
        worst_excess = excess;
        worst_label = label;
      }
      char o[32], a[32], w[32], x[32];
      std::snprintf(o, sizeof(o), "%.3f", oracle);
      std::snprintf(a, sizeof(a), "%.3f", auto_ms);
      std::snprintf(w, sizeof(w), "%.3f", worst);
      std::snprintf(x, sizeof(x), "%+.1f%%", excess * 100.0);
      table.add_row({label, coll::to_string(oracle_mode), o, a, w, x});
    }
    table.print();
    std::puts("");
  }

  const double within_rate =
      100.0 * within_5pct / std::max(series_count, 1);
  std::printf(
      "auto within 5%% of oracle: %d/%d series (%.0f%%); "
      "never slower than worst fixed: %d/%d; worst excess %+.1f%% (%s)\n",
      within_5pct, series_count, within_rate, beats_worst, series_count,
      worst_excess * 100.0, worst_label.c_str());

  bool ok = true;
  if (within_5pct * 5 < series_count * 4) {  // >= 80%
    std::printf("FAIL: auto within 5%% of oracle in under 80%% of series\n");
    ok = false;
  }
  if (beats_worst != series_count) {
    std::printf("FAIL: auto slower than the worst fixed scheduler "
                "(beyond the 2%% noise allowance) in %d series\n",
                series_count - beats_worst);
    ok = false;
  }
  if (ok) std::printf("OK: adaptive selection acceptance criteria hold\n");
  return ok ? 0 : 1;
}
