// Subfiling study: when does splitting the collective write into k
// sub-communicators (one file each, Options::sub_comm_count) beat the
// paper's single shared file?
//
//   A. Shared vs subfiled on the Table-I grid: every (benchmark, size,
//      procs) cell of the quick grid measured blocking (NoOverlap) at
//      k in {1, 2, 4}, with the shared-file write-comm-2 time as context.
//      Subfiling attacks the same bottleneck as the overlap schedulers —
//      the collective/shuffle share of the cycle — by shrinking the group
//      instead of hiding the exchange, so it wins exactly where that share
//      dominates (small discontiguous pieces, many procs, slow fabric).
//   B. Stripe-unit sweep (gio-style): one subfiled cell swept over
//      per-subfile stripe units, 1 MiB to 512 MiB.
//   C. Auto-k: what coll::decide_sub_comm_count picks per cell from one
//      blocking probe, next to the measured best k.
//   D. Determinism: the subfiled (k=2) overlap sweep is bit-identical at
//      --jobs 1 and --jobs 8.
//
// Self-checks (exit 1 on failure):
//   - at least one Table-I cell where k>1 strictly beats the shared file;
//   - subfiled runs verify byte-exact (every k, every cell, rep 0);
//   - auto-k picks k=1 where splitting loses and k>1 in at least one cell;
//   - jobs-1 and jobs-8 subfiled sweeps identical.
//
//   ./build/bench/fig_subfiling [--quick]

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/autotune.hpp"
#include "harness/cli.hpp"
#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"
#include "simbase/rng.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Minimum turnaround over `reps` seeds for one cell at one k.
double min_ms_at(const xp::RunSpec& cell, int k, int reps,
                 std::uint64_t seed_base, std::string* verify_out) {
  xp::RunSpec spec = cell;
  spec.options.sub_comm_count = k;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    spec.seed = sim::Rng::derive_seed(seed_base, static_cast<std::uint64_t>(rep));
    spec.verify = rep == 0;  // one byte-exact rep per cell is plenty
    const xp::RunResult r = xp::execute(spec);
    if (rep == 0 && verify_out) *verify_out = r.verify_error;
    const double ms = sim::to_millis(r.makespan);
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

bool same_tables(const std::vector<xp::OverlapSeries>& a,
                 const std::vector<xp::OverlapSeries>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].min_ms != b[i].min_ms) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(argc, argv, {"--quick"});
  const int reps = args.quick ? 1 : 2;
  bool ok = true;

  // -------------------------------------------------------------------------
  // A. Shared vs subfiled, Table-I cells
  // -------------------------------------------------------------------------
  const std::vector<std::string> plats =
      args.quick ? std::vector<std::string>{"crill"}
                 : std::vector<std::string>{"crill", "ibex"};
  const std::vector<int> procs_grid =
      args.quick ? std::vector<int>{100} : std::vector<int>{64, 100};
  std::printf("== A. Blocking write, shared file vs k sub-files (min over "
              "%d reps; wc2 = shared write-comm-2 context) ==\n\n", reps);
  xp::Table grid({"platform", "benchmark", "size", "procs", "shared(ms)",
                  "k=2(ms)", "k=4(ms)", "best", "wc2(ms)"});
  int wins = 0, cells = 0;
  std::vector<double> shared_ms, best_split_ms;  // per cell, for C
  std::vector<xp::RunSpec> cell_specs;
  for (const std::string& pname : plats) {
    const xp::Platform plat = xp::platform_by_name(pname);
    for (const xp::SweepCase& c : xp::paper_workloads()) {
      for (int procs : procs_grid) {
        xp::RunSpec cell;
        cell.platform = plat;
        cell.workload = c.workload;
        cell.nprocs = procs;
        cell.options.cb_size = xp::kCbSize;
        cell.options.overlap = coll::OverlapMode::None;
        const std::uint64_t cell_seed = sim::Rng::derive_seed(
            0x5F11, static_cast<std::uint64_t>(cells));
        std::string verr;
        const double k1 = min_ms_at(cell, 1, reps, cell_seed, &verr);
        if (!verr.empty()) {
          std::printf("FAIL: shared-file verify: %s\n", verr.c_str());
          ok = false;
        }
        const double k2 = min_ms_at(cell, 2, reps, cell_seed, &verr);
        if (!verr.empty()) {
          std::printf("FAIL: k=2 verify: %s\n", verr.c_str());
          ok = false;
        }
        const double k4 = min_ms_at(cell, 4, reps, cell_seed, &verr);
        if (!verr.empty()) {
          std::printf("FAIL: k=4 verify: %s\n", verr.c_str());
          ok = false;
        }
        xp::RunSpec wc2 = cell;
        wc2.options.overlap = coll::OverlapMode::WriteComm2;
        const double ctx = min_ms_at(wc2, 1, reps, cell_seed, nullptr);
        const bool split_wins = k2 < k1 || k4 < k1;
        if (split_wins) ++wins;
        ++cells;
        shared_ms.push_back(k1);
        best_split_ms.push_back(std::min(k2, k4));
        cell_specs.push_back(cell);
        grid.add_row({pname, wl::to_string(c.kind), c.size_label,
                      std::to_string(procs), fmt3(k1), fmt3(k2), fmt3(k4),
                      split_wins ? (k2 <= k4 ? "k=2 *" : "k=4 *") : "shared",
                      fmt3(ctx)});
      }
    }
  }
  grid.print();
  std::printf("\nresult A: subfiling beats the shared file in %d of %d "
              "blocking cells (*)\n\n", wins, cells);
  if (wins == 0) {
    std::puts("FAIL: no Table-I cell where k>1 beats the shared file");
    ok = false;
  }

  // -------------------------------------------------------------------------
  // B. Per-subfile stripe-unit sweep (gio-style)
  // -------------------------------------------------------------------------
  std::puts("== B. Stripe-unit sweep, crill tile256/L procs=100, k=2, "
            "blocking ==\n");
  {
    xp::RunSpec cell;
    cell.platform = xp::platform_by_name("crill");
    cell.workload = wl::make_tile256(2, 2048);
    cell.nprocs = 100;
    cell.options.cb_size = xp::kCbSize;
    cell.options.overlap = coll::OverlapMode::None;
    cell.options.sub_comm_count = 2;
    xp::Table su({"stripe unit", "min(ms)"});
    std::string note = "platform default";
    for (std::uint64_t unit :
         {0ull, 1ull << 20, 4ull << 20, 16ull << 20, 64ull << 20,
          256ull << 20, 512ull << 20}) {
      xp::RunSpec spec = cell;
      spec.options.subfile_stripe_unit = unit;
      const double ms = min_ms_at(spec, 2, reps, 0x57A1, nullptr);
      su.add_row({unit == 0 ? note : sim::format_bytes(unit), fmt3(ms)});
    }
    su.print();
  }

  // -------------------------------------------------------------------------
  // C. Auto-k per cell
  // -------------------------------------------------------------------------
  std::puts("\n== C. Probe-driven k (coll::decide_sub_comm_count) per "
            "cell ==\n");
  xp::Table autok({"platform", "benchmark", "size", "procs", "auto k",
                   "shared(ms)", "best split(ms)"});
  bool auto_split_somewhere = false;
  const std::vector<xp::SweepCase> cases = xp::paper_workloads();
  for (std::size_t i = 0; i < cell_specs.size(); ++i) {
    xp::RunSpec spec = cell_specs[i];
    spec.seed = sim::Rng::derive_seed(0x5F11, static_cast<std::uint64_t>(i));
    const int k = xp::auto_sub_comm_count(spec);
    if (k > 1) auto_split_somewhere = true;
    // Where the probes keep the shared file, splitting must not have been
    // a big win (the probes run blocking while this table may differ in
    // reps/seeds; allow 10% slack).
    if (k == 1 && best_split_ms[i] < 0.9 * shared_ms[i]) {
      std::printf("FAIL: auto kept the shared file but k>1 wins by >10%% "
                  "(cell %zu)\n", i);
      ok = false;
    }
    const xp::SweepCase& c =
        cases[(i / procs_grid.size()) % cases.size()];
    autok.add_row({cell_specs[i].platform.name, wl::to_string(c.kind),
                   c.size_label, std::to_string(cell_specs[i].nprocs),
                   std::to_string(k), fmt3(shared_ms[i]),
                   fmt3(best_split_ms[i])});
  }
  autok.print();
  if (!auto_split_somewhere) {
    std::puts("\nFAIL: auto-k never chose to split on this grid");
    ok = false;
  } else {
    std::puts("\nself-check C: auto-k splits where the probes measure a "
              "win and never refuses a >10% one");
  }

  // -------------------------------------------------------------------------
  // D. Worker-count determinism of the subfiled sweep
  // -------------------------------------------------------------------------
  {
    coll::Options base;
    base.sub_comm_count = 2;
    xp::ExecOptions e1, e8;
    e1.jobs = 1;
    e8.jobs = 8;
    const xp::Platform plat = xp::ibex();
    const auto serial =
        xp::run_overlap_sweep(plat, base, 1, 0xC57, /*quick=*/true, e1);
    const auto parallel =
        xp::run_overlap_sweep(plat, base, 1, 0xC57, /*quick=*/true, e8);
    if (!same_tables(serial, parallel)) {
      std::puts("\nFAIL: subfiled sweep differs between --jobs 1 and "
                "--jobs 8");
      ok = false;
    } else {
      std::puts("\nself-check D: subfiled (k=2) sweep bit-identical at "
                "--jobs 1 and --jobs 8");
    }
  }

  if (ok) std::puts("\nOK: subfiling acceptance criteria hold");
  return ok ? 0 : 1;
}
