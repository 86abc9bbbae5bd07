#include "harness/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "harness/cli.hpp"
#include "simbase/error.hpp"
#include "simbase/rng.hpp"
#include "simbase/units.hpp"

namespace tpio::xp {

Platform scaled(Platform p) {
  scale_geometry(p, kGeometryScale, kProcScale);
  p.procs_per_node = std::max(1, p.procs_per_node / kProcScale);
  return p;
}

Platform bench_platform(const Platform& p, bool paper_scale) {
  return paper_scale ? p : scaled(p);
}

std::uint64_t bench_cb_size(bool paper_scale) {
  return paper_scale ? kPaperCbSize : kCbSize;
}

std::vector<SweepCase> paper_workloads() {
  // Two problem sizes per benchmark, mirroring the paper's sweep over
  // transfer/block/tile geometries (scaled; see kGeometryScale).
  return {
      {wl::Kind::Ior, "1M", wl::make_ior(1ull << 20)},
      {wl::Kind::Ior, "4M", wl::make_ior(4ull << 20)},
      // Tile 256: element-granular discontiguity (512 B pieces), enough
      // rows that the runs span several cycles per domain.
      {wl::Kind::Tile256, "S", wl::make_tile256(2, 1024)},
      {wl::Kind::Tile256, "L", wl::make_tile256(2, 2048)},
      // Tile 1M: elements above the (scaled) rendezvous threshold.
      {wl::Kind::Tile1M, "S", wl::make_tile1m(1, 2)},
      {wl::Kind::Tile1M, "L", wl::make_tile1m(2, 2)},
      {wl::Kind::Flash, "S", wl::make_flash(24, 2, 16 * 1024)},
      {wl::Kind::Flash, "L", wl::make_flash(24, 4, 16 * 1024)},
  };
}

std::vector<int> paper_proc_counts(bool quick, bool paper_scale) {
  if (paper_scale) {
    // The published counts (kProcScale x the stand-ins below).
    if (quick) return {64, 256};
    return {64, 144, 256, 400};
  }
  if (quick) return {16, 64};
  return {16, 36, 64, 100};
}

namespace {

// The baseline column is each enum's first value.
static_assert(coll::OverlapMode{} == coll::OverlapMode::None &&
              coll::Transfer{} == coll::Transfer::TwoSided);

bool competes(coll::OverlapMode m) { return m != coll::OverlapMode::Auto; }
bool competes(coll::Transfer) { return true; }

void set_column(coll::Options& o, coll::OverlapMode m) { o.overlap = m; }
void set_column(coll::Options& o, coll::Transfer t) { o.transfer = t; }

/// A stable, checkpoint-friendly identifier for one grid point.
std::string job_key(const SweepCase& c, int procs, const char* variant) {
  return std::string(wl::to_string(c.kind)) + "/" + c.size_label + "/p" +
         std::to_string(procs) + "/" + variant;
}

/// One sweep grid: a series per (case, process count), a job per column.
template <class Column>
struct Grid {
  Platform plat;  // as the jobs run
  std::vector<SweepCase> cases = paper_workloads();
  std::vector<int> procs;
  std::vector<Column> columns;
  coll::Options base;  // every job's options; its column sets one more
  ContentionConfig tenancy{
      .neighbors = 0, .arrival = {}, .qos = pfs::QosPolicy::Fifo};
  std::uint64_t first_series = 0;  // seed slot of the first series
  bool paired = false;             // the columns of a series share a seed
};

template <class Column>
std::vector<SweepSeries<Column>> run_grid(const Grid<Column>& g, int reps,
                                          std::uint64_t seed,
                                          const ExecOptions& exec) {
  // Plan the whole (series x column) grid up front: every job carries a
  // seed derived from its grid position, so results are independent of
  // both execution order and worker count.
  std::vector<SweepSeries<Column>> out;
  std::vector<SweepJob> jobs;
  std::vector<std::pair<std::size_t, Column>> slot;  // per job
  std::uint64_t series_id = g.first_series;
  for (const SweepCase& c : g.cases) {
    for (int procs : g.procs) {
      for (Column col : g.columns) {
        RunSpec spec;
        spec.platform = g.plat;
        spec.workload = c.workload;
        spec.nprocs = procs;
        spec.options = g.base;
        set_column(spec.options, col);
        // Independent noise per (series, column): real measurements of
        // different code versions are separate runs on the machine. Paired
        // columns share the write path's draws instead.
        const std::uint64_t job_seed = sim::Rng::derive_seed(
            seed, g.paired ? series_id
                           : series_id * 16 + static_cast<std::uint64_t>(col));
        jobs.push_back(SweepJob{
            job_key(c, procs, coll::to_string(col)),
            [system = contended(spec, g.tenancy), reps, job_seed] {
              sim::Duration best = 0;
              MultiRunSpec ms = system;
              for (int i = 0; i < reps; ++i) {
                ms.seed = sim::Rng::derive_seed(job_seed,
                                                static_cast<std::uint64_t>(i));
                const MultiRunResult r = execute_multi(ms);
                for (const TenantResult& t : r.tenants) {
                  TPIO_CHECK(t.run.verify_error.empty(),
                             "verification failed: " + t.run.verify_error);
                }
                const sim::Duration m = r.tenants[0].run.makespan;
                best = (i == 0) ? m : std::min(best, m);
              }
              return sim::to_millis(best);
            }});
        slot.emplace_back(out.size(), col);
      }
      ++series_id;
      out.push_back(
          SweepSeries<Column>{g.plat.name, c.kind, c.size_label, procs, {}});
    }
  }

  const std::vector<double> min_ms = run_jobs(jobs, exec);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[slot[i].first].min_ms[slot[i].second] = min_ms[i];
  }
  return out;
}

const std::vector<coll::OverlapMode> kModes = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2};

}  // namespace

template <class Column>
Column SweepSeries<Column>::winner() const {
  TPIO_CHECK(!min_ms.empty(), "winner of empty series");
  auto best = min_ms.end();
  for (auto it = min_ms.begin(); it != min_ms.end(); ++it) {
    if (!competes(it->first)) continue;
    if (best == min_ms.end() || it->second < best->second) best = it;
  }
  TPIO_CHECK(best != min_ms.end(), "winner needs a fixed-scheduler entry");
  // Exact ties go to the baseline explicitly (a column must strictly beat
  // it to count as a win); remaining ties resolve in enum order. Relying
  // on std::map iteration order alone would bias the win counts silently.
  const auto base = min_ms.find(Column{});
  if (base != min_ms.end() && base->second <= best->second) return Column{};
  return best->first;
}

template <class Column>
double SweepSeries<Column>::improvement(Column c) const {
  const double base = min_ms.at(Column{});
  return (base - min_ms.at(c)) / base;
}

template struct SweepSeries<coll::OverlapMode>;
template struct SweepSeries<coll::Transfer>;

std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             const coll::Options& base,
                                             int reps, std::uint64_t seed,
                                             bool quick,
                                             const ExecOptions& exec,
                                             bool include_auto,
                                             bool paper_scale) {
  Grid<coll::OverlapMode> g;
  g.plat = bench_platform(platform, paper_scale);
  g.procs = paper_proc_counts(quick, paper_scale);
  g.columns = kModes;
  if (include_auto) g.columns.push_back(coll::OverlapMode::Auto);
  g.base = base;
  g.base.cb_size = bench_cb_size(paper_scale);
  return run_grid(g, reps, seed, exec);
}

std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             int reps, std::uint64_t seed,
                                             bool quick,
                                             const ExecOptions& exec,
                                             bool paper_scale) {
  return run_overlap_sweep(platform, coll::Options{}, reps, seed, quick, exec,
                           /*include_auto=*/false, paper_scale);
}

std::vector<OverlapSeries> run_contended_sweep(const Platform& platform,
                                               const coll::Options& base,
                                               const ContentionConfig& tenancy,
                                               int reps, std::uint64_t seed,
                                               bool quick,
                                               const ExecOptions& exec) {
  Grid<coll::OverlapMode> g;
  g.plat = scaled(platform);
  g.procs = paper_proc_counts(quick);
  g.columns = kModes;
  g.base = base;
  g.base.cb_size = kCbSize;
  g.tenancy = tenancy;
  g.first_series = 0x80000;
  return run_grid(g, reps, seed, exec);
}

std::vector<PrimitiveSeries> run_primitive_sweep(const Platform& platform,
                                                 const coll::Options& base,
                                                 int reps, std::uint64_t seed,
                                                 bool quick,
                                                 const ExecOptions& exec) {
  Grid<coll::Transfer> g;
  g.plat = scaled(platform);
  // Paper Fig. 4: IOR and Tile only.
  std::erase_if(g.cases,
                [](const SweepCase& c) { return c.kind == wl::Kind::Flash; });
  g.procs = paper_proc_counts(quick);
  g.columns = {coll::Transfer::TwoSided, coll::Transfer::OneSidedFence,
               coll::Transfer::OneSidedLock};
  g.base = base;
  g.base.cb_size = kCbSize;
  g.base.overlap = coll::OverlapMode::WriteComm2;
  g.first_series = 0x40000;
  // Primitives share the identical write path, so the aio-quality and
  // machine-noise draws are paired across them: the comparison isolates
  // the shuffle implementation, as the paper's same-day back-to-back
  // measurements effectively did.
  g.paired = true;
  return run_grid(g, reps, seed, exec);
}

BenchArgs parse_bench_args(int argc, char** argv,
                           std::initializer_list<std::string_view> takes) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const CliConfig cfg = parse_cli(args, Tool::Bench);
  BenchArgs out{cfg.quick, cfg.paper_scale, cfg.exec, cfg.error};
  // After a clean parse every word that names a flag is one (no value
  // spells a flag name); refuse those this driver would silently ignore.
  const std::vector<std::string> known = cli_flags(Tool::Bench);
  for (const std::string& a : args) {
    if (!out.error.empty()) break;
    if (std::find(known.begin(), known.end(), a) != known.end() &&
        std::find(takes.begin(), takes.end(), a) == takes.end()) {
      const std::string_view self(argv[0]);
      out.error = std::string(self.substr(self.find_last_of('/') + 1)) +
                  " does not take " + a;
    }
  }
  return out;
}

BenchArgs bench_args(int argc, char** argv,
                     std::initializer_list<std::string_view> takes) {
  BenchArgs out = parse_bench_args(argc, argv, takes);
  if (out.error.empty()) return out;
  std::string usage = argv[0];
  for (const std::string_view t : takes) {
    usage += " [" + std::string(t) + (t == "--jobs" ? " N]" : "]");
  }
  std::fprintf(stderr, "error: %s\nusage: %s\n", out.error.c_str(),
               usage.c_str());
  std::exit(2);
}

}  // namespace tpio::xp
