// Emits BENCH_PERF.json: the substrate wall-clock baseline tracked across
// PRs (see EXPERIMENTS.md, "Substrate performance methodology"). Two
// sections:
//
//   grid        — runs/sec and simulated-bytes/sec for whole collective
//                 writes over (nprocs x per-proc volume x scheduler),
//                 verify off, each cell timed over enough repetitions to
//                 pass a minimum wall budget;
//   quick_sweep — one serial quick Table I sweep (reps=1, jobs=1, verify
//                 off) timed end to end;
//   scale       — paper-scale single runs (576-rank Tile-I/O cell, 8192-rank
//                 IOR smoke) with wall time and the process peak-RSS
//                 high-water mark after each (absent when built against
//                 trees whose conductor cannot reach those rank counts);
//   metadata    — host-side cost of the two-stage (sparse) metadata
//                 exchange at 4096 and 8192 ranks: wall time, peak RSS and
//                 delivered view-blob bytes of a full run;
//   contention  — a 3-tenant shared-system run (tenant 0 write-comm-2 plus
//                 two NoOverlap neighbors, fair-share storage) timed like a
//                 grid cell: multi-tenant runs/sec is the tracked figure
//                 (absent on trees without the tenancy layer);
//   subfiling   — the quick-grid crill tile256 cell, shared file vs
//                 --sub-comms 4, each timed like a grid cell: subfiled
//                 runs/sec tracks the multi-plan execution overhead
//                 (absent on trees without subfiling);
//   intranode   — the crill ppn=16 co grid (local aggregators per node,
//                 --local-aggs): per message size, the simulated makespan,
//                 intra-node gather critical path (max per-rank gather
//                 time) and the comm-overlap scheduler's pipelined-overlap
//                 fraction at co in {1, 2, 4, 16}, plus the winning co by
//                 each metric (absent on trees without local aggregation).
//
// Deliberately restricted to the long-stable harness API (execute,
// run_overlap_sweep, scaled presets) so the identical source compiles
// against older revisions of the tree — that is how before/after numbers
// for a substrate PR are produced: build this tool at both revisions, run
// both on the same idle host, diff the JSON.
//
// Usage: bench_report [--out FILE] [--label TEXT] [--min-cell-ms N]

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"

namespace coll = tpio::coll;
namespace wl = tpio::wl;
namespace xp = tpio::xp;
namespace pfs = tpio::pfs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr coll::OverlapMode kModes[] = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2,
};

struct Cell {
  int nprocs = 0;
  std::uint64_t block_bytes = 0;
  coll::OverlapMode mode = coll::OverlapMode::None;
  int reps = 0;
  double wall_s = 0.0;
  double runs_per_s = 0.0;
  double sim_bytes_per_s = 0.0;
};

Cell time_cell(int nprocs, std::uint64_t block_bytes, coll::OverlapMode mode,
               double min_wall_s) {
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(block_bytes);
  spec.nprocs = nprocs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = mode;
  spec.verify = false;

  Cell c;
  c.nprocs = nprocs;
  c.block_bytes = block_bytes;
  c.mode = mode;

  // Warm-up run: first-touch costs (plan construction on newer trees, page
  // faults) are not part of the steady-state figure.
  spec.seed = 1;
  (void)xp::execute(spec);

  const Clock::time_point t0 = Clock::now();
  std::uint64_t total_sim_bytes = 0;
  int reps = 0;
  do {
    spec.seed = static_cast<std::uint64_t>(2 + reps);
    total_sim_bytes += xp::execute(spec).bytes;
    ++reps;
  } while (seconds_since(t0) < min_wall_s || reps < 3);
  c.wall_s = seconds_since(t0);
  c.reps = reps;
  c.runs_per_s = reps / c.wall_s;
  c.sim_bytes_per_s = static_cast<double>(total_sim_bytes) / c.wall_s;
  return c;
}

/// Process peak-RSS high-water mark (MiB). Monotone over the process
/// lifetime, so scale points report "peak after this run".
double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct ScalePoint {
  const char* workload = "";
  int nprocs = 0;
  double wall_s = 0.0;
  double sim_ms = 0.0;
  double peak_rss_mib_after = 0.0;
};

ScalePoint time_scale_point(const char* name, wl::Spec workload, int nprocs,
                            coll::OverlapMode mode) {
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = std::move(workload);
  spec.nprocs = nprocs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = mode;
  spec.seed = static_cast<std::uint64_t>(nprocs);
  ScalePoint p;
  p.workload = name;
  p.nprocs = nprocs;
  const Clock::time_point t0 = Clock::now();
  const xp::RunResult r = xp::execute(spec);
  p.wall_s = seconds_since(t0);
  p.sim_ms = static_cast<double>(r.makespan) / 1e6;
  p.peak_rss_mib_after = peak_rss_mib();
  return p;
}

struct MetadataPoint {
  int nprocs = 0;
  int aggregators = 0;
  double sparse_wall_s = 0.0;
  double sparse_rss_mib_after = 0.0;
  double meta_sim_ms = 0.0;  // virtual metadata phase
  // Exact view-blob bytes materialized across all ranks (deterministic: a
  // function of the workload and the aggregator count). The per-rank peak
  // is transient and fiber-serialized, so it never shows in peak RSS; this
  // total is the honest memory figure.
  double sparse_delivered_mib = 0.0;
};

xp::RunSpec metadata_spec(int nprocs) {
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(16ull << 10);
  spec.nprocs = nprocs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.seed = static_cast<std::uint64_t>(nprocs);
  return spec;
}

/// Run one metadata leg in a forked child and report the child's own
/// wall time, peak RSS and virtual metadata-phase time. Peak RSS is
/// monotone within a process (Linux resets the high-water mark at fork),
/// so in-process legs would mask each other and floor the scale section's
/// tracked peaks. Isolation keeps every reported number the cost of
/// exactly one run.
bool run_metadata_leg(int nprocs, double out[4]) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const Clock::time_point t0 = Clock::now();
    const xp::RunResult r = xp::execute(metadata_spec(nprocs));
    double msg[4] = {seconds_since(t0), peak_rss_mib(),
                     static_cast<double>(r.rank_sum.meta) / 1e6,
                     static_cast<double>(r.aggregators)};
    const ssize_t wrote = ::write(fds[1], msg, sizeof(msg));
    ::_exit(wrote == static_cast<ssize_t>(sizeof(msg)) ? 0 : 1);
  }
  ::close(fds[1]);
  const bool got = pid > 0 &&
                   ::read(fds[0], out, 4 * sizeof(double)) ==
                       static_cast<ssize_t>(4 * sizeof(double));
  ::close(fds[0]);
  int status = 0;
  if (pid > 0) ::waitpid(pid, &status, 0);
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct ContentionPoint {
  int tenants = 3;
  int nprocs = 16;
  std::uint64_t block_bytes = 1ull << 20;
  int reps = 0;
  double wall_s = 0.0;
  double runs_per_s = 0.0;
  double t0_sim_ms = 0.0;  // measured tenant's turnaround (last rep)
};

ContentionPoint time_contention(double min_wall_s) {
  ContentionPoint p;
  xp::RunSpec measured;
  measured.platform = xp::scaled(xp::ibex());
  measured.workload = wl::make_ior(p.block_bytes);
  measured.nprocs = p.nprocs;
  measured.options.cb_size = xp::kCbSize;
  measured.options.overlap = coll::OverlapMode::WriteComm2;
  xp::RunSpec neighbor = measured;
  neighbor.options.overlap = coll::OverlapMode::None;

  xp::MultiRunSpec ms;
  ms.tenants = {measured, neighbor, neighbor};
  ms.qos = pfs::QosPolicy::FairShare;

  ms.seed = 1;
  (void)xp::execute_multi(ms);  // warm-up, as in time_cell

  const Clock::time_point t0 = Clock::now();
  int reps = 0;
  do {
    ms.seed = static_cast<std::uint64_t>(2 + reps);
    p.t0_sim_ms =
        static_cast<double>(xp::execute_multi(ms).tenants[0].run.makespan) /
        1e6;
    ++reps;
  } while (seconds_since(t0) < min_wall_s || reps < 3);
  p.wall_s = seconds_since(t0);
  p.reps = reps;
  p.runs_per_s = reps / p.wall_s;
  return p;
}

struct SubfilingPoint {
  int nprocs = 100;
  int sub_comms = 4;
  int shared_reps = 0, split_reps = 0;
  double shared_runs_per_s = 0.0, split_runs_per_s = 0.0;
  double shared_sim_ms = 0.0, split_sim_ms = 0.0;  // last rep's makespan
};

SubfilingPoint time_subfiling(double min_wall_s) {
  SubfilingPoint p;
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::crill());
  spec.workload = wl::make_tile256(2, 1024);  // the quick grid's tile256/S
  spec.nprocs = p.nprocs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.verify = false;

  for (const bool split : {false, true}) {
    spec.options.sub_comm_count = split ? p.sub_comms : 1;
    spec.seed = 1;
    (void)xp::execute(spec);  // warm-up, as in time_cell
    const Clock::time_point t0 = Clock::now();
    int reps = 0;
    double sim_ms = 0.0;
    do {
      spec.seed = static_cast<std::uint64_t>(2 + reps);
      sim_ms = static_cast<double>(xp::execute(spec).makespan) / 1e6;
      ++reps;
    } while (seconds_since(t0) < min_wall_s || reps < 3);
    const double wall = seconds_since(t0);
    (split ? p.split_reps : p.shared_reps) = reps;
    (split ? p.split_runs_per_s : p.shared_runs_per_s) = reps / wall;
    (split ? p.split_sim_ms : p.shared_sim_ms) = sim_ms;
  }
  return p;
}

struct IntranodePoint {
  const char* size_label = "";
  std::uint64_t block_bytes = 0;
  std::vector<int> cos;
  std::vector<double> sim_ms;        // parallel to cos
  std::vector<double> gather_ms;     // intra-node critical path
  std::vector<double> overlap;       // pipelined-overlap fraction
  int winner_by_gather = 1;          // co with the shortest gather chain
  int winner_by_makespan = 1;
};

std::vector<IntranodePoint> time_intranode() {
  // The fig_local_aggs crill quick grid at ppn=16: 4 nodes re-packed to 16
  // ranks each, write-comm-2, spread lane leaders. Simulated figures only —
  // the winner table is what the acceptance gate tracks.
  xp::Platform plat = xp::scaled(xp::crill());
  plat.name += "-ppn16";
  plat.max_nodes = plat.max_nodes * plat.procs_per_node / 16;
  plat.procs_per_node = 16;
  const int procs = 4 * 16;

  std::vector<IntranodePoint> points;
  const std::pair<const char*, std::uint64_t> sizes[] = {
      {"64K", 64ull << 10}, {"256K", 256ull << 10}, {"1M", 1ull << 20}};
  for (const auto& [label, bytes] : sizes) {
    IntranodePoint p;
    p.size_label = label;
    p.block_bytes = bytes;
    for (const int co : {1, 2, 4, 16}) {
      xp::RunSpec spec;
      spec.platform = plat;
      spec.workload = wl::make_ior(bytes);
      spec.nprocs = procs;
      spec.options.cb_size = xp::kCbSize;
      spec.options.overlap = coll::OverlapMode::WriteComm2;
      spec.options.hierarchical = true;
      spec.options.leader_policy = coll::LeaderPolicy::Spread;
      spec.options.local_aggregators = co;
      spec.seed = 7;
      const xp::RunResult r = xp::execute(spec);
      // Overlap fraction under comm-overlap: the scheduler whose call
      // order lets a leader gather the next cycle between posting and
      // waiting on forwards (write-comm-2's per-rank overlap is
      // structurally zero — it posts then immediately waits).
      xp::RunSpec cspec = spec;
      cspec.options.overlap = coll::OverlapMode::Comm;
      const xp::RunResult c = xp::execute(cspec);
      p.cos.push_back(co);
      p.sim_ms.push_back(static_cast<double>(r.makespan) / 1e6);
      p.gather_ms.push_back(static_cast<double>(r.gather_critical) / 1e6);
      p.overlap.push_back(c.pipelined_overlap);
    }
    std::size_t bg = 0, bm = 0;
    for (std::size_t i = 1; i < p.cos.size(); ++i) {
      if (p.gather_ms[i] < p.gather_ms[bg]) bg = i;
      if (p.sim_ms[i] < p.sim_ms[bm]) bm = i;
    }
    p.winner_by_gather = p.cos[bg];
    p.winner_by_makespan = p.cos[bm];
    points.push_back(std::move(p));
  }
  return points;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string label;
  double min_cell_ms = 300.0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--label") && i + 1 < argc) {
      label = argv[++i];
    } else if (!std::strcmp(argv[i], "--min-cell-ms") && i + 1 < argc) {
      min_cell_ms = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_report [--out FILE] [--label TEXT] "
                   "[--min-cell-ms N]\n");
      return 2;
    }
  }

  const double min_wall_s = min_cell_ms / 1000.0;
  std::vector<Cell> grid;
  for (int nprocs : {16, 64}) {
    for (std::uint64_t mib : {1ull, 4ull}) {
      for (coll::OverlapMode mode : kModes) {
        Cell c = time_cell(nprocs, mib << 20, mode, min_wall_s);
        std::fprintf(stderr, "grid p=%-3d %lluMiB/proc %-13s %4d reps  %7.2f runs/s\n",
                     c.nprocs, static_cast<unsigned long long>(mib),
                     coll::to_string(c.mode), c.reps, c.runs_per_s);
        grid.push_back(c);
      }
    }
  }

  // Quick Table I sweep, serial, verify off — the headline wall-clock.
  xp::ExecOptions exec;
  exec.jobs = 1;
  const Clock::time_point t0 = Clock::now();
  const auto series = xp::run_overlap_sweep(xp::scaled(xp::ibex()),
                                            /*reps=*/1, /*seed=*/0xC0FFEE,
                                            /*quick=*/true, exec);
  const double sweep_s = seconds_since(t0);
  std::fprintf(stderr, "quick sweep: %zu series, %.2f s wall\n", series.size(),
               sweep_s);

  // Metadata-exchange host costs at 4096/8192 ranks. Every leg runs in its
  // own forked child (see run_metadata_leg) so each peak-RSS figure is the
  // cost of exactly one run.
  std::vector<MetadataPoint> metadata;
  for (int nprocs : {4096, 8192}) {
    MetadataPoint p;
    p.nprocs = nprocs;
    double leg[4] = {0, 0, 0, 0};
    if (run_metadata_leg(nprocs, leg)) {
      p.sparse_wall_s = leg[0];
      p.sparse_rss_mib_after = leg[1];
      p.meta_sim_ms = leg[2];
      p.aggregators = static_cast<int>(leg[3]);
    }
    // Delivered-bytes accounting: aggregators get all P blobs, every other
    // rank its own only.
    const wl::Spec workload = metadata_spec(nprocs).workload;
    std::uint64_t total_blob = 0, own_sum = 0;
    for (int r = 0; r < nprocs; ++r) {
      const std::uint64_t b = workload.view(r, nprocs).serialize().size();
      total_blob += b;
      own_sum += b;
    }
    const double agg = static_cast<double>(p.aggregators);
    p.sparse_delivered_mib =
        (agg * static_cast<double>(total_blob) +
         static_cast<double>(own_sum) * (nprocs - agg) /
             static_cast<double>(nprocs) * 1.0) /
        (1024.0 * 1024.0);
    metadata.push_back(p);
  }
  for (const MetadataPoint& p : metadata) {
    std::fprintf(stderr,
                 "metadata p=%-5d %6.2f s / %.1f MiB delivered   "
                 "meta %8.2f sim-ms\n",
                 p.nprocs, p.sparse_wall_s, p.sparse_delivered_mib,
                 p.meta_sim_ms);
  }

  // Paper-scale points (fiber conductor): the 576-process Tile-I/O cell of
  // Fig. 1 and an 8192-rank IOR smoke run, each a single measured run.
  std::vector<ScalePoint> scale;
  scale.push_back(time_scale_point("tile1m", wl::make_tile1m(1, 1), 576,
                                   coll::OverlapMode::WriteComm2));
  scale.push_back(time_scale_point("ior64k", wl::make_ior(64ull << 10), 8192,
                                   coll::OverlapMode::None));
  for (const ScalePoint& p : scale) {
    std::fprintf(stderr,
                 "scale p=%-5d %-7s %6.2f s wall  %8.2f sim-ms  peak RSS %.0f "
                 "MiB\n",
                 p.nprocs, p.workload, p.wall_s, p.sim_ms,
                 p.peak_rss_mib_after);
  }

  const ContentionPoint cont = time_contention(min_wall_s);
  std::fprintf(stderr,
               "contention t=%d p=%d %4d reps  %7.2f runs/s  t0 %.2f sim-ms\n",
               cont.tenants, cont.nprocs, cont.reps, cont.runs_per_s,
               cont.t0_sim_ms);

  const SubfilingPoint sub = time_subfiling(min_wall_s);
  std::fprintf(stderr,
               "subfiling p=%d shared %7.2f runs/s (%.2f sim-ms)   k=%d "
               "%7.2f runs/s (%.2f sim-ms)\n",
               sub.nprocs, sub.shared_runs_per_s, sub.shared_sim_ms,
               sub.sub_comms, sub.split_runs_per_s, sub.split_sim_ms);

  const std::vector<IntranodePoint> intra = time_intranode();
  for (const IntranodePoint& p : intra) {
    std::fprintf(stderr, "intranode crill ppn=16 %-4s winner: co=%d "
                 "(gather chain), co=%d (makespan)\n",
                 p.size_label, p.winner_by_gather, p.winner_by_makespan);
  }

  std::string j;
  j += "{\n";
  j += "  \"schema\": \"tpio-bench-perf-1\",\n";
  j += "  \"label\": \"" + json_escape(label) + "\",\n";
  j += "  \"grid\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Cell& c = grid[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"workload\": \"ior\", \"nprocs\": %d, "
                  "\"block_bytes\": %llu, \"overlap\": \"%s\", \"reps\": %d, "
                  "\"wall_s\": %.4f, \"runs_per_s\": %.3f, "
                  "\"sim_bytes_per_s\": %.0f}%s\n",
                  c.nprocs, static_cast<unsigned long long>(c.block_bytes),
                  coll::to_string(c.mode), c.reps, c.wall_s, c.runs_per_s,
                  c.sim_bytes_per_s, i + 1 < grid.size() ? "," : "");
    j += buf;
  }
  j += "  ],\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"quick_sweep\": {\"platform\": \"ibex\", \"reps\": 1, "
                "\"jobs\": 1, \"verify\": false, \"series\": %zu, "
                "\"wall_s\": %.3f},\n",
                series.size(), sweep_s);
  j += buf;
  j += "  \"scale\": [\n";
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const ScalePoint& p = scale[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"workload\": \"%s\", \"nprocs\": %d, "
                  "\"wall_s\": %.3f, \"sim_ms\": %.3f, "
                  "\"peak_rss_mib_after\": %.1f}%s\n",
                  p.workload, p.nprocs, p.wall_s, p.sim_ms,
                  p.peak_rss_mib_after, i + 1 < scale.size() ? "," : "");
    j += buf;
  }
  j += "  ],\n";
  j += "  \"metadata\": [\n";
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    const MetadataPoint& p = metadata[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"workload\": \"ior16k\", \"nprocs\": %d, "
                  "\"aggregators\": %d, "
                  "\"sparse_wall_s\": %.3f, "
                  "\"sparse_peak_rss_mib\": %.1f, "
                  "\"sparse_delivered_mib\": %.2f, "
                  "\"meta_sim_ms\": %.3f}%s\n",
                  p.nprocs, p.aggregators, p.sparse_wall_s,
                  p.sparse_rss_mib_after, p.sparse_delivered_mib,
                  p.meta_sim_ms,
                  i + 1 < metadata.size() ? "," : "");
    j += buf;
  }
  j += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"contention\": {\"tenants\": %d, \"workload\": \"ior\", "
                "\"nprocs\": %d, \"block_bytes\": %llu, \"qos\": \"fair\", "
                "\"reps\": %d, \"wall_s\": %.4f, \"runs_per_s\": %.3f, "
                "\"t0_sim_ms\": %.3f},\n",
                cont.tenants, cont.nprocs,
                static_cast<unsigned long long>(cont.block_bytes), cont.reps,
                cont.wall_s, cont.runs_per_s, cont.t0_sim_ms);
  j += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"subfiling\": {\"platform\": \"crill\", \"workload\": "
                "\"tile256\", \"nprocs\": %d, \"sub_comms\": %d, "
                "\"shared_reps\": %d, \"shared_runs_per_s\": %.3f, "
                "\"shared_sim_ms\": %.3f, \"split_reps\": %d, "
                "\"split_runs_per_s\": %.3f, \"split_sim_ms\": %.3f},\n",
                sub.nprocs, sub.sub_comms, sub.shared_reps,
                sub.shared_runs_per_s, sub.shared_sim_ms, sub.split_reps,
                sub.split_runs_per_s, sub.split_sim_ms);
  j += buf;
  j += "  \"intranode\": [\n";
  for (std::size_t i = 0; i < intra.size(); ++i) {
    const IntranodePoint& p = intra[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"platform\": \"crill\", \"ppn\": 16, \"workload\": "
                  "\"ior\", \"block_bytes\": %llu, \"size\": \"%s\", "
                  "\"winner_by_gather_co\": %d, \"winner_by_makespan_co\": "
                  "%d, \"cells\": [",
                  static_cast<unsigned long long>(p.block_bytes),
                  p.size_label, p.winner_by_gather, p.winner_by_makespan);
    j += buf;
    for (std::size_t k = 0; k < p.cos.size(); ++k) {
      std::snprintf(buf, sizeof(buf),
                    "{\"co\": %d, \"sim_ms\": %.3f, \"gather_crit_ms\": "
                    "%.3f, \"pipelined_overlap\": %.3f}%s",
                    p.cos[k], p.sim_ms[k], p.gather_ms[k], p.overlap[k],
                    k + 1 < p.cos.size() ? ", " : "");
      j += buf;
    }
    j += std::string("]}") + (i + 1 < intra.size() ? "," : "") + "\n";
  }
  j += "  ]\n";
  j += "}\n";

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(j.c_str(), f);
    std::fclose(f);
  }
  std::fputs(j.c_str(), stdout);
  return 0;
}
