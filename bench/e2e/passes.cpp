#include "passes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "core/engine.hpp"
#include "core/plan_cache.hpp"
#include "core/read_engine.hpp"
#include "harness/sweep.hpp"
#include "net/topology.hpp"
#include "sched/conductor.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/rng.hpp"

namespace tpio::bench {

namespace {

constexpr coll::OverlapMode kModes[] = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over the bytes of every field fed to it.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u(std::uint64_t v) { bytes(&v, sizeof v); }
  void d(double v) { bytes(&v, sizeof v); }
  void s(const std::string& v) {
    u(v.size());
    bytes(v.data(), v.size());
  }
  void timings(const coll::PhaseTimings& t) {
    for (sim::Duration x : {t.meta, t.pack, t.gather, t.forward, t.shuffle,
                            t.sync, t.write, t.backoff, t.total}) {
      u(static_cast<std::uint64_t>(x));
    }
  }
  void autotune(const coll::AutoDecision& a) {
    u(a.engaged);
    u(static_cast<std::uint64_t>(a.chosen));
    u(a.from_cache);
    u(static_cast<std::uint64_t>(a.probe_cycles));
    d(a.comm_share);
    d(a.aio_ratio);
  }
  void faults(const coll::FaultStats& f) {
    u(static_cast<std::uint64_t>(f.retries));
    u(static_cast<std::uint64_t>(f.giveups));
    u(static_cast<std::uint64_t>(f.degraded_cycles));
  }
  void qos(const pfs::QosStats& q) {
    u(q.requests);
    u(static_cast<std::uint64_t>(q.busy));
    u(static_cast<std::uint64_t>(q.cross_wait));
    u(static_cast<std::uint64_t>(q.peak_active));
  }

  void result(const xp::RunResult& r) {
    u(static_cast<std::uint64_t>(r.arrival));
    u(static_cast<std::uint64_t>(r.completion));
    u(static_cast<std::uint64_t>(r.makespan));
    timings(r.rank_sum);
    timings(r.agg_sum);
    timings(r.agg_max);
    u(static_cast<std::uint64_t>(r.aggregators));
    u(static_cast<std::uint64_t>(r.cycles));
    u(r.bytes);
    u(r.inter_node_bytes);
    u(r.inter_node_messages);
    u(r.intra_node_bytes);
    d(r.pipelined_overlap);
    u(static_cast<std::uint64_t>(r.gather_critical));
    autotune(r.autotune);
    faults(r.faults);
    s(r.io_error);
    s(r.verify_error);
    u(r.subfiles.size());
    for (const xp::SubfileResult& f : r.subfiles) {
      u(static_cast<std::uint64_t>(f.group));
      u(static_cast<std::uint64_t>(f.ranks));
      u(static_cast<std::uint64_t>(f.aggregators));
      u(f.bytes);
      u(static_cast<std::uint64_t>(f.completion));
      qos(f.qos);
    }
  }

  void result(const coll::Result& r) {
    timings(r.timings);
    u(static_cast<std::uint64_t>(r.aggregators));
    u(static_cast<std::uint64_t>(r.cycles));
    u(r.bytes_local);
    u(r.bytes_global);
    autotune(r.autotune);
    faults(r.faults);
    s(r.io_error);
    u(static_cast<std::uint64_t>(r.forward_lifetime));
    u(static_cast<std::uint64_t>(r.forward_blocked));
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

pfs::Integrity integrity_of(const Cell& c) {
  if (c.restart) return pfs::Integrity::Store;
  return c.spec.verify ? pfs::Integrity::Digest : pfs::Integrity::None;
}

/// The simulated cluster of one run, built from the public constructors
/// with the noise seeds and aio jitter xp::execute derives from the spec.
struct Cluster {
  Cluster(const xp::RunSpec& spec, pfs::Integrity integrity, Tracer* tr) {
    net::FabricParams fp = spec.platform.fabric;
    fp.noise_seed = sim::Rng::derive_seed(spec.seed, 0xFAB);
    pfs::PfsParams pp = spec.platform.pfs;
    pp.noise_seed = sim::Rng::derive_seed(spec.seed, 0x57C);
    if (pp.aio_penalty_sigma > 0.0) {
      sim::Rng rng(sim::Rng::derive_seed(spec.seed, 0xA10));
      const double jitter = std::exp(pp.aio_penalty_sigma * rng.next_normal());
      pp.aio_penalty *= std::max(1.0, jitter);
      pp.aio_penalty_sigma = 0.0;
    }
    {
      Tracer::Scope s(tr, "net.setup");
      topo = net::Topology::fit(spec.nprocs, spec.platform.procs_per_node);
      fabric.emplace(topo, fp);
    }
    if (spec.platform.targets_per_node > 0) {
      pp.num_targets = std::max(1, topo.nodes * spec.platform.targets_per_node);
    }
    {
      Tracer::Scope s(tr, "mpi.setup");
      machine.emplace(*fabric, spec.platform.mpi);
    }
    {
      Tracer::Scope s(tr, "pfs.setup");
      storage.emplace(pp, &*fabric);
      file = storage->create("run", integrity);
    }
  }

  net::Topology topo;
  std::optional<net::Fabric> fabric;
  std::optional<smpi::Machine> machine;
  std::optional<pfs::StorageSystem> storage;
  std::shared_ptr<pfs::File> file;
};

/// Outcome of one composed run.
struct Composed {
  sim::Time makespan = 0;       // of the write, as xp::execute reports it
  coll::PhaseTimings agg_max;   // critical aggregator of the write
  std::uint64_t actions = 0;
  std::uint64_t inter_msgs = 0, inter_bytes = 0, intra_bytes = 0;
  pfs::QosStats pfs;
  sim::Duration meta_sum = 0;  // the write's timings.meta, summed over ranks
  double read_s = 0.0;  // restart: host time after the write/read barrier
  std::uint64_t fingerprint = 0;
  std::string error;    // first failure; empty = ok
};

/// One cell composed from the public constructors as xp::execute composes
/// it; restart cells then read the file back and compare every rank.
Composed compose(const Cell& cell, Tracer* tr) {
  const xp::RunSpec& spec = cell.spec;
  const int P = spec.nprocs;
  const auto n = static_cast<std::size_t>(P);
  Cluster cl(spec, integrity_of(cell), tr);
  coll::Options eff = spec.options;
  eff.materialize = spec.verify;
  // The read-back: read-comm-2 on the (flat) read engine.
  coll::Options ropt;
  ropt.cb_size = spec.options.cb_size;
  ropt.overlap = coll::OverlapMode::WriteComm2;

  Composed out;
  std::vector<coll::Result> wres(n), rres(cell.restart ? n : 0);
  std::vector<sim::Time> wend(n);
  int bad_rank = -1;
  std::optional<Clock::time_point> split;
  std::optional<sim::Conductor> conductor;
  {
    Tracer::Scope s(tr, "sched.setup");
    conductor.emplace(P);
  }
  {
    Tracer::Scope s(tr, "sched.run");
    conductor->run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(*cl.machine, ctx);
      const auto r = static_cast<std::size_t>(mpi.rank());
      coll::FileView view;
      {
        Tracer::Scope v(tr, "workloads.view");
        view = spec.workload.view(mpi.rank(), P);
      }
      sim::BufferPool::Buffer data =
          sim::BufferPool::local().acquire(view.total_bytes(), false);
      if (eff.materialize) {
        Tracer::Scope f(tr, "workloads.fill");
        wl::fill_into(view, data.span());
      }
      wres[r] = coll::collective_write(mpi, *cl.file, view, data.span(), eff);
      wend[r] = ctx.now();
      if (!cell.restart) return;
      // Every rank's write has returned once the barrier releases, so all
      // host time after the first release belongs to the read-back.
      mpi.barrier();
      if (!split) split = Clock::now();
      sim::BufferPool::Buffer back =
          sim::BufferPool::local().acquire(view.total_bytes(), false);
      rres[r] = coll::collective_read(mpi, *cl.file, view, back.span(), ropt);
      Tracer::Scope c(tr, "pfs.compare");
      if (bad_rank < 0 && !std::equal(data.span().begin(), data.span().end(),
                                      back.span().begin())) {
        bad_rank = mpi.rank();
      }
    });
    if (split) {
      out.read_s =
          std::chrono::duration<double>(Clock::now() - *split).count();
    }
  }
  out.actions = conductor->actions();
  const sim::Time run_end = conductor->makespan();
  {
    Tracer::Scope s(tr, "sched.setup");
    conductor.reset();
  }

  out.makespan = *std::max_element(wend.begin(), wend.end());
  out.inter_msgs = cl.fabric->inter_node_messages();
  out.inter_bytes = cl.fabric->inter_node_bytes();
  out.intra_bytes = cl.fabric->intra_node_bytes();
  out.pfs = cl.storage->tenant_stats(0);
  for (const coll::Result& res : wres) {
    out.meta_sum += res.timings.meta;
    if (res.timings.write > 0 && res.timings.write > out.agg_max.write) {
      out.agg_max = res.timings;
    }
  }

  Fnv fp;
  fp.u(static_cast<std::uint64_t>(out.makespan));
  fp.u(static_cast<std::uint64_t>(run_end));
  fp.u(out.inter_msgs);
  fp.u(out.inter_bytes);
  fp.u(out.intra_bytes);
  fp.qos(out.pfs);
  for (const coll::Result& res : wres) fp.result(res);
  for (const coll::Result& res : rres) fp.result(res);
  out.fingerprint = fp.h;

  for (const auto* set : {&wres, &rres}) {
    for (const coll::Result& res : *set) {
      if (out.error.empty() && !res.io_error.empty()) out.error = res.io_error;
    }
  }
  if (spec.verify) {
    Tracer::Scope s(tr, "pfs.verify");
    std::string v = cl.file->verify(wl::expected_byte);
    if (v.empty() && cl.file->bytes_written() != wres[0].bytes_global) {
      v = "file holds " + std::to_string(cl.file->bytes_written()) + " of " +
          std::to_string(wres[0].bytes_global) + " expected bytes";
    }
    if (out.error.empty()) out.error = v;
  }
  if (out.error.empty() && bad_rank >= 0) {
    out.error = "rank " + std::to_string(bad_rank) + " read back other bytes";
  }
  return out;
}

/// The metadata phase of collective_write for one rank, rebuilt from the
/// public calls it makes (engine.cpp's facade), with host spans around the
/// calls that never suspend. Returns the virtual time it took, which must
/// equal the rank's Result::timings.meta of the real call.
sim::Duration meta_replica(smpi::Mpi& mpi, const xp::RunSpec& spec,
                           const coll::Options& eff, std::uint64_t stripe,
                           Tracer& tr) {
  const sim::Time start = mpi.ctx().now();
  const int P = spec.nprocs;
  coll::FileView view;
  coll::ViewSummary summary;
  {
    Tracer::Scope s(&tr, "workloads.view");
    view = spec.workload.view(mpi.rank(), P);
    summary = view.summarize();
  }
  // Scoped as in collective_write: P ranks holding P gathered blobs each
  // would cost O(P^2) host memory the real call never holds.
  std::vector<coll::ViewSummary> summaries;
  {
    const auto blobs = mpi.allgather(std::as_bytes(std::span(&summary, 1)));
    summaries.resize(blobs.size());
    for (std::size_t r = 0; r < blobs.size(); ++r) {
      std::memcpy(&summaries[r], blobs[r].data(), sizeof(coll::ViewSummary));
    }
  }
  const net::Topology& topo = mpi.machine().fabric().topology();
  std::shared_ptr<const coll::PlanSkeleton> skel;
  {
    Tracer::Scope s(&tr, "core.plan");
    skel = coll::PlanCache::get_or_build_skeleton(summaries, topo, stripe, eff);
  }
  const int me = mpi.rank();
  int want_b = 0, want_e = 0;
  if (skel->is_aggregator(me)) {
    want_e = P;
  } else if (eff.hierarchical && skel->is_leader(me)) {
    std::tie(want_b, want_e) =
        skel->lane_rank_range(topo.node_of(me), skel->lane_of(me));
  }
  std::vector<std::byte> blob;
  {
    Tracer::Scope s(&tr, "workloads.view");
    blob = view.serialize();
  }
  auto delivered = mpi.sparse_allgatherv(blob, want_b, want_e);
  blob = {};
  Tracer::Scope s(&tr, "core.plan");
  std::shared_ptr<const coll::Plan> plan;
  if (static_cast<int>(delivered.size()) == P) {
    std::vector<std::vector<std::byte>> all;
    all.reserve(delivered.size());
    for (auto& [r, b] : delivered) all.push_back(std::move(b));
    plan = coll::PlanCache::get_or_build(all, topo, stripe, eff);
  } else {
    std::vector<std::pair<int, coll::FileView>> held;
    held.reserve(delivered.size());
    for (auto& [r, b] : delivered) {
      held.emplace_back(r, coll::FileView::deserialize(b));
    }
    plan = std::make_shared<const coll::Plan>(skel, std::move(held));
  }
  return mpi.ctx().now() - start;
}

}  // namespace

// ---- workloads ---------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table1_quick", "paper576_ibex", "scale8192", "restart_verified"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = name;
  w.seed = seed;
  auto base_spec = [](xp::Platform plat, wl::Spec workload, int procs,
                      std::uint64_t cb, coll::OverlapMode mode) {
    xp::RunSpec spec;
    spec.platform = std::move(plat);
    spec.workload = workload;
    spec.nprocs = procs;
    spec.options.cb_size = cb;
    spec.options.overlap = mode;
    return spec;
  };
  if (name == "table1_quick") {
    // The jobs of xp::run_overlap_sweep(ibex, reps 1, seed, quick), with
    // the seeds it derives per (series, scheduler) and per repetition. The
    // sweep API offers no smaller grid, so the smoke keeps it whole.
    w.entry = Entry::Sweep;
    const xp::Platform plat = xp::scaled(xp::ibex());
    std::uint64_t series = 0;
    for (const xp::SweepCase& c : xp::paper_workloads()) {
      for (const int procs : xp::paper_proc_counts(/*quick=*/true)) {
        for (const coll::OverlapMode mode : kModes) {
          Cell cell;
          cell.spec = base_spec(plat, c.workload, procs, xp::kCbSize, mode);
          const std::uint64_t job_seed = sim::Rng::derive_seed(
              seed, series * 16 + static_cast<std::uint64_t>(mode));
          cell.spec.seed = sim::Rng::derive_seed(job_seed, 0);
          w.cells.push_back(std::move(cell));
        }
        ++series;
      }
    }
  } else if (name == "paper576_ibex") {
    w.entry = Entry::Execute;
    for (const coll::OverlapMode mode : kModes) {
      if (smoke && mode != coll::OverlapMode::WriteComm2) continue;
      Cell cell;
      cell.spec = base_spec(xp::bench_platform(xp::ibex(), true),
                            wl::make_tile1m(1, 2), 576,
                            xp::bench_cb_size(true), mode);
      cell.spec.seed =
          sim::Rng::derive_seed(seed, static_cast<std::uint64_t>(mode));
      w.cells.push_back(std::move(cell));
    }
  } else if (name == "scale8192") {
    w.entry = Entry::Execute;
    Cell cell;
    cell.spec = base_spec(xp::scaled(xp::ibex()), wl::make_ior(64ull << 10),
                          smoke ? 1024 : 8192, xp::kCbSize,
                          coll::OverlapMode::None);
    cell.spec.seed = sim::Rng::derive_seed(seed, 0);
    w.cells.push_back(std::move(cell));
  } else if (name == "restart_verified") {
    w.entry = Entry::Restart;
    std::vector<wl::Spec> cases = {wl::make_tile256(2, 2048),
                                   wl::make_flash(24, 4, 16 * 1024),
                                   wl::make_tile1m(1, 2)};
    if (smoke) cases.erase(cases.begin(), cases.begin() + 2);
    std::uint64_t idx = 0;
    for (const wl::Spec& workload : cases) {
      for (const bool hier : {false, true}) {
        Cell cell;
        cell.restart = true;
        cell.spec = base_spec(xp::scaled(xp::crill()), workload, 64,
                              xp::kCbSize, coll::OverlapMode::WriteComm2);
        cell.spec.verify = true;
        cell.spec.options.hierarchical = hier;
        cell.spec.options.local_aggregators = hier ? 4 : 1;
        cell.spec.seed = sim::Rng::derive_seed(seed, idx++);
        w.cells.push_back(std::move(cell));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

const Cell& largest_cell(const Workload& w) {
  return *std::max_element(
      w.cells.begin(), w.cells.end(), [](const Cell& a, const Cell& b) {
        return std::pair(a.spec.nprocs, a.spec.workload.bytes_per_proc()) <
               std::pair(b.spec.nprocs, b.spec.workload.bytes_per_proc());
      });
}

// ---- tracing and the child report ---------------------------------------------

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (!t_) return;
  idx_ = static_cast<int>(t_->spans_.size());
  Span s;
  s.name = name;
  s.parent = t_->open_.empty() ? -1 : t_->open_.back();
  s.cell = t_->cell;
  t_->spans_.push_back(s);
  t_->open_.push_back(idx_);
  t_->spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!t_) return;
  t_->spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  t_->open_.pop_back();
}

void Report::put(const std::string& key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %.17g\n", v);
  text_ += key + buf;
}

void Report::put(const std::string& key, const std::string& v) {
  std::string flat = v;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  text_ += key + " " + flat + "\n";
}

void Report::put_spans(const Tracer& t) {
  char buf[160];
  for (const Tracer::Span& s : t.spans()) {
    std::snprintf(buf, sizeof(buf), "span %s %lld %lld %d %d\n", s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent, s.cell);
    text_ += buf;
  }
}

// ---- passes -------------------------------------------------------------------

void setup_pass(const Cell& c, double seconds, Report& out) {
  const Clock::time_point start = Clock::now();
  std::vector<double> builds;
  do {
    const Clock::time_point t0 = Clock::now();
    Cluster cl(c.spec, integrity_of(c), nullptr);
    sim::Conductor conductor(c.spec.nprocs);
    std::vector<coll::FileView> views;
    views.reserve(static_cast<std::size_t>(c.spec.nprocs));
    for (int r = 0; r < c.spec.nprocs; ++r) {
      views.push_back(c.spec.workload.view(r, c.spec.nprocs));
    }
    builds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  } while (builds.size() < 5 ||
           (std::chrono::duration<double>(Clock::now() - start).count() <
                seconds &&
            builds.size() < 100000));
  const auto mid = builds.begin() + static_cast<std::ptrdiff_t>(builds.size() / 2);
  std::nth_element(builds.begin(), mid, builds.end());
  out.put("setup_s", *mid);
}

void e2e_pass(const Workload& w, Report& out) {
  coll::PlanCache::clear();
  sim::BufferPool::reset_stats();
  const coll::PlanCache::Stats plan0 = coll::PlanCache::stats();
  Tracer tr;
  Fnv fp;
  int runs = 0, failed = 0;
  std::string error;
  std::vector<double> ms;
  {
    Tracer::Scope pass(&tr, "pass");
    switch (w.entry) {
      case Entry::Sweep: {
        xp::ExecOptions exec;
        exec.jobs = 1;
        const auto table = xp::run_overlap_sweep(xp::ibex(), /*reps=*/1, w.seed,
                                                 /*quick=*/true, exec);
        for (const xp::OverlapSeries& s : table) {
          fp.s(s.platform);
          fp.u(static_cast<std::uint64_t>(s.kind));
          fp.s(s.size_label);
          fp.u(static_cast<std::uint64_t>(s.procs));
          for (const auto& [mode, v] : s.min_ms) {
            fp.u(static_cast<std::uint64_t>(mode));
            fp.d(v);
            ms.push_back(v);
            ++runs;
          }
        }
        break;
      }
      case Entry::Execute:
        for (const Cell& c : w.cells) {
          const xp::RunResult r = xp::execute(c.spec);
          fp.result(r);
          ms.push_back(sim::to_millis(r.makespan));
          ++runs;
          const std::string& e = r.verify_error.empty() ? r.io_error
                                                        : r.verify_error;
          if (!e.empty()) {
            ++failed;
            if (error.empty()) error = e;
          }
        }
        break;
      case Entry::Restart:
        for (const Cell& c : w.cells) {
          const Composed r = compose(c, nullptr);
          fp.u(r.fingerprint);
          ms.push_back(sim::to_millis(r.makespan));
          ++runs;
          if (!r.error.empty()) {
            ++failed;
            if (error.empty()) error = r.error;
          }
        }
        break;
    }
  }
  const coll::PlanCache::Stats plan1 = coll::PlanCache::stats();
  const sim::BufferPool::Stats pool = sim::BufferPool::stats();
  out.put_spans(tr);
  out.put("runs", runs);
  out.put("failed", failed);
  out.put("fingerprint", hex(fp.h));
  if (!error.empty()) out.put("error", error);
  out.put("plan_lookups", static_cast<double>(plan1.lookups - plan0.lookups));
  out.put("plan_hits", static_cast<double>(plan1.hits - plan0.hits));
  out.put("pool_acquires", static_cast<double>(pool.acquires));
  out.put("pool_fresh", static_cast<double>(pool.fresh));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out.put("ms." + std::to_string(i), ms[i]);
  }
}

void reference_pass(const Workload& w, Report& out) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    out.put("ms." + std::to_string(i),
            sim::to_millis(xp::execute(w.cells[i].spec).makespan));
  }
}

void spawn_pass(const Workload& w, Report& out) {
  Tracer tr;
  {
    Tracer::Scope pass(&tr, "pass");
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      tr.cell = static_cast<int>(i);
      sim::Conductor conductor(w.cells[i].spec.nprocs);
      Tracer::Scope run(&tr, "sched.run");
      conductor.run([](sim::RankCtx&) {});
    }
  }
  out.put_spans(tr);
}

void meta_pass(const Workload& w, Report& out) {
  coll::PlanCache::clear();
  Tracer tr;
  {
    Tracer::Scope pass(&tr, "pass");
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      tr.cell = static_cast<int>(i);
      const Cell& c = w.cells[i];
      Cluster cl(c.spec, integrity_of(c), nullptr);
      coll::Options eff = c.spec.options;
      eff.materialize = c.spec.verify;
      const std::uint64_t stripe = cl.file->stripe_size();
      sim::Conductor conductor(c.spec.nprocs);
      sim::Duration meta_sum = 0;
      {
        Tracer::Scope run(&tr, "sched.run");
        conductor.run([&](sim::RankCtx& ctx) {
          smpi::Mpi mpi(*cl.machine, ctx);
          meta_sum += meta_replica(mpi, c.spec, eff, stripe, tr);
        });
      }
      out.put("meta_ns." + std::to_string(i), static_cast<double>(meta_sum));
    }
  }
  out.put_spans(tr);
}

void composed_pass(const Workload& w, bool traced, Report& out) {
  coll::PlanCache::clear();
  Tracer tr;
  Tracer* spans = traced ? &tr : nullptr;
  std::uint64_t actions = 0, inter_msgs = 0, inter_bytes = 0, intra_bytes = 0;
  pfs::QosStats pfs;
  coll::PhaseTimings virt;
  double read_s = 0.0;
  int failed = 0;
  std::string error;
  std::vector<double> ms, meta_ns;
  {
    Tracer::Scope pass(&tr, "pass");
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      tr.cell = static_cast<int>(i);
      Tracer::Scope cell(spans, "cell");
      const Composed r = compose(w.cells[i], spans);
      ms.push_back(sim::to_millis(r.makespan));
      meta_ns.push_back(static_cast<double>(r.meta_sum));
      actions += r.actions;
      inter_msgs += r.inter_msgs;
      inter_bytes += r.inter_bytes;
      intra_bytes += r.intra_bytes;
      pfs += r.pfs;
      virt += r.agg_max;
      read_s += r.read_s;
      if (!r.error.empty()) {
        ++failed;
        if (error.empty()) error = r.error;
      }
    }
  }
  out.put_spans(tr);
  out.put("failed", failed);
  if (!error.empty()) out.put("error", error);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out.put("ms." + std::to_string(i), ms[i]);
  }
  if (!traced) return;
  for (std::size_t i = 0; i < meta_ns.size(); ++i) {
    out.put("meta_ns." + std::to_string(i), meta_ns[i]);
  }
  out.put("actions", static_cast<double>(actions));
  out.put("inter_node_msgs", static_cast<double>(inter_msgs));
  out.put("inter_node_bytes", static_cast<double>(inter_bytes));
  out.put("intra_node_bytes", static_cast<double>(intra_bytes));
  out.put("pfs_requests", static_cast<double>(pfs.requests));
  out.put("pfs_busy_ns", static_cast<double>(pfs.busy));
  out.put("read_s", read_s);
  out.put("virt_meta_ns", static_cast<double>(virt.meta));
  out.put("virt_shuffle_ns", static_cast<double>(virt.shuffle));
  out.put("virt_gather_ns", static_cast<double>(virt.gather));
  out.put("virt_forward_ns", static_cast<double>(virt.forward));
  out.put("virt_write_ns", static_cast<double>(virt.write));
}

}  // namespace tpio::bench
