#include "harness/tenancy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "core/read_engine.hpp"
#include "net/topology.hpp"
#include "sched/conductor.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/error.hpp"
#include "simbase/rng.hpp"

namespace tpio::xp {

const char* to_string(ArrivalModel m) {
  switch (m) {
    case ArrivalModel::Fixed:
      return "fixed";
    case ArrivalModel::Poisson:
      return "poisson";
    case ArrivalModel::Trace:
      return "trace";
  }
  tpio::fail("unknown ArrivalModel");
}

std::vector<sim::Time> arrival_times(const ArrivalSpec& spec, int n,
                                     std::uint64_t seed) {
  TPIO_CHECK(n > 0, "arrival_times needs at least one tenant");
  TPIO_CHECK(spec.gap >= 0, "arrival gap must be >= 0");
  std::vector<sim::Time> at(static_cast<std::size_t>(n), 0);
  switch (spec.model) {
    case ArrivalModel::Fixed:
      for (int i = 0; i < n; ++i) {
        at[static_cast<std::size_t>(i)] = static_cast<sim::Time>(i) * spec.gap;
      }
      break;
    case ArrivalModel::Poisson: {
      // Exponential inter-arrival gaps on a private derived stream: the
      // schedule is a pure function of (seed, gap, n).
      sim::Rng rng(sim::Rng::derive_seed(seed, 0xA221));
      sim::Time t = 0;
      for (int i = 1; i < n; ++i) {
        const double u = rng.next_double();
        const double gap = -static_cast<double>(spec.gap) *
                           std::log(std::max(1.0 - u, 1e-12));
        t += std::max<sim::Duration>(0, static_cast<sim::Duration>(
                                            std::llround(gap)));
        at[static_cast<std::size_t>(i)] = t;
      }
      break;
    }
    case ArrivalModel::Trace:
      TPIO_CHECK(static_cast<int>(spec.trace.size()) == n,
                 "arrival trace size must match the tenant count");
      for (int i = 0; i < n; ++i) {
        TPIO_CHECK(spec.trace[static_cast<std::size_t>(i)] >= 0,
                   "arrival instants must be >= 0");
        at[static_cast<std::size_t>(i)] =
            spec.trace[static_cast<std::size_t>(i)];
      }
      break;
  }
  return at;
}

namespace {

/// Dense subfile-local address space of one sub-communicator: the sorted,
/// coalesced union of the members' extents, with prefix sums. A subgroup
/// of an interleaved decomposition (tile rows, FLASH variables) owns file
/// regions riddled with other groups' bytes; its subfile instead packs
/// the group's data gap-free in global-offset order — the layout real
/// subfiling stacks produce (data subfiles plus an index recovering the
/// logical placement). content() reads through that index.
struct SubfileMap {
  std::vector<std::uint64_t> start;  // global start per segment, sorted
  std::vector<std::uint64_t> len;    // segment length
  std::vector<std::uint64_t> cum;    // subfile offset of each segment

  bool active() const { return !start.empty(); }

  /// Global file offset -> subfile offset (must hit a segment).
  std::uint64_t to_local(std::uint64_t off) const {
    const auto it = std::upper_bound(start.begin(), start.end(), off);
    TPIO_CHECK(it != start.begin(), "offset below every subfile segment");
    const auto i = static_cast<std::size_t>(it - start.begin()) - 1;
    TPIO_CHECK(off < start[i] + len[i], "offset in a subfile gap");
    return cum[i] + (off - start[i]);
  }

  /// Expected content of subfile bytes [off, off + out.size()): the
  /// workload content at the global offsets they map back to, one run per
  /// segment crossed.
  void content(std::uint64_t off, std::span<std::byte> out) const {
    const auto it = std::upper_bound(cum.begin(), cum.end(), off);
    TPIO_CHECK(it != cum.begin(), "subfile offset below zero segment");
    auto i = static_cast<std::size_t>(it - cum.begin()) - 1;
    for (std::size_t done = 0; done < out.size(); ++i) {
      TPIO_CHECK(i < len.size() && off - cum[i] < len[i],
                 "subfile offset past the last byte");
      const std::uint64_t in = off - cum[i];
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(len[i] - in, out.size() - done));
      wl::expected_byte(start[i] + in, out.subspan(done, n));
      done += n;
      off += n;
    }
  }
};

/// Union of the subgroup's member views ([base, base + count) in tenant
/// ranks), coalesced into maximal contiguous segments.
SubfileMap build_subfile_map(const wl::Spec& workload, int nprocs, int base,
                             int count) {
  std::vector<coll::Extent> all;
  for (int r = base; r < base + count; ++r) {
    const coll::FileView v = workload.view(r, nprocs);
    all.insert(all.end(), v.extents.begin(), v.extents.end());
  }
  std::sort(all.begin(), all.end(),
            [](const coll::Extent& a, const coll::Extent& b) {
              return a.offset < b.offset;
            });
  SubfileMap m;
  std::uint64_t total = 0;
  for (const coll::Extent& e : all) {
    if (e.length == 0) continue;
    if (!m.start.empty() && e.offset == m.start.back() + m.len.back()) {
      m.len.back() += e.length;  // extends the open segment
    } else {
      TPIO_CHECK(m.start.empty() ||
                     e.offset > m.start.back() + m.len.back(),
                 "overlapping member extents in a subgroup view");
      m.start.push_back(e.offset);
      m.len.push_back(e.length);
      m.cum.push_back(total);
    }
    total += e.length;
  }
  return m;
}

/// Where `got`, the bytes of `view`'s extents in order, differs from the
/// workload content: the file range from the first to the last differing
/// byte, or empty. The expected bytes go to a pooled 64 KiB block (a fiber
/// stack has no room for one). Out of line, so that its locals stay out of
/// ReadBack::run's frame, which the whole read sits on.
[[gnu::noinline]] std::string differing_range(
    const coll::FileView& view, std::span<const std::byte> got) {
  constexpr std::uint64_t kBlock = 64 * 1024;
  sim::BufferPool::Buffer want = sim::BufferPool::local().acquire(
      kBlock, sim::BufferPool::Contents::overwritten);
  std::uint64_t lo = 0, hi = 0;
  const std::byte* at = got.data();
  for (const coll::Extent& e : view.extents) {
    for (std::uint64_t o = e.offset; o < e.offset + e.length; o += kBlock) {
      const auto n = static_cast<std::size_t>(
          std::min(kBlock, e.offset + e.length - o));
      wl::expected_byte(o, want.span().first(n));
      if (std::memcmp(at, want.data(), n) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
          if (at[i] == want.data()[i]) continue;
          if (hi == 0) lo = o + i;
          hi = o + i + 1;
        }
      }
      at += n;
    }
  }
  if (hi == 0) return {};
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
}

/// What the ranks of a restart (execute_restart) record after their write.
struct ReadBack {
  std::vector<coll::Result> reads;   // per rank
  std::vector<std::string> differs;  // per rank: differing_range
  sim::Time write_end = 0;           // the slowest rank's write return
  sim::Time release = 0;             // the barrier's release
  // The fabric's counters at the release: the write's traffic.
  std::uint64_t inter_bytes = 0, inter_messages = 0, intra_bytes = 0;

  explicit ReadBack(std::size_t nprocs) : reads(nprocs), differs(nprocs) {}

  /// One rank's read-back, once its collective_write has returned: release
  /// the written buffer, wait for every rank's write, read the view back
  /// into a zeroed buffer and compare. Out of line, so that the per-rank
  /// program's frame stays what a write needs.
  [[gnu::noinline]] void run(smpi::Mpi& mpi, pfs::File& file,
                             const coll::FileView& view,
                             sim::BufferPool::Buffer& written,
                             const coll::Options& opt) {
    write_end = std::max(write_end, mpi.ctx().now());
    written.reset();
    mpi.barrier();
    // The barrier moves no fabric bytes, and rank 0, the lowest id, takes
    // the baton at its release before any rank's read moves one.
    if (mpi.rank() == 0) {
      mpi.ctx().act([&] {
        const net::Fabric& f = mpi.machine().fabric();
        release = mpi.ctx().now();
        inter_bytes = f.inter_node_bytes();
        inter_messages = f.inter_node_messages();
        intra_bytes = f.intra_node_bytes();
      });
    }
    sim::BufferPool::Buffer back = sim::BufferPool::local().acquire(
        view.total_bytes(), sim::BufferPool::Contents::zeroed);
    const auto r = static_cast<std::size_t>(mpi.rank());
    reads[r] = coll::collective_read(mpi, file, view, back.span(), opt);
    differs[r] = differing_range(view, back.span());
  }
};

}  // namespace

std::vector<std::pair<int, int>> sub_comm_partition(int nprocs, int k) {
  TPIO_CHECK(nprocs > 0, "partition needs processes");
  TPIO_CHECK(k >= 1 && k <= nprocs,
             "sub_comm_count must be in [1, nprocs]");
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(k));
  const int quot = nprocs / k;
  const int rem = nprocs % k;
  int base = 0;
  for (int g = 0; g < k; ++g) {
    const int count = quot + (g < rem ? 1 : 0);
    out.emplace_back(base, count);
    base += count;
  }
  return out;
}

namespace {

/// execute_multi; with `restart`, its one tenant's write starts a restart
/// (execute_restart).
MultiRunResult run_tenants(const MultiRunSpec& spec, bool with_baselines,
                           ReadBack* restart) {
  const int nt = static_cast<int>(spec.tenants.size());
  TPIO_CHECK(nt > 0, "multi-run needs at least one tenant");
  TPIO_CHECK(spec.priorities.empty() ||
                 static_cast<int>(spec.priorities.size()) == nt,
             "priorities must be empty or one per tenant");
  const Platform& plat = spec.tenants[0].platform;
  for (const RunSpec& t : spec.tenants) {
    TPIO_CHECK(t.nprocs > 0, "run needs processes");
    TPIO_CHECK(t.platform.name == plat.name &&
                   t.platform.procs_per_node == plat.procs_per_node,
               "tenants must share one platform (they share the machine)");
  }

  // Tenant node blocks: tenant t owns global nodes
  // [offset_t, offset_t + nodes_t) of the shared machine.
  std::vector<net::Topology> topos;
  std::vector<int> offsets;
  int total_nodes = 0;
  topos.reserve(static_cast<std::size_t>(nt));
  offsets.reserve(static_cast<std::size_t>(nt));
  for (const RunSpec& t : spec.tenants) {
    topos.push_back(net::Topology::fit(t.nprocs, plat.procs_per_node));
    offsets.push_back(total_nodes);
    total_nodes += topos.back().nodes;
  }

  // Shared-system parameters: the fabric and storage noise streams and the
  // one aio-quality draw per run (see PfsParams::aio_penalty_sigma) all
  // derive from the multi-run seed; xp::execute passes the job's own seed.
  net::FabricParams fp = plat.fabric;
  fp.noise_seed = sim::Rng::derive_seed(spec.seed, 0xFAB);
  pfs::PfsParams pp = plat.pfs;
  pp.noise_seed = sim::Rng::derive_seed(spec.seed, 0x57C);
  if (pp.aio_penalty_sigma > 0.0) {
    sim::Rng rng(sim::Rng::derive_seed(spec.seed, 0xA10));
    const double jitter = std::exp(pp.aio_penalty_sigma * rng.next_normal());
    pp.aio_penalty *= std::max(1.0, jitter);
    pp.aio_penalty_sigma = 0.0;
  }
  pp.num_targets = storage_targets(plat, total_nodes);
  pp.qos = spec.qos;

  const net::Topology union_topo{total_nodes, plat.procs_per_node, 0};
  net::Fabric parent(union_topo, fp);
  pfs::StorageSystem storage(pp, &parent);

  const std::vector<sim::Time> arrivals =
      arrival_times(spec.arrival, nt, spec.seed);

  // Per-(tenant, subgroup) infrastructure over the shared substrate. Every
  // tenant splits into sub_comm_count contiguous sub-communicators; the
  // default of 1 makes the subgroup exactly the tenant.
  struct SubGroup {
    int tenant = 0;  // owning tenant
    int index = 0;   // sub-communicator index within the tenant
    int base = 0;    // first tenant-local rank
    int count = 0;   // ranks in the subgroup
  };
  std::vector<SubGroup> groups;          // flat, tenant-major
  std::vector<int> tenant_first_group;   // flat index of each tenant's g=0
  for (int t = 0; t < nt; ++t) {
    const RunSpec& ts = spec.tenants[static_cast<std::size_t>(t)];
    const int k = ts.options.sub_comm_count;
    TPIO_CHECK(k >= 1, "sub_comm_count must be resolved (>= 1) by the "
                       "harness before execution (0 = auto)");
    tenant_first_group.push_back(static_cast<int>(groups.size()));
    for (const auto& [base, count] : sub_comm_partition(ts.nprocs, k)) {
      groups.push_back(SubGroup{t, static_cast<int>(groups.size()) -
                                       tenant_first_group.back(),
                                base, count});
    }
  }
  const int ng = static_cast<int>(groups.size());

  std::vector<std::unique_ptr<net::Fabric>> views;
  std::vector<std::unique_ptr<smpi::Machine>> machines;
  std::vector<std::shared_ptr<pfs::File>> files;
  std::vector<SubfileMap> maps(static_cast<std::size_t>(ng));
  std::vector<coll::Options> eff;
  std::vector<std::vector<coll::Result>> results(
      static_cast<std::size_t>(nt));
  std::vector<int> group_sizes;
  for (int t = 0; t < nt; ++t) {
    const RunSpec& ts = spec.tenants[static_cast<std::size_t>(t)];
    coll::Options o = ts.options;
    o.materialize = ts.verify;
    eff.push_back(o);
    results[static_cast<std::size_t>(t)].resize(
        static_cast<std::size_t>(ts.nprocs));
  }
  for (int gi = 0; gi < ng; ++gi) {
    const SubGroup& g = groups[static_cast<std::size_t>(gi)];
    const int t = g.tenant;
    const RunSpec& ts = spec.tenants[static_cast<std::size_t>(t)];
    const net::Topology& tt = topos[static_cast<std::size_t>(t)];
    const int k = ts.options.sub_comm_count;
    // Rank-granular fabric view: the subgroup keeps its members' physical
    // node slots (it may start and end mid-node), placed at the tenant's
    // node block plus the subgroup's first node within the tenant.
    views.push_back(std::make_unique<net::Fabric>(
        parent, net::Topology::sub_view(tt, g.base, g.count),
        offsets[static_cast<std::size_t>(t)] + tt.node_of(g.base)));
    // A timing-only job's MPI carries message sizes, not bytes.
    const bool payloads = eff[static_cast<std::size_t>(t)].materialize;
    machines.push_back(
        std::make_unique<smpi::Machine>(*views.back(), plat.mpi, payloads));
    // Billing class: one dense id per (tenant, subgroup) — for all-k=1 runs
    // the flat index equals the tenant index, so QoS lanes, stats and
    // fault-oracle inputs are unchanged. Subfiles inherit their tenant's
    // priority (homogeneous sub-jobs of one tenant).
    pfs::TenantClass cls;
    cls.id = gi;
    cls.priority = spec.priorities.empty()
                       ? 0
                       : spec.priorities[static_cast<std::size_t>(t)];
    // A restart reads the bytes back, so its file keeps them.
    const pfs::Integrity integrity =
        restart != nullptr ? pfs::Integrity::Store
        : ts.verify        ? pfs::Integrity::Digest
                           : pfs::Integrity::None;
    // gio-style per-subfile striping: subfile g starts its stripe set at
    // target g * factor, so k * factor <= num_targets gives the subfiles
    // disjoint target subsets. All-zero striping inherits system defaults.
    pfs::FileStriping striping;
    striping.stripe_unit = ts.options.subfile_stripe_unit;
    striping.stripe_factor = ts.options.subfile_stripe_factor;
    if (striping.stripe_factor > 0) {
      striping.stripe_factor =
          std::min(striping.stripe_factor, storage.params().num_targets);
      striping.target_offset =
          (g.index * striping.stripe_factor) % storage.params().num_targets;
    }
    const std::string fname =
        k == 1 ? "tenant" + std::to_string(t)
               : "tenant" + std::to_string(t) + ".sub" +
                     std::to_string(g.index);
    files.push_back(storage.create(fname, integrity, cls,
                                   offsets[static_cast<std::size_t>(t)],
                                   striping));
    // Subfiles pack their group's data gap-free: an interleaved
    // decomposition leaves other groups' bytes between a subgroup's
    // extents, and the two-phase engine writes whole contiguous file
    // domains — so member offsets are rebased through the group's dense
    // map. The shared file (k == 1) keeps raw offsets, untouched.
    if (k > 1) {
      maps[static_cast<std::size_t>(gi)] =
          build_subfile_map(ts.workload, ts.nprocs, g.base, g.count);
    }
    group_sizes.push_back(g.count);
  }

  sim::Conductor conductor(group_sizes);
  std::vector<std::function<void(sim::RankCtx&)>> programs;
  programs.reserve(static_cast<std::size_t>(ng));
  for (int gi = 0; gi < ng; ++gi) {
    const SubGroup& g = groups[static_cast<std::size_t>(gi)];
    programs.push_back([&, gi, g](sim::RankCtx& ctx) {
      // The tenant's job enters the system at its arrival instant: every
      // reservation it makes starts no earlier. An arrival of 0 is a no-op.
      const RunSpec& ts = spec.tenants[static_cast<std::size_t>(g.tenant)];
      ctx.advance_to(arrivals[static_cast<std::size_t>(g.tenant)]);
      smpi::Mpi mpi(*machines[static_cast<std::size_t>(gi)], ctx);
      // The workload decomposition stays tenant-global: subgroup members
      // keep their tenant rank's extents (global file offsets), they just
      // plan and shuffle only among themselves.
      const int trank = g.base + mpi.rank();
      coll::FileView view = ts.workload.view(trank, ts.nprocs);
      const coll::Options& opt = eff[static_cast<std::size_t>(g.tenant)];
      // Filled in full when materialized; unbacked when nothing touches
      // the payload (coll::payload_touched).
      sim::BufferPool::Buffer data = sim::BufferPool::local().acquire(
          view.total_bytes(), coll::payload_touched(opt, mpi.machine())
                                  ? sim::BufferPool::Contents::overwritten
                                  : sim::BufferPool::Contents::unread);
      // Buffer content is the rank's *logical* data (global offsets);
      // compaction only relocates where it lands in the subfile, and a
      // monotonic map keeps the extent order, so the flattened buffer
      // layout is unchanged.
      if (opt.materialize) wl::fill_into(view, data.span());
      const SubfileMap& map = maps[static_cast<std::size_t>(gi)];
      if (map.active()) {
        for (coll::Extent& e : view.extents) e.offset = map.to_local(e.offset);
      }
      pfs::File& file = *files[static_cast<std::size_t>(gi)];
      results[static_cast<std::size_t>(g.tenant)]
             [static_cast<std::size_t>(trank)] =
                 coll::collective_write(mpi, file, view, data.span(), opt);
      if (restart != nullptr) restart->run(mpi, file, view, data, opt);
    });
  }
  conductor.run(programs);

  MultiRunResult out;
  out.makespan = conductor.makespan();
  out.tenants.resize(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    const RunSpec& ts = spec.tenants[static_cast<std::size_t>(t)];
    const int k = ts.options.sub_comm_count;
    const int first = tenant_first_group[static_cast<std::size_t>(t)];
    const auto& res = results[static_cast<std::size_t>(t)];
    TenantResult& tr = out.tenants[static_cast<std::size_t>(t)];
    RunResult& r = tr.run;
    r.arrival = arrivals[static_cast<std::size_t>(t)];
    for (int g = 0; g < k; ++g) {
      r.completion = std::max(r.completion, conductor.group_makespan(first + g));
    }
    r.makespan = r.completion - r.arrival;
    // Geometry/volume roll-up over the tenant's subgroups: independent
    // plans sum their aggregators and bytes; cycles report the deepest
    // subgroup pipeline. At k == 1 all of this is res[0]'s own numbers.
    for (int g = 0; g < k; ++g) {
      const SubGroup& sg = groups[static_cast<std::size_t>(first + g)];
      const coll::Result& head = res[static_cast<std::size_t>(sg.base)];
      r.aggregators += head.aggregators;
      r.cycles = std::max(r.cycles, head.cycles);
      r.bytes += head.bytes_global;
      const net::Fabric& v = *views[static_cast<std::size_t>(first + g)];
      r.inter_node_bytes += v.inter_node_bytes();
      r.inter_node_messages += v.inter_node_messages();
      r.intra_node_bytes += v.intra_node_bytes();
    }
    r.autotune = res[0].autotune;
    add_rank_results(r, res);
    for (int g = 0; g < k; ++g) {
      const SubGroup& sg = groups[static_cast<std::size_t>(first + g)];
      const pfs::File& f = *files[static_cast<std::size_t>(first + g)];
      const std::uint64_t want =
          res[static_cast<std::size_t>(sg.base)].bytes_global;
      if (ts.verify && r.verify_error.empty()) {
        // Subfiled content lives at compacted offsets; the group's map is
        // the subfile index that recovers the logical placement.
        const SubfileMap& map = maps[static_cast<std::size_t>(first + g)];
        r.verify_error =
            map.active()
                ? f.verify([&map](std::uint64_t o, std::span<std::byte> out) {
                    map.content(o, out);
                  })
                : f.verify(wl::expected_byte);
        if (!r.verify_error.empty() && k > 1) {
          r.verify_error = f.name() + ": " + r.verify_error;
        }
        if (r.verify_error.empty() && f.bytes_written() != want) {
          r.verify_error = "file holds " + std::to_string(f.bytes_written()) +
                           " of " + std::to_string(want) +
                           " expected bytes (I/O give-ups?)";
        }
      }
      tr.qos += storage.tenant_stats(first + g);
      if (k > 1) {
        SubfileResult sf;
        sf.group = g;
        sf.ranks = sg.count;
        sf.aggregators = res[static_cast<std::size_t>(sg.base)].aggregators;
        sf.bytes = want;
        sf.completion = conductor.group_makespan(first + g);
        sf.qos = storage.tenant_stats(first + g);
        r.subfiles.push_back(sf);
      }
    }
  }

  if (with_baselines) {
    for (int t = 0; t < nt; ++t) {
      RunSpec solo = spec.tenants[static_cast<std::size_t>(t)];
      solo.seed = spec.seed;
      const RunResult base = execute(solo);
      TenantResult& tr = out.tenants[static_cast<std::size_t>(t)];
      tr.slowdown = base.makespan > 0
                        ? static_cast<double>(tr.run.makespan) /
                              static_cast<double>(base.makespan)
                        : 0.0;
    }
  }
  return out;
}

}  // namespace

MultiRunResult execute_multi(const MultiRunSpec& spec, bool with_baselines) {
  return run_tenants(spec, with_baselines, nullptr);
}

RestartResult execute_restart(const RunSpec& spec) {
  if (const char* refusal = coll::read_refusal(spec.options)) {
    tpio::fail(std::string("cannot restart: ") + refusal);
  }
  TPIO_CHECK(spec.options.sub_comm_count == 1,
             "a restart needs options.sub_comm_count 1 (no N-to-M restart)");
  MultiRunSpec ms;
  ms.tenants = {spec};
  ms.tenants[0].verify = true;
  ms.seed = spec.seed;
  // run_tenants refuses nprocs < 1 before any rank runs.
  ReadBack back(static_cast<std::size_t>(std::max(spec.nprocs, 0)));
  MultiRunResult run = run_tenants(ms, /*with_baselines=*/false, &back);
  RestartResult out{std::move(run.tenants[0].run), {}};
  RunResult& w = out.write;
  RunResult& r = out.read;
  // Split the run at the barrier: the write keeps what came before it.
  r.arrival = back.release;
  r.completion = w.completion;
  r.makespan = r.completion - r.arrival;
  w.completion = back.write_end;
  w.makespan = w.completion - w.arrival;
  r.inter_node_bytes = w.inter_node_bytes - back.inter_bytes;
  r.inter_node_messages = w.inter_node_messages - back.inter_messages;
  r.intra_node_bytes = w.intra_node_bytes - back.intra_bytes;
  w.inter_node_bytes = back.inter_bytes;
  w.inter_node_messages = back.inter_messages;
  w.intra_node_bytes = back.intra_bytes;
  add_rank_results(r, back.reads);
  r.aggregators = back.reads[0].aggregators;
  r.cycles = back.reads[0].cycles;
  r.bytes = back.reads[0].bytes_global;
  for (std::size_t i = 0; i < back.differs.size(); ++i) {
    if (back.differs[i].empty()) continue;
    r.verify_error = "rank " + std::to_string(i) +
                     " read back other bytes in " + back.differs[i];
    break;
  }
  return out;
}

MultiRunSpec contended(const RunSpec& measured,
                       const ContentionConfig& tenancy) {
  TPIO_CHECK(tenancy.neighbors >= 0, "neighbor count must be >= 0");
  MultiRunSpec ms;
  ms.tenants.assign(static_cast<std::size_t>(tenancy.neighbors) + 1, measured);
  for (std::size_t t = 1; t < ms.tenants.size(); ++t) {
    ms.tenants[t].options.overlap = coll::OverlapMode::None;
  }
  ms.arrival = tenancy.arrival;
  ms.qos = tenancy.qos;
  if (tenancy.qos == pfs::QosPolicy::Priority) {
    ms.priorities.assign(ms.tenants.size(), 0);
    ms.priorities[0] = 1;
  }
  return ms;
}

}  // namespace tpio::xp
