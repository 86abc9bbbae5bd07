// Micro-benchmarks of the simulation substrate itself (google-benchmark):
// host-side throughput of the deterministic conductor (and the per-fiber
// cost of starting a run on new and on recycled stacks), the simulated MPI
// point-to-point path, collectives, RMA, the storage model (writes,
// Digest recording, verify), one metadata exchange's plan builds, and the
// shuffle's per-message piece query.
// These bound the wall-clock cost of the
// paper-reproduction sweeps and act as regression guards for the
// simulator's hot paths. The incast and RMA epochs run with payloads on
// and off (a timing-only job's size-only Machine), so the host cost of
// copying a message's bytes is the difference of the two rows.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "pfs/pfs.hpp"
#include "sched/conductor.hpp"
#include "sched/sync.hpp"
#include "workloads/workloads.hpp"

namespace coll = tpio::coll;
namespace sim = tpio::sim;
namespace net = tpio::net;
namespace smpi = tpio::smpi;
namespace pfs = tpio::pfs;
namespace wl = tpio::wl;

namespace {

net::FabricParams flat_fabric() {
  net::FabricParams p;
  p.inter_bw = 3e9;
  p.intra_bw = 8e9;
  p.inter_latency = 1800;
  p.intra_latency = 400;
  return p;
}

/// Baton handoff rate: two ranks alternating actions.
void BM_ConductorPingPongActions(benchmark::State& state) {
  const auto iters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Conductor c(2);
    c.run([&](sim::RankCtx& ctx) {
      for (int i = 0; i < iters; ++i) {
        ctx.advance(1);
        ctx.act([] {});
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * iters * 2);
}
BENCHMARK(BM_ConductorPingPongActions)->Arg(1000);

/// Event chain: rank i wakes rank i+1 — measures block/wake cost.
void BM_ConductorEventChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Conductor c(n);
    std::vector<sim::EventPtr> evs;
    for (int i = 0; i < n; ++i) evs.push_back(std::make_shared<sim::Event>());
    c.run([&](sim::RankCtx& ctx) {
      const int r = ctx.rank();
      if (r > 0) ctx.wait_event(*evs[static_cast<std::size_t>(r - 1)]);
      ctx.advance(5);
      ctx.act([&] { ctx.complete(*evs[static_cast<std::size_t>(r)], ctx.now()); });
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConductorEventChain)->Arg(64)->Arg(256);

/// Per-fiber host cost of a run: an empty program through two Conductor
/// runs per iteration. The first run's stack size alternates between two
/// values, so it unmaps the other size's parked stacks and its fibers map,
/// guard and fault in new ones; the second run's fibers reuse the first
/// run's stacks. The counters are host ns per rank of each.
void BM_ConductorSpawn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const char* old = std::getenv("TPIO_FIBER_STACK_KB");
  const std::string saved = old ? old : "";
  using Clock = std::chrono::steady_clock;
  Clock::duration first{}, recycled{};
  bool flip = false;
  for (auto _ : state) {
    ::setenv("TPIO_FIBER_STACK_KB", flip ? "256" : "260", 1);
    flip = !flip;
    sim::Conductor a(n), b(n);
    const auto t0 = Clock::now();
    a.run([](sim::RankCtx&) {});
    const auto t1 = Clock::now();
    b.run([](sim::RankCtx&) {});
    recycled += Clock::now() - t1;
    first += t1 - t0;
  }
  if (old) {
    ::setenv("TPIO_FIBER_STACK_KB", saved.c_str(), 1);
  } else {
    ::unsetenv("TPIO_FIBER_STACK_KB");
  }
  const auto per_rank = [&](Clock::duration d) {
    return benchmark::Counter(
        std::chrono::duration<double, std::nano>(d).count() / n,
        benchmark::Counter::kAvgIterations);
  };
  state.counters["first_ns_per_rank"] = per_rank(first);
  state.counters["recycled_ns_per_rank"] = per_rank(recycled);
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_ConductorSpawn)->ArgName("ranks")->Arg(64)->Arg(8192);

void BM_SyncPointRounds(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int rounds = 50;
  for (auto _ : state) {
    sim::Conductor c(n);
    sim::SyncPoint sp(n);
    c.run([&](sim::RankCtx& ctx) {
      for (int i = 0; i < rounds; ++i) {
        ctx.advance(static_cast<sim::Duration>(ctx.rank() % 7 + 1));
        sp.arrive(ctx);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * n);
}
BENCHMARK(BM_SyncPointRounds)->Arg(16)->Arg(64);

void BM_MpiEagerPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const int rounds = 50;
  for (auto _ : state) {
    net::Topology topo{2, 1};
    net::Fabric fabric(topo, flat_fabric());
    smpi::Machine machine(fabric, smpi::MpiParams{});
    sim::Conductor c(2);
    c.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(machine, ctx);
      std::vector<std::byte> buf(bytes);
      for (int i = 0; i < rounds; ++i) {
        if (mpi.rank() == 0) {
          mpi.send(1, i, buf);
          mpi.recv(1, i, buf);
        } else {
          mpi.recv(0, i, buf);
          mpi.send(0, i, buf);
        }
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * rounds * 2 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MpiEagerPingPong)->Arg(1024)->Arg(64 * 1024);

/// Arg 0: senders; arg 1: payloads (1) or message sizes only (0).
void BM_MpiIncast(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  const bool payloads = state.range(1) != 0;
  const std::size_t bytes = 64 * 1024;
  for (auto _ : state) {
    net::Topology topo{senders + 1, 1};
    net::Fabric fabric(topo, flat_fabric());
    smpi::Machine machine(fabric, smpi::MpiParams{}, payloads);
    sim::Conductor c(senders + 1);
    c.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(machine, ctx);
      std::vector<std::byte> buf(bytes);
      if (mpi.rank() == 0) {
        std::vector<std::vector<std::byte>> bufs(
            static_cast<std::size_t>(senders), std::vector<std::byte>(bytes));
        std::vector<smpi::Request> reqs;
        for (int s = 1; s <= senders; ++s) {
          reqs.push_back(mpi.irecv(s, 0, bufs[static_cast<std::size_t>(s - 1)]));
        }
        mpi.waitall(reqs);
      } else {
        mpi.send(0, 0, buf);
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * senders *
                          static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() * senders);
}
BENCHMARK(BM_MpiIncast)
    ->ArgNames({"senders", "payloads"})
    ->ArgsProduct({{16, 64}, {1, 0}});

/// Arg 0: ranks; arg 1: payloads (1) or message sizes only (0).
void BM_RmaFencePutEpochs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool payloads = state.range(1) != 0;
  const std::size_t bytes = 16 * 1024;
  const int epochs = 10;
  for (auto _ : state) {
    net::Topology topo{n, 1};
    net::Fabric fabric(topo, flat_fabric());
    smpi::Machine machine(fabric, smpi::MpiParams{}, payloads);
    sim::Conductor c(n);
    c.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(machine, ctx);
      auto win = mpi.win_allocate(
          mpi.rank() == 0 ? bytes * static_cast<std::size_t>(n) : 0);
      std::vector<std::byte> buf(bytes);
      for (int e = 0; e < epochs; ++e) {
        mpi.win_fence(*win);
        if (mpi.rank() != 0) {
          mpi.put(*win, 0, static_cast<std::size_t>(mpi.rank()) * bytes, buf);
        }
        mpi.win_fence(*win);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * epochs * (n - 1));
}
BENCHMARK(BM_RmaFencePutEpochs)
    ->ArgNames({"ranks", "payloads"})
    ->ArgsProduct({{16}, {1, 0}});

void BM_PfsStripedWrite(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pfs::PfsParams p;
    p.num_targets = 16;
    p.stripe_size = 128 * 1024;
    p.target_bw = 1e9;
    p.client_bw = 3e9;
    pfs::StorageSystem sys(p, nullptr);
    auto f = sys.create("bench", pfs::Integrity::None);
    sim::Conductor c(1);
    std::vector<std::byte> data(bytes);
    c.run([&](sim::RankCtx& ctx) { f->write_at(ctx, 0, 0, data); });
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PfsStripedWrite)->Arg(1 << 20)->Arg(8 << 20);

void BM_PfsDigestRecording(benchmark::State& state) {
  const std::size_t bytes = 1 << 20;
  for (auto _ : state) {
    pfs::PfsParams p;
    p.stripe_size = 128 * 1024;
    pfs::StorageSystem sys(p, nullptr);
    auto f = sys.create("bench", pfs::Integrity::Digest);
    sim::Conductor c(1);
    std::vector<std::byte> data(bytes);
    c.run([&](sim::RankCtx& ctx) { f->write_at(ctx, 0, 0, data); });
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PfsDigestRecording);

/// verify() of an 8 MiB file against the workload content, written once
/// before timing. Arg 0 = Store (memcmp per block), 1 = Digest (hash per
/// piece).
void BM_PfsVerify(benchmark::State& state) {
  const bool store = state.range(0) == 0;
  const std::size_t bytes = 8 << 20;
  pfs::PfsParams p;
  p.stripe_size = 1 << 20;
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("bench", store ? pfs::Integrity::Store
                                     : pfs::Integrity::Digest);
  std::vector<std::byte> data(bytes);
  wl::expected_byte(0, data);
  sim::Conductor c(1);
  c.run([&](sim::RankCtx& ctx) { f->write_at(ctx, 0, 0, data); });
  for (auto _ : state) {
    std::string err = f->verify(wl::expected_byte);
    benchmark::DoNotOptimize(err);
    if (!err.empty()) {
      state.SkipWithError(err.c_str());
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(store ? "store" : "digest");
}
BENCHMARK(BM_PfsVerify)->Arg(0)->Arg(1);

/// One metadata exchange's plan builds: the skeleton its ranks share, from
/// the table of every rank's ViewSummary, and its aggregators' Plan, that
/// skeleton plus every view of the table of serialized views. PlanCache
/// memoizes both per live table, so the cache is cleared each iteration to
/// make every lookup a build. Tile I/O 1M views (two extents per rank) on
/// 48-rank nodes; 576 ranks is the paper's Fig. 1 cell.
void BM_MetadataPlan(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  const net::Topology topo = net::Topology::fit(P, 48);
  const wl::Spec spec = wl::make_tile1m(1, 2);
  auto summaries = std::make_shared<smpi::Mpi::BlobTable>();
  auto views = std::make_shared<smpi::Mpi::BlobTable>();
  for (int r = 0; r < P; ++r) {
    const coll::FileView v = spec.view(r, P);
    const coll::ViewSummary s = v.summarize();
    const auto bytes = std::as_bytes(std::span(&s, 1));
    summaries->emplace_back(bytes.begin(), bytes.end());
    views->push_back(v.serialize());
  }
  coll::Options o;
  o.cb_size = 1 << 20;
  for (auto _ : state) {
    coll::PlanCache::clear();
    const auto skel =
        coll::PlanCache::get_or_build_skeleton(summaries, topo, 1 << 20, o);
    const auto plan = coll::PlanCache::get_or_build(views, skel);
    benchmark::DoNotOptimize(plan->num_cycles());
  }
  coll::PlanCache::clear();
  state.SetItemsProcessed(state.iterations() * P);
}
BENCHMARK(BM_MetadataPlan)->ArgName("ranks")->Arg(64)->Arg(576)->Arg(8192);

/// One piece query (Plan::segments_in) plus its count and byte total, the
/// shuffle's bookkeeping per message, over a rank view of `extents`
/// strided extents. The window covers the middle half of the view, so at
/// 2048 extents it holds about a thousand pieces; the query stays two
/// binary searches and O(1) reads of the view's prefix sums.
void BM_PlanPieces(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kStride = 4096, kLength = 3072;
  std::vector<coll::FileView> views(1);
  for (std::uint64_t i = 0; i < n; ++i) {
    views[0].extents.push_back(coll::Extent{i * kStride, kLength});
  }
  coll::Options o;
  o.cb_size = 1 << 20;
  const coll::Plan plan(views, net::Topology{1, 1}, 0, o);
  const std::uint64_t span = n * kStride;
  std::uint64_t k = 0;
  for (auto _ : state) {
    const std::uint64_t lo = span / 4 + (k++ % 64) * 16;
    const coll::SegmentRange pieces = plan.segments_in(0, lo, lo + span / 2);
    benchmark::DoNotOptimize(pieces.size());
    benchmark::DoNotOptimize(pieces.bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanPieces)->ArgName("extents")->Arg(1)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
