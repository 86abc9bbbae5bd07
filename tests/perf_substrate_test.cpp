// Suite for the substrate performance layer: buffer pooling, copy
// coalescing, plan memoization and the timing-only fast path are host-side
// optimizations. The timing-only fast path must match a materialized run
// on every RunResult field, and the pooled, memoized runs must not depend
// on the executor's worker count, over a grid of specs chosen to hit every
// engine path (tiny-segment tile, flash, hierarchical, one-sided, Auto,
// fault injection). A timing-only run backs no payload buffer, and one
// whose Machine carries payloads backs every buffer smpi copies into. The
// golden suite (tests/golden/) pins the results themselves. Unit tests of
// BufferPool and PlanCache follow.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/plan_cache.hpp"
#include "harness/sweep.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/sanitizers.hpp"
#include "test_rig.hpp"

namespace coll = tpio::coll;
namespace net = tpio::net;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace smpi = tpio::smpi;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

using Contents = sim::BufferPool::Contents;

namespace {

/// Specs chosen to cover the distinct engine paths the optimizations
/// touch: single-extent IOR, many-tiny-segments tile, multi-extent flash,
/// hierarchical gather, one-sided puts, the Auto probe phase, and a
/// fault-injected run (retries + backoff).
std::vector<std::pair<std::string, xp::RunSpec>> diff_specs() {
  auto base = [](wl::Spec w, int P) {
    xp::RunSpec s;
    s.platform = xp::scaled(xp::ibex());
    s.workload = std::move(w);
    s.nprocs = P;
    s.options.cb_size = xp::kCbSize;
    s.seed = 11;
    return s;
  };
  std::vector<std::pair<std::string, xp::RunSpec>> out;
  {
    xp::RunSpec s = base(wl::make_ior(1u << 20), 16);
    s.options.overlap = coll::OverlapMode::WriteComm2;
    out.emplace_back("ior-wc2", s);
  }
  {
    xp::RunSpec s = base(wl::make_tile256(16, 64), 16);
    s.options.overlap = coll::OverlapMode::Comm;
    out.emplace_back("tile256-comm", s);
  }
  {
    xp::RunSpec s = base(wl::make_tile1m(1, 2), 16);
    s.options.overlap = coll::OverlapMode::Write;
    s.options.transfer = coll::Transfer::OneSidedFence;
    out.emplace_back("tile1m-write-1sided", s);
  }
  {
    xp::RunSpec s = base(wl::make_flash(4, 4, 1u << 15), 32);
    s.options.overlap = coll::OverlapMode::WriteComm;
    s.options.hierarchical = true;
    s.options.leader_policy = coll::LeaderPolicy::Spread;
    out.emplace_back("flash-hier", s);
  }
  {
    xp::RunSpec s = base(wl::make_ior(1u << 19), 16);
    s.options.overlap = coll::OverlapMode::Auto;
    out.emplace_back("ior-auto", s);
  }
  {
    xp::RunSpec s = base(wl::make_ior(1u << 18), 16);
    s.options.overlap = coll::OverlapMode::WriteComm2;
    s.options.max_retries = 8;
    s.platform.pfs.faults.write_fail_rate = 0.2;
    s.platform.pfs.faults.seed = 7;
    out.emplace_back("ior-faults", s);
  }
  return out;
}

// The timing-only fast path (verify=false => Options::materialize=false)
// must match a fully materialized run on every field except verification
// itself: fault verdicts are pure functions of offsets and the virtual
// clock never reads payload bytes. The materialized arm's digest doubles
// as the content check.
TEST(PerfDiff, TimingOnlyMatchesMaterializedRun) {
  for (const auto& [name, spec] : diff_specs()) {
    xp::RunSpec fast = spec;
    fast.verify = false;
    xp::RunSpec full = spec;
    full.verify = true;
    const xp::RunResult a = xp::execute(fast);
    const xp::RunResult b = xp::execute(full);
    EXPECT_EQ(xp::fingerprint(a), xp::fingerprint(b)) << name;
    EXPECT_EQ(b.verify_error, "") << name;
  }
}

// The executor's thread pool must not perturb results through the pooling
// layer: the conductors of concurrent runs check buffers out of and
// release them into their worker's thread-local pool, and every worker's
// exchanges memoize their plans in the one PlanCache.
// jobs=1 vs jobs=8 must agree on every fingerprint.
TEST(PerfDiff, ExecutorJobsInvariantWithPoolingAndPlanCache) {
  const auto specs = diff_specs();
  auto grid = [&](int jobs) {
    std::vector<std::string> fps(specs.size() * 2);
    std::vector<xp::SweepJob> work;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (int v = 0; v < 2; ++v) {
        xp::RunSpec s = specs[i].second;
        s.verify = v != 0;
        const std::size_t slot = i * 2 + static_cast<std::size_t>(v);
        work.push_back(xp::SweepJob{
            specs[i].first + (v ? "+verify" : ""), [&fps, slot, s]() {
              fps[slot] = xp::fingerprint(xp::execute(s));
              return 0.0;
            }});
      }
    }
    xp::ExecOptions exec;
    exec.jobs = jobs;
    xp::run_jobs(work, exec);
    return fps;
  };
  const std::vector<std::string> serial = grid(1);
  const std::vector<std::string> parallel = grid(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
  }
}

// A timing-only job (no verify) neither copies payload bytes in the engine
// nor carries them through its size-only Machine, so the rank data buffers
// and every buffer the engine stages are unread checkouts: none may come
// from a free list or the heap. Flat, hierarchical at
// co = 4 and with two sub-communicators, on a tile layout whose cycles
// carry multi-piece messages.
TEST(PerfDiff, TimingOnlyRunBacksNoPayload) {
  auto spec = [](int co, int k) {
    xp::RunSpec s;
    s.platform = xp::scaled(xp::ibex());
    s.workload = wl::make_tile256(2, 2048);
    s.nprocs = 20;
    s.options.cb_size = xp::kCbSize;
    s.options.overlap = coll::OverlapMode::WriteComm2;
    s.options.hierarchical = co > 0;
    s.options.local_aggregators = std::max(co, 1);
    s.options.sub_comm_count = k;
    s.seed = 5;
    return s;
  };
  const std::pair<const char*, xp::RunSpec> cells[] = {
      {"flat", spec(0, 1)},
      {"hier-co4", spec(4, 1)},
      {"sub-comms-2", spec(0, 2)}};
  for (const auto& [name, s] : cells) {
    sim::BufferPool::reset_stats();
    const xp::RunResult r = xp::execute(s);
    const sim::BufferPool::Stats st = sim::BufferPool::stats();
    EXPECT_GT(r.cycles, 1) << name;
    // Every rank's data buffer plus at least the aggregators' sub-buffers.
    EXPECT_GT(st.acquires, static_cast<std::uint64_t>(s.nprocs)) << name;
    EXPECT_EQ(st.hits + st.fresh, 0u) << name;
  }
}

// bench/e2e's replica passes write with materialize = false on a Machine
// that carries payloads: smpi copies every message into the aggregators'
// sub-buffers and staging, which must therefore be backed even though the
// engine copies nothing. A rule keyed on materialize alone faults here.
TEST(PerfDiff, PayloadMachineBacksTimingOnlyStaging) {
  for (const bool hier : {false, true}) {
    tpio::test::ClusterSpec cs;
    cs.nodes = 3;
    cs.ppn = 4;
    tpio::test::Cluster cluster(cs);
    auto file = cluster.storage().create("replica", pfs::Integrity::None);
    coll::Options o;
    o.cb_size = 8192;
    o.overlap = coll::OverlapMode::WriteComm2;
    o.hierarchical = hier;
    o.local_aggregators = hier ? 2 : 1;
    o.materialize = false;
    const wl::Spec w = wl::make_tile256(2, 64);
    const int P = cluster.nprocs();
    std::vector<coll::Result> res(static_cast<std::size_t>(P));
    cluster.run([&](smpi::Mpi& mpi) {
      const coll::FileView view = w.view(mpi.rank(), P);
      const std::vector<std::byte> data(view.total_bytes());
      res[static_cast<std::size_t>(mpi.rank())] =
          coll::collective_write(mpi, *file, view, data, o);
    });
    EXPECT_GT(res[0].cycles, 1) << "hier=" << hier;
    EXPECT_EQ(file->bytes_written(), res[0].bytes_global) << "hier=" << hier;
  }
}

// ---------------------------------------------------------------------------
// BufferPool unit tests
// ---------------------------------------------------------------------------

/// A touch of unbacked memory: SIGSEGV, or under a sanitizer its SEGV
/// report and a non-zero exit (as in Fiber.GuardPageStopsOverflow).
bool died_of_segv(int status) {
#if defined(TPIO_ASAN) || defined(TPIO_TSAN)
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) return true;
#endif
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV;
}

TEST(BufferPool, UnreadCheckoutCountsButIsNeverFresh) {
  sim::BufferPool::reset_stats();
  sim::BufferPool& pool = sim::BufferPool::local();
  sim::BufferPool::Buffer a = pool.acquire(5000, Contents::unread);
  sim::BufferPool::Buffer b = pool.acquire(300, Contents::unread);
  EXPECT_EQ(a.size(), 5000u);
  EXPECT_EQ(b.size(), 300u);
  EXPECT_NE(a.data(), nullptr);
  EXPECT_EQ(a.data(), b.data());  // one reservation, aliased
  const sim::BufferPool::Stats st = sim::BufferPool::stats();
  EXPECT_EQ(st.acquires, 2u);
  EXPECT_EQ(st.hits + st.fresh, 0u);
  a.reset();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(sim::BufferPool::stats().hits, 0u);  // nothing was parked
}

TEST(BufferPool, UnreadCheckoutsServeAnySizeOnAnyThread) {
  // Sweep workers ask concurrently, each for growing sizes: every request
  // gets a span of its size, and a span handed out before a larger
  // reservation replaced its own stays mapped (still faulting on touch).
  std::vector<std::thread> workers;
  std::vector<std::vector<sim::BufferPool::Buffer>> held(4);
  for (std::size_t t = 0; t < held.size(); ++t) {
    workers.emplace_back([&held, t] {
      for (std::size_t n = 1000 + t; n < (std::size_t{64} << 20); n *= 3) {
        held[t].push_back(
            sim::BufferPool::local().acquire(n, Contents::unread));
        EXPECT_EQ(held[t].back().size(), n);
        EXPECT_NE(held[t].back().data(), nullptr);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // mincore fails with ENOMEM on an address no mapping covers.
  unsigned char resident = 0;
  for (const auto& list : held) {
    for (const sim::BufferPool::Buffer& b : list) {
      EXPECT_EQ(::mincore(const_cast<std::byte*>(b.data()), 1, &resident), 0);
      EXPECT_EQ(resident & 1, 0) << "an unread span holds no memory";
    }
  }
}

TEST(BufferPool, TouchingAnUnreadCheckoutFaults) {
  EXPECT_EXIT(
      {
        sim::BufferPool::Buffer b =
            sim::BufferPool::local().acquire(4096, Contents::unread);
        *static_cast<volatile std::byte*>(b.data() + 100) = std::byte{1};
        std::_Exit(0);
      },
      died_of_segv, "");
}

TEST(BufferPool, RecyclesByClassAndTracksStats) {
  sim::BufferPool::reset_stats();
  auto& pool = sim::BufferPool::local();
  std::byte* first = nullptr;
  {
    sim::BufferPool::Buffer b = pool.acquire(1000, /*zeroed=*/false);
    ASSERT_EQ(b.size(), 1000u);
    first = b.data();
  }  // released to this thread's free list
  {
    // Same size class (1024) => same storage back, no fresh allocation.
    sim::BufferPool::Buffer b = pool.acquire(600, /*zeroed=*/false);
    EXPECT_EQ(b.data(), first);
    EXPECT_EQ(b.size(), 600u);
  }
  const sim::BufferPool::Stats st = sim::BufferPool::stats();
  EXPECT_EQ(st.acquires, 2u);
  // At least the second acquire is a free-list hit (the first may also hit
  // leftovers from earlier tests in the same process).
  EXPECT_GE(st.hits, 1u);
}

TEST(BufferPool, ZeroedAcquireScrubsRecycledStorage) {
  auto& pool = sim::BufferPool::local();
  {
    sim::BufferPool::Buffer b = pool.acquire(4096, /*zeroed=*/false);
    for (std::byte& x : b.span()) x = std::byte{0xAB};
  }
  sim::BufferPool::Buffer b = pool.acquire(4096, /*zeroed=*/true);
  for (std::byte x : b.span()) ASSERT_EQ(x, std::byte{0});
}

TEST(BufferPool, EmptyAndMovedHandlesAreInert) {
  sim::BufferPool::Buffer empty = sim::BufferPool::local().acquire(0, true);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.span().size(), 0u);
  sim::BufferPool::Buffer a = sim::BufferPool::local().acquire(64, false);
  std::byte* p = a.data();
  sim::BufferPool::Buffer b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented state
  b.reset();
  EXPECT_TRUE(b.empty());
}

TEST(BufferPool, DyingThreadFreesItsLists) {
  // A sweep worker's pool dies with its thread: what it parked goes back to
  // malloc, and a new thread's first checkout of the class is fresh.
  std::thread([] {
    { auto b = sim::BufferPool::local().acquire(1 << 16, false); }
    EXPECT_EQ(sim::BufferPool::local_retained_bytes(), std::size_t{1} << 16);
  }).join();
  sim::BufferPool::reset_stats();
  std::thread([] {
    EXPECT_EQ(sim::BufferPool::local_retained_bytes(), 0u);
    sim::BufferPool::Buffer b = sim::BufferPool::local().acquire(1 << 16, false);
    EXPECT_EQ(b.size(), std::size_t{1} << 16);
  }).join();
  const sim::BufferPool::Stats st = sim::BufferPool::stats();
  EXPECT_EQ(st.fresh, 1u) << "a new thread inherits no parked storage";
  EXPECT_EQ(st.hits, 0u);
}

#ifdef TPIO_ASAN
TEST(BufferPool, ParkedStorageIsPoisonedUnderAsan) {
  // Released storage stays allocated in the free list; ASan must still see
  // any touch of it as a use after reset, until acquire hands it out again.
  sim::BufferPool::Buffer b = sim::BufferPool::local().acquire(3000, false);
  std::byte* p = b.data();
  b.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 2999));
  sim::BufferPool::Buffer again = sim::BufferPool::local().acquire(3000, false);
  ASSERT_EQ(again.data(), p);  // same size class: the parked storage
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_FALSE(__asan_address_is_poisoned(p + 2999));
}
#endif

// ---------------------------------------------------------------------------
// PlanCache unit tests
// ---------------------------------------------------------------------------

std::vector<std::vector<std::byte>> blobs_for(const wl::Spec& w, int P) {
  std::vector<std::vector<std::byte>> blobs;
  blobs.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) blobs.push_back(w.view(r, P).serialize());
  return blobs;
}

TEST(PlanCache, HitsOnIdenticalKeyMissesOnDifferentKey) {
  coll::PlanCache::clear();
  const auto blobs = blobs_for(wl::make_ior(1u << 18), 8);
  const net::Topology topo = net::Topology::fit(8, 4);
  coll::Options opt;
  opt.cb_size = 1u << 20;
  const auto a = coll::PlanCache::get_or_build(blobs, topo, 1u << 17, opt);
  const auto b = coll::PlanCache::get_or_build(blobs, topo, 1u << 17, opt);
  EXPECT_EQ(a.get(), b.get());
  const auto c = coll::PlanCache::get_or_build(blobs, topo, 1u << 16, opt);
  EXPECT_NE(a.get(), c.get());
  coll::Options hier = opt;
  hier.hierarchical = true;
  const auto d = coll::PlanCache::get_or_build(blobs, topo, 1u << 17, hier);
  EXPECT_NE(a.get(), d.get());
  // One slot, no library of past geometries: a's key builds afresh.
  EXPECT_NE(coll::PlanCache::get_or_build(blobs, topo, 1u << 17, opt).get(),
            a.get());
}

TEST(PlanCache, MaterializeFlagDoesNotEnterTheKey) {
  coll::PlanCache::clear();
  const auto blobs = blobs_for(wl::make_ior(1u << 18), 8);
  const net::Topology topo = net::Topology::fit(8, 4);
  coll::Options opt;
  opt.cb_size = 1u << 20;
  opt.materialize = true;
  const auto a = coll::PlanCache::get_or_build(blobs, topo, 1u << 17, opt);
  opt.materialize = false;
  const auto b = coll::PlanCache::get_or_build(blobs, topo, 1u << 17, opt);
  EXPECT_EQ(a.get(), b.get());
}

TEST(PlanCache, ClearBuildsFreshAndKeepsLivePlansValid) {
  coll::PlanCache::clear();
  const auto blobs = blobs_for(wl::make_ior(1u << 18), 8);
  const net::Topology topo = net::Topology::fit(8, 4);
  coll::Options opt;
  opt.cb_size = 1u << 20;
  const auto cached = coll::PlanCache::get_or_build(blobs, topo, 1u << 17, opt);
  coll::PlanCache::clear();
  const auto fresh = coll::PlanCache::get_or_build(blobs, topo, 1u << 17, opt);
  EXPECT_NE(cached.get(), fresh.get());
  // The shared_ptr keeps evicted plans alive.
  EXPECT_GT(cached->num_aggregators(), 0);
}

TEST(PlanCache, ConcurrentLookupsShareOneConstruction) {
  coll::PlanCache::clear();
  const auto blobs = blobs_for(wl::make_tile256(8, 8), 16);
  const net::Topology topo = net::Topology::fit(16, 4);
  coll::Options opt;
  opt.cb_size = 1u << 20;
  std::vector<std::shared_ptr<const coll::Plan>> got(8);
  std::vector<std::thread> threads;
  threads.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      got[i] = coll::PlanCache::get_or_build(blobs, topo, 1u << 17, opt);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& p : got) EXPECT_EQ(p.get(), got[0].get());
  const coll::PlanCache::Stats st = coll::PlanCache::stats();
  EXPECT_GE(st.lookups, 8u);
  EXPECT_GE(st.hits, 7u);
}

TEST(BufferPool, PerThreadByteCapPinsPeakRetainedBytes) {
  // A long-lived thread (sweep worker, fiber-conductor host) releasing
  // more than its cap must free the excess, not grow local lists
  // unbounded. Run on a dedicated thread for a clean local pool.
  std::thread([] {
    const std::size_t kCap = 256 * 1024;
    const std::size_t prev = sim::BufferPool::set_local_cap_bytes(kCap);
    {
      // 16 x 64 KiB outstanding = 1 MiB, four times the cap.
      std::vector<sim::BufferPool::Buffer> bufs;
      for (int i = 0; i < 16; ++i) {
        bufs.push_back(sim::BufferPool::local().acquire(1 << 16, false));
      }
    }  // all released: retention must respect the cap
    EXPECT_LE(sim::BufferPool::local_retained_bytes(), kCap);
    EXPECT_EQ(sim::BufferPool::local_retained_bytes(), kCap);  // peak pinned
    sim::BufferPool::set_local_cap_bytes(prev);
    sim::BufferPool::trim_local();
  }).join();
}

TEST(BufferPool, TrimLocalFreesItsLists) {
  // trim_local is what the fiber conductor calls at run teardown: the next
  // run starts from an empty pool, and its first checkout of a class the
  // last run parked is fresh.
  std::thread([] {
    { auto b = sim::BufferPool::local().acquire(1 << 15, false); }
    EXPECT_GT(sim::BufferPool::local_retained_bytes(), 0u);
    sim::BufferPool::trim_local();
    EXPECT_EQ(sim::BufferPool::local_retained_bytes(), 0u);
    sim::BufferPool::reset_stats();
    { auto b = sim::BufferPool::local().acquire(1 << 15, false); }
    const sim::BufferPool::Stats st = sim::BufferPool::stats();
    EXPECT_EQ(st.fresh, 1u) << "trimmed storage must not be parked anywhere";
    EXPECT_EQ(st.hits, 0u);
    sim::BufferPool::trim_local();
  }).join();
}

}  // namespace
