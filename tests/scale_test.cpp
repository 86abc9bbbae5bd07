// Paper-scale stress suite for the cooperative rank scheduler: the 576-rank
// Tile-I/O point the paper actually measures and a 4096-rank smoke run,
// both with peak-RSS ceilings, the smoke also with a host-time one; a
// one-sided run at 4096 ranks; four memory checks of verified runs and
// restarts, each in a child process of its own; and a count of the fiber
// stack pages that 576-rank writes and a restart leave resident.
//
// Registered under the `scale` ctest label with a wall-clock budget (see
// tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "pfs/pfs.hpp"
#include "sched/conductor.hpp"
#include "sched/fiber.hpp"
#include "simbase/sanitizers.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;

namespace {

/// Peak-RSS ceilings. ctest runs each test in a process of its own, so a
/// ceiling bounds that test's runs. Sanitizer runtimes multiply resident
/// memory (shadow pages, fatter fiber stacks), so sanitized builds keep
/// only a hang-and-blowup guard.
#if defined(TPIO_ASAN) || defined(TPIO_TSAN)
constexpr double kTileCellRssMiB = 8192.0;
constexpr double kMetadataSmokeRssMiB = 8192.0;
constexpr double kStoreReadBackRssMiB = 8192.0;
constexpr double kSecondRunExtraRssMiB = 8192.0;
constexpr double kRestartRssMiB = 8192.0;
constexpr double kRepeatRunFaultShare = 8192.0;
constexpr double kOneSidedRssMiB = 8192.0;
#else
constexpr double kTileCellRssMiB = 8.8;
constexpr double kMetadataSmokeRssMiB = 34.0;
constexpr double kStoreReadBackRssMiB = 192.0;
constexpr double kSecondRunExtraRssMiB = 40.0;
constexpr double kRestartRssMiB = 336.0;
constexpr double kRepeatRunFaultShare = 0.25;
constexpr double kOneSidedRssMiB = 34.0;
#endif

double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Runs `body` in a child process and returns the child's peak RSS in MiB,
/// so the measurement covers that body alone, whatever ran before it in
/// this process. The child exits 0 when `body` returns true; anything
/// else, a throw included, fails the calling test.
double child_peak_rss_mib(const std::function<bool()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    bool ok = false;
    try {
      ok = body();
    } catch (...) {
    }
    std::_Exit(ok ? 0 : 1);
  }
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    return 0.0;
  }
  int status = 0;
  struct rusage ru {};
  EXPECT_EQ(::wait4(pid, &status, 0, &ru), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child failed, status " << status;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Minor page faults of this process so far.
long minor_faults() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// A verified IOR write of `bytes_per_rank` per rank at `nprocs` ranks.
xp::RunSpec verified_ior(std::uint64_t bytes_per_rank, int nprocs) {
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(bytes_per_rank);
  spec.nprocs = nprocs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::WriteComm2;
  spec.verify = true;
  spec.seed = 16;
  return spec;
}

/// Runs verified_ior(bytes_per_rank, nprocs); true when the file verifies.
bool verified_ior_run(std::uint64_t bytes_per_rank, int nprocs = 16) {
  const xp::RunResult r = xp::execute(verified_ior(bytes_per_rank, nprocs));
  return r.verify_error.empty() && r.io_error.empty() &&
         r.bytes == static_cast<std::uint64_t>(nprocs) * bytes_per_rank;
}

/// The fiber stacks parked in the process-wide stack pool
/// (src/sched/fiber.cpp), found in /proc/self/maps: each is a read-write
/// mapping of Fiber::default_stack_bytes() right above its PROT_NONE
/// guard page. With `drop`, their pages are dropped (MADV_DONTNEED): the
/// pool keeps what a stack's last fiber touched. Returns the pages still
/// resident (mincore) and the stacks found.
std::pair<std::size_t, std::size_t> parked_stack_pages(bool drop) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t stack = sim::Fiber::default_stack_bytes();
  std::vector<unsigned char> in_core(stack / page);
  std::size_t pages = 0, stacks = 0;
  std::ifstream maps("/proc/self/maps");
  std::uintptr_t guard_end = 0;
  for (std::string line; std::getline(maps, line);) {
    std::uintptr_t lo = 0, hi = 0;
    char perms[5] = {};
    std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %4s", &lo, &hi, perms);
    auto* base = reinterpret_cast<void*>(lo);
    if (lo == guard_end && hi - lo == stack &&
        std::string_view(perms).starts_with("rw")) {
      ++stacks;
      if (drop) {
        EXPECT_EQ(::madvise(base, stack, MADV_DONTNEED), 0);
      }
      EXPECT_EQ(::mincore(base, stack, in_core.data()), 0);
      for (const unsigned char c : in_core) pages += c & 1u;
    }
    guard_end = std::string_view(perms) == "---p" && hi - lo == page ? hi : 0;
  }
  return {pages, stacks};
}

}  // namespace

TEST(Scale, StoreFileReadBackHoldsOneCopy) {
  // One rank writes 128 MiB to a Store file in blocking 4 MiB writes, then
  // reads it back 4 MiB at a time. Each write is durable before the next
  // is submitted, so the file is held once, as its chunks: the child peaks
  // at about 143 MiB. Applying a write's snapshot only at the first read
  // held the chunks and all 32 snapshots at once there: 267 MiB.
  constexpr std::uint64_t kFile = 128 * sim::MiB;
  constexpr std::size_t kBlock = 4 * sim::MiB;
  auto content = [](std::uint64_t off, std::vector<std::byte>& out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::byte>((off / kBlock) * 7 + i % 251);
    }
  };
  const double peak = child_peak_rss_mib([&] {
    pfs::StorageSystem sys(pfs::PfsParams{}, nullptr);
    auto file = sys.create("restart", pfs::Integrity::Store);
    bool same = true;
    sim::Conductor conductor(1);
    conductor.run([&](sim::RankCtx& ctx) {
      std::vector<std::byte> buf(kBlock), want(kBlock);
      for (std::uint64_t off = 0; off < kFile; off += kBlock) {
        content(off, buf);
        same = same && file->write_at(ctx, 0, off, buf) == pfs::IoStatus::Ok;
      }
      for (std::uint64_t off = 0; off < kFile; off += kBlock) {
        same = same && file->read_at(ctx, 0, off, buf) == pfs::IoStatus::Ok;
        content(off, want);
        same = same && buf == want;
      }
    });
    return same;
  });
  EXPECT_LT(peak, kStoreReadBackRssMiB)
      << "peak RSS writing and reading back a 128 MiB Store file (MiB)";
}

TEST(Scale, SecondVerifiedRunReusesTheFirstRunsMemory) {
  // A 4 MiB-per-rank verified run, then an 8 MiB-per-rank one: their rank
  // buffers fall in different size classes. Freed at the first run's
  // teardown, the first run's buffers are heap pages the second reuses,
  // so the pair peaks about 16 MiB above the second run alone (139 MiB).
  // Parked in a process-wide reservoir across runs, they added 64 MiB.
  const double second = child_peak_rss_mib([] {
    return verified_ior_run(8 * sim::MiB);
  });
  const double both = child_peak_rss_mib([] {
    return verified_ior_run(4 * sim::MiB) && verified_ior_run(8 * sim::MiB);
  });
  EXPECT_LT(both, second + kSecondRunExtraRssMiB)
      << "peak RSS of both runs (MiB), against " << second
      << " MiB for the second alone";
}

TEST(Scale, RestartHoldsOneBufferPerRank) {
  // A restart of 8 MiB per rank at 16 ranks. Each rank's written buffer
  // goes back to the pool when its write returns, so the read-back buffers
  // reuse it and the child peaks at about 272 MiB: the 128 MiB file and
  // 128 MiB of read-back buffers. Keeping the written buffers through the
  // read-back peaked at 404 MiB.
  const double peak = child_peak_rss_mib([] {
    const xp::RestartResult r =
        xp::execute_restart(verified_ior(8 * sim::MiB, 16));
    return r.write.verify_error.empty() && r.read.verify_error.empty() &&
           r.read.io_error.empty();
  });
  EXPECT_LT(peak, kRestartRssMiB) << "peak RSS of the restart (MiB)";
}

TEST(Scale, RepeatedRunFaultsItsLargeBuffersInOnce) {
  // The same verified run twice, 32 MiB per rank at 4 ranks: the rank
  // buffers are of the 32 MiB class, which glibc would map on their own.
  // Freed at the first run's teardown into a heap that maps no block on
  // its own, they are the second run's pages too: the second run faults
  // in about 1 page against about 33,900 for the first. With each 32 MiB
  // block mapped on its own, the second faulted in as many as the first.
  child_peak_rss_mib([] {
    const long before = minor_faults();
    if (!verified_ior_run(32 * sim::MiB, 4)) return false;
    const long first = minor_faults() - before;
    if (!verified_ior_run(32 * sim::MiB, 4)) return false;
    const long second = minor_faults() - before - first;
    const bool reused = static_cast<double>(second) <
                        kRepeatRunFaultShare * static_cast<double>(first);
    if (!reused) {
      std::fprintf(stderr, "minor faults: first run %ld, second run %ld\n",
                   first, second);
    }
    return reused;
  });
}

TEST(Scale, TileIoTableCellAt576Ranks) {
  // The paper's headline Tile-I/O geometry runs at 576 processes. One
  // quick cell: tile1m, write-comm-2 scheduler, scaled Ibex.
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_tile1m(1, 1);
  spec.nprocs = 576;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::WriteComm2;
  spec.seed = 576;
  const xp::RunResult r = xp::execute(spec);
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.bytes, 576ull * sim::MiB);
  EXPECT_GT(r.aggregators, 0);
  // And it must be a *measurement*, not a fluke: the same spec reruns to
  // the identical virtual schedule.
  EXPECT_EQ(xp::execute(spec).makespan, r.makespan);
  // The cell is timing-only, so its simulated MPI carries message sizes
  // and no bytes. It peaked at 246 MiB while smpi still copied every
  // payload and zero-filled every window, at about 17 MiB after that, at
  // about 15 MiB once stage 2 of the metadata exchange shared one view
  // table and fiber stacks were recycled, at about 11 MiB while each rank
  // still held a heap data buffer nothing read, at about 8.4 MiB once
  // timing-only payload buffers were unbacked, and at about 7.7 MiB since
  // empty smpi endpoint queues allocate nothing. The ceiling sits between
  // that and the 9.8-10.0 MiB of one more resident stack page per rank:
  // each rank's deepest call chain ends 280-287 bytes above a page
  // boundary, and an Engine 288 bytes larger (it lives in every rank's
  // collective_write frame) crosses it (DESIGN.md §5a). Heap-backed
  // timing-only payloads (12.4 MiB) fail it too.
  EXPECT_LT(peak_rss_mib(), kTileCellRssMiB)
      << "peak RSS after two 576-rank runs (MiB)";
}

TEST(Scale, MetadataExchangeSmokeAt4096Ranks) {
  // The two-stage metadata exchange at 4096 ranks must account a nonzero
  // metadata phase. The peak-RSS ceiling is what catches an O(P^2) host
  // regression: per-rank copies of the 32-byte
  // summary table alone come to 32 B x 4096^2 = 512 MiB here (this run
  // peaked at 578 MiB while every rank kept one), against 112 MiB with
  // the one shared table, about 51 MiB once its timing-only MPI carried
  // message sizes instead of bytes, about 48 MiB once its 16 aggregators
  // shared one stage-2 view table instead of copying 4096 blobs each,
  // about 47 MiB while each rank still held a 16 KiB heap data buffer
  // nothing read, about 31 MiB once timing-only payload buffers were
  // unbacked, and about 26 MiB since empty smpi endpoint queues allocate
  // nothing. The ceiling sits between that and the 42 MiB of this code
  // with heap-backed timing-only payloads restored. The wall-time ceiling
  // only guards against hangs. Host time at 8192 ranks is tracked by the
  // repository benchmark's scale8192 workload (bench/e2e, records in
  // BENCH_PERF.json).
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(16 * sim::KiB);
  spec.nprocs = 4096;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.seed = 4096;
  const auto t0 = std::chrono::steady_clock::now();
  const xp::RunResult r = xp::execute(spec);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(r.makespan, 0);
  EXPECT_GT(r.rank_sum.meta, 0);
  EXPECT_EQ(r.bytes, 4096ull * 16 * sim::KiB);
  EXPECT_LT(wall_s, 60.0);
  EXPECT_LT(peak_rss_mib(), kMetadataSmokeRssMiB)
      << "peak RSS after the 4096-rank run (MiB)";
}

TEST(Scale, OneSidedRunAt4096RanksHoldsLinearWindowState) {
  // A 64 KiB-per-rank IOR write at 4096 ranks through each one-sided
  // primitive; the write-comm-2 scheduler allocates two windows. Each
  // window used to fill a P x P table of per-origin put arrivals (128 MiB
  // here) and give every target a deque lock queue, which allocates
  // before it holds anything: both runs peaked at 286 MiB. With one epoch
  // maximum per window, per-origin entries for the targets an origin put
  // to, and vector queues, each peaks at about 25 MiB, as a two-sided run
  // does.
  for (const coll::Transfer transfer :
       {coll::Transfer::OneSidedFence, coll::Transfer::OneSidedLock}) {
    const double peak = child_peak_rss_mib([transfer] {
      xp::RunSpec spec;
      spec.platform = xp::scaled(xp::ibex());
      spec.workload = wl::make_ior(64 * sim::KiB);
      spec.nprocs = 4096;
      spec.options.cb_size = xp::kCbSize;
      spec.options.overlap = coll::OverlapMode::WriteComm2;
      spec.options.transfer = transfer;
      spec.seed = 4096;
      return xp::execute(spec).bytes == 4096ull * 64 * sim::KiB;
    });
    EXPECT_LT(peak, kOneSidedRssMiB)
        << "peak RSS of the 4096-rank " << coll::to_string(transfer)
        << " run (MiB)";
  }
}

TEST(Scale, RankStacksStayOnTheirFirstPage) {
  // The fiber-stack pages a run leaves resident: one per rank while its
  // deepest call chain (DESIGN.md §5a) stays on the stack's top page, two
  // once a frame on the write, Auto or restart read chain grows past the
  // few hundred bytes left there. The paper576_ibex cell under
  // write-comm-2 and under Auto, and a restart of a small IOR through two
  // lanes per node, left 579, 577 and 608 pages over their 576 stacks
  // before the read ran the write's walks, and 579, 577 and 606 after.
#if defined(TPIO_ASAN) || defined(TPIO_TSAN)
  GTEST_SKIP() << "sanitizer frames and stacks are several times larger";
#else
  xp::RunSpec write;  // the paper576_ibex cell
  write.platform = xp::ibex();
  write.workload = wl::make_tile1m(1, 2);
  write.nprocs = 576;
  write.options.cb_size = xp::kPaperCbSize;
  write.seed = 576;
  xp::RunSpec auto_write = write;
  auto_write.options.overlap = coll::OverlapMode::Auto;
  xp::RunSpec restart = write;
  restart.workload = wl::make_ior(16 * sim::KiB);
  restart.options.cb_size = xp::kCbSize;
  restart.options.hierarchical = true;
  restart.options.local_aggregators = 2;
  const struct {
    const char* what;
    const xp::RunSpec& spec;
    std::size_t ceiling;
  } cases[] = {{"write-comm-2 write", write, 579 + 8},
               {"auto write", auto_write, 577 + 8},
               {"restart", restart, 608 + 8}};
  for (const auto& c : cases) {
    parked_stack_pages(/*drop=*/true);  // count this run's pages alone
    if (&c.spec == &restart) {
      const xp::RestartResult r = xp::execute_restart(c.spec);
      EXPECT_EQ(r.read.verify_error, "");
      EXPECT_GT(r.read.rank_sum.gather, 0);
    } else {
      EXPECT_GT(xp::execute(c.spec).makespan, 0) << c.what;
    }
    const auto [pages, stacks] = parked_stack_pages(/*drop=*/false);
    EXPECT_GE(stacks, 576u) << c.what << ": parked stacks found";
    EXPECT_LE(pages, c.ceiling)
        << c.what << ": resident fiber-stack pages over " << stacks
        << " stacks";
  }
#endif
}
