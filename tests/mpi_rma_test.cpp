#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "simbase/error.hpp"

namespace smpi = tpio::smpi;
namespace net = tpio::net;
namespace sim = tpio::sim;

namespace {

/// What the Machine carries: put bytes (the default) or put sizes only, as
/// in a timing-only job.
enum class Mode { Payloads, SizeOnly };
constexpr Mode kModes[] = {Mode::Payloads, Mode::SizeOnly};

const char* name(Mode m) {
  return m == Mode::Payloads ? "payloads" : "size-only";
}

struct Rig {
  net::Topology topo;
  net::Fabric fabric;
  sim::Conductor conductor;
  smpi::Machine machine;

  explicit Rig(int nodes, int ppn = 1, smpi::MpiParams mp = {},
               Mode mode = Mode::Payloads)
      : topo{nodes, ppn},
        fabric(topo, fabric_params()),
        conductor(topo.nprocs()),
        machine(fabric, mp, mode == Mode::Payloads) {}

  static net::FabricParams fabric_params() {
    net::FabricParams p;
    p.inter_bw = 1e9;
    p.intra_bw = 4e9;
    p.inter_latency = 100;
    p.intra_latency = 10;
    return p;
  }

  /// Runs `prog` on every rank; returns each rank's clock when it returned.
  std::vector<sim::Time> run(const std::function<void(smpi::Mpi&)>& prog) {
    std::vector<sim::Time> finish(static_cast<std::size_t>(topo.nprocs()));
    conductor.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(machine, ctx);
      prog(mpi);
      finish[static_cast<std::size_t>(ctx.rank())] = ctx.now();
    });
    return finish;
  }
};

/// Runs `prog` on a fresh Rig(nodes) in each mode and returns the ranks'
/// finishing clocks. They must be the same in both: carrying sizes instead
/// of bytes changes what the host copies, never when anything completes.
std::vector<sim::Time> in_both_modes(
    int nodes, const std::function<void(smpi::Mpi&, Mode)>& prog) {
  std::vector<sim::Time> reference;
  for (const Mode mode : kModes) {
    SCOPED_TRACE(name(mode));
    Rig rig(nodes, 1, {}, mode);
    const auto finish = rig.run([&](smpi::Mpi& mpi) { prog(mpi, mode); });
    if (mode == Mode::Payloads) {
      reference = finish;
    } else {
      EXPECT_EQ(finish, reference) << "completion times differ between modes";
    }
  }
  return reference;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 17 + seed) & 0xFF);
  }
  return v;
}

/// Targets fill their window with this byte right after allocating it; a
/// size-only Machine never overwrites it.
constexpr std::byte kSentinel{0xA5};

void fill_sentinel(std::span<std::byte> mem) {
  std::fill(mem.begin(), mem.end(), kSentinel);
}

/// Expects window bytes [offset, offset + sent.size()) to hold what a put of
/// `sent` leaves there: its bytes with payloads, the sentinel without.
void expect_landed(std::span<const std::byte> mem, std::size_t offset,
                   const std::vector<std::byte>& sent, Mode mode) {
  ASSERT_LE(offset + sent.size(), mem.size());
  const auto got = mem.subspan(offset, sent.size());
  EXPECT_EQ(std::vector<std::byte>(got.begin(), got.end()),
            mode == Mode::Payloads
                ? sent
                : std::vector<std::byte>(sent.size(), kSentinel));
}

}  // namespace

TEST(MpiRma, WindowAllocationSizesPerRank) {
  Rig rig(4);
  rig.run([&](smpi::Mpi& mpi) {
    // Only rank 0 exposes memory (the aggregator pattern).
    auto win = mpi.win_allocate(mpi.rank() == 0 ? 4096 : 0);
    EXPECT_EQ(win->local_size(0), 4096u);
    EXPECT_EQ(win->local_size(1), 0u);
    EXPECT_EQ(win->local_size(3), 0u);
  });
}

TEST(MpiRma, FencePutFenceDeliversData) {
  in_both_modes(3, [](smpi::Mpi& mpi, Mode mode) {
    auto win = mpi.win_allocate(mpi.rank() == 0 ? 2048 : 0);
    fill_sentinel(win->local(mpi.rank()));
    mpi.win_fence(*win);
    if (mpi.rank() == 1) {
      mpi.put(*win, 0, 0, pattern(1024, 1));
    } else if (mpi.rank() == 2) {
      mpi.put(*win, 0, 1024, pattern(1024, 2));
    }
    mpi.win_fence(*win);
    if (mpi.rank() == 0) {
      expect_landed(win->local(0), 0, pattern(1024, 1), mode);
      expect_landed(win->local(0), 1024, pattern(1024, 2), mode);
    }
  });
}

TEST(MpiRma, FenceWaitsForPutArrival) {
  const std::vector<sim::Time> t_after =
      in_both_modes(2, [](smpi::Mpi& mpi, Mode) {
        auto win = mpi.win_allocate(mpi.rank() == 0 ? (1 << 20) : 0);
        mpi.win_fence(*win);
        if (mpi.rank() == 1) {
          mpi.put(*win, 0, 0, pattern(1 << 20, 3));  // ~1 ms on the wire
        }
        mpi.win_fence(*win);
      });
  // Both ranks release at/after the put's arrival (~1M ns).
  EXPECT_GE(t_after[0], 1 << 20);
  EXPECT_EQ(t_after[0], t_after[1]);
}

TEST(MpiRma, RepeatedFenceEpochsIsolated) {
  in_both_modes(3, [](smpi::Mpi& mpi, Mode mode) {
    auto win = mpi.win_allocate(mpi.rank() == 0 ? 256 : 0);
    fill_sentinel(win->local(mpi.rank()));
    for (unsigned epoch = 0; epoch < 8; ++epoch) {
      mpi.win_fence(*win);
      if (mpi.rank() == 1) {
        mpi.put(*win, 0, 0, pattern(128, epoch));
      }
      mpi.win_fence(*win);
      if (mpi.rank() == 0) {
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        expect_landed(win->local(0), 0, pattern(128, epoch), mode);
      }
    }
  });
}

TEST(MpiRma, PutOutsideWindowThrows) {
  // The bounds check needs only the put's size: a size-only Machine
  // rejects the put as well.
  for (const Mode mode : kModes) {
    SCOPED_TRACE(name(mode));
    Rig rig(2, 1, {}, mode);
    EXPECT_THROW(rig.run([&](smpi::Mpi& mpi) {
                   auto win = mpi.win_allocate(mpi.rank() == 0 ? 128 : 0);
                   mpi.win_fence(*win);
                   if (mpi.rank() == 1) {
                     mpi.put(*win, 0, 100, pattern(64, 0));  // 100+64 > 128
                   }
                   mpi.win_fence(*win);
                 }),
                 tpio::Error);
  }
}

TEST(MpiRma, SizeOnlyPutsNeverReadTheirBytes) {
  // The origin buffer faults on any access: a size-only put must cost its
  // time and check its bounds without reading it.
  const std::size_t n = 16 * 1024;
  void* mem = ::mmap(nullptr, n, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  const std::span<const std::byte> origin(static_cast<std::byte*>(mem), n);
  Rig rig(2, 1, {}, Mode::SizeOnly);
  rig.run([&](smpi::Mpi& mpi) {
    auto win = mpi.win_allocate(mpi.rank() == 0 ? n : 0);
    mpi.win_fence(*win);
    if (mpi.rank() == 1) mpi.put(*win, 0, 0, origin);
    mpi.win_fence(*win);
    mpi.win_lock(*win, 0, smpi::Mpi::LockType::Shared);
    if (mpi.rank() == 1) mpi.put(*win, 0, 0, origin);
    mpi.win_unlock(*win, 0);
  });
  ::munmap(mem, n);
}

TEST(MpiRma, SharedLocksRunConcurrently) {
  // Two origins lock-shared the same target; both must hold simultaneously
  // (no serialization beyond control latency).
  std::vector<sim::Time> done(3);
  in_both_modes(3, [&](smpi::Mpi& mpi, Mode mode) {
    auto win = mpi.win_allocate(mpi.rank() == 0 ? 4096 : 0);
    fill_sentinel(win->local(mpi.rank()));
    if (mpi.rank() != 0) {
      mpi.win_lock(*win, 0, smpi::Mpi::LockType::Shared);
      mpi.put(*win, 0, static_cast<std::size_t>(mpi.rank() - 1) * 2048,
              pattern(2048, static_cast<unsigned>(mpi.rank())));
      mpi.win_unlock(*win, 0);
    }
    done[static_cast<std::size_t>(mpi.rank())] = mpi.ctx().now();
    mpi.barrier();
    if (mpi.rank() == 0) {
      expect_landed(win->local(0), 0, pattern(2048, 1), mode);
      expect_landed(win->local(0), 2048, pattern(2048, 2), mode);
    }
  });
  // Concurrent: neither waited for the other's full transfer.
  const sim::Time serial_estimate = 2 * 2048 + 2 * 2048;  // two transfers serialized twice
  EXPECT_LT(std::max(done[1], done[2]), serial_estimate + 100'000);
}

TEST(MpiRma, ExclusiveLocksSerialize) {
  Rig rig(3);
  std::vector<sim::Time> got_lock(3);
  rig.run([&](smpi::Mpi& mpi) {
    auto win = mpi.win_allocate(mpi.rank() == 0 ? 64 : 0);
    if (mpi.rank() != 0) {
      mpi.win_lock(*win, 0, smpi::Mpi::LockType::Exclusive);
      got_lock[static_cast<std::size_t>(mpi.rank())] = mpi.ctx().now();
      mpi.ctx().advance(sim::milliseconds(1.0));  // long critical section
      mpi.win_unlock(*win, 0);
    }
    mpi.barrier();
  });
  // One of them must have acquired ~1ms after the other.
  const sim::Time t1 = got_lock[1], t2 = got_lock[2];
  EXPECT_GE(std::abs(t1 - t2), sim::milliseconds(1.0));
}

TEST(MpiRma, UnlockWaitsForOwnPuts) {
  in_both_modes(2, [](smpi::Mpi& mpi, Mode) {
    auto win = mpi.win_allocate(mpi.rank() == 0 ? (1 << 20) : 0);
    if (mpi.rank() == 1) {
      mpi.win_lock(*win, 0, smpi::Mpi::LockType::Shared);
      mpi.put(*win, 0, 0, pattern(1 << 20, 7));
      mpi.win_unlock(*win, 0);
      // The 1 MiB put needs ~1M ns on the wire; unlock cannot return sooner.
      EXPECT_GE(mpi.ctx().now(), 1 << 20);
    }
    mpi.barrier();
  });
}

TEST(MpiRma, UnlockWaitsOnlyForPutsToItsTarget) {
  // One origin holds locks on two targets and puts a small block to the
  // second, then 1 MiB to the first. Unlocking the second waits for the
  // small put alone; unlocking the first waits for the 1 MiB.
  in_both_modes(3, [](smpi::Mpi& mpi, Mode) {
    auto win = mpi.win_allocate(mpi.rank() == 0 ? 0 : (1 << 20));
    if (mpi.rank() == 0) {
      mpi.win_lock(*win, 1, smpi::Mpi::LockType::Shared);
      mpi.win_lock(*win, 2, smpi::Mpi::LockType::Shared);
      const sim::Time t0 = mpi.ctx().now();
      mpi.put(*win, 2, 0, pattern(64, 2));
      mpi.put(*win, 1, 0, pattern(1 << 20, 1));
      mpi.win_unlock(*win, 2);
      // The 1 MiB put needs ~1M ns on the wire, the small one far less.
      EXPECT_LT(mpi.ctx().now() - t0, 100'000);
      mpi.win_unlock(*win, 1);
      EXPECT_GE(mpi.ctx().now() - t0, 1 << 20);
    }
    mpi.barrier();
  });
}

TEST(MpiRma, LockPutBarrierMakesDataVisible) {
  // The paper's passive-target scheme: shared locks + puts + barrier.
  in_both_modes(5, [](smpi::Mpi& mpi, Mode mode) {
    const std::size_t chunk = 512;
    auto win = mpi.win_allocate(mpi.rank() == 0 ? 4 * chunk : 0);
    fill_sentinel(win->local(mpi.rank()));
    if (mpi.rank() != 0) {
      mpi.win_lock(*win, 0, smpi::Mpi::LockType::Shared);
      mpi.put(*win, 0, static_cast<std::size_t>(mpi.rank() - 1) * chunk,
              pattern(chunk, static_cast<unsigned>(mpi.rank())));
      mpi.win_unlock(*win, 0);
    }
    mpi.barrier();
    if (mpi.rank() == 0) {
      for (unsigned s = 1; s <= 4; ++s) {
        expect_landed(win->local(0), (s - 1) * chunk, pattern(chunk, s), mode);
      }
    }
  });
}

TEST(MpiRma, TwoWindowsIndependent) {
  Rig rig(2);
  rig.run([&](smpi::Mpi& mpi) {
    auto w1 = mpi.win_allocate(mpi.rank() == 0 ? 128 : 0);
    auto w2 = mpi.win_allocate(mpi.rank() == 0 ? 128 : 0);
    mpi.win_fence(*w1);
    mpi.win_fence(*w2);
    if (mpi.rank() == 1) {
      mpi.put(*w1, 0, 0, pattern(128, 1));
      mpi.put(*w2, 0, 0, pattern(128, 2));
    }
    mpi.win_fence(*w1);
    mpi.win_fence(*w2);
    if (mpi.rank() == 0) {
      const auto a = pattern(128, 1), b = pattern(128, 2);
      EXPECT_EQ(0, std::memcmp(w1->local(0).data(), a.data(), 128));
      EXPECT_EQ(0, std::memcmp(w2->local(0).data(), b.data(), 128));
    }
  });
}

TEST(MpiRma, FenceCostExceedsBarrierFreePath) {
  // A fence epoch must cost at least the synchronizing-collective time.
  Rig rig(16);
  sim::Time with_fence = 0;
  rig.run([&](smpi::Mpi& mpi) {
    auto win = mpi.win_allocate(64);
    mpi.win_fence(*win);
    mpi.win_fence(*win);
    if (mpi.rank() == 0) with_fence = mpi.ctx().now();
  });
  EXPECT_GT(with_fence, 0);
}

TEST(MpiRma, DeterministicRmaSchedule) {
  auto once = [](Mode mode) {
    Rig rig(6, 1, {}, mode);
    return rig.run([&](smpi::Mpi& mpi) {
      auto win = mpi.win_allocate(mpi.rank() < 2 ? 8192 : 0);
      for (int epoch = 0; epoch < 4; ++epoch) {
        mpi.win_fence(*win);
        if (mpi.rank() >= 2) {
          mpi.put(*win, mpi.rank() % 2,
                  static_cast<std::size_t>(mpi.rank() - 2) * 512,
                  pattern(512, static_cast<unsigned>(epoch)));
        }
        mpi.win_fence(*win);
      }
    });
  };
  const std::vector<sim::Time> reference = once(Mode::Payloads);
  for (const Mode mode : kModes) {
    SCOPED_TRACE(name(mode));
    EXPECT_EQ(once(mode), reference);
  }
}

TEST(MpiRma, RecycledWindowMemoryIsZeroedWithPayloads) {
  // Window memory is pooled: the second window gets the storage the first
  // one's target filled. With payloads it must read as zero again, like a
  // fresh allocation (a verified run writes the gaps no put covers).
  Rig rig(2);
  rig.run([&](smpi::Mpi& mpi) {
    auto first = mpi.win_allocate(mpi.rank() == 0 ? 4096 : 0);
    fill_sentinel(first->local(mpi.rank()));
    first.reset();
    mpi.barrier();
    auto second = mpi.win_allocate(mpi.rank() == 0 ? 4096 : 0);
    if (mpi.rank() == 0) {
      const auto mem = second->local(0);
      EXPECT_EQ(std::vector<std::byte>(mem.begin(), mem.end()),
                std::vector<std::byte>(4096, std::byte{0}));
    }
  });
}
