// Stress and property tests of the simulated MPI layer: chaotic traffic
// patterns must stay deterministic, deliver every byte correctly, and
// never deadlock.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "simbase/rng.hpp"
#include "simbase/units.hpp"

namespace smpi = tpio::smpi;
namespace net = tpio::net;
namespace sim = tpio::sim;

namespace {

struct Rig {
  net::Topology topo;
  net::Fabric fabric;
  sim::Conductor conductor;
  smpi::Machine machine;

  explicit Rig(int nodes, int ppn, smpi::MpiParams mp = {})
      : topo{nodes, ppn},
        fabric(topo, fabric_params()),
        conductor(topo.nprocs()),
        machine(fabric, mp) {}

  static net::FabricParams fabric_params() {
    net::FabricParams p;
    p.inter_bw = 2e9;
    p.intra_bw = 8e9;
    p.inter_latency = 1500;
    p.intra_latency = 300;
    return p;
  }

  void run(const std::function<void(smpi::Mpi&)>& prog) {
    conductor.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(machine, ctx);
      prog(mpi);
    });
  }
};

std::vector<std::byte> payload(int src, int dst, int round, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(src) * 7 +
                                   static_cast<std::size_t>(dst) * 3 +
                                   static_cast<std::size_t>(round)) &
                                  0xFF);
  }
  return v;
}

class MpiStress : public testing::TestWithParam<std::uint64_t> {};

}  // namespace

TEST_P(MpiStress, RandomRingTrafficDeterministicAndCorrect) {
  // Every rank sends pseudo-random-sized messages around a ring for
  // several rounds; payloads verified, makespans identical across reruns.
  auto once = [&]() {
    Rig rig(4, 3);
    const int P = rig.topo.nprocs();
    rig.run([&](smpi::Mpi& mpi) {
      sim::Rng rng(sim::Rng::derive_seed(GetParam(),
                                         static_cast<std::uint64_t>(mpi.rank())));
      for (int round = 0; round < 6; ++round) {
        const int dst = (mpi.rank() + 1) % P;
        const int src = (mpi.rank() + P - 1) % P;
        // Mixed sizes straddling the eager limit.
        const std::size_t send_n = 64 + rng.next_below(1 << 20);
        std::vector<std::byte> in(2 << 20);
        smpi::Request r = mpi.irecv(src, round, in);
        mpi.ctx().advance(static_cast<sim::Duration>(rng.next_below(5000)));
        const auto out = payload(mpi.rank(), dst, round, send_n);
        mpi.send(dst, round, out);
        mpi.wait(r);
        // Verify the prefix that was actually sent. Deterministic sizes:
        // regenerate the sender's stream.
        sim::Rng peer(sim::Rng::derive_seed(GetParam(),
                                            static_cast<std::uint64_t>(src)));
        std::size_t expect_n = 0;
        for (int k = 0; k <= round; ++k) {
          expect_n = 64 + peer.next_below(1 << 20);
          (void)peer.next_below(5000);
        }
        const auto expect = payload(src, mpi.rank(), round, expect_n);
        ASSERT_EQ(0, std::memcmp(in.data(), expect.data(), expect_n));
      }
    });
    return rig.conductor.makespan();
  };
  EXPECT_EQ(once(), once());
}

TEST_P(MpiStress, AllToAllPairsComplete) {
  Rig rig(3, 3);
  const int P = rig.topo.nprocs();
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::vector<std::byte>> inbox(
        static_cast<std::size_t>(P), std::vector<std::byte>(4096));
    std::vector<smpi::Request> reqs;
    for (int peer = 0; peer < P; ++peer) {
      if (peer == mpi.rank()) continue;
      reqs.push_back(mpi.irecv(peer, 1, inbox[static_cast<std::size_t>(peer)]));
    }
    for (int peer = 0; peer < P; ++peer) {
      if (peer == mpi.rank()) continue;
      reqs.push_back(mpi.isend(peer, 1, payload(mpi.rank(), peer, 0, 4096)));
    }
    mpi.waitall(reqs);
    for (int peer = 0; peer < P; ++peer) {
      if (peer == mpi.rank()) continue;
      EXPECT_EQ(inbox[static_cast<std::size_t>(peer)],
                payload(peer, mpi.rank(), 0, 4096));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpiStress,
                         testing::Values(1u, 2u, 3u, 42u, 1234u));

TEST(MpiStressMisc, ManyCollectivesUnderP2PTraffic) {
  Rig rig(4, 2);
  rig.run([&](smpi::Mpi& mpi) {
    const int P = mpi.size();
    for (int round = 0; round < 12; ++round) {
      // Interleave a reduction with a shifting p2p exchange.
      const auto top = mpi.allreduce_max(
          static_cast<std::uint64_t>((mpi.rank() + round) % P));
      EXPECT_EQ(top, static_cast<std::uint64_t>(P - 1));
      const int dst = (mpi.rank() + round + 1) % P;
      const int src = (mpi.rank() + P - ((round + 1) % P)) % P;
      std::vector<std::byte> in(512);
      smpi::Request r = mpi.irecv(src, 100 + round, in);
      mpi.send(dst, 100 + round, payload(mpi.rank(), dst, round, 512));
      mpi.wait(r);
      EXPECT_EQ(in, payload(src, mpi.rank(), round, 512));
    }
  });
}

TEST(MpiStressMisc, RmaEpochsInterleavedWithMessages) {
  Rig rig(4, 1);
  rig.run([&](smpi::Mpi& mpi) {
    auto win = mpi.win_allocate(mpi.rank() == 0 ? 4096u : 0u);
    for (int epoch = 0; epoch < 8; ++epoch) {
      mpi.win_fence(*win);
      if (mpi.rank() != 0) {
        const auto data =
            payload(mpi.rank(), 0, epoch, 1024);
        mpi.put(*win, 0, static_cast<std::size_t>(mpi.rank() - 1) * 1024,
                data);
      }
      mpi.win_fence(*win);
      if (mpi.rank() == 0) {
        for (int origin = 1; origin < 4; ++origin) {
          const auto expect = payload(origin, 0, epoch, 1024);
          EXPECT_EQ(0, std::memcmp(win->local(0).data() +
                                       (static_cast<std::size_t>(origin - 1)) *
                                           1024,
                                   expect.data(), 1024))
              << "epoch " << epoch << " origin " << origin;
        }
      }
      // P2P chatter between epochs must not disturb window state.
      const int peer = mpi.rank() ^ 1;
      std::vector<std::byte> in(256);
      smpi::Request r = mpi.irecv(peer, 500 + epoch, in);
      mpi.send(peer, 500 + epoch, payload(mpi.rank(), peer, epoch, 256));
      mpi.wait(r);
    }
  });
}

TEST(MpiStressMisc, LargeRankCountBarrierStorm) {
  Rig rig(16, 8);  // 128 ranks
  rig.run([&](smpi::Mpi& mpi) {
    for (int i = 0; i < 10; ++i) {
      mpi.ctx().advance(static_cast<sim::Duration>((mpi.rank() * 37 + i) % 997));
      mpi.barrier();
    }
  });
  EXPECT_GT(rig.conductor.makespan(), 0);
}

TEST(MpiStressMisc, EagerFloodThenDrain) {
  // One receiver absorbs hundreds of unexpected messages, then drains the
  // queue in reverse tag order (worst case for queue scans).
  smpi::MpiParams mp;
  Rig rig(2, 1, mp);
  const int kMsgs = 200;
  rig.run([&](smpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        mpi.send(1, i, payload(0, 1, i, 128));
      }
    } else {
      mpi.ctx().advance(sim::milliseconds(5.0));
      for (int i = kMsgs - 1; i >= 0; --i) {
        std::vector<std::byte> in(128);
        mpi.recv(0, i, in);
        ASSERT_EQ(in, payload(0, 1, i, 128));
      }
    }
  });
}
