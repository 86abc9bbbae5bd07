#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "simbase/error.hpp"
#include "simbase/units.hpp"

namespace smpi = tpio::smpi;
namespace net = tpio::net;
namespace sim = tpio::sim;

namespace {

/// What the Machine carries: message bytes (the default) or message sizes
/// only, as in a timing-only job.
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

  Rig(int nodes, int ppn, smpi::MpiParams mp = {},
      Mode mode = Mode::Payloads, net::FabricParams fp = simple_fabric())
      : topo{nodes, ppn},
        fabric(topo, fp),
        conductor(topo.nprocs()),
        machine(fabric, mp, mode == Mode::Payloads) {}

  static net::FabricParams simple_fabric() {
    net::FabricParams p;
    p.inter_bw = 1e9;  // 1 byte per ns
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

/// Runs `prog` on a fresh Rig(nodes, ppn, mp) in each mode. Every rank must
/// return at the same virtual instant in both: carrying sizes instead of
/// bytes changes what the host copies, never when anything completes.
void in_both_modes(int nodes, int ppn, const smpi::MpiParams& mp,
                   const std::function<void(smpi::Mpi&, Mode)>& prog) {
  std::vector<sim::Time> reference;
  for (const Mode mode : kModes) {
    SCOPED_TRACE(name(mode));
    Rig rig(nodes, ppn, mp, mode);
    const auto finish = rig.run([&](smpi::Mpi& mpi) { prog(mpi, mode); });
    if (mode == Mode::Payloads) {
      reference = finish;
    } else {
      EXPECT_EQ(finish, reference) << "completion times differ between modes";
    }
  }
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xFF);
  }
  return v;
}

/// Receive buffers start out holding this byte; a size-only Machine never
/// writes them.
constexpr std::byte kSentinel{0xA5};

std::vector<std::byte> recv_buffer(std::size_t n) {
  return std::vector<std::byte>(n, kSentinel);
}

/// What a receive buffer holds once `sent` has landed in it.
std::vector<std::byte> landed(const std::vector<std::byte>& sent, Mode mode) {
  return mode == Mode::Payloads ? sent : recv_buffer(sent.size());
}

smpi::MpiParams zero_overhead_params() {
  smpi::MpiParams p;
  p.send_overhead = 0;
  p.recv_overhead = 0;
  p.match_cost = 0;
  p.collective_hop = 0;
  return p;
}

}  // namespace

TEST(MpiP2P, EagerSendRecvDeliversData) {
  // Pre-posted: the receive is posted at t = 0, before the sender's
  // send overhead has elapsed.
  in_both_modes(2, 1, {}, [](smpi::Mpi& mpi, Mode mode) {
    const auto data = pattern(1024, 7);
    if (mpi.rank() == 0) {
      mpi.send(1, 42, data);
    } else {
      auto buf = recv_buffer(1024);
      mpi.recv(0, 42, buf);
      EXPECT_EQ(buf, landed(data, mode));
    }
  });
}

TEST(MpiP2P, EagerSenderDoesNotWaitForReceiver) {
  in_both_modes(2, 1, zero_overhead_params(), [](smpi::Mpi& mpi, Mode mode) {
    if (mpi.rank() == 0) {
      const auto data = pattern(1000, 1);
      mpi.send(1, 0, data);
      // Eager: local completion, no handshake with the (late) receiver.
      EXPECT_LT(mpi.ctx().now(), 100'000);
    } else {
      mpi.ctx().advance(1'000'000);  // receiver shows up late: unexpected
      auto buf = recv_buffer(1000);
      mpi.recv(0, 0, buf);
      EXPECT_EQ(buf, landed(pattern(1000, 1), mode));
    }
  });
}

TEST(MpiP2P, RendezvousSenderBlocksUntilReceiverMatches) {
  smpi::MpiParams mp = zero_overhead_params();
  mp.eager_limit = 1024;
  in_both_modes(2, 1, mp, [](smpi::Mpi& mpi, Mode mode) {
    const std::size_t n = 100'000;  // > eager limit -> rendezvous
    if (mpi.rank() == 0) {
      const auto data = pattern(n, 2);
      mpi.send(1, 0, data);
      // Receiver posts at t=1ms; sender cannot complete before that.
      EXPECT_GE(mpi.ctx().now(), sim::milliseconds(1.0));
    } else {
      mpi.ctx().advance(sim::milliseconds(1.0));
      auto buf = recv_buffer(n);
      mpi.recv(0, 0, buf);
      EXPECT_EQ(buf, landed(pattern(n, 2), mode));
    }
  });
}

TEST(MpiP2P, RendezvousPrepostedStillDelivers) {
  smpi::MpiParams mp = zero_overhead_params();
  mp.eager_limit = 512;
  in_both_modes(2, 1, mp, [](smpi::Mpi& mpi, Mode mode) {
    const std::size_t n = 64 * 1024;
    if (mpi.rank() == 1) {
      auto buf = recv_buffer(n);
      smpi::Request r = mpi.irecv(0, 5, buf);  // pre-posted
      mpi.wait(r);
      EXPECT_EQ(buf, landed(pattern(n, 3), mode));
    } else {
      mpi.ctx().advance(1000);
      mpi.send(1, 5, pattern(n, 3));
    }
  });
}

TEST(MpiP2P, UnavailableTargetDelaysRendezvousNotEager) {
  smpi::MpiParams mp = zero_overhead_params();
  mp.eager_limit = 1024;
  in_both_modes(2, 1, mp, [](smpi::Mpi& mpi, Mode mode) {
    if (mpi.rank() == 1) {
      auto small = recv_buffer(100);
      auto big = recv_buffer(10'000);
      smpi::Request r1 = mpi.irecv(0, 1, small);
      smpi::Request r2 = mpi.irecv(0, 2, big);
      // Simulates a blocking file write until t=1ms.
      mpi.set_unavailable_until(sim::milliseconds(1.0));
      mpi.ctx().advance(sim::milliseconds(1.0));
      mpi.wait(r1);
      // Eager message landed during the "write" — completion at arrival,
      // observed now.
      EXPECT_EQ(mpi.ctx().now(), sim::milliseconds(1.0));
      mpi.wait(r2);
      // Rendezvous handshake was deferred to t=1ms, then transferred.
      EXPECT_GE(mpi.ctx().now(), sim::milliseconds(1.0) + 10'000);
      EXPECT_EQ(small, landed(pattern(100, 4), mode));
      EXPECT_EQ(big, landed(pattern(10'000, 5), mode));
    } else {
      // Stagger past the receiver's unavailability declaration so the RTS
      // genuinely lands mid-"write".
      mpi.ctx().advance(10);
      mpi.send(1, 1, pattern(100, 4));
      mpi.send(1, 2, pattern(10'000, 5));
    }
  });
}

TEST(MpiP2P, ProgressThreadServicesRendezvousImmediately) {
  smpi::MpiParams mp = zero_overhead_params();
  mp.eager_limit = 1024;
  mp.progress_thread = true;
  Rig rig(2, 1, mp);
  rig.run([&](smpi::Mpi& mpi) {
    if (mpi.rank() == 1) {
      std::vector<std::byte> big(10'000);
      smpi::Request r = mpi.irecv(0, 2, big);
      mpi.set_unavailable_until(sim::milliseconds(1.0));
      mpi.ctx().advance(sim::milliseconds(1.0));
      mpi.wait(r);
      // With a progress thread, the transfer finished long before 1ms.
      EXPECT_EQ(mpi.ctx().now(), sim::milliseconds(1.0));
    } else {
      mpi.send(1, 2, pattern(10'000, 5));
    }
  });
}

TEST(MpiP2P, TagSelectsMessage) {
  Rig rig(2, 1);
  rig.run([&](smpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(1, 10, pattern(64, 1));
      mpi.send(1, 20, pattern(64, 2));
    } else {
      std::vector<std::byte> a(64), b(64);
      mpi.recv(0, 20, b);  // out of order by tag
      mpi.recv(0, 10, a);
      EXPECT_EQ(a, pattern(64, 1));
      EXPECT_EQ(b, pattern(64, 2));
    }
  });
}

TEST(MpiP2P, FifoOrderPerTag) {
  Rig rig(2, 1);
  rig.run([&](smpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (unsigned i = 0; i < 8; ++i) mpi.send(1, 0, pattern(32, i));
    } else {
      for (unsigned i = 0; i < 8; ++i) {
        std::vector<std::byte> buf(32);
        mpi.recv(0, 0, buf);
        EXPECT_EQ(buf, pattern(32, i)) << "message " << i << " out of order";
      }
    }
  });
}

TEST(MpiP2P, AnySourceMatches) {
  in_both_modes(3, 1, {}, [](smpi::Mpi& mpi, Mode mode) {
    if (mpi.rank() == 0) {
      auto a = recv_buffer(16);
      auto b = recv_buffer(16);
      mpi.recv(smpi::kAnySource, 0, a);
      mpi.recv(smpi::kAnySource, 0, b);
      // One message from each sender, in either order.
      if (mode == Mode::SizeOnly) {
        EXPECT_EQ(a, recv_buffer(16));
        EXPECT_EQ(b, recv_buffer(16));
      } else {
        EXPECT_TRUE((a == pattern(16, 1) && b == pattern(16, 2)) ||
                    (a == pattern(16, 2) && b == pattern(16, 1)));
      }
    } else {
      mpi.send(0, 0, pattern(16, static_cast<unsigned>(mpi.rank())));
    }
  });
}

TEST(MpiP2P, WaitallCompletesEverything) {
  Rig rig(4, 1);
  rig.run([&](smpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(3, std::vector<std::byte>(256));
      std::vector<smpi::Request> reqs;
      for (int s = 1; s < 4; ++s) {
        reqs.push_back(mpi.irecv(s, 0, bufs[static_cast<std::size_t>(s - 1)]));
      }
      mpi.waitall(reqs);
      for (int s = 1; s < 4; ++s) {
        EXPECT_EQ(bufs[static_cast<std::size_t>(s - 1)],
                  pattern(256, static_cast<unsigned>(s)));
      }
    } else {
      mpi.send(0, 0, pattern(256, static_cast<unsigned>(mpi.rank())));
    }
  });
}

TEST(MpiP2P, TestPollsWithoutBlocking) {
  Rig rig(2, 1, zero_overhead_params());
  rig.run([&](smpi::Mpi& mpi) {
    if (mpi.rank() == 1) {
      std::vector<std::byte> buf(64);
      smpi::Request r = mpi.irecv(0, 0, buf);
      EXPECT_FALSE(mpi.test(r));  // sender still sleeping
      mpi.ctx().advance_to(sim::milliseconds(2.0));
      EXPECT_TRUE(mpi.test(r));
      EXPECT_EQ(buf, pattern(64, 9));
    } else {
      mpi.ctx().advance(sim::milliseconds(1.0));
      mpi.send(1, 0, pattern(64, 9));
    }
  });
}

TEST(MpiP2P, MatchCostScalesWithQueueDepth) {
  // A receive that scans a deep unexpected queue pays match_cost per entry.
  smpi::MpiParams mp = zero_overhead_params();
  mp.match_cost = 1000;  // exaggerate
  Rig rig(2, 1, mp);
  rig.run([&](smpi::Mpi& mpi) {
    const int nmsgs = 50;
    if (mpi.rank() == 0) {
      for (int i = 0; i < nmsgs; ++i) {
        mpi.send(1, i, pattern(8, static_cast<unsigned>(i)));
      }
    } else {
      mpi.ctx().advance_to(sim::milliseconds(1.0));
      std::vector<std::byte> buf(8);
      const sim::Time before = mpi.ctx().now();
      // Match the LAST message: scans all 50 entries.
      mpi.recv(0, nmsgs - 1, buf);
      EXPECT_GE(mpi.ctx().now() - before, 50 * 1000);
    }
  });
}

TEST(MpiP2P, IncastSerializesOnAggregatorNic) {
  // 8 single-rank nodes send 1 MB each to rank 0: arrivals serialized at
  // rank 0's receive channel -> total >= 8 MB / bw.
  smpi::MpiParams mp = zero_overhead_params();
  mp.eager_limit = 16 * sim::MiB;  // keep it eager to isolate the NIC effect
  Rig rig(9, 1, mp);
  rig.run([&](smpi::Mpi& mpi) {
    const std::size_t n = 1 << 20;
    if (mpi.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(8, std::vector<std::byte>(n));
      std::vector<smpi::Request> reqs;
      for (int s = 1; s <= 8; ++s) {
        reqs.push_back(mpi.irecv(s, 0, bufs[static_cast<std::size_t>(s - 1)]));
      }
      mpi.waitall(reqs);
      // 8 MiB at 1 byte/ns ~ 8.39 ms serialized.
      EXPECT_GE(mpi.ctx().now(), 8 * 1'048'576);
      EXPECT_LE(mpi.ctx().now(), 8 * 1'048'576 + 100'000);
    } else {
      mpi.send(0, 0, pattern(n, static_cast<unsigned>(mpi.rank())));
    }
  });
}

TEST(MpiP2P, SelfSendOnNodeUsesMemoryChannel) {
  Rig rig(1, 2, zero_overhead_params());
  rig.run([&](smpi::Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(1, 0, pattern(4000, 3));
    } else {
      std::vector<std::byte> buf(4000);
      mpi.recv(0, 0, buf);
      // 4000 B at 4 B/ns + 10 ns latency.
      EXPECT_EQ(mpi.ctx().now(), 1010);
    }
  });
}

TEST(MpiP2P, BufferTooSmallThrows) {
  // Eager and rendezvous messages into a 64-byte buffer, pre-posted and
  // unexpected (the receiver posts 1 ms late). The check needs only the
  // message size, so a size-only Machine throws as well.
  smpi::MpiParams mp;
  mp.eager_limit = 1024;
  for (const Mode mode : kModes) {
    for (const std::size_t n : {std::size_t{128}, std::size_t{4096}}) {
      for (const sim::Duration late : {sim::Duration{0},
                                       sim::milliseconds(1.0)}) {
        SCOPED_TRACE(std::string(name(mode)) + ", " + std::to_string(n) +
                     " B, receiver late by " + std::to_string(late) + " ns");
        Rig rig(2, 1, mp, mode);
        EXPECT_THROW(rig.run([&](smpi::Mpi& mpi) {
                       if (mpi.rank() == 0) {
                         mpi.send(1, 0, pattern(n, 0));
                       } else {
                         mpi.ctx().advance(late);
                         auto buf = recv_buffer(64);
                         mpi.recv(0, 0, buf);
                       }
                     }),
                     tpio::Error);
      }
    }
  }
}

TEST(MpiP2P, SizeOnlyMessagesNeverTouchTheirBuffers) {
  // Send and receive buffers in memory that faults on any access: a
  // size-only Machine must carry eager and rendezvous messages, pre-posted
  // and unexpected, without reading or writing a byte of either.
  const std::size_t n = 64 * 1024;
  void* mem = ::mmap(nullptr, 2 * n, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  const std::span<std::byte> send_buf(static_cast<std::byte*>(mem), n);
  const std::span<std::byte> recv_buf(static_cast<std::byte*>(mem) + n, n);
  smpi::MpiParams mp;
  mp.eager_limit = 1024;
  for (const std::size_t bytes : {std::size_t{512}, n}) {
    for (const sim::Duration late : {sim::Duration{0},
                                     sim::milliseconds(1.0)}) {
      Rig rig(2, 1, mp, Mode::SizeOnly);
      rig.run([&](smpi::Mpi& mpi) {
        if (mpi.rank() == 0) {
          mpi.send(1, 0, send_buf.first(bytes));
        } else {
          mpi.ctx().advance(late);
          mpi.recv(0, 0, recv_buf);
        }
      });
    }
  }
  ::munmap(mem, 2 * n);
}

TEST(MpiP2P, MismatchedTagDeadlocks) {
  Rig rig(2, 1);
  EXPECT_THROW(rig.run([&](smpi::Mpi& mpi) {
                 if (mpi.rank() == 0) {
                   mpi.send(1, 1, pattern(8, 0));
                   std::vector<std::byte> b(8);
                   mpi.recv(1, 1, b);
                 } else {
                   std::vector<std::byte> b(8);
                   mpi.recv(0, 99, b);  // tag never sent
                 }
               }),
               tpio::Error);
}

TEST(MpiP2P, DeterministicTimesAcrossRuns) {
  auto once = [](Mode mode) {
    Rig rig(4, 2, {}, mode);
    return rig.run([&](smpi::Mpi& mpi) {
      // All-to-one with mixed sizes.
      if (mpi.rank() == 0) {
        std::vector<std::vector<std::byte>> bufs;
        std::vector<smpi::Request> reqs;
        for (int s = 1; s < 8; ++s) {
          bufs.emplace_back(static_cast<std::size_t>(s) * 10'000);
          reqs.push_back(mpi.irecv(s, 0, bufs.back()));
        }
        mpi.waitall(reqs);
      } else {
        mpi.send(0, 0,
                 pattern(static_cast<std::size_t>(mpi.rank()) * 10'000,
                         static_cast<unsigned>(mpi.rank())));
      }
    });
  };
  const std::vector<sim::Time> reference = once(Mode::Payloads);
  for (const Mode mode : kModes) {
    SCOPED_TRACE(name(mode));
    EXPECT_EQ(once(mode), reference);
  }
}
