#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpi/internal.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "simbase/error.hpp"

namespace smpi = tpio::smpi;
namespace net = tpio::net;
namespace sim = tpio::sim;

namespace {

struct Rig {
  net::Topology topo;
  net::Fabric fabric;
  sim::Conductor conductor;
  smpi::Machine machine;

  explicit Rig(int nodes, int ppn = 1, smpi::MpiParams mp = {})
      : topo{nodes, ppn},
        fabric(topo, fabric_params()),
        conductor(topo.nprocs()),
        machine(fabric, mp) {}

  static net::FabricParams fabric_params() {
    net::FabricParams p;
    p.inter_bw = 1e9;
    p.intra_bw = 4e9;
    p.inter_latency = 100;
    p.intra_latency = 10;
    return p;
  }

  void run(const std::function<void(smpi::Mpi&)>& prog) {
    conductor.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(machine, ctx);
      prog(mpi);
    });
  }
};

}  // namespace

TEST(MpiColl, BarrierHoldsEveryoneToMax) {
  Rig rig(8);
  std::vector<sim::Time> after(8);
  rig.run([&](smpi::Mpi& mpi) {
    mpi.ctx().advance(static_cast<sim::Duration>(mpi.rank()) * 1000);
    mpi.barrier();
    after[static_cast<std::size_t>(mpi.rank())] = mpi.ctx().now();
  });
  for (int r = 1; r < 8; ++r) EXPECT_EQ(after[static_cast<std::size_t>(r)], after[0]);
  EXPECT_GE(after[0], 7000);  // at least the slowest arrival
  EXPECT_GT(after[0], 7000);  // plus a log-P cost
}

TEST(MpiColl, BarrierCostGrowsWithRanks) {
  auto cost = [](int n) {
    Rig rig(n);
    sim::Time t = 0;
    rig.run([&](smpi::Mpi& mpi) {
      mpi.barrier();
      if (mpi.rank() == 0) t = mpi.ctx().now();
    });
    return t;
  };
  EXPECT_LT(cost(2), cost(32));
}

TEST(MpiColl, LaneBarriersOfOneNodeReleaseIndependently) {
  // One node, two lanes: [0, 2) and [2, 6). Each lane leaves together,
  // held to its own slowest member plus ceil(log2 parties) shared-memory
  // hops, and never waits for the other lane.
  Rig rig(1, 6);
  const sim::Duration hop = smpi::MpiParams{}.node_collective_hop;
  std::vector<sim::Time> after(6);
  rig.run([&](smpi::Mpi& mpi) {
    mpi.ctx().advance(static_cast<sim::Duration>(mpi.rank()) * 1000);
    if (mpi.rank() < 2) {
      mpi.lane_barrier(0, 2);
    } else {
      mpi.lane_barrier(2, 6);
    }
    after[static_cast<std::size_t>(mpi.rank())] = mpi.ctx().now();
  });
  EXPECT_EQ(after[0], 1000 + 1 * hop);
  EXPECT_EQ(after[1], after[0]);
  for (int r = 2; r < 6; ++r) {
    EXPECT_EQ(after[static_cast<std::size_t>(r)], 5000 + 2 * hop);
  }
}

TEST(MpiColl, OneRankLaneBarrierIsFree) {
  // A single-member lane neither blocks nor costs time.
  Rig rig(2, 2);
  rig.run([&](smpi::Mpi& mpi) {
    mpi.ctx().advance(static_cast<sim::Duration>(mpi.rank()) * 500);
    const sim::Time before = mpi.ctx().now();
    mpi.lane_barrier(mpi.rank(), mpi.rank() + 1);
    EXPECT_EQ(mpi.ctx().now(), before);
  });
}

TEST(MpiColl, LaneBarrierRejectsCallerOutsideInterval) {
  Rig rig(1, 4);
  EXPECT_THROW(rig.run([&](smpi::Mpi& mpi) {
                 if (mpi.rank() == 2) mpi.lane_barrier(0, 2);
               }),
               tpio::Error);
}

TEST(MpiColl, AllgathervRoundTripsData) {
  Rig rig(6);
  rig.run([&](smpi::Mpi& mpi) {
    // Rank r contributes r+1 bytes, each = r.
    std::vector<std::byte> mine(static_cast<std::size_t>(mpi.rank() + 1),
                                static_cast<std::byte>(mpi.rank()));
    auto all = mpi.allgatherv(mine);
    ASSERT_EQ(all.size(), 6u);
    for (int r = 0; r < 6; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r + 1));
      for (std::byte b : all[static_cast<std::size_t>(r)]) {
        EXPECT_EQ(b, static_cast<std::byte>(r));
      }
    }
  });
}

TEST(MpiColl, AllgathervEmptyContributionsAllowed) {
  Rig rig(4);
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::byte> mine;
    if (mpi.rank() == 2) mine.assign(8, std::byte{42});
    auto all = mpi.allgatherv(mine);
    EXPECT_TRUE(all[0].empty());
    EXPECT_EQ(all[2].size(), 8u);
  });
}

TEST(MpiColl, RepeatedAllgathervGenerationsIsolated) {
  Rig rig(4);
  rig.run([&](smpi::Mpi& mpi) {
    for (int round = 0; round < 10; ++round) {
      std::vector<std::byte> mine(4, static_cast<std::byte>(mpi.rank() * 16 + round));
      auto all = mpi.allgatherv(mine);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)][0],
                  static_cast<std::byte>(r * 16 + round))
            << "round " << round;
      }
    }
  });
}

TEST(MpiColl, AllreduceOps) {
  Rig rig(5);
  rig.run([&](smpi::Mpi& mpi) {
    const auto v = static_cast<std::uint64_t>(mpi.rank() + 1);  // 1..5
    EXPECT_EQ(mpi.allreduce_max(v), 5u);
    EXPECT_EQ(mpi.allreduce_min(v), 1u);
    EXPECT_EQ(mpi.allreduce_sum(v), 15u);
  });
}

TEST(MpiColl, BcastFromNonzeroRoot) {
  Rig rig(7);
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::byte> data(32);
    if (mpi.rank() == 3) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(i * 3);
      }
    }
    mpi.bcast(data, 3);
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(data[i], static_cast<std::byte>(i * 3));
    }
  });
}

TEST(MpiColl, CollectiveAfterP2PTrafficStillCorrect) {
  Rig rig(4);
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::byte> buf(16);
    if (mpi.rank() == 0) {
      mpi.send(1, 0, std::vector<std::byte>(16, std::byte{1}));
    } else if (mpi.rank() == 1) {
      mpi.recv(0, 0, buf);
    }
    const auto sum = mpi.allreduce_sum(1);
    EXPECT_EQ(sum, 4u);
  });
}

TEST(MpiColl, DeterministicCollectiveTimes) {
  auto once = [] {
    Rig rig(8);
    sim::Time t = 0;
    rig.run([&](smpi::Mpi& mpi) {
      mpi.ctx().advance(static_cast<sim::Duration>((mpi.rank() * 97) % 31));
      for (int i = 0; i < 5; ++i) {
        std::vector<std::byte> mine(static_cast<std::size_t>(mpi.rank()) * 7 + 1);
        (void)mpi.allgatherv(mine);
      }
      mpi.barrier();
      if (mpi.rank() == 0) t = mpi.ctx().now();
    });
    return t;
  };
  EXPECT_EQ(once(), once());
}

TEST(MpiColl, GathervOnlyRootReceives) {
  Rig rig(5);
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::byte> mine(static_cast<std::size_t>(mpi.rank() + 1),
                                static_cast<std::byte>(0x40 + mpi.rank()));
    auto all = mpi.gatherv(mine, 2);
    if (mpi.rank() == 2) {
      for (int r = 0; r < 5; ++r) {
        ASSERT_EQ(all[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r + 1));
        EXPECT_EQ(all[static_cast<std::size_t>(r)][0],
                  static_cast<std::byte>(0x40 + r));
      }
    } else {
      for (const auto& b : all) EXPECT_TRUE(b.empty());
    }
  });
}

TEST(MpiColl, ScattervDistributesPerRankBlobs) {
  Rig rig(4);
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::vector<std::byte>> blobs;
    if (mpi.rank() == 1) {
      for (int r = 0; r < 4; ++r) {
        blobs.emplace_back(static_cast<std::size_t>(3 * r + 1),
                           static_cast<std::byte>(r * 11));
      }
    }
    const auto mine = mpi.scatterv(blobs, 1);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(3 * mpi.rank() + 1));
    for (std::byte b : mine) EXPECT_EQ(b, static_cast<std::byte>(mpi.rank() * 11));
  });
}

TEST(MpiColl, ScattervEmptyBlobsAllowed) {
  Rig rig(3);
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::vector<std::byte>> blobs;
    if (mpi.rank() == 0) {
      blobs.resize(3);
      blobs[1].assign(5, std::byte{9});
    }
    const auto mine = mpi.scatterv(blobs, 0);
    if (mpi.rank() == 1) {
      EXPECT_EQ(mine.size(), 5u);
    } else {
      EXPECT_TRUE(mine.empty());
    }
  });
}

// ---------------------------------------------------------------------------
// Scalable metadata-exchange collectives: allgather, sparse_allgatherv,
// and the Jocksch-style cost-model fixes.
// ---------------------------------------------------------------------------

TEST(MpiColl, AllgatherFixedSizeRoundTrips) {
  Rig rig(5);
  rig.run([&](smpi::Mpi& mpi) {
    const std::uint32_t v = 0x1000u + static_cast<std::uint32_t>(mpi.rank());
    const auto out = mpi.allgather(std::as_bytes(std::span(&v, 1)));
    ASSERT_EQ(out.size(), 5u);
    for (std::uint32_t r = 0; r < 5; ++r) {
      ASSERT_EQ(out[r].size(), sizeof(std::uint32_t));
      std::uint32_t got = 0;
      std::memcpy(&got, out[r].data(), sizeof(got));
      EXPECT_EQ(got, 0x1000u + r);
    }
  });
}

TEST(MpiColl, ScattervMalformedSizeTableRejectedOnEveryRank) {
  // A size table claiming more bytes than the payload holds must be
  // rejected before any copy — by every rank, not only the ranks whose
  // slice happens to land out of bounds.
  const int nprocs = 3;
  std::vector<std::byte> packed(nprocs * sizeof(std::uint64_t) + 4);
  const std::uint64_t sizes[3] = {2, 2, 64};  // 64 overruns the 4-byte tail
  std::memcpy(packed.data(), sizes, sizeof(sizes));
  for (int r = 0; r < nprocs; ++r) {
    EXPECT_THROW(smpi::detail::scatterv_unpack(packed, nprocs, r),
                 tpio::Error);
  }
  // A payload shorter than its own size table is equally malformed.
  const std::vector<std::byte> stub(sizeof(std::uint64_t));
  EXPECT_THROW(smpi::detail::scatterv_unpack(stub, nprocs, 0), tpio::Error);
}

TEST(MpiColl, GathervCheaperThanAllgathervSameBlobs) {
  // gatherv charges the root-bound volume (total minus the root's own
  // blob); allgatherv charges the dissemination volume (total minus the
  // smallest blob). With the largest blob at the root, gatherv must
  // finish strictly earlier — the old model priced both identically.
  auto finish = [](bool gather) {
    Rig rig(6);
    sim::Time t = 0;
    rig.run([&](smpi::Mpi& mpi) {
      const std::vector<std::byte> mine(
          1000u * (static_cast<std::size_t>(mpi.rank()) + 1));
      if (gather) {
        mpi.gatherv(mine, 5);
      } else {
        mpi.allgatherv(mine);
      }
      if (mpi.rank() == 0) t = mpi.ctx().now();
    });
    return t;
  };
  EXPECT_LT(finish(true), finish(false));
}

TEST(MpiColl, AllgathervSingleRankIsFree) {
  // P = 1: no remote bytes, no hops, no sync — time must not move.
  Rig rig(1);
  rig.run([&](smpi::Mpi& mpi) {
    const sim::Time before = mpi.ctx().now();
    const std::vector<std::byte> mine(4096, std::byte{7});
    const auto out = mpi.allgatherv(mine);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].size(), 4096u);
    EXPECT_EQ(mpi.ctx().now(), before);
  });
}

TEST(MpiColl, AllgathervAllEmptyPaysNoVolumeTerm) {
  // All-empty exchange costs exactly the latency + sync floor: the
  // volume term must vanish with the payload.
  Rig rig(4);
  sim::Time t = 0;
  rig.run([&](smpi::Mpi& mpi) {
    const auto out = mpi.allgatherv({});
    ASSERT_EQ(out.size(), 4u);
    for (const auto& b : out) EXPECT_TRUE(b.empty());
    if (mpi.rank() == 0) t = mpi.ctx().now();
  });
  const sim::Duration floor_cost =
      static_cast<sim::Duration>(smpi::detail::ceil_log2(4)) * 100 +
      rig.machine.sync_collective_cost(4);
  EXPECT_EQ(t, floor_cost);
}

TEST(MpiColl, AllgathervChargesTotalMinusSmallestBlob) {
  // Two grids with the same total volume: the skewed one disseminates
  // more remote bytes (total - min). The old total - total/P formula
  // priced both at 3000 bytes; the fix must separate them.
  auto finish = [](std::vector<std::size_t> sizes) {
    Rig rig(4);
    sim::Time t = 0;
    rig.run([&](smpi::Mpi& mpi) {
      const std::vector<std::byte> mine(
          sizes[static_cast<std::size_t>(mpi.rank())]);
      mpi.allgatherv(mine);
      if (mpi.rank() == 0) t = mpi.ctx().now();
    });
    return t;
  };
  EXPECT_GT(finish({0, 0, 0, 4000}), finish({1000, 1000, 1000, 1000}));
}

TEST(MpiColl, SparseAllgathervDeliversWantedInterval) {
  Rig rig(6);
  rig.run([&](smpi::Mpi& mpi) {
    const int me = mpi.rank();
    const std::vector<std::byte> mine(
        static_cast<std::size_t>(me) + 1,
        static_cast<std::byte>(me));
    const int want_b = (me == 0) ? 2 : 0;
    const int want_e = (me == 0) ? 5 : 0;
    const auto got = mpi.sparse_allgatherv(mine, want_b, want_e);
    if (me == 0) {
      // Wanted [2,5) plus the rank's own blob, ascending by source.
      ASSERT_EQ(got.size(), 4u);
      const int expect_src[] = {0, 2, 3, 4};
      for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].first, expect_src[i]);
    } else {
      // No wants: only the rank's own blob comes back.
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0].first, me);
    }
    for (const auto& [src, blob] : got) {
      ASSERT_EQ(blob.size(), static_cast<std::size_t>(src) + 1);
      for (std::byte b : blob) EXPECT_EQ(b, static_cast<std::byte>(src));
    }
  });
}

TEST(MpiColl, SparseAllgathervFullWantMatchesAllgathervData) {
  constexpr int P = 5;
  std::vector<std::vector<std::byte>> via_dense(P);
  std::vector<std::vector<std::byte>> via_sparse(P);
  auto payload = [](int r) {
    return std::vector<std::byte>(static_cast<std::size_t>(2 * r + 1),
                                  static_cast<std::byte>(r * 13));
  };
  {
    Rig rig(P);
    rig.run([&](smpi::Mpi& mpi) {
      const auto out = mpi.allgatherv(payload(mpi.rank()));
      if (mpi.rank() == 0) via_dense = out;
    });
  }
  {
    Rig rig(P);
    rig.run([&](smpi::Mpi& mpi) {
      const auto got = mpi.sparse_allgatherv(payload(mpi.rank()), 0, P);
      if (mpi.rank() != 0) return;
      ASSERT_EQ(got.size(), static_cast<std::size_t>(P));
      for (const auto& [src, blob] : got) {
        via_sparse[static_cast<std::size_t>(src)] = blob;
      }
    });
  }
  EXPECT_EQ(via_sparse, via_dense);
}

TEST(MpiColl, BcastRootAtLastRank) {
  Rig rig(4);
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::byte> buf(8);
    if (mpi.rank() == 3) {
      for (std::size_t i = 0; i < 8; ++i) {
        buf[i] = static_cast<std::byte>(0xA0 + i);
      }
    }
    mpi.bcast(buf, 3);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(buf[i], static_cast<std::byte>(0xA0 + i));
    }
  });
}

TEST(MpiColl, GathervRootAtLastRank) {
  Rig rig(5);
  rig.run([&](smpi::Mpi& mpi) {
    const std::vector<std::byte> mine(
        static_cast<std::size_t>(mpi.rank()),
        static_cast<std::byte>(mpi.rank()));
    const auto out = mpi.gatherv(mine, 4);
    ASSERT_EQ(out.size(), 5u);
    if (mpi.rank() == 4) {
      for (int r = 0; r < 5; ++r) {
        ASSERT_EQ(out[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r));
        for (std::byte b : out[static_cast<std::size_t>(r)]) {
          EXPECT_EQ(b, static_cast<std::byte>(r));
        }
      }
    } else {
      for (const auto& b : out) EXPECT_TRUE(b.empty());
    }
  });
}

TEST(MpiColl, ScattervRootAtLastRank) {
  Rig rig(4);
  rig.run([&](smpi::Mpi& mpi) {
    std::vector<std::vector<std::byte>> blobs;
    if (mpi.rank() == 3) {
      for (int r = 0; r < 4; ++r) {
        blobs.emplace_back(static_cast<std::size_t>(r + 1),
                           static_cast<std::byte>(r * 5));
      }
    }
    const auto mine = mpi.scatterv(blobs, 3);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(mpi.rank()) + 1);
    for (std::byte b : mine) EXPECT_EQ(b, static_cast<std::byte>(mpi.rank() * 5));
  });
}

TEST(MpiColl, MetadataCollectivesOnSingleNode) {
  // Single node, multiple ranks: the full two-stage vocabulary (summary
  // allgather, sparse delivery, allreduce) must round-trip with no
  // inter-node fabric in play.
  Rig rig(1, 4);
  rig.run([&](smpi::Mpi& mpi) {
    const std::uint64_t v = static_cast<std::uint64_t>(mpi.rank()) + 1;
    const auto summaries = mpi.allgather(std::as_bytes(std::span(&v, 1)));
    ASSERT_EQ(summaries.size(), 4u);
    const auto got = mpi.sparse_allgatherv(
        std::as_bytes(std::span(&v, 1)), 0, mpi.rank() == 0 ? 4 : 0);
    EXPECT_EQ(got.size(), mpi.rank() == 0 ? 4u : 1u);
    EXPECT_EQ(mpi.allreduce_max(v), 4u);
  });
}

TEST(MpiColl, DeterministicSummaryExchangeTimes) {
  // The exact collective sequence of the two-stage metadata exchange,
  // repeated: completion times must be bit-identical across runs.
  auto once = [] {
    Rig rig(6, 2);
    sim::Time t = 0;
    rig.run([&](smpi::Mpi& mpi) {
      const std::uint64_t v = static_cast<std::uint64_t>(mpi.rank()) * 7 + 1;
      mpi.allgather(std::as_bytes(std::span(&v, 1)));
      const std::vector<std::byte> blob(
          64u * (static_cast<std::size_t>(mpi.rank()) + 1));
      mpi.sparse_allgatherv(blob, 0, mpi.rank() < 3 ? 12 : 0);
      mpi.allreduce_max(v);
      if (mpi.rank() == 11) t = mpi.ctx().now();
    });
    return t;
  };
  EXPECT_EQ(once(), once());
}

TEST(MpiColl, AllgatherSharedHandsEveryRankTheSameTable) {
  // One generation, one table: every rank receives the same immutable
  // object (not a copy), holding every rank's contribution.
  constexpr int P = 5;
  std::vector<const void*> seen(P, nullptr);
  Rig rig(P);
  rig.run([&](smpi::Mpi& mpi) {
    const std::uint32_t v = 0x2000u + static_cast<std::uint32_t>(mpi.rank());
    const auto table = mpi.allgather_shared(std::as_bytes(std::span(&v, 1)));
    seen[static_cast<std::size_t>(mpi.rank())] = table.get();
    ASSERT_EQ(table->size(), static_cast<std::size_t>(P));
    for (std::uint32_t r = 0; r < P; ++r) {
      std::uint32_t got = 0;
      std::memcpy(&got, (*table)[r].data(), sizeof(got));
      EXPECT_EQ(got, 0x2000u + r);
    }
  });
  for (int r = 1; r < P; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], seen[0]);
}

TEST(MpiColl, SparseSharedHandsEveryRankTheSameTable) {
  // The sparse twin: one generation, one table object for every rank
  // whatever it wanted, and the copy form returns exactly the wanted
  // interval plus the caller's own blob from it, ascending by source.
  constexpr int P = 6;
  std::vector<const void*> seen(P, nullptr);
  Rig rig(P);
  rig.run([&](smpi::Mpi& mpi) {
    const int me = mpi.rank();
    const std::vector<std::byte> mine(static_cast<std::size_t>(me) + 1,
                                      static_cast<std::byte>(0x40 + me));
    // Rank 0 wants every source, rank 1 [2, 5) (its own blob below the
    // interval), rank 5 [1, 3) (above it), the others nothing.
    const int want_b = me == 1 ? 2 : me == 5 ? 1 : 0;
    const int want_e = me == 0 ? P : me == 1 ? 5 : me == 5 ? 3 : 0;
    const auto table = mpi.sparse_allgatherv_shared(mine, want_b, want_e);
    seen[static_cast<std::size_t>(me)] = table.get();
    ASSERT_EQ(table->size(), static_cast<std::size_t>(P));
    std::vector<int> expect_src = {me};
    if (me == 0) expect_src = {0, 1, 2, 3, 4, 5};
    if (me == 1) expect_src = {1, 2, 3, 4};
    if (me == 5) expect_src = {1, 2, 5};
    std::vector<std::pair<int, std::vector<std::byte>>> expect;
    for (int r : expect_src) {
      expect.emplace_back(r, (*table)[static_cast<std::size_t>(r)]);
      EXPECT_EQ(expect.back().second,
                std::vector<std::byte>(static_cast<std::size_t>(r) + 1,
                                       static_cast<std::byte>(0x40 + r)));
    }
    EXPECT_EQ(mpi.sparse_allgatherv(mine, want_b, want_e), expect);
  });
  for (int r = 1; r < P; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], seen[0]);
}

TEST(MpiColl, AllgatherSizeMismatchStillRejected) {
  // The equal-size check moved to deposit time; a rank contributing a
  // different size still fails the run with the historical message.
  for (bool shared : {false, true}) {
    Rig rig(4);
    try {
      rig.run([&](smpi::Mpi& mpi) {
        const std::vector<std::byte> mine(mpi.rank() == 2 ? 8 : 4);
        if (shared) {
          mpi.allgather_shared(mine);
        } else {
          mpi.allgather(mine);
        }
      });
      FAIL() << "expected the size mismatch to be rejected";
    } catch (const tpio::Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "allgather: contribution sizes differ across ranks"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MpiColl, SparseAllgathervOwnBlobBelowInsideOrAboveTheInterval) {
  // Every rank wants [3, 6): ranks 0-2 sit below the interval, 3-5 inside
  // it, 6-7 above it. Each gets the interval plus its own blob, once,
  // ascending by source.
  constexpr int P = 8;
  Rig rig(P);
  rig.run([&](smpi::Mpi& mpi) {
    const int me = mpi.rank();
    const std::vector<std::byte> mine(static_cast<std::size_t>(me) + 1,
                                      static_cast<std::byte>(me));
    const auto got = mpi.sparse_allgatherv(mine, 3, 6);
    std::vector<int> expect;
    for (int r = 0; r < P; ++r) {
      if (r == me || (3 <= r && r < 6)) expect.push_back(r);
    }
    ASSERT_EQ(got.size(), expect.size()) << "rank " << me;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, expect[i]) << "rank " << me;
      EXPECT_EQ(got[i].second,
                std::vector<std::byte>(static_cast<std::size_t>(expect[i]) + 1,
                                       static_cast<std::byte>(expect[i])));
    }
  });
}
