// White-box tests of the Engine's phase operations: scheduler invariants,
// misuse detection, and the timing mechanisms the overlap algorithms rely
// on (write pipelining, progress blackouts, sub-buffer double buffering).

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "simbase/error.hpp"
#include "test_rig.hpp"
#include "workloads/workloads.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
using tpio::test::Cluster;
using tpio::test::ClusterSpec;
using tpio::wl::expected_byte;
using tpio::wl::fill_local;

namespace {

coll::FileView block_view(int rank, std::uint64_t n) {
  coll::FileView v;
  v.extents.push_back(coll::Extent{static_cast<std::uint64_t>(rank) * n, n});
  return v;
}

coll::Options two_slot_options() {
  coll::Options o;
  o.cb_size = 8192;  // sub-buffer 4096 with overlap
  o.overlap = coll::OverlapMode::WriteComm2;
  return o;
}

/// Run a program that drives Engine phases manually on every rank.
template <class F>
void drive(Cluster& cluster, const coll::Options& opt, std::uint64_t block,
           F&& f, pfs::Integrity integrity = pfs::Integrity::Store) {
  auto file = cluster.storage().create("wb", integrity);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto data = fill_local(block_view(mpi.rank(), block));
    std::vector<coll::FileView> views;
    for (int r = 0; r < mpi.size(); ++r) views.push_back(block_view(r, block));
    coll::Plan plan(std::move(views),
                    mpi.machine().fabric().topology(), file->stripe_size(),
                    opt);
    coll::PhaseTimings t;
    coll::Engine engine(mpi, *file, plan, data, opt, t);
    f(engine, plan, mpi);
  });
}

}  // namespace

TEST(EngineWhitebox, ManualPhaseSequenceWritesCorrectly) {
  Cluster cluster;
  auto file = cluster.storage().create("wb", pfs::Integrity::Store);
  const std::uint64_t block = 6000;
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto data = fill_local(block_view(mpi.rank(), block));
    std::vector<coll::FileView> views;
    for (int r = 0; r < mpi.size(); ++r) views.push_back(block_view(r, block));
    coll::Options opt = two_slot_options();
    coll::Plan plan(std::move(views), mpi.machine().fabric().topology(),
                    file->stripe_size(), opt);
    coll::PhaseTimings t;
    coll::Engine engine(mpi, *file, plan, data, opt, t);
    // Hand-rolled no-overlap schedule on the two-slot engine.
    for (int c = 0; c < plan.num_cycles(); ++c) {
      engine.shuffle_blocking(c, c % 2);
      engine.write_blocking(c, c % 2);
    }
  });
  EXPECT_EQ(file->verify(expected_byte), "");
}

TEST(EngineWhitebox, ShuffleIntoPendingWriteThrows) {
  Cluster cluster;
  EXPECT_THROW(
      drive(cluster, two_slot_options(), 6000,
            [](coll::Engine& e, const coll::Plan& plan, tpio::smpi::Mpi&) {
              ASSERT_GE(plan.num_cycles(), 2);
              e.shuffle_blocking(0, 0);
              e.write_init(0, 0);
              // Refilling slot 0 while its write is in flight is the bug
              // class the double-buffer invariant catches.
              e.shuffle_init(1, 0);
            }),
      tpio::Error);
}

TEST(EngineWhitebox, DoubleShuffleInitThrows) {
  Cluster cluster;
  EXPECT_THROW(
      drive(cluster, two_slot_options(), 6000,
            [](coll::Engine& e, const coll::Plan&, tpio::smpi::Mpi&) {
              e.shuffle_init(0, 0);
              e.shuffle_init(1, 0);
            }),
      tpio::Error);
}

TEST(EngineWhitebox, ShuffleWaitWithoutInitThrows) {
  Cluster cluster;
  EXPECT_THROW(drive(cluster, two_slot_options(), 6000,
                     [](coll::Engine& e, const coll::Plan&, tpio::smpi::Mpi&) {
                       e.shuffle_wait(0);
                     }),
               tpio::Error);
}

TEST(EngineWhitebox, WriteInitDuringShuffleThrows) {
  Cluster cluster;
  EXPECT_THROW(
      drive(cluster, two_slot_options(), 6000,
            [](coll::Engine& e, const coll::Plan&, tpio::smpi::Mpi&) {
              e.shuffle_init(0, 0);
              e.write_init(0, 0);  // sub-buffer still filling
            }),
      tpio::Error);
}

TEST(EngineWhitebox, DoubleWriteInitThrows) {
  Cluster cluster;
  EXPECT_THROW(
      drive(cluster, two_slot_options(), 6000,
            [](coll::Engine& e, const coll::Plan& plan, tpio::smpi::Mpi&) {
              ASSERT_GE(plan.num_cycles(), 2);
              e.shuffle_blocking(0, 0);
              e.write_init(0, 0);
              e.write_init(1, 0);
            }),
      tpio::Error);
}

TEST(EngineWhitebox, AsyncWritePipelinesAcrossSlots) {
  // The write of cycle 0 must drain while cycle 1 shuffles: the engine's
  // write_wait after an interleaved shuffle ends no later than issuing
  // both writes back-to-back blocking.
  ClusterSpec spec;
  Cluster interleaved(spec), serial(spec);
  const std::uint64_t block = 6000;

  sim::Time t_inter = 0, t_serial = 0;
  {
    drive(interleaved, two_slot_options(), block,
          [&](coll::Engine& e, const coll::Plan& plan, tpio::smpi::Mpi& mpi) {
            ASSERT_GE(plan.num_cycles(), 2);
            e.shuffle_blocking(0, 0);
            e.write_init(0, 0);
            e.shuffle_blocking(1, 1);  // overlaps write 0
            e.write_init(1, 1);
            e.write_wait(0);
            e.write_wait(1);
            for (int c = 2; c < plan.num_cycles(); ++c) {
              e.shuffle_blocking(c, c % 2);
              e.write_blocking(c, c % 2);
            }
            if (mpi.rank() == 0) t_inter = mpi.ctx().now();
          });
  }
  {
    drive(serial, two_slot_options(), block,
          [&](coll::Engine& e, const coll::Plan& plan, tpio::smpi::Mpi& mpi) {
            for (int c = 0; c < plan.num_cycles(); ++c) {
              e.shuffle_blocking(c, c % 2);
              e.write_blocking(c, c % 2);
            }
            if (mpi.rank() == 0) t_serial = mpi.ctx().now();
          });
  }
  EXPECT_LT(t_inter, t_serial);
}

TEST(EngineWhitebox, BlockingWriteDeclaresProgressBlackout) {
  // During an aggregator's blocking write, a rendezvous handshake from a
  // late sender must stall until the write completes.
  ClusterSpec spec;
  spec.mpi.eager_limit = 512;  // force rendezvous
  Cluster cluster(spec);
  std::vector<sim::Time> done(static_cast<std::size_t>(cluster.nprocs()), 0);

  auto file = cluster.storage().create("wb", pfs::Integrity::None);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    // Rank 0 acts as an "aggregator": posts a receive, then blocks in a
    // large write; rank 1 sends after the write started.
    const std::size_t n = 4096;
    if (mpi.rank() == 0) {
      std::vector<std::byte> buf(n);
      tpio::smpi::Request r = mpi.irecv(1, 9, buf);
      std::vector<std::byte> payload(200'000, std::byte{1});
      pfs::WriteOp op = file->start_write(mpi.ctx(), 0, 0, payload, false);
      mpi.set_unavailable_until(op.completion());
      const sim::Time write_end = op.completion();
      file->wait(mpi.ctx(), op);
      mpi.wait(r);
      // The transfer could not finish before the write returned.
      EXPECT_GE(mpi.ctx().now(), write_end);
    } else if (mpi.rank() == 1) {
      mpi.ctx().advance(sim::microseconds(5));
      mpi.send(0, 9, std::vector<std::byte>(n, std::byte{2}));
    }
  });
}

TEST(EngineWhitebox, RunMatchesManualSchedule) {
  // Engine::run() with OverlapMode::None equals the hand-rolled
  // shuffle+write loop, timing included.
  auto manual = [] {
    ClusterSpec spec;
    Cluster cluster(spec);
    sim::Time t = 0;
    coll::Options o;
    o.cb_size = 8192;
    o.overlap = coll::OverlapMode::None;
    drive(cluster, o, 6000,
          [&](coll::Engine& e, const coll::Plan& plan, tpio::smpi::Mpi& mpi) {
            for (int c = 0; c < plan.num_cycles(); ++c) {
              e.shuffle_blocking(c, 0);
              e.write_blocking(c, 0);
            }
            if (mpi.rank() == 0) t = mpi.ctx().now();
          });
    return t;
  };
  auto automatic = [] {
    ClusterSpec spec;
    Cluster cluster(spec);
    sim::Time t = 0;
    coll::Options o;
    o.cb_size = 8192;
    o.overlap = coll::OverlapMode::None;
    drive(cluster, o, 6000,
          [&](coll::Engine& e, const coll::Plan&, tpio::smpi::Mpi& mpi) {
            e.run();
            if (mpi.rank() == 0) t = mpi.ctx().now();
          });
    return t;
  };
  EXPECT_EQ(manual(), automatic());
}
