#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/read_engine.hpp"
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

coll::FileView strided_view(int rank, int P, std::uint64_t piece, int rows) {
  coll::FileView v;
  for (int r = 0; r < rows; ++r) {
    v.extents.push_back(coll::Extent{
        (static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(P) +
         static_cast<std::uint64_t>(rank)) *
            piece,
        piece});
  }
  return v;
}

/// A rank layout of the read: the rig's ranks per node and the lanes a
/// hierarchical read routes through (co = 0: flat).
struct Layout {
  const char* name;
  int ppn;
  int co;
  coll::LeaderPolicy policy;
};

/// Flat, one 2-member lane per 2-rank node, and two 2-member lanes per
/// 4-rank node led by their last member.
constexpr Layout kLayouts[] = {
    {"flat", 2, 0, coll::LeaderPolicy::Lowest},
    {"hier co=1", 2, 1, coll::LeaderPolicy::Lowest},
    {"hier co=2 spread", 4, 2, coll::LeaderPolicy::Spread},
};

ClusterSpec rig(const Layout& l) {
  ClusterSpec spec;
  spec.ppn = l.ppn;
  spec.nodes = 8 / l.ppn;
  return spec;
}

class CollectiveRead : public testing::TestWithParam<coll::OverlapMode> {};

coll::Options read_options(coll::OverlapMode m, std::uint64_t cb = 16384,
                           const Layout& l = kLayouts[0]) {
  coll::Options o;
  o.cb_size = cb;
  o.overlap = m;
  o.hierarchical = l.co > 0;
  o.local_aggregators = std::max(l.co, 1);
  o.leader_policy = l.policy;
  return o;
}

/// Under each layout: pre-populate a file with expected_byte() content via
/// a flat collective write, then collectively read it back under `mode`
/// and check every rank got exactly its view's bytes.
void write_then_read(
    coll::OverlapMode mode, std::uint64_t cb,
    const std::function<coll::FileView(int rank, int P)>& make_view) {
  for (const Layout& l : kLayouts) {
    SCOPED_TRACE(l.name);
    Cluster cluster(rig(l));
    auto file = cluster.storage().create("rt", pfs::Integrity::Store);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const coll::FileView view = make_view(mpi.rank(), mpi.size());
      const auto data = fill_local(view);
      coll::Options wopt;
      wopt.cb_size = cb;
      coll::collective_write(mpi, *file, view, data, wopt);
      mpi.barrier();

      std::vector<std::byte> out(view.total_bytes(), std::byte{0xEE});
      coll::collective_read(mpi, *file, view, out, read_options(mode, cb, l));
      ASSERT_EQ(out, data) << "rank " << mpi.rank() << " read wrong bytes";
    });
  }
}

}  // namespace

TEST_P(CollectiveRead, BlockViewRoundTrips) {
  write_then_read(GetParam(), 16384,
                  [](int r, int) { return block_view(r, 20'000); });
}

TEST_P(CollectiveRead, StridedViewRoundTrips) {
  write_then_read(GetParam(), 16384,
                  [](int r, int P) { return strided_view(r, P, 512, 24); });
}

TEST_P(CollectiveRead, TinyPiecesRoundTrip) {
  write_then_read(GetParam(), 4096,
                  [](int r, int P) { return strided_view(r, P, 64, 30); });
}

TEST_P(CollectiveRead, SomeRanksReadNothing) {
  write_then_read(GetParam(), 16384, [](int r, int) {
    coll::FileView v;
    if (r % 2 == 0) {
      v.extents.push_back(
          coll::Extent{static_cast<std::uint64_t>(r / 2) * 9000, 9000});
    }
    return v;
  });
}

TEST_P(CollectiveRead, SingleCycle) {
  write_then_read(GetParam(), 1 << 20,
                  [](int r, int) { return block_view(r, 700); });
}

TEST_P(CollectiveRead, DeterministicMakespan) {
  for (const Layout& l : kLayouts) {
    SCOPED_TRACE(l.name);
    auto once = [&] {
      Cluster cluster(rig(l));
      auto file = cluster.storage().create("rt", pfs::Integrity::Store);
      cluster.run([&](tpio::smpi::Mpi& mpi) {
        const auto view = strided_view(mpi.rank(), mpi.size(), 768, 10);
        const auto data = fill_local(view);
        coll::Options wopt;
        wopt.cb_size = 16384;
        coll::collective_write(mpi, *file, view, data, wopt);
        std::vector<std::byte> out(view.total_bytes());
        coll::collective_read(mpi, *file, view, out,
                              read_options(GetParam(), 16384, l));
      });
      return cluster.conductor().makespan();
    };
    EXPECT_EQ(once(), once());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CollectiveRead,
    testing::Values(coll::OverlapMode::None, coll::OverlapMode::Comm,
                    coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
                    coll::OverlapMode::WriteComm2),
    [](const testing::TestParamInfo<coll::OverlapMode>& info) {
      std::string s = coll::to_string(info.param);
      for (char& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

TEST(CollectiveReadMisc, OneSidedScatterAndAutoRejected) {
  // The scatter is two-sided only, and Auto's probes measure write costs
  // only: the read engine refuses both instead of running something else.
  coll::Options one_sided;
  one_sided.transfer = coll::Transfer::OneSidedFence;
  coll::Options auto_mode;
  auto_mode.overlap = coll::OverlapMode::Auto;
  for (const coll::Options& o : {one_sided, auto_mode}) {
    Cluster cluster;
    auto file = cluster.storage().create("rt", pfs::Integrity::Store);
    EXPECT_THROW(cluster.run([&](tpio::smpi::Mpi& mpi) {
                   coll::FileView v = block_view(mpi.rank(), 512);
                   std::vector<std::byte> out(512);
                   coll::collective_read(mpi, *file, v, out, o);
                 }),
                 tpio::Error)
        << coll::to_string(o.transfer) << " " << coll::to_string(o.overlap);
  }
}

TEST(CollectiveReadMisc, MaterializedReadNeedsPayloadMachine) {
  // The read engine shares the write engine's FileStage, and with it the
  // refusal to materialize bytes on a Machine that carries sizes only.
  ClusterSpec spec;
  spec.payloads = false;
  Cluster cluster(spec);
  auto file = cluster.storage().create("rt", pfs::Integrity::Store);
  try {
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      coll::FileView v = block_view(mpi.rank(), 512);
      std::vector<std::byte> out(512);
      coll::collective_read(mpi, *file, v, out, coll::Options{});
    });
    FAIL() << "expected the materialize/payloads mismatch to throw";
  } catch (const tpio::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("Options::materialize == true"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("payloads"), std::string::npos) << msg;
  }
}

TEST(CollectiveReadMisc, UnwrittenRegionsReadZero) {
  Cluster cluster;
  auto file = cluster.storage().create("rt", pfs::Integrity::Store);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    coll::FileView v = block_view(mpi.rank(), 1000);
    std::vector<std::byte> out(1000, std::byte{0xAB});
    coll::Options o;
    o.cb_size = 4096;
    coll::collective_read(mpi, *file, v, out, o);
    for (std::byte b : out) ASSERT_EQ(b, std::byte{0});
  });
}

TEST(CollectiveReadMisc, ReadAheadOverlapsScatter) {
  // With per-request fixed costs removed (so halving the buffer is free),
  // the read-ahead scheduler must beat strict alternation: cycle c+1's
  // file read proceeds behind cycle c's scatter.
  // Equal sub-buffer (hence cycle) geometry: the overlap mode halves its
  // collective buffer internally, so give it twice the budget.
  auto run = [](coll::OverlapMode m, std::uint64_t cb) {
    ClusterSpec spec;
    spec.pfs.op_overhead = 0;
    spec.pfs.request_overhead = 0;
    Cluster cluster(spec);
    auto file = cluster.storage().create("rt", pfs::Integrity::Store);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const auto view = block_view(mpi.rank(), 30'000);
      const auto data = fill_local(view);
      coll::Options wopt;
      wopt.cb_size = 8192;
      coll::collective_write(mpi, *file, view, data, wopt);
      std::vector<std::byte> out(view.total_bytes());
      coll::collective_read(mpi, *file, view, out, read_options(m, cb));
    });
    return cluster.conductor().makespan();
  };
  EXPECT_LT(run(coll::OverlapMode::Write, 8192),
            run(coll::OverlapMode::None, 4096));
}

TEST(CollectiveReadMisc, WriteReadCycleTagsDoNotCollide) {
  // Interleave writes and reads on the same machine repeatedly, flat and
  // through lanes: a lane's gather and scatter messages share their
  // endpoints with the forwards and with each other.
  for (const Layout& l : kLayouts) {
    SCOPED_TRACE(l.name);
    Cluster cluster(rig(l));
    auto f1 = cluster.storage().create("a", pfs::Integrity::Store);
    auto f2 = cluster.storage().create("b", pfs::Integrity::Store);
    cluster.run([&](tpio::smpi::Mpi& mpi) {
      const coll::Options o =
          read_options(coll::OverlapMode::WriteComm2, 8192, l);
      for (int round = 0; round < 3; ++round) {
        const auto view = block_view(mpi.rank(), 5000);
        const auto data = fill_local(view);
        auto& f = round % 2 == 0 ? *f1 : *f2;
        coll::collective_write(mpi, f, view, data, o);
        std::vector<std::byte> out(view.total_bytes());
        coll::collective_read(mpi, f, view, out, o);
        ASSERT_EQ(out, data);
      }
    });
  }
}
