#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/read_engine.hpp"
#include "core/trace.hpp"
#include "test_rig.hpp"
#include "workloads/workloads.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
using tpio::test::Cluster;
using tpio::wl::fill_local;

namespace {

/// Traces of one collective write, or with `read` of one collective read
/// of the same views (from a file never written: reads return zeros).
std::vector<coll::Trace> traced_run(coll::OverlapMode mode, bool hier = false,
                                    int nodes = 4, int ppn = 2,
                                    bool read = false) {
  tpio::test::ClusterSpec cs;
  cs.nodes = nodes;
  cs.ppn = ppn;
  Cluster cluster(cs);
  std::vector<coll::Trace> traces(static_cast<std::size_t>(cluster.nprocs()));
  auto file = cluster.storage().create("tr", pfs::Integrity::None);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    coll::FileView v;
    v.extents.push_back(
        coll::Extent{static_cast<std::uint64_t>(mpi.rank()) * 20'000, 20'000});
    const auto data = fill_local(v);
    coll::Options o;
    o.cb_size = 16384;
    o.overlap = mode;
    o.hierarchical = hier;
    o.trace = &traces[static_cast<std::size_t>(mpi.rank())];
    if (read) {
      std::vector<std::byte> out(data.size());
      coll::collective_read(mpi, *file, v, out, o);
    } else {
      coll::collective_write(mpi, *file, v, data, o);
    }
  });
  return traces;
}

std::vector<int> event_cycles(const coll::Trace& t, const std::string& name) {
  std::vector<int> out;
  for (const auto& e : t.events()) {
    if (std::string(e.name) == name) out.push_back(e.cycle);
  }
  return out;
}

}  // namespace

TEST(Trace, RecordsPhasesOnEveryRank) {
  const auto traces = traced_run(coll::OverlapMode::WriteComm2);
  for (const auto& t : traces) {
    EXPECT_FALSE(t.empty());
  }
  // Aggregators must show write phases; everyone shows shuffles.
  bool any_write = false;
  for (const auto& t : traces) {
    bool shuffle = false;
    for (const auto& e : t.events()) {
      if (std::string(e.name).find("shuffle") != std::string::npos) {
        shuffle = true;
      }
      if (std::string(e.name).find("write") != std::string::npos) {
        any_write = true;
      }
    }
    EXPECT_TRUE(shuffle);
  }
  EXPECT_TRUE(any_write);
}

TEST(Trace, EventsWellFormedAndOrdered) {
  const auto traces = traced_run(coll::OverlapMode::Write);
  for (const auto& t : traces) {
    sim::Time prev_begin = 0;
    for (const auto& e : t.events()) {
      EXPECT_LE(e.begin, e.end);
      EXPECT_GE(e.begin, prev_begin);  // per-rank events begin in order
      prev_begin = e.begin;
      EXPECT_GE(e.cycle, 0);
    }
  }
}

TEST(Trace, OverlapVisibleInTimeline) {
  // In Write overlap, some write_wait (cycle c) must begin after the
  // shuffle of cycle c+1 began on the same rank — that IS the overlap.
  const auto traces = traced_run(coll::OverlapMode::Write);
  bool overlap_seen = false;
  for (const auto& t : traces) {
    sim::Time first_write_init = -1;
    for (const auto& e : t.events()) {
      if (std::string(e.name) == "write_init" && e.cycle == 0) {
        first_write_init = e.begin;
      }
      if (std::string(e.name) == "shuffle_init" && e.cycle == 1 &&
          first_write_init >= 0 && e.begin >= first_write_init) {
        overlap_seen = true;
      }
    }
  }
  EXPECT_TRUE(overlap_seen);
}

TEST(Trace, WriteEventsOnlyOnAggregatorRanks) {
  // With the Cluster geometry (4 nodes x 2 ppn, 160000 bytes, 16 KiB cb)
  // the plan places aggregators on the even ranks. Non-aggregators never
  // touch the file, so their traces must carry no write phases at all.
  for (coll::OverlapMode mode :
       {coll::OverlapMode::None, coll::OverlapMode::Comm,
        coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
        coll::OverlapMode::WriteComm2}) {
    const auto traces = traced_run(mode);
    for (std::size_t r = 0; r < traces.size(); ++r) {
      bool any_write = false;
      for (const auto& e : traces[r].events()) {
        if (std::string(e.name).find("write") != std::string::npos) {
          any_write = true;
        }
      }
      EXPECT_EQ(any_write, r % 2 == 0)
          << "rank " << r << " mode " << coll::to_string(mode);
    }
  }
}

TEST(Trace, WriteWaitCyclesMatchTheirWriteInits) {
  // Every write_wait must be labeled with the cycle of the write it waits
  // on (recorded at write_init time), under each asynchronous-write
  // scheduler — not with the slot's most recent shuffle cycle. The read
  // engine's read_wait must carry its read_init's cycle the same way,
  // under read-ahead, read-comm and read-comm-2.
  for (const bool read : {false, true}) {
    const std::string init = read ? "read_init" : "write_init";
    const std::string wait = read ? "read_wait" : "write_wait";
    for (coll::OverlapMode mode :
         {coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
          coll::OverlapMode::WriteComm2}) {
      const auto traces = traced_run(mode, false, 4, 2, read);
      for (std::size_t r = 0; r < traces.size(); ++r) {
        std::vector<int> inits = event_cycles(traces[r], init);
        const std::vector<int> waits = event_cycles(traces[r], wait);
        if (r % 2 == 1) {
          EXPECT_TRUE(inits.empty() && waits.empty()) << "rank " << r;
          continue;
        }
        EXPECT_FALSE(inits.empty()) << "rank " << r << " " << init;
        // One wait per init, covering exactly the same cycles. Waits are
        // posted in cycle order by every scheduler, so compare directly.
        std::sort(inits.begin(), inits.end());
        EXPECT_EQ(waits, inits)
            << "rank " << r << " mode " << coll::to_string(mode) << " "
            << wait;
      }
    }
  }
}

TEST(Trace, LeaderGatherEventsOnlyOnLeaderRanks) {
  // Hierarchical shuffle on the default geometry (4 nodes x 2 ppn): the
  // Lowest policy elects ranks 0, 2, 4, 6. Only leaders merge co-located
  // data, so only their traces may carry leader_gather phases — and with
  // every rank contributing each cycle, they all must.
  for (coll::OverlapMode mode :
       {coll::OverlapMode::None, coll::OverlapMode::Comm,
        coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
        coll::OverlapMode::WriteComm2}) {
    const auto traces = traced_run(mode, /*hier=*/true);
    for (std::size_t r = 0; r < traces.size(); ++r) {
      const auto gathers = event_cycles(traces[r], "leader_gather");
      if (r % 2 == 0) {
        EXPECT_FALSE(gathers.empty())
            << "rank " << r << " mode " << coll::to_string(mode);
      } else {
        EXPECT_TRUE(gathers.empty())
            << "rank " << r << " mode " << coll::to_string(mode);
      }
    }
  }
}

TEST(Trace, LeaderGatherCyclesMatchShuffleInits) {
  // Every cycle a leader shuffles, it first gathered that same cycle: the
  // leader_gather events must carry exactly the shuffle_init cycle labels,
  // in the same order, under every scheduler.
  for (coll::OverlapMode mode :
       {coll::OverlapMode::None, coll::OverlapMode::Comm,
        coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
        coll::OverlapMode::WriteComm2}) {
    const auto traces = traced_run(mode, /*hier=*/true);
    for (std::size_t r = 0; r < traces.size(); r += 2) {
      const auto gathers = event_cycles(traces[r], "leader_gather");
      const auto shuffles = event_cycles(traces[r], "shuffle_init");
      EXPECT_EQ(gathers, shuffles)
          << "rank " << r << " mode " << coll::to_string(mode);
    }
  }
}

TEST(Trace, NoLeaderGatherEventsAtPpnOne) {
  // One process per node: nothing to merge, the hierarchical path must
  // degenerate to the direct one — no gather phases anywhere.
  const auto traces = traced_run(coll::OverlapMode::WriteComm2, /*hier=*/true,
                                 /*nodes=*/8, /*ppn=*/1);
  for (std::size_t r = 0; r < traces.size(); ++r) {
    EXPECT_TRUE(event_cycles(traces[r], "leader_gather").empty())
        << "rank " << r;
  }
}

TEST(Trace, ChromeDocumentShape) {
  const auto traces = traced_run(coll::OverlapMode::None);
  const std::string doc = coll::Trace::chrome_document(traces);
  EXPECT_EQ(doc.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(doc.find("shuffle_init"), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Balanced braces at the ends.
  EXPECT_EQ(doc.back(), '\n');
}

TEST(Trace, NullTraceIsFreeOfEvents) {
  Cluster cluster;
  auto file = cluster.storage().create("tr", pfs::Integrity::None);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    coll::FileView v;
    v.extents.push_back(
        coll::Extent{static_cast<std::uint64_t>(mpi.rank()) * 4096, 4096});
    const auto data = fill_local(v);
    coll::Options o;  // trace == nullptr
    coll::collective_write(mpi, *file, v, data, o);
  });
  SUCCEED();  // merely must not crash
}
