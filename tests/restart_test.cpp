// The restart runner, xp::execute_restart: its write is xp::execute's, its
// read routes through the write's lanes, and it refuses, before any rank
// runs, what the collective read cannot run. Golden.WriteThenRestartRead
// checks the write half on the golden cells.

#include <gtest/gtest.h>

#include <string>

#include "core/trace.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "simbase/error.hpp"
#include "test_rig.hpp"

namespace coll = tpio::coll;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

namespace {

/// Restart `spec` verified, check its write against xp::execute(spec) and
/// its read's bytes and phase buckets, and return the restart.
xp::RestartResult restart_as_execute(xp::RunSpec spec) {
  spec.verify = true;
  const xp::RestartResult r = xp::execute_restart(spec);
  EXPECT_EQ(xp::fingerprint(r.write), xp::fingerprint(xp::execute(spec)));
  EXPECT_EQ(r.write.verify_error, "");
  EXPECT_EQ(r.read.verify_error, "");
  EXPECT_EQ(r.read.io_error, "");
  EXPECT_EQ(r.read.bytes, r.write.bytes);
  EXPECT_GE(r.read.arrival, r.write.completion);
  EXPECT_EQ(r.read.makespan, r.read.completion - r.read.arrival);
  const coll::PhaseTimings& t = r.read.rank_sum;  // every rank's buckets
  EXPECT_EQ(t.meta + t.pack + t.gather + t.forward + t.shuffle + t.sync +
                t.write + t.backoff,
            t.total);
  return r;
}

}  // namespace

TEST(Restart, WriteHalfIsExecute) {
  {
    SCOPED_TRACE("scaled crill: noisy fabric and storage, co-located targets");
    xp::RunSpec spec;
    spec.platform = xp::scaled(xp::crill());
    spec.workload = wl::make_tile256(2, 256);
    spec.nprocs = 48;
    spec.options.cb_size = xp::kCbSize;
    spec.options.hierarchical = true;
    spec.options.local_aggregators = 4;
    spec.seed = 0xC0;
    // Four 3-member lanes per 12-rank node: the read routes through them
    // as the write does, intra-node leg in gather, inter-node in forward,
    // and its leaders' merged messages replace their members' own.
    const xp::RestartResult lanes = restart_as_execute(spec);
    EXPECT_GT(lanes.read.rank_sum.gather, 0);
    EXPECT_GT(lanes.read.rank_sum.forward, 0);
    spec.options.hierarchical = false;
    const xp::RestartResult flat = restart_as_execute(spec);
    EXPECT_LT(lanes.read.inter_node_messages, flat.read.inter_node_messages);
  }
  {
    SCOPED_TRACE("a faulted write: ranks retry some of their file writes");
    xp::RunSpec spec;
    spec.platform = xp::scaled(xp::ibex());
    spec.workload = wl::make_ior(1u << 18);
    spec.nprocs = 16;
    spec.options.cb_size = 1u << 16;
    spec.options.max_retries = 8;
    spec.platform.pfs.faults.write_fail_rate = 0.2;
    spec.platform.pfs.faults.seed = 7;
    spec.seed = 0x601D;
    EXPECT_GT(restart_as_execute(spec).write.faults.retries, 0);
  }
}

TEST(Restart, OneMemberLanesReadAsFlat) {
  // co = 4 on the rig's 4-rank nodes makes every rank its own lane's
  // leader: the read posts the flat read's messages, and only its start
  // moves with the write's per-lane cycle syncs.
  tpio::test::ClusterSpec rig;
  rig.ppn = 4;
  xp::RunSpec spec = tpio::test::rig_job(rig, wl::make_tile256(4, 64));
  spec.options.cb_size = 1u << 16;
  xp::RunResult flat = restart_as_execute(spec).read;
  spec.options.hierarchical = true;
  spec.options.local_aggregators = 4;
  xp::RunResult lanes = restart_as_execute(spec).read;
  EXPECT_NE(lanes.arrival, flat.arrival);
  lanes.arrival = lanes.completion = flat.arrival = flat.completion = 0;
  EXPECT_EQ(xp::fingerprint(lanes), xp::fingerprint(flat));
}

TEST(Restart, RefusesWhatTheReadCannotRun) {
  struct Case {
    const char* field;
    void (*set)(coll::Options&);
  };
  const Case cases[] = {
      {"options.transfer",
       [](coll::Options& o) { o.transfer = coll::Transfer::OneSidedFence; }},
      {"options.transfer",
       [](coll::Options& o) { o.transfer = coll::Transfer::OneSidedLock; }},
      {"options.overlap",
       [](coll::Options& o) { o.overlap = coll::OverlapMode::Auto; }},
      {"options.sub_comm_count",
       [](coll::Options& o) { o.sub_comm_count = 2; }},
  };
  for (const Case& c : cases) {
    const tpio::test::ClusterSpec rig;
    xp::RunSpec spec = tpio::test::rig_job(rig, wl::make_ior(1u << 14));
    coll::Trace trace;
    spec.options.trace = &trace;
    c.set(spec.options);
    try {
      xp::execute_restart(spec);
      ADD_FAILURE() << c.field << ": no refusal";
    } catch (const tpio::Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(trace.empty()) << c.field << ": a rank ran before the refusal";
  }
}
