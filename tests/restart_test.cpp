// The restart runner, xp::execute_restart: its write is xp::execute's, and
// it refuses, before any rank runs, what the collective read cannot run.
// Golden.WriteThenRestartRead checks the write half on the golden cells.

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

/// Restart `spec` verified, expect its write to be xp::execute(spec)'s and
/// its bytes to come back, and return the restart.
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
    restart_as_execute(spec);
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
