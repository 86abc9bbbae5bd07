// Fault-injection and resilient-write-path tests: the FaultModel oracle's
// pure-function contract, retry/give-up behaviour of both engines across
// every scheduler and transfer primitive, straggler degraded mode, and the
// determinism guarantees documented in docs/FAULTS.md.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/trace.hpp"
#include "harness/platform.hpp"
#include "harness/runner.hpp"
#include "test_rig.hpp"
#include "workloads/workloads.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace xp = tpio::xp;
namespace wl = tpio::wl;
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

struct Config {
  coll::OverlapMode overlap;
  coll::Transfer transfer;
};

std::string config_name(const testing::TestParamInfo<Config>& info) {
  std::string s = coll::to_string(info.param.overlap);
  s += "_";
  s += coll::to_string(info.param.transfer);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

/// A restart (xp::execute_restart) of IOR at `per_rank` bytes per rank on
/// the test rig, 8 ranks at 2 per node, with `faults` in its storage.
xp::RunSpec rig_restart(const pfs::FaultParams& faults,
                        std::uint64_t per_rank) {
  ClusterSpec rig;
  rig.pfs.faults = faults;
  xp::RunSpec spec = tpio::test::rig_job(rig, wl::make_ior(per_rank));
  spec.options.cb_size = 8192;
  return spec;
}

/// Outcome of one clustered collective write under a fault scenario.
struct WriteOutcome {
  coll::FaultStats faults;          // summed over ranks
  std::vector<std::string> io_errors;
  std::uint64_t bytes_written = 0;  // durable bytes per File
  std::string verify_error;
  sim::Duration makespan = 0;
};

/// Run one collective write (block views, `n` bytes per rank) on a fresh
/// cluster configured with `faults`, and collect the resilience outcome.
WriteOutcome run_faulty_write(const pfs::FaultParams& faults,
                              const coll::Options& opt,
                              std::uint64_t n = 32768) {
  ClusterSpec spec;
  spec.pfs.faults = faults;
  Cluster cluster(spec);
  auto file = cluster.storage().create("out", pfs::Integrity::Store);
  std::vector<coll::Result> results(
      static_cast<std::size_t>(cluster.nprocs()));
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const coll::FileView view = block_view(mpi.rank(), n);
    const auto data = fill_local(view);
    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, opt);
  });
  WriteOutcome out;
  for (const auto& r : results) {
    out.faults += r.faults;
    if (!r.io_error.empty()) out.io_errors.push_back(r.io_error);
  }
  out.bytes_written = file->bytes_written();
  out.verify_error = file->verify(expected_byte);
  out.makespan = cluster.conductor().makespan();
  return out;
}

coll::Options base_options(const Config& cfg) {
  coll::Options o;
  o.cb_size = 8192;
  o.overlap = cfg.overlap;
  o.transfer = cfg.transfer;
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// WriteOp zero-initialization (regression)
// ---------------------------------------------------------------------------

TEST(WriteOp, ValueInitialized) {
  // A value-constructed handle must be fully determinate: not valid, and
  // reporting the neutral Ok status (regression for the default-member-
  // initializer fix — the engines keep empty WriteOps in their slots).
  pfs::WriteOp op;
  EXPECT_FALSE(op.valid());
  EXPECT_EQ(op.status(), pfs::IoStatus::Ok);

  pfs::WriteOp ops[3];  // aggregate element initialization, same contract
  for (const auto& o : ops) {
    EXPECT_FALSE(o.valid());
    EXPECT_EQ(o.status(), pfs::IoStatus::Ok);
  }
}

// ---------------------------------------------------------------------------
// FaultModel oracle
// ---------------------------------------------------------------------------

TEST(FaultModel, HealthyDefaultsAreDisabled) {
  EXPECT_FALSE(pfs::FaultModel().enabled());
  EXPECT_FALSE(pfs::FaultModel(pfs::FaultParams{}).enabled());

  // A different seed alone does not enable the model: with all rates at
  // their defaults there is no fault stream to seed.
  pfs::FaultParams seeded;
  seeded.seed = 0xDEADBEEF;
  EXPECT_FALSE(pfs::FaultModel(seeded).enabled());
}

TEST(FaultModel, VerdictIsPureFunctionOfKeyAndAttempt) {
  pfs::FaultParams p;
  p.write_fail_rate = 0.5;
  p.read_fail_rate = 0.5;
  p.seed = 1234;
  const pfs::FaultModel m(p);

  // Same (key, attempt) -> same verdict, however often and in whatever
  // order it is asked; and an independent model instance agrees.
  const pfs::FaultModel twin(p);
  std::vector<bool> first;
  for (int k = 0; k < 64; ++k) {
    first.push_back(m.write_fails(static_cast<std::uint64_t>(k), 1));
  }
  for (int k = 63; k >= 0; --k) {  // reversed order, interleaved with reads
    (void)m.read_fails(static_cast<std::uint64_t>(k), 1);
    EXPECT_EQ(m.write_fails(static_cast<std::uint64_t>(k), 1),
              first[static_cast<std::size_t>(k)]);
    EXPECT_EQ(twin.write_fails(static_cast<std::uint64_t>(k), 1),
              first[static_cast<std::size_t>(k)]);
  }

  // Rate 0.5 over many keys must produce both verdicts (sanity: the hash
  // actually spreads), and attempts draw independently.
  int fails = 0, attempt_flips = 0;
  for (int k = 0; k < 256; ++k) {
    const auto key = static_cast<std::uint64_t>(k) * 977 + 3;
    if (m.write_fails(key, 1)) ++fails;
    if (m.write_fails(key, 1) != m.write_fails(key, 2)) ++attempt_flips;
  }
  EXPECT_GT(fails, 64);
  EXPECT_LT(fails, 192);
  EXPECT_GT(attempt_flips, 0);
}

TEST(FaultModel, RateExtremesAndFailUntil) {
  pfs::FaultParams p;
  p.write_fail_rate = 0.0;
  p.read_fail_rate = 1.0;
  p.fail_until_attempt = 3;
  const pfs::FaultModel m(p);

  // fail_until_attempt takes precedence over the rates: attempts 1 and 2
  // fail even at rate 0, attempt 3 onward falls back to the rate.
  EXPECT_TRUE(m.write_fails(7, 1));
  EXPECT_TRUE(m.write_fails(7, 2));
  EXPECT_FALSE(m.write_fails(7, 3));   // rate 0: never past the schedule
  EXPECT_FALSE(m.write_fails(7, 99));
  EXPECT_TRUE(m.read_fails(7, 3));     // rate 1: always
  EXPECT_TRUE(m.read_fails(7, 99));
}

TEST(FaultModel, OpKeyIsStableAndDiscriminating) {
  const auto k = pfs::FaultModel::op_key(2, 4096, 512);
  EXPECT_EQ(k, pfs::FaultModel::op_key(2, 4096, 512));
  EXPECT_NE(k, pfs::FaultModel::op_key(3, 4096, 512));
  EXPECT_NE(k, pfs::FaultModel::op_key(2, 8192, 512));
  EXPECT_NE(k, pfs::FaultModel::op_key(2, 4096, 1024));
}

TEST(FaultModel, ServiceFactorAsymmetry) {
  pfs::FaultParams p;
  p.straggler_factor = 4.0;
  p.straggler_targets = 2;
  p.straggler_after = 1000;
  const pfs::FaultModel m(p);

  // Straggler targets pay the factor on blocking service and its square on
  // asynchronous service (the paper's pathological-aio asymmetry)...
  EXPECT_DOUBLE_EQ(m.service_factor(0, /*async=*/false, 1000), 4.0);
  EXPECT_DOUBLE_EQ(m.service_factor(1, /*async=*/true, 1000), 16.0);
  // ...healthy targets and pre-onset service run at full speed.
  EXPECT_DOUBLE_EQ(m.service_factor(2, false, 1000), 1.0);
  EXPECT_DOUBLE_EQ(m.service_factor(2, true, 1000), 1.0);
  EXPECT_DOUBLE_EQ(m.service_factor(0, true, 999), 1.0);

  // Degenerate configurations are inert.
  EXPECT_DOUBLE_EQ(pfs::FaultModel().service_factor(0, true, 0), 1.0);
  pfs::FaultParams no_targets = p;
  no_targets.straggler_targets = 0;
  EXPECT_DOUBLE_EQ(pfs::FaultModel(no_targets).service_factor(0, true, 1000),
                   1.0);
}

// ---------------------------------------------------------------------------
// Bit-identity of the healthy model
// ---------------------------------------------------------------------------

TEST(FaultFreeIdentity, InertKnobsDoNotPerturbTiming) {
  coll::Options base;
  base.cb_size = 8192;
  base.overlap = coll::OverlapMode::Write;  // exercises the aio path

  const WriteOutcome reference = run_faulty_write(pfs::FaultParams{}, base);
  EXPECT_EQ(reference.verify_error, "");
  EXPECT_EQ(reference.faults.retries, 0);
  EXPECT_EQ(reference.faults.giveups, 0);
  EXPECT_EQ(reference.faults.degraded_cycles, 0);

  // A disabled FaultModel must consume no randomness and change no timing:
  // different fault seed, different resilience knobs — same makespan, bit
  // for bit.
  pfs::FaultParams reseeded;
  reseeded.seed = 0x5EED;
  EXPECT_EQ(run_faulty_write(reseeded, base).makespan, reference.makespan);

  coll::Options tweaked = base;
  tweaked.max_retries = 9;
  tweaked.retry_backoff = sim::milliseconds(3);
  EXPECT_EQ(run_faulty_write(pfs::FaultParams{}, tweaked).makespan,
            reference.makespan);
}

// ---------------------------------------------------------------------------
// Retry paths across every scheduler and primitive
// ---------------------------------------------------------------------------

class FaultyCollectiveWrite : public testing::TestWithParam<Config> {};

TEST_P(FaultyCollectiveWrite, RetriedRunMatchesFaultFreeBytes) {
  const coll::Options opt = base_options(GetParam());

  const WriteOutcome healthy = run_faulty_write(pfs::FaultParams{}, opt);
  ASSERT_EQ(healthy.verify_error, "");
  EXPECT_EQ(healthy.faults.retries, 0);

  // Deterministic schedule: the first attempt of every operation fails, the
  // re-issue succeeds. The retried run must land the identical bytes.
  pfs::FaultParams f;
  f.fail_until_attempt = 2;
  const WriteOutcome faulty = run_faulty_write(f, opt);
  EXPECT_EQ(faulty.verify_error, "");
  EXPECT_EQ(faulty.bytes_written, healthy.bytes_written);
  EXPECT_GT(faulty.faults.retries, 0);
  EXPECT_EQ(faulty.faults.giveups, 0);
  EXPECT_TRUE(faulty.io_errors.empty());
  // Recovery costs time; it must never be free.
  EXPECT_GT(faulty.makespan, healthy.makespan);
}

TEST_P(FaultyCollectiveWrite, RandomFaultsRecoverAndStayDeterministic) {
  const coll::Options opt = base_options(GetParam());
  pfs::FaultParams f;
  f.write_fail_rate = 0.3;
  f.seed = 42;

  const WriteOutcome first = run_faulty_write(f, opt);
  EXPECT_EQ(first.verify_error, "");
  EXPECT_EQ(first.faults.giveups, 0);

  // Same scenario on a fresh cluster (fresh thread interleavings): retry
  // counts and timing must be bit-identical — fault verdicts and backoff
  // jitter are pure functions, never shared-stream draws.
  const WriteOutcome second = run_faulty_write(f, opt);
  EXPECT_EQ(second.faults.retries, first.faults.retries);
  EXPECT_EQ(second.makespan, first.makespan);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, FaultyCollectiveWrite,
    testing::Values(
        Config{coll::OverlapMode::None, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::Comm, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::Write, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::WriteComm, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::WriteComm2, coll::Transfer::TwoSided},
        Config{coll::OverlapMode::WriteComm2, coll::Transfer::OneSidedFence},
        Config{coll::OverlapMode::WriteComm2, coll::Transfer::OneSidedLock}),
    config_name);

// ---------------------------------------------------------------------------
// Give-up propagation
// ---------------------------------------------------------------------------

TEST(GiveUp, PropagatesThroughResultAndLeavesHole) {
  pfs::FaultParams f;
  f.fail_until_attempt = 9;  // beyond any retry budget below
  coll::Options opt;
  opt.cb_size = 8192;
  opt.overlap = coll::OverlapMode::None;
  opt.max_retries = 1;  // 2 attempts per op, both doomed

  const WriteOutcome out = run_faulty_write(f, opt);
  EXPECT_GT(out.faults.giveups, 0);
  EXPECT_GT(out.faults.retries, 0);
  ASSERT_FALSE(out.io_errors.empty());
  EXPECT_NE(out.io_errors.front().find("gave up after 2 attempts"),
            std::string::npos)
      << out.io_errors.front();
  // Nothing became durable: every attempt of every op failed.
  EXPECT_EQ(out.bytes_written, 0u);
}

TEST(GiveUp, RunnerVerificationCatchesShortFile) {
  // End-to-end through the experiment runner: a run that gives up must
  // fail verification even when the surviving content is self-consistent
  // (a trailing hole shrinks the file rather than corrupting it).
  xp::RunSpec spec;
  spec.platform = xp::ibex();
  spec.workload = wl::make_ior(1 << 16);
  spec.nprocs = 16;
  spec.verify = true;
  spec.options.cb_size = 1 << 16;
  spec.options.max_retries = 1;
  spec.platform.pfs.faults.fail_until_attempt = 9;

  const xp::RunResult out = xp::execute(spec);
  EXPECT_GT(out.faults.giveups, 0);
  EXPECT_FALSE(out.io_error.empty());
  EXPECT_FALSE(out.verify_error.empty());
}

TEST(GiveUp, RunnerFaultStatsAreDeterministic) {
  xp::RunSpec spec;
  spec.platform = xp::ibex();
  spec.workload = wl::make_ior(1 << 16);
  spec.nprocs = 16;
  spec.verify = true;
  spec.seed = 77;
  spec.options.cb_size = 1 << 16;
  spec.options.max_retries = 8;  // 0.2^9 per-op give-up odds: effectively 0
  spec.platform.pfs.faults.write_fail_rate = 0.2;
  spec.platform.pfs.faults.seed = 7;

  const xp::RunResult a = xp::execute(spec);
  EXPECT_EQ(a.verify_error, "");
  EXPECT_EQ(xp::fingerprint(a), xp::fingerprint(xp::execute(spec)));
}

// ---------------------------------------------------------------------------
// Read-path resilience
// ---------------------------------------------------------------------------

TEST(ReadResilience, RetriedReadsReturnCorrectBytes) {
  // fail_until_attempt = 2 makes every first attempt — write and read —
  // fail; both engines must recover and the read-back bytes must match.
  pfs::FaultParams f;
  f.fail_until_attempt = 2;
  xp::RunSpec spec = rig_restart(f, 20'000);
  spec.options.overlap = coll::OverlapMode::Write;  // aio read path + recovery
  const xp::RestartResult r = xp::execute_restart(spec);
  EXPECT_EQ(r.write.verify_error, "");
  EXPECT_EQ(r.read.verify_error, "");
  EXPECT_EQ(r.read.io_error, "");
  EXPECT_GT(r.read.faults.retries, 0);
  EXPECT_EQ(r.read.faults.giveups, 0);
}

TEST(ReadResilience, ReadGiveUpPropagates) {
  // Writes succeed (healthy storage), then every read attempt fails. Reads
  // and writes draw from separate rate knobs, so only the read path is
  // affected here. Every scheduler gives up; without a retry budget it
  // gives up at once, with no retry and no backoff.
  for (const int max_retries : {0, 1}) {
    for (const coll::OverlapMode mode :
         {coll::OverlapMode::None, coll::OverlapMode::Comm,
          coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
          coll::OverlapMode::WriteComm2}) {
      pfs::FaultParams f;
      f.read_fail_rate = 1.0;
      xp::RunSpec spec = rig_restart(f, 20'000);
      spec.options.overlap = mode;
      spec.options.max_retries = max_retries;
      const xp::RestartResult r = xp::execute_restart(spec);
      const std::string where = std::string(coll::to_string(mode)) +
                                " max_retries=" + std::to_string(max_retries);
      EXPECT_EQ(r.write.verify_error, "") << where;  // writes unaffected
      EXPECT_GT(r.read.faults.giveups, 0) << where;
      EXPECT_NE(r.read.io_error, "") << where;
      if (max_retries == 0) {
        EXPECT_EQ(r.read.faults.retries, 0) << where;
        EXPECT_EQ(r.read.rank_sum.backoff, 0) << where;
      } else {
        EXPECT_GT(r.read.faults.retries, 0) << where;
        EXPECT_GT(r.read.rank_sum.backoff, 0) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Straggler degraded mode
// ---------------------------------------------------------------------------

TEST(DegradedMode, StragglerTriggersBlockingDrainWithTraceEvents) {
  // Establish a healthy-run baseline first; the straggler onset lands a
  // quarter of the way in, after the detector has seen fast completions.
  // 128 KiB per rank / (4 aggregators x 8 KiB cb) = 32 cycles: plenty of
  // post-onset cycles for the blocking drain to pay off.
  const std::uint64_t kPerRank = 131072;
  coll::Options opt;
  opt.cb_size = 8192;
  opt.overlap = coll::OverlapMode::Write;
  const WriteOutcome healthy =
      run_faulty_write(pfs::FaultParams{}, opt, kPerRank);
  ASSERT_EQ(healthy.verify_error, "");

  pfs::FaultParams f;
  f.straggler_factor = 8.0;
  f.straggler_targets = 4;  // every target of the test rig lags...
  f.straggler_after = healthy.makespan / 8;  // ...but only after warm-up

  coll::Options degrade = opt;
  degrade.degrade_slowdown = 2.0;

  ClusterSpec spec;
  spec.pfs.faults = f;
  Cluster cluster(spec);
  auto file = cluster.storage().create("out", pfs::Integrity::Store);
  std::vector<coll::Trace> traces(static_cast<std::size_t>(cluster.nprocs()));
  std::vector<coll::Result> results(
      static_cast<std::size_t>(cluster.nprocs()));
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const coll::FileView view = block_view(mpi.rank(), kPerRank);
    const auto data = fill_local(view);
    coll::Options o = degrade;
    o.trace = &traces[static_cast<std::size_t>(mpi.rank())];
    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, o);
  });

  // The blocking drain still lands every byte.
  EXPECT_EQ(file->verify(expected_byte), "");

  coll::FaultStats total;
  int degrade_events = 0, degraded_cycle_events = 0;
  for (std::size_t r = 0; r < traces.size(); ++r) {
    int here = 0;
    for (const auto& e : traces[r].events()) {
      if (std::string(e.name) == "degrade") {
        ++degrade_events;
        ++here;
      }
      if (std::string(e.name) == "write_degraded") {
        ++degraded_cycle_events;
        ++here;
      }
    }
    // Only aggregators touch the file; non-aggregator ranks must not carry
    // degraded-mode events.
    if (results[r].timings.write == 0) {
      EXPECT_EQ(here, 0) << "rank " << r;
    }
    total += results[r].faults;
  }
  EXPECT_GT(degrade_events, 0);
  EXPECT_GT(total.degraded_cycles, 0);
  // Every degraded cycle is traced exactly once.
  EXPECT_EQ(total.degraded_cycles, degraded_cycle_events);

  // The same straggler scenario without degraded mode must be slower: the
  // whole point of the blocking drain is to dodge the aio penalty square.
  const WriteOutcome undegraded = run_faulty_write(f, opt, kPerRank);
  EXPECT_EQ(undegraded.verify_error, "");
  EXPECT_GT(undegraded.makespan, cluster.conductor().makespan());
}

TEST(DegradedMode, StragglingReadsDrainBlocking) {
  // The read engine shares the write engine's detector: a read-ahead
  // aggregator whose reads slow down past degrade_slowdown times its best
  // drains its remaining cycles blocking, and every rank still gets its
  // bytes back. Same geometry as above: 32 cycles.
  struct Outcome {
    xp::RestartResult r;
    int degraded_events = 0;
  };
  auto restart = [](const pfs::FaultParams& f, const coll::Options& opt) {
    coll::Trace trace;
    xp::RunSpec spec = rig_restart(f, 131072);
    spec.options = opt;
    spec.options.trace = &trace;
    Outcome out{xp::execute_restart(spec)};
    for (const auto& e : trace.events()) {
      if (std::string(e.name) == "read_degraded") ++out.degraded_events;
    }
    return out;
  };
  coll::Options opt;
  opt.cb_size = 8192;
  opt.overlap = coll::OverlapMode::Write;
  const Outcome healthy = restart(pfs::FaultParams{}, opt);
  EXPECT_EQ(healthy.r.write.verify_error, "");
  EXPECT_EQ(healthy.r.read.verify_error, "");
  EXPECT_EQ(healthy.r.read.faults.degraded_cycles, 0);

  pfs::FaultParams f;
  f.straggler_factor = 8.0;
  f.straggler_targets = 4;  // the targets lag once the read is under way
  f.straggler_after = healthy.r.read.arrival +
                      (healthy.r.read.completion - healthy.r.read.arrival) / 8;
  opt.degrade_slowdown = 2.0;
  const Outcome degraded = restart(f, opt);
  EXPECT_EQ(degraded.r.write.faults.degraded_cycles, 0);
  EXPECT_GT(degraded.r.read.faults.degraded_cycles, 0);
  EXPECT_EQ(degraded.r.read.verify_error, "");
  // Every degraded cycle is traced exactly once.
  EXPECT_EQ(degraded.r.read.faults.degraded_cycles, degraded.degraded_events);
}

// ---------------------------------------------------------------------------
// Backoff accounting
// ---------------------------------------------------------------------------

TEST(BackoffAccounting, RetriesChargeTheBackoffBucket) {
  pfs::FaultParams f;
  f.fail_until_attempt = 3;  // two forced retries per operation
  coll::Options opt;
  opt.cb_size = 8192;
  opt.overlap = coll::OverlapMode::None;

  ClusterSpec spec;
  spec.pfs.faults = f;
  Cluster cluster(spec);
  auto file = cluster.storage().create("out", pfs::Integrity::Store);
  std::vector<coll::Result> results(
      static_cast<std::size_t>(cluster.nprocs()));
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const coll::FileView view = block_view(mpi.rank(), 32768);
    const auto data = fill_local(view);
    results[static_cast<std::size_t>(mpi.rank())] =
        coll::collective_write(mpi, *file, view, data, opt);
  });
  EXPECT_EQ(file->verify(expected_byte), "");

  sim::Duration backoff = 0;
  int retries = 0;
  for (const auto& r : results) {
    backoff += r.timings.backoff;
    retries += r.faults.retries;
    // The accounting identity holds with the backoff bucket included.
    const auto& t = r.timings;
    EXPECT_LE(t.meta + t.pack + t.gather + t.forward + t.shuffle + t.sync +
                  t.write + t.backoff,
              t.total);
  }
  EXPECT_GT(retries, 0);
  // Every retry waits at least the base backoff (jitter only adds).
  EXPECT_GE(backoff, static_cast<sim::Duration>(retries) * opt.retry_backoff);
}
