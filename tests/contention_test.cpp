// Differential isolation suite for the multi-tenant shared-PFS layer:
// a single tenant on the shared path must be bit-identical field-by-field
// to the solo runner across every scheduler, transfer primitive,
// hierarchical mode and fault scenario; N-tenant runs must be bit-identical
// across repeated executions and executor worker counts; and delayed
// arrivals must shift completion without touching turnaround (the
// RunResult::bandwidth() arrival fix).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

namespace {

std::string fp_multi(const xp::MultiRunResult& r) {
  std::string s = std::to_string(r.makespan) + "#";
  for (const xp::TenantResult& t : r.tenants) {
    s += xp::fingerprint(t.run) + "|";
    s += std::to_string(t.qos.requests) + "|" + std::to_string(t.qos.busy) +
         "|" + std::to_string(t.qos.cross_wait) + "|" +
         std::to_string(t.qos.peak_active) + "#";
  }
  return s;
}

xp::RunSpec base_spec(wl::Spec w, int procs) {
  xp::RunSpec s;
  s.platform = xp::scaled(xp::ibex());
  s.workload = std::move(w);
  s.nprocs = procs;
  s.options.cb_size = xp::kCbSize;
  s.seed = 17;
  s.verify = true;
  return s;
}

/// Wrap one solo spec as a single-tenant multi-run with the same seed.
xp::MultiRunSpec as_multi(const xp::RunSpec& spec) {
  xp::MultiRunSpec m;
  m.tenants.push_back(spec);
  m.seed = spec.seed;
  return m;
}

/// A lone tenant on the shared-system path must replay the solo runner's
/// schedule bit-for-bit: same noise-stream derivation, FIFO service queue
/// == bare timeline, fabric view at offset 0 == standalone fabric,
/// single-group conductor == historical conductor.
void expect_lone_tenant_identity(const xp::RunSpec& spec,
                                 const std::string& label) {
  const xp::RunResult solo = xp::execute(spec);
  const xp::MultiRunResult multi = xp::execute_multi(as_multi(spec));
  ASSERT_EQ(multi.tenants.size(), 1u) << label;
  EXPECT_EQ(xp::fingerprint(solo), xp::fingerprint(multi.tenants[0].run))
      << label;
  EXPECT_EQ(multi.makespan, solo.completion) << label;
}

TEST(LoneTenant, BitIdenticalAcrossSchedulersAndPrimitives) {
  const std::vector<coll::OverlapMode> modes = {
      coll::OverlapMode::None, coll::OverlapMode::Comm,
      coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
      coll::OverlapMode::WriteComm2};
  const std::vector<coll::Transfer> prims = {coll::Transfer::TwoSided,
                                             coll::Transfer::OneSidedFence,
                                             coll::Transfer::OneSidedLock};
  for (coll::OverlapMode m : modes) {
    for (coll::Transfer t : prims) {
      xp::RunSpec s = base_spec(wl::make_ior(1u << 19), 16);
      s.options.overlap = m;
      s.options.transfer = t;
      expect_lone_tenant_identity(
          s, std::string(coll::to_string(m)) + "/" + coll::to_string(t));
    }
  }
}

TEST(LoneTenant, BitIdenticalHierarchical) {
  for (bool hier : {false, true}) {
    xp::RunSpec s = base_spec(wl::make_tile256(2, 256), 16);
    s.options.overlap = coll::OverlapMode::WriteComm2;
    s.options.hierarchical = hier;
    expect_lone_tenant_identity(s, hier ? "hier" : "flat");
  }
}

TEST(LoneTenant, BitIdenticalUnderFaults) {
  xp::RunSpec s = base_spec(wl::make_flash(8, 2, 16 * 1024), 16);
  s.options.overlap = coll::OverlapMode::Write;
  s.platform.pfs.faults.write_fail_rate = 0.3;
  s.platform.pfs.faults.seed = 99;
  expect_lone_tenant_identity(s, "faults");
}

TEST(LoneTenant, BitIdenticalWithStragglersAndNoise) {
  xp::RunSpec s = base_spec(wl::make_ior(1u << 19), 16);
  s.options.overlap = coll::OverlapMode::WriteComm;
  s.platform.pfs.noise_sigma = 0.05;
  s.platform.fabric.noise_sigma = 0.05;
  s.platform.pfs.faults.straggler_factor = 3.0;
  s.platform.pfs.faults.straggler_targets = 2;
  expect_lone_tenant_identity(s, "stragglers+noise");
}

// ---------------------------------------------------------------------------
// Satellite 3 regression: arrival-aware makespan/bandwidth.
// ---------------------------------------------------------------------------

TEST(Arrival, DelayedLoneTenantShiftsCompletionNotTurnaround) {
  xp::RunSpec s = base_spec(wl::make_ior(1u << 19), 16);
  s.options.overlap = coll::OverlapMode::WriteComm2;
  const xp::RunResult solo = xp::execute(s);

  const sim::Duration delay = sim::microseconds(12345);
  xp::MultiRunSpec m = as_multi(s);
  m.arrival.model = xp::ArrivalModel::Trace;
  m.arrival.trace = {delay};
  const xp::MultiRunResult r = xp::execute_multi(m);
  const xp::RunResult& t = r.tenants[0].run;

  // Every timeline of the shared system is idle before the arrival, so the
  // whole schedule translates rigidly: completion shifts by exactly the
  // delay, turnaround and bandwidth are invariant. Before the arrival fix
  // makespan (and thus bandwidth) silently absorbed the idle lead-in.
  EXPECT_EQ(t.arrival, delay);
  EXPECT_EQ(t.completion, solo.completion + delay);
  EXPECT_EQ(t.makespan, solo.makespan);
  EXPECT_DOUBLE_EQ(t.bandwidth(), solo.bandwidth());
}

TEST(Arrival, ModelsAreDeterministicAndOrdered) {
  xp::ArrivalSpec fixed;
  fixed.model = xp::ArrivalModel::Fixed;
  fixed.gap = 1000;
  EXPECT_EQ(xp::arrival_times(fixed, 3, 7),
            (std::vector<sim::Time>{0, 1000, 2000}));

  xp::ArrivalSpec poisson;
  poisson.model = xp::ArrivalModel::Poisson;
  poisson.gap = 1000;
  const auto a = xp::arrival_times(poisson, 8, 42);
  const auto b = xp::arrival_times(poisson, 8, 42);
  EXPECT_EQ(a, b);  // pure function of (spec, seed)
  EXPECT_EQ(a[0], 0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  const auto c = xp::arrival_times(poisson, 8, 43);
  EXPECT_NE(a, c);  // seed actually matters
}

// ---------------------------------------------------------------------------
// N-tenant determinism.
// ---------------------------------------------------------------------------

xp::MultiRunSpec three_tenants() {
  xp::MultiRunSpec m;
  xp::RunSpec a = base_spec(wl::make_ior(1u << 19), 16);
  a.options.overlap = coll::OverlapMode::WriteComm2;
  xp::RunSpec b = base_spec(wl::make_tile256(2, 256), 8);
  b.options.overlap = coll::OverlapMode::None;
  xp::RunSpec c = base_spec(wl::make_flash(8, 2, 16 * 1024), 16);
  c.options.overlap = coll::OverlapMode::Write;
  m.tenants = {a, b, c};
  m.arrival.model = xp::ArrivalModel::Fixed;
  m.arrival.gap = sim::microseconds(500);
  m.seed = 23;
  return m;
}

TEST(MultiTenant, RepeatedRunsBitIdentical) {
  for (pfs::QosPolicy q : {pfs::QosPolicy::Fifo, pfs::QosPolicy::FairShare,
                           pfs::QosPolicy::Priority}) {
    xp::MultiRunSpec m = three_tenants();
    m.qos = q;
    if (q == pfs::QosPolicy::Priority) m.priorities = {1, 0, 2};
    const std::string x = fp_multi(xp::execute_multi(m));
    const std::string y = fp_multi(xp::execute_multi(m));
    EXPECT_EQ(x, y) << pfs::to_string(q);
  }
}

TEST(MultiTenant, EveryTenantVerifiesAndConservesBytes) {
  xp::MultiRunSpec m = three_tenants();
  m.store_content = true;
  const xp::MultiRunResult r = xp::execute_multi(m);
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const xp::RunResult& run = r.tenants[t].run;
    EXPECT_EQ(run.verify_error, "") << "tenant " << t;
    EXPECT_GT(run.bytes, 0u) << "tenant " << t;
    EXPECT_GT(r.tenants[t].qos.requests, 0u) << "tenant " << t;
  }
}

TEST(MultiTenant, SlowdownBaselinesComputed) {
  xp::MultiRunSpec m = three_tenants();
  const xp::MultiRunResult r = xp::execute_multi(m, /*with_baselines=*/true);
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    // Sharing a system can only delay a job (FIFO work conservation);
    // allow exact equality for tenants that never collide.
    EXPECT_GE(r.tenants[t].slowdown, 1.0) << "tenant " << t;
  }
}

// ---------------------------------------------------------------------------
// Contended sweep: executor-level determinism (jobs 1 vs 8).
// ---------------------------------------------------------------------------

std::string sweep_fp(const std::vector<xp::OverlapSeries>& rows) {
  std::string s;
  for (const auto& row : rows) {
    s += std::string(wl::to_string(row.kind)) + row.size_label +
         std::to_string(row.procs);
    for (const auto& [mode, ms] : row.min_ms) {
      s += std::string(coll::to_string(mode)) + "=" + std::to_string(ms) + ";";
    }
    s += "#";
  }
  return s;
}

TEST(ContendedSweep, TablesBitIdenticalAcrossWorkerCounts) {
  xp::ContentionConfig cfg;
  cfg.neighbors = 1;
  cfg.arrival.model = xp::ArrivalModel::Fixed;
  cfg.arrival.gap = 0;
  cfg.qos = pfs::QosPolicy::Fifo;

  xp::ExecOptions serial;
  serial.jobs = 1;
  xp::ExecOptions parallel;
  parallel.jobs = 8;
  const auto a = xp::run_contended_sweep(xp::ibex(), coll::Options{}, cfg,
                                         /*reps=*/1, /*seed=*/5,
                                         /*quick=*/true, serial);
  const auto b = xp::run_contended_sweep(xp::ibex(), coll::Options{}, cfg,
                                         /*reps=*/1, /*seed=*/5,
                                         /*quick=*/true, parallel);
  EXPECT_EQ(sweep_fp(a), sweep_fp(b));
}

}  // namespace
