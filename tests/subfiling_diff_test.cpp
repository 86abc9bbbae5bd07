// Differential suite pinning the subfiling machinery's k == 1 degeneracy:
// a shared-file run routed through the multi-group machinery (forced by a
// per-subfile striping override equal to the platform default) must be
// bit-identical field-by-field to the inline solo runner, on every
// scheduler, shuffle primitive, hierarchy setting, seed and --jobs value.
// This is the contract that lets Options::sub_comm_count default to 1
// without perturbing a single historical result.
//
// Registered under the `subfiling` ctest label (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"

namespace coll = tpio::coll;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

namespace {

xp::RunSpec base_spec(wl::Spec w, int procs) {
  xp::RunSpec s;
  s.platform = xp::scaled(xp::ibex());
  s.workload = std::move(w);
  s.nprocs = procs;
  s.options.cb_size = xp::kCbSize;
  s.seed = 0xD1FF;
  s.verify = true;
  return s;
}

/// Route `spec` through the subfiling machinery without changing the
/// physical layout: one subfile striped exactly like the shared file.
xp::RunSpec forced(const xp::RunSpec& spec) {
  xp::RunSpec f = spec;
  f.options.subfile_stripe_unit = spec.platform.pfs.stripe_size;
  return f;
}

}  // namespace

TEST(SubfilingDiff, SharedFileIdenticalAcrossSchedulersPrimitivesHierarchy) {
  // The full option matrix: 5 schedulers x 3 primitives x hier on/off.
  for (int m = 0; m < 5; ++m) {
    for (int t = 0; t < 3; ++t) {
      for (bool hier : {false, true}) {
        xp::RunSpec spec = base_spec(wl::make_tile1m(1, 1), 16);
        spec.options.overlap = static_cast<coll::OverlapMode>(m);
        spec.options.transfer = static_cast<coll::Transfer>(t);
        spec.options.hierarchical = hier;
        const std::string what =
            std::string(coll::to_string(spec.options.overlap)) + "/" +
            coll::to_string(spec.options.transfer) + " hier=" +
            std::to_string(hier);
        EXPECT_EQ(xp::fingerprint(xp::execute(spec)),
                  xp::fingerprint(xp::execute(forced(spec))))
            << what;
      }
    }
  }
}

TEST(SubfilingDiff, SharedFileIdenticalAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 0xD1FFull, 0xABCDEF01ull}) {
    xp::RunSpec spec = base_spec(wl::make_tile256(2, 256), 16);
    spec.options.overlap = coll::OverlapMode::WriteComm2;
    spec.seed = seed;
    EXPECT_EQ(xp::fingerprint(xp::execute(spec)),
              xp::fingerprint(xp::execute(forced(spec))))
        << "seed=" << seed;
  }
}

TEST(SubfilingDiff, QuickSweepIdenticalAcrossJobs) {
  // The acceptance differential: the quick Table-I sweep routed through
  // the subfiling machinery (k = 1 forced) at --jobs 8 must produce the
  // identical table as the plain path at --jobs 1. Exact double equality —
  // the timeline is integer nanoseconds.
  std::vector<std::vector<xp::OverlapSeries>> tables;
  for (const bool force : {false, true}) {
    xp::ExecOptions exec;
    exec.jobs = force ? 8 : 1;
    // The bench grid runs the scaled stand-in platform, so the no-op
    // striping override must match the *scaled* stripe size.
    coll::Options base;
    if (force) {
      base.subfile_stripe_unit = xp::scaled(xp::ibex()).pfs.stripe_size;
    }
    tables.push_back(
        xp::run_overlap_sweep(xp::ibex(), base, 1, 0x5F1D, true, exec));
  }
  ASSERT_EQ(tables[1].size(), tables[0].size());
  for (std::size_t i = 0; i < tables[0].size(); ++i) {
    EXPECT_EQ(tables[1][i].procs, tables[0][i].procs);
    EXPECT_EQ(tables[1][i].min_ms, tables[0][i].min_ms) << "series " << i;
  }
}

TEST(SubfilingDiff, SharedFileRunsCarryNoSubfileResults) {
  // The k == 1 RunResult must compare equal to the pre-subfiling struct
  // field-for-field; in particular `subfiles` stays empty even when the
  // run was routed through the multi-group machinery.
  xp::RunSpec spec = base_spec(wl::make_ior(1u << 19), 16);
  const xp::RunResult plain = xp::execute(spec);
  const xp::RunResult routed = xp::execute(forced(spec));
  EXPECT_TRUE(plain.subfiles.empty());
  EXPECT_TRUE(routed.subfiles.empty());
}
