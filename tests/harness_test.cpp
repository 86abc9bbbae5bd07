#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

xp::RunSpec small_spec(xp::Platform platform) {
  xp::RunSpec s;
  s.platform = std::move(platform);
  // Keep the simulated cluster small and fast: 4 ranks/node.
  s.platform.procs_per_node = 4;
  s.workload = wl::make_ior(512 * sim::KiB);
  s.nprocs = 16;
  s.options.cb_size = 512 * sim::KiB;
  s.options.overlap = coll::OverlapMode::None;
  s.seed = 7;
  return s;
}

}  // namespace

TEST(Runner, ExecutesAndVerifies) {
  auto spec = small_spec(xp::crill());
  spec.verify = true;
  const xp::RunResult r = xp::execute(spec);
  EXPECT_TRUE(r.verify_error.empty()) << r.verify_error;
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.bytes, 16u * 512 * sim::KiB);
  EXPECT_GE(r.aggregators, 1);
  EXPECT_GT(r.cycles, 0);
  EXPECT_GT(r.bandwidth(), 0.0);
}

TEST(Runner, SameSeedSameResult) {
  const auto spec = small_spec(xp::crill());
  EXPECT_EQ(xp::execute(spec).makespan, xp::execute(spec).makespan);
}

TEST(Runner, DifferentSeedsDiffer) {
  auto spec = small_spec(xp::ibex());
  const auto a = xp::execute(spec).makespan;
  spec.seed = 8;
  const auto b = xp::execute(spec).makespan;
  EXPECT_NE(a, b);  // ibex has double-digit noise
}

TEST(Runner, CrillSlowerStorageThanIbex) {
  // Same job, both platforms: crill's HDD-backed BeeGFS must be the
  // bottleneck (paper: Ibex storage "significantly higher write bandwidth").
  const auto tc = xp::execute(small_spec(xp::crill())).makespan;
  const auto ti = xp::execute(small_spec(xp::ibex())).makespan;
  EXPECT_GT(tc, ti);
}

TEST(Runner, PartialLastNodeWorks) {
  auto spec = small_spec(xp::crill());
  spec.nprocs = 13;  // 4 ranks/node -> 3 full nodes + 1 rank
  spec.workload = wl::make_ior(128 * sim::KiB);
  spec.verify = true;
  const auto r = xp::execute(spec);
  EXPECT_TRUE(r.verify_error.empty()) << r.verify_error;
  EXPECT_EQ(r.bytes, 13u * 128 * sim::KiB);
}

TEST(Runner, SeriesMinAcrossSeeds) {
  auto spec = small_spec(xp::ibex());
  const xp::Series s = xp::execute_series(spec, 4, 99);
  EXPECT_EQ(s.runs.size(), 4u);
  sim::Duration mn = s.runs[0].makespan;
  for (const auto& r : s.runs) mn = std::min(mn, r.makespan);
  EXPECT_EQ(s.min_makespan(), mn);
}

TEST(Runner, AggregatorTimingsSubsetOfRankSum) {
  auto spec = small_spec(xp::crill());
  const auto r = xp::execute(spec);
  EXPECT_GT(r.agg_sum.write, 0);
  EXPECT_LE(r.agg_sum.write, r.rank_sum.write);
  EXPECT_LE(r.agg_sum.shuffle, r.rank_sum.shuffle);
}

TEST(Runner, AllWorkloadKindsRunOnBothPlatforms) {
  for (const auto& platform : {xp::crill(), xp::ibex()}) {
    for (const wl::Spec& w :
         {wl::make_ior(256 * sim::KiB), wl::make_tile256(16, 8),
          wl::make_tile1m(1, 1), wl::make_flash(6, 2, 8192)}) {
      auto spec = small_spec(platform);
      spec.workload = w;
      spec.nprocs = 16;
      spec.verify = true;
      const auto r = xp::execute(spec);
      EXPECT_TRUE(r.verify_error.empty())
          << platform.name << " / " << w.describe() << ": " << r.verify_error;
    }
  }
}

TEST(Runner, OverlapModesAllVerifyOnIbex) {
  for (coll::OverlapMode m :
       {coll::OverlapMode::None, coll::OverlapMode::Comm,
        coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
        coll::OverlapMode::WriteComm2}) {
    auto spec = small_spec(xp::ibex());
    spec.options.overlap = m;
    spec.verify = true;
    const auto r = xp::execute(spec);
    EXPECT_TRUE(r.verify_error.empty()) << coll::to_string(m);
  }
}

TEST(Platforms, CalibrationSanity) {
  const auto c = xp::crill();
  const auto i = xp::ibex();
  EXPECT_LT(c.fabric.inter_bw, i.fabric.inter_bw);   // 2.6 vs 3.4 GB/s
  EXPECT_LT(c.pfs.target_bw, i.pfs.target_bw);       // HDD vs big system
  EXPECT_LT(c.fabric.noise_sigma, i.fabric.noise_sigma);  // dedicated/shared
  EXPECT_TRUE(c.pfs.share_compute_nic);
  EXPECT_FALSE(i.pfs.share_compute_nic);
  EXPECT_EQ(c.pfs.stripe_size, sim::MiB);
  EXPECT_EQ(i.pfs.stripe_size, sim::MiB);
  EXPECT_EQ(c.mpi.eager_limit, 512 * sim::KiB);
}

TEST(TableOutput, FormatsAligned) {
  xp::Table t({"alg", "time"});
  t.add_row({"no-overlap", "12.3"});
  t.add_row({"x", "4"});
  t.print();  // smoke: no crash; alignment eyeballed in bench output
  EXPECT_EQ(xp::fmt_pct(0.223), "22.3%");
  EXPECT_EQ(xp::fmt_ms(sim::milliseconds(12.5)), "12.50");
}

TEST(Fingerprint, EveryFieldMovesTheFingerprint) {
  xp::RunResult base;
  base.subfiles.resize(1);
  // Each entry sets one field away from its default.
#define FIELD(assignment) \
  { #assignment, [](xp::RunResult& r) { r.assignment; } }
  const std::vector<std::pair<const char*, void (*)(xp::RunResult&)>> fields =
      {FIELD(arrival = 1), FIELD(completion = 1), FIELD(makespan = 1),
       FIELD(rank_sum.meta = 1), FIELD(rank_sum.pack = 1),
       FIELD(rank_sum.gather = 1), FIELD(rank_sum.forward = 1),
       FIELD(rank_sum.shuffle = 1), FIELD(rank_sum.sync = 1),
       FIELD(rank_sum.write = 1), FIELD(rank_sum.backoff = 1),
       FIELD(rank_sum.total = 1), FIELD(agg_sum.meta = 1),
       FIELD(agg_sum.total = 1), FIELD(agg_max.write = 1),
       FIELD(agg_max.backoff = 1), FIELD(aggregators = 1), FIELD(cycles = 1),
       FIELD(bytes = 1), FIELD(inter_node_bytes = 1),
       FIELD(inter_node_messages = 1), FIELD(intra_node_bytes = 1),
       // A tiny value: doubles must be printed exactly.
       FIELD(pipelined_overlap = 1e-300), FIELD(gather_critical = 1),
       FIELD(autotune.engaged = true),
       FIELD(autotune.chosen = coll::OverlapMode::Write),
       FIELD(autotune.from_cache = true), FIELD(autotune.probe_cycles = 1),
       FIELD(autotune.comm_share = 1e-300), FIELD(autotune.aio_ratio = 1.0),
       FIELD(faults.retries = 1), FIELD(faults.giveups = 1),
       FIELD(faults.degraded_cycles = 1), FIELD(io_error = "x"),
       FIELD(verify_error = "x"), FIELD(subfiles.clear()),
       FIELD(subfiles[0].group = 1), FIELD(subfiles[0].ranks = 1),
       FIELD(subfiles[0].aggregators = 1), FIELD(subfiles[0].bytes = 1),
       FIELD(subfiles[0].completion = 1), FIELD(subfiles[0].qos.requests = 1),
       FIELD(subfiles[0].qos.busy = 1), FIELD(subfiles[0].qos.cross_wait = 1),
       FIELD(subfiles[0].qos.peak_active = 1)};
#undef FIELD
  const std::string fp0 = xp::fingerprint(base);
  EXPECT_EQ(fp0.find('\n'), std::string::npos);
  std::set<std::string> seen{fp0};
  for (const auto& [name, mutate] : fields) {
    xp::RunResult r = base;
    mutate(r);
    const std::string fp = xp::fingerprint(r);
    EXPECT_NE(fp, fp0) << name;
    EXPECT_TRUE(seen.insert(fp).second)
        << name << " collides with another field";
  }
}
