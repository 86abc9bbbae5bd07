#include <gtest/gtest.h>

#include <string_view>

#include "harness/cli.hpp"
#include "harness/sweep.hpp"
#include "simbase/error.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace coll = tpio::coll;
namespace wl = tpio::wl;
namespace sim = tpio::sim;

namespace {
xp::CliConfig parse(std::initializer_list<const char*> args) {
  return xp::parse_cli(std::vector<std::string>(args.begin(), args.end()));
}
}  // namespace

TEST(Cli, Defaults) {
  const auto cfg = parse({});
  EXPECT_TRUE(cfg.error.empty()) << cfg.error;
  EXPECT_EQ(cfg.spec.platform.name, "ibex");
  EXPECT_EQ(cfg.spec.workload.kind, wl::Kind::Tile1M);
  EXPECT_EQ(cfg.spec.nprocs, 64);
  EXPECT_EQ(cfg.reps, 3);
  EXPECT_FALSE(cfg.spec.verify);
}

TEST(Cli, FullConfiguration) {
  const auto cfg = parse({"--platform", "crill", "--workload", "flash",
                          "--procs", "100", "--cb", "8M", "--overlap",
                          "write", "--transfer", "fence", "--aggregators",
                          "4", "--reps", "5", "--seed", "99", "--verify"});
  ASSERT_TRUE(cfg.error.empty()) << cfg.error;
  EXPECT_EQ(cfg.spec.platform.name, "crill");
  EXPECT_EQ(cfg.spec.workload.kind, wl::Kind::Flash);
  EXPECT_EQ(cfg.spec.nprocs, 100);
  EXPECT_EQ(cfg.spec.options.cb_size, 8u * sim::MiB);
  EXPECT_EQ(cfg.spec.options.overlap, coll::OverlapMode::Write);
  EXPECT_EQ(cfg.spec.options.transfer, coll::Transfer::OneSidedFence);
  EXPECT_EQ(cfg.spec.options.num_aggregators, 4);
  EXPECT_EQ(cfg.reps, 5);
  EXPECT_EQ(cfg.seed_base, 99u);
  EXPECT_TRUE(cfg.spec.verify);
}

TEST(Cli, HierarchicalFlags) {
  EXPECT_FALSE(parse({}).spec.options.hierarchical);
  const auto cfg = parse({"--hierarchical", "--leader", "spread"});
  ASSERT_TRUE(cfg.error.empty()) << cfg.error;
  EXPECT_TRUE(cfg.spec.options.hierarchical);
  EXPECT_EQ(cfg.spec.options.leader_policy, coll::LeaderPolicy::Spread);
  const auto lowest = parse({"--hierarchical", "--leader", "lowest"});
  EXPECT_EQ(lowest.spec.options.leader_policy, coll::LeaderPolicy::Lowest);
}

TEST(Cli, BytesPerProcShapesWorkload) {
  const auto cfg =
      parse({"--workload", "ior", "--bytes-per-proc", "4M"});
  ASSERT_TRUE(cfg.error.empty());
  EXPECT_EQ(cfg.spec.workload.bytes_per_proc(), 4u * sim::MiB);
}

TEST(Cli, HelpShortCircuits) {
  EXPECT_TRUE(parse({"--help"}).quick_help);
  EXPECT_TRUE(parse({"-h"}).quick_help);
  EXPECT_FALSE(xp::cli_usage().empty());
}

TEST(Cli, Errors) {
  EXPECT_FALSE(parse({"--bogus"}).error.empty());
  EXPECT_FALSE(parse({"--procs"}).error.empty());        // missing value
  EXPECT_FALSE(parse({"--procs", "-3"}).error.empty());
  EXPECT_FALSE(parse({"--overlap", "wat"}).error.empty());
  EXPECT_FALSE(parse({"--transfer", "wat"}).error.empty());
  EXPECT_FALSE(parse({"--platform", "wat"}).error.empty());
  EXPECT_FALSE(parse({"--workload", "wat"}).error.empty());
  EXPECT_FALSE(parse({"--cb", "12Q"}).error.empty());
  EXPECT_FALSE(parse({"--reps", "0"}).error.empty());
  EXPECT_FALSE(parse({"--leader"}).error.empty());       // missing value
  EXPECT_FALSE(parse({"--leader", "wat"}).error.empty());
}

TEST(Cli, RejectsZeroNegativeAndOverflowingNumbers) {
  // Regression: atoi-style parsing accepted "--procs 0", "--procs -4",
  // trailing garbage, and silently wrapped overflowing values.
  EXPECT_FALSE(parse({"--procs", "0"}).error.empty());
  EXPECT_FALSE(parse({"--procs", "-4"}).error.empty());
  EXPECT_FALSE(parse({"--procs", "64x"}).error.empty());
  EXPECT_FALSE(parse({"--procs", "99999999999999999999"}).error.empty());
  EXPECT_FALSE(parse({"--procs", "wat"}).error.empty());
  EXPECT_FALSE(parse({"--aggregators", "-1"}).error.empty());
  EXPECT_TRUE(parse({"--aggregators", "0"}).error.empty());  // 0 = auto
  EXPECT_FALSE(parse({"--reps", "-2"}).error.empty());
  EXPECT_FALSE(parse({"--probe-cycles", "0"}).error.empty());
  EXPECT_FALSE(parse({"--seed", "wat"}).error.empty());
  EXPECT_FALSE(parse({"--seed", "-1"}).error.empty());
  // Byte sizes: zero and 64-bit-overflowing values are malformed.
  EXPECT_FALSE(parse({"--cb", "0"}).error.empty());
  EXPECT_FALSE(parse({"--cb", "99999999999G"}).error.empty());
  EXPECT_FALSE(parse({"--bytes-per-proc", "0"}).error.empty());
  EXPECT_FALSE(parse({"--bytes-per-proc", "99999999999G"}).error.empty());
}

TEST(Cli, StrictIntParsers) {
  long long v = -1;
  EXPECT_TRUE(xp::parse_int_arg("42", 1, 100, v));
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(xp::parse_int_arg("", 1, 100, v));
  EXPECT_FALSE(xp::parse_int_arg("42x", 1, 100, v));
  EXPECT_FALSE(xp::parse_int_arg("101", 1, 100, v));
  EXPECT_FALSE(xp::parse_int_arg("0", 1, 100, v));
  EXPECT_FALSE(xp::parse_int_arg("99999999999999999999", 1, 100, v));
  EXPECT_EQ(v, 42);  // failures leave the output untouched

  std::uint64_t u = 0;
  EXPECT_TRUE(xp::parse_u64_arg("18446744073709551615", u));
  EXPECT_EQ(u, 18446744073709551615ull);
  EXPECT_FALSE(xp::parse_u64_arg("-1", u));
  EXPECT_FALSE(xp::parse_u64_arg("18446744073709551616", u));  // 2^64
  EXPECT_FALSE(xp::parse_u64_arg("1.5", u));
}

TEST(Cli, CheckRejectsRunsThatWouldAbortOrBeClamped) {
  auto rejects = [](const xp::CliConfig& cfg, const std::string& flag) {
    const std::string error = xp::check_cli(cfg);
    EXPECT_NE(error.find(flag), std::string::npos) << "'" << error << "'";
  };
  // Scaled crill has one storage target per node: 16 ranks are 2 nodes.
  rejects(parse({"--platform", "crill", "--procs", "16", "--straggler-targets",
                 "4", "--straggler", "3"}),
          "--straggler-targets");
  EXPECT_EQ(parse({"--platform", "crill", "--procs", "16",
                   "--straggler-targets", "2"})
                .error,
            "");
  // Two tenants pool 4 targets, but the slowdown baseline runs one alone.
  rejects(parse({"--platform", "crill", "--procs", "16", "--straggler-targets",
                 "4", "--tenants", "2"}),
          "--straggler-targets");

  // The cells tpio_sweep --quick checks: the scaled platform at 16 ranks.
  xp::CliConfig cell;
  cell.spec.platform = xp::platform_by_name("ibex");
  cell.spec.nprocs = 16;
  EXPECT_EQ(xp::check_cli(cell), "");
  xp::CliConfig c = cell;
  c.spec.platform.pfs.faults.straggler_targets = 100;
  rejects(c, "--straggler-targets");
  c = cell;
  c.spec.options.sub_comm_count = 32;
  rejects(c, "--sub-comms");
  c = cell;
  c.tenants = 2;
  c.arrival.model = xp::ArrivalModel::Trace;
  c.arrival.trace = {0};
  rejects(c, "--arrival");
  // Scaled ibex runs 10 ranks per node (the preset has 40).
  c = cell;
  c.spec.options.local_aggregators = 20;
  rejects(c, "--local-aggs");
  c.spec.options.local_aggregators = 10;
  EXPECT_EQ(xp::check_cli(c), "");

  // Aggregators are elected from the ranks of each sub-communicator, the
  // smallest of which holds floor(procs / k) of them.
  rejects(parse({"--platform", "ibex", "--workload", "ior", "--procs", "12",
                 "--aggregators", "100"}),
          "--aggregators");
  rejects(parse({"--procs", "16", "--sub-comms", "4", "--aggregators", "8"}),
          "--aggregators");
  EXPECT_EQ(parse({"--procs", "12", "--aggregators", "12"}).error, "");
  EXPECT_EQ(
      parse({"--procs", "16", "--sub-comms", "4", "--aggregators", "4"}).error,
      "");
}

TEST(Cli, AutoOverlapFlags) {
  const auto cfg = parse({"--overlap", "auto", "--probe-cycles", "6",
                          "--tuning-cache", "/tmp/tpio-cache.json"});
  ASSERT_TRUE(cfg.error.empty()) << cfg.error;
  EXPECT_EQ(cfg.spec.options.overlap, coll::OverlapMode::Auto);
  EXPECT_EQ(cfg.spec.options.probe_cycles, 6);
  EXPECT_EQ(cfg.spec.options.tuning_cache, "/tmp/tpio-cache.json");
  EXPECT_FALSE(parse({"--tuning-cache"}).error.empty());  // missing value
}

TEST(Cli, PlatformPresets) {
  EXPECT_EQ(xp::platform_by_name("crill").name, "crill");
  EXPECT_EQ(xp::platform_by_name("ibex").name, "ibex");
  const auto lustre = xp::platform_by_name("lustre");
  EXPECT_EQ(lustre.name, "lustre");
  EXPECT_GT(lustre.pfs.aio_penalty, 2.0);  // pathological aio
  EXPECT_THROW(xp::platform_by_name("summit"), tpio::Error);
}

TEST(Cli, EndToEndTinyRun) {
  auto cfg = parse({"--workload", "ior", "--bytes-per-proc", "256K",
                    "--procs", "8", "--reps", "2", "--verify"});
  ASSERT_TRUE(cfg.error.empty()) << cfg.error;
  const xp::Series s = xp::execute_series(cfg.spec, cfg.reps, cfg.seed_base);
  EXPECT_EQ(s.runs.size(), 2u);
  EXPECT_GT(s.min_makespan(), 0);
}

namespace {
xp::CliConfig parse_as(xp::Tool tool, std::initializer_list<const char*> args) {
  return xp::parse_cli(std::vector<std::string>(args.begin(), args.end()),
                       tool);
}
}  // namespace

TEST(Cli, EachToolTakesExactlyItsFlags) {
  EXPECT_EQ(xp::cli_flags(xp::Tool::Sim),
            (std::vector<std::string>{
                "--aggregators", "--arrival", "--bytes-per-proc", "--cb",
                "--degrade", "--fail-until", "--fault-rate", "--fault-seed",
                "--help", "--hierarchical", "--leader", "--local-aggs",
                "--max-retries", "--overlap", "--platform", "--probe-cycles",
                "--procs", "--qos", "--reps", "--seed", "--straggler",
                "--straggler-after", "--straggler-targets", "--stripe-factor",
                "--stripe-unit", "--sub-comms", "--tenants", "--transfer",
                "--tuning-cache", "--verify", "--workload"}));
  EXPECT_EQ(xp::cli_flags(xp::Tool::Sweep),
            (std::vector<std::string>{
                "--arrival", "--auto", "--fault-rate", "--fault-seed",
                "--help", "--hierarchical", "--jobs", "--leader",
                "--local-aggs", "--max-retries", "--platform", "--primitives",
                "--progress", "--qos", "--quick", "--reps", "--resume",
                "--straggler", "--straggler-targets", "--stripe-factor",
                "--stripe-unit", "--sub-comms", "--tenants"}));
  EXPECT_EQ(xp::cli_flags(xp::Tool::Bench),
            (std::vector<std::string>{"--jobs", "--paper-scale", "--progress",
                                      "--quick"}));
  EXPECT_FALSE(xp::cli_usage(xp::Tool::Sweep).empty());
  EXPECT_TRUE(parse_as(xp::Tool::Sweep, {"--help"}).quick_help);
}

// A bench driver takes only the flags it reads: the others are refused by
// name instead of running the driver's default grid.
TEST(Cli, BenchDriverRefusesFlagsItDoesNotRead) {
  const auto bench = [](std::vector<std::string> words,
                        std::initializer_list<std::string_view> takes) {
    std::vector<char*> argv;
    for (std::string& w : words) argv.push_back(w.data());
    return xp::parse_bench_args(static_cast<int>(argv.size()), argv.data(),
                                takes);
  };
  EXPECT_EQ(bench({"build/bench/breakdown_comm_io", "--quick",
                   "--paper-scale", "--jobs", "7"},
                  {"--quick"})
                .error,
            "breakdown_comm_io does not take --paper-scale");
  EXPECT_EQ(bench({"fig", "--jobs", "7"}, {"--quick"}).error,
            "fig does not take --jobs");

  const auto taken = bench({"fig", "--quick", "--jobs", "7", "--progress"},
                           {"--quick", "--jobs", "--progress"});
  EXPECT_EQ(taken.error, "");
  EXPECT_TRUE(taken.quick);
  EXPECT_FALSE(taken.paper_scale);
  EXPECT_EQ(taken.exec.jobs, 7);
  EXPECT_TRUE(taken.exec.progress);

  // A flag no driver takes and a bad value still fail in the parser.
  EXPECT_NE(bench({"fig", "--reps", "2"}, {"--quick"}).error.find("--reps"),
            std::string::npos);
  EXPECT_NE(bench({"fig", "--jobs", "-3"}, {"--jobs"}).error.find("--jobs"),
            std::string::npos);
}

TEST(Cli, FlagOfAnotherToolNamesFlagAndTool) {
  const std::string sweep_only = parse({"--quick"}).error;
  EXPECT_NE(sweep_only.find("--quick"), std::string::npos) << sweep_only;
  EXPECT_NE(sweep_only.find("tpio_sim"), std::string::npos) << sweep_only;
  EXPECT_NE(sweep_only.find("tpio_sweep"), std::string::npos) << sweep_only;

  const std::string sim_only =
      parse_as(xp::Tool::Sweep, {"--workload", "ior"}).error;
  EXPECT_NE(sim_only.find("--workload"), std::string::npos) << sim_only;
  EXPECT_NE(sim_only.find("tpio_sweep"), std::string::npos) << sim_only;
  EXPECT_NE(sim_only.find("tpio_sim"), std::string::npos) << sim_only;

  EXPECT_FALSE(parse_as(xp::Tool::Bench, {"--bogus"}).error.empty());
  EXPECT_FALSE(parse_as(xp::Tool::Bench, {"--reps", "2"}).error.empty());
}

TEST(Cli, SharedFlagsRejectBadValuesAlikeInBothTools) {
  for (const auto& [flag, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"--reps", "0"},
           {"--local-aggs", "x"},
           {"--fault-rate", "2"},
           {"--fault-seed", "-1"},
           {"--straggler", "0.5"},
           {"--max-retries", "1001"},
           {"--tenants", "65"},
           {"--arrival", "fixed"},
           {"--qos", "wat"},
           {"--leader", "wat"},
           {"--platform", "summit"},
           {"--sub-comms", "0"},
           {"--stripe-unit", "0"},
           {"--stripe-factor", "0"}}) {
    const std::string sim = parse({flag, value}).error;
    EXPECT_NE(sim.find(flag), std::string::npos) << sim;
    EXPECT_EQ(sim, parse_as(xp::Tool::Sweep, {flag, value}).error);
  }
}

TEST(Cli, SweepRejectsAutoSubComms) {
  EXPECT_EQ(parse({"--sub-comms", "auto"}).spec.options.sub_comm_count, 0);
  const std::string error =
      parse_as(xp::Tool::Sweep, {"--sub-comms", "auto"}).error;
  EXPECT_NE(error.find("--sub-comms auto"), std::string::npos) << error;
  EXPECT_NE(error.find("tpio_sweep"), std::string::npos) << error;
}

TEST(Cli, SweepChecksEveryProcessCountOfItsGrid) {
  // Both grids start at 16 processes, where tpio_sim's default of 64
  // would accept 17 sub-communicators.
  EXPECT_EQ(parse({"--sub-comms", "17"}).error, "");
  for (const bool quick : {true, false}) {
    const auto cfg = quick
                         ? parse_as(xp::Tool::Sweep,
                                    {"--quick", "--sub-comms", "17"})
                         : parse_as(xp::Tool::Sweep, {"--sub-comms", "17"});
    EXPECT_NE(cfg.error.find("exceeds the 16 processes"), std::string::npos)
        << cfg.error;
  }
  EXPECT_EQ(parse_as(xp::Tool::Sweep, {"--quick", "--sub-comms", "16"}).error,
            "");
  // Scaled ibex runs 10 ranks per node at every process count.
  EXPECT_NE(parse_as(xp::Tool::Sweep, {"--local-aggs", "11"})
                .error.find("--local-aggs"),
            std::string::npos);
  // The sweep keeps the unscaled preset; each cell scales it.
  const auto cfg = parse_as(
      xp::Tool::Sweep, {"--platform", "crill", "--fault-rate", "0.2",
                        "--jobs", "3", "--resume", "ck.json", "--tenants",
                        "2", "--qos", "priority"});
  ASSERT_EQ(cfg.error, "");
  EXPECT_EQ(cfg.spec.platform.procs_per_node,
            xp::crill().procs_per_node);
  EXPECT_EQ(cfg.spec.platform.pfs.faults.write_fail_rate, 0.2);
  EXPECT_EQ(cfg.exec.jobs, 3);
  EXPECT_EQ(cfg.exec.checkpoint, "ck.json");
  EXPECT_EQ(cfg.qos, tpio::pfs::QosPolicy::Priority);
  // Grids that do not exist.
  EXPECT_NE(parse_as(xp::Tool::Sweep, {"--primitives", "--tenants", "2"})
                .error.find("--primitives"),
            std::string::npos);
  EXPECT_NE(parse_as(xp::Tool::Sweep, {"--auto", "--primitives"})
                .error.find("--auto"),
            std::string::npos);
}
