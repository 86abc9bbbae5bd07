// tpio_bench: the measuring half of the repository benchmark. Each
// end-to-end pass runs in a fresh fork()ed child, one child at a time;
// `--trace 1` runs a separate traced round that splits host time across
// the program's layers. It prints one JSON line of raw samples per
// workload; run.py in this directory builds it, turns those lines into the
// report and the result line, and compares record sets. See README.md.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "measure.hpp"
#include "passes.hpp"

namespace bench = tpio::bench;

namespace {

constexpr const char* kUsage =
    "usage: tpio_bench [--workload NAME] [--seed N]\n"
    "                  [--seconds N | --passes N] [--trace 0|1]\n"
    "                  [--trace-out FILE] [--smoke]\n"
    "  --workload  table1_quick | paper576_ibex | scale8192 |\n"
    "              restart_verified (default: all four)\n"
    "  --seed      seed every run's RunSpec::seed derives from (default "
    "12648430)\n"
    "  --seconds   time budget of the whole invocation, split evenly over\n"
    "              the workloads (default 25 per workload)\n"
    "  --passes    fixed pass (traced: round) count per workload instead\n"
    "  --trace     1 = traced per-layer run instead of end-to-end passes\n"
    "  --trace-out Chrome-trace JSON of the first traced round\n"
    "  --smoke     reduced grids, for the self-test\n";

struct Cli {
  bench::RunOptions run;
  std::vector<std::string> workloads = bench::workload_names();
  std::optional<int> seconds;
  bool smoke = false;
  bool help = false;
  std::string error;  // non-empty: rejected, names the flag
};

Cli parse_args(const std::vector<std::string>& args) {
  Cli c;
  auto reject = [&](const std::string& flag, const std::string& what) {
    if (c.error.empty()) c.error = flag + ": " + what;
  };
  for (std::size_t i = 0; i < args.size() && c.error.empty(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 < args.size()) return args[++i];
      reject(flag, "missing value");
      return std::nullopt;
    };
    long long n = 0;
    if (flag == "--workload") {
      if (const auto v = value()) {
        const auto& names = bench::workload_names();
        if (std::find(names.begin(), names.end(), *v) == names.end()) {
          reject(flag, "unknown workload '" + *v + "'");
        }
        c.workloads = {*v};
      }
    } else if (flag == "--seed") {
      if (const auto v = value();
          v && !tpio::xp::parse_u64_arg(*v, c.run.seed)) {
        reject(flag, "expected a non-negative integer, got '" + *v + "'");
      }
    } else if (flag == "--seconds") {
      if (const auto v = value()) {
        if (tpio::xp::parse_int_arg(*v, 1, 3600, n)) {
          c.seconds = static_cast<int>(n);
        } else {
          reject(flag, "expected 1..3600, got '" + *v + "'");
        }
      }
    } else if (flag == "--passes") {
      if (const auto v = value()) {
        if (tpio::xp::parse_int_arg(*v, 1, 1000, n)) {
          c.run.passes = static_cast<int>(n);
        } else {
          reject(flag, "expected 1..1000, got '" + *v + "'");
        }
      }
    } else if (flag == "--trace") {
      if (const auto v = value()) {
        if (*v == "0" || *v == "1") {
          c.run.trace = *v == "1";
        } else {
          reject(flag, "expected 0 or 1, got '" + *v + "'");
        }
      }
    } else if (flag == "--trace-out") {
      if (const auto v = value()) c.run.trace_out = *v;
    } else if (flag == "--smoke") {
      c.smoke = true;
    } else if (flag == "--help" || flag == "-h") {
      c.help = true;
    } else {
      reject(flag, "unknown flag");
    }
  }
  if (!c.error.empty()) return c;
  if (c.seconds && c.run.passes > 0) {
    c.error = "--passes: replaces the time budget; drop --seconds";
  } else if (!c.run.trace_out.empty() &&
             (!c.run.trace || c.workloads.size() != 1)) {
    c.error = "--trace-out: needs --trace 1 and one --workload";
  }
  const int total = c.seconds.value_or(
      static_cast<int>(bench::kWorkloadSeconds * c.workloads.size()));
  c.run.seconds = static_cast<double>(total) / c.workloads.size();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_args(std::vector<std::string>(argv + 1, argv + argc));
  if (!cli.error.empty()) {
    std::fprintf(stderr, "tpio_bench: %s\n%s", cli.error.c_str(), kUsage);
    return 2;
  }
  if (cli.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  bool correct = true;
  for (const std::string& name : cli.workloads) {
    const bench::WorkloadReport r = bench::run_workload(
        bench::make_workload(name, cli.run.seed, cli.smoke), cli.run);
    std::printf("%s\n", bench::samples_line(r).c_str());
    std::fflush(stdout);
    correct = correct && r.attempted > 0 && r.failed == 0;
  }
  return correct ? 0 : 1;
}
