#include "harness/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <utility>

#include "harness/sweep.hpp"
#include "net/topology.hpp"
#include "simbase/error.hpp"
#include "simbase/units.hpp"

namespace tpio::xp {

bool parse_int_arg(const std::string& s, long long lo, long long hi,
                   long long& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  // Whole-string consumption rejects trailing garbage ("12x"); ERANGE
  // rejects values strtoll had to clamp ("99999999999999999999").
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

bool parse_u64_arg(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

namespace {

/// Same strictness as parse_int_arg for doubles: the whole string must
/// parse, the value must be finite and in [lo, hi].
bool parse_double_arg(const std::string& s, double lo, double hi,
                      double& out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  if (!std::isfinite(v) || v < lo || v > hi) return false;
  out = v;
  return true;
}

/// An `--arrival` value: "fixed:GAP_MS" | "poisson:MEAN_MS" |
/// "trace:MS,MS,..." (milliseconds of virtual time, >= 0). Returns false
/// on malformed input, leaving `out` untouched.
bool parse_arrival_arg(const std::string& s, ArrivalSpec& out) {
  const std::size_t colon = s.find(':');
  const std::string model = s.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? std::string() : s.substr(colon + 1);
  ArrivalSpec parsed;
  if (model == "fixed" || model == "poisson") {
    parsed.model =
        model == "fixed" ? ArrivalModel::Fixed : ArrivalModel::Poisson;
    double ms = 0.0;
    if (!parse_double_arg(rest, 0.0, 1e12, ms)) return false;
    parsed.gap = sim::milliseconds(ms);
  } else if (model == "trace") {
    parsed.model = ArrivalModel::Trace;
    std::size_t pos = 0;
    while (pos <= rest.size()) {
      const std::size_t comma = rest.find(',', pos);
      const std::string tok =
          rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
      double ms = 0.0;
      if (!parse_double_arg(tok, 0.0, 1e12, ms)) return false;
      parsed.trace.push_back(sim::milliseconds(ms));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (parsed.trace.empty()) return false;
  } else {
    return false;
  }
  out = parsed;
  return true;
}

/// Thrown by a flag's rule on a value outside it: what the flag wants.
struct Wants {
  std::string what;
};

int integer(const std::string& v, long long lo, long long hi) {
  long long out = 0;
  if (!parse_int_arg(v, lo, hi, out)) {
    throw Wants{"an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]"};
  }
  return static_cast<int>(out);
}

double number(const std::string& v, double lo, double hi) {
  double out = 0.0;
  if (!parse_double_arg(v, lo, hi, out)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "a number in [%g, %g]", lo, hi);
    throw Wants{buf};
  }
  return out;
}

std::uint64_t unsigned_value(const std::string& v) {
  std::uint64_t out = 0;
  if (!parse_u64_arg(v, out)) throw Wants{"an unsigned integer"};
  return out;
}

std::uint64_t byte_size(const std::string& v) {
  std::uint64_t b = 0;
  try {
    b = sim::parse_bytes(v);
  } catch (const tpio::Error&) {
  }
  if (b == 0) throw Wants{"a positive size (K/M/G suffixes)"};
  return b;
}

template <class T>
T pick(const std::string& v,
       std::initializer_list<std::pair<const char*, T>> names) {
  std::string all;
  for (const auto& [name, value] : names) {
    if (v == name) return value;
    all += (all.empty() ? "" : "|") + std::string(name);
  }
  throw Wants{all};
}

Platform preset(const std::string& v) {
  return pick<Platform (*)()>(
      v, {{"crill", crill}, {"ibex", ibex}, {"lustre", lustre}})();
}

wl::Spec make_workload(wl::Kind kind, std::uint64_t bytes) {
  switch (kind) {
    case wl::Kind::Ior:
      return wl::make_ior(bytes != 0 ? bytes : 2ull << 20);
    case wl::Kind::Tile256: {
      const std::uint64_t b = bytes != 0 ? bytes : 512ull << 10;
      // 512-byte rows; derive the row count from the requested volume.
      return wl::make_tile256(2, std::max(1, static_cast<int>(b / 512)));
    }
    case wl::Kind::Tile1M: {
      const std::uint64_t b = bytes != 0 ? bytes : 2ull << 20;
      return wl::make_tile1m(1, std::max(1, static_cast<int>(b >> 20)));
    }
    case wl::Kind::Flash: {
      const std::uint64_t b = bytes != 0 ? bytes : 3ull << 19;  // 1.5 MiB
      const auto per_var = std::max<std::uint64_t>(b / 24, 16 * 1024);
      return wl::make_flash(
          24, std::max(1, static_cast<int>(per_var / (16 * 1024))),
          16 * 1024);
    }
  }
  tpio::fail("unknown workload kind");
}

/// What one parse collects: the rules fill `cfg` and the fields below,
/// which become the spec's platform, workload and fault knobs once the
/// whole line has parsed.
struct Line {
  Tool tool = Tool::Sim;
  CliConfig cfg;
  Platform platform = ibex();
  wl::Kind workload = wl::Kind::Tile1M;
  std::uint64_t bytes = 0;
  pfs::FaultParams faults;
};

constexpr unsigned kSim = 1, kSweep = 2, kBench = 4;

unsigned bit(Tool t) { return 1u << static_cast<unsigned>(t); }

const char* tool_name(Tool t) {
  switch (t) {
    case Tool::Sim: return "tpio_sim";
    case Tool::Sweep: return "tpio_sweep";
    case Tool::Bench: return "bench-driver";
  }
  tpio::fail("unknown tool");
}

/// One flag: the tools that take it, its value in the usage text (null
/// for a switch), its help text, and how its value lands in the line —
/// throwing Wants when the value breaks the flag's rule.
struct Flag {
  const char* name;
  unsigned tools;
  const char* arg;
  const char* help;
  void (*set)(Line&, const std::string&);
};

using V = const std::string&;

const Flag kFlags[] = {
    {"--platform", kSim | kSweep, "crill|ibex|lustre",
     "cluster profile (default ibex)",
     [](Line& l, V v) { l.platform = preset(v); }},
    {"--workload", kSim, "ior|tile256|tile1m|flash",
     "access pattern (default tile1m)",
     [](Line& l, V v) {
       l.workload = pick<wl::Kind>(v, {{"ior", wl::Kind::Ior},
                                       {"tile256", wl::Kind::Tile256},
                                       {"tile1m", wl::Kind::Tile1M},
                                       {"flash", wl::Kind::Flash}});
     }},
    {"--procs", kSim, "N", "MPI processes (default 64)",
     [](Line& l, V v) { l.cfg.spec.nprocs = integer(v, 1, 1'000'000); }},
    {"--bytes-per-proc", kSim, "SIZE", "per-process volume (e.g. 4M)",
     [](Line& l, V v) { l.bytes = byte_size(v); }},
    {"--cb", kSim, "SIZE", "collective buffer (default 4M)",
     [](Line& l, V v) { l.cfg.spec.options.cb_size = byte_size(v); }},
    {"--overlap", kSim, "none|comm|write|write-comm|write-comm-2|auto",
     "scheduler (default write-comm-2)",
     [](Line& l, V v) {
       l.cfg.spec.options.overlap = pick<coll::OverlapMode>(
           v, {{"none", coll::OverlapMode::None},
               {"comm", coll::OverlapMode::Comm},
               {"write", coll::OverlapMode::Write},
               {"write-comm", coll::OverlapMode::WriteComm},
               {"write-comm-2", coll::OverlapMode::WriteComm2},
               {"auto", coll::OverlapMode::Auto}});
     }},
    {"--transfer", kSim, "two-sided|fence|lock", "shuffle primitive",
     [](Line& l, V v) {
       l.cfg.spec.options.transfer = pick<coll::Transfer>(
           v, {{"two-sided", coll::Transfer::TwoSided},
               {"fence", coll::Transfer::OneSidedFence},
               {"lock", coll::Transfer::OneSidedLock}});
     }},
    {"--aggregators", kSim, "N", "0 = automatic",
     [](Line& l, V v) {
       l.cfg.spec.options.num_aggregators = integer(v, 0, 1'000'000);
     }},
    {"--probe-cycles", kSim, "N", "auto: probe cycles (default 4)",
     [](Line& l, V v) {
       l.cfg.spec.options.probe_cycles = integer(v, 1, 1'000'000);
     }},
    {"--tuning-cache", kSim, "FILE", "auto: persistent decision cache",
     [](Line& l, V v) { l.cfg.spec.options.tuning_cache = v; }},
    {"--hierarchical", kSim | kSweep, nullptr,
     "two-level (intra-node) shuffle",
     [](Line& l, V) { l.cfg.spec.options.hierarchical = true; }},
    {"--leader", kSim | kSweep, "lowest|spread|superset",
     "lane-leader policy (default\nlowest; superset puts leaders on\nthe "
     "node's aggregators)",
     [](Line& l, V v) {
       l.cfg.spec.options.leader_policy = pick<coll::LeaderPolicy>(
           v, {{"lowest", coll::LeaderPolicy::Lowest},
               {"spread", coll::LeaderPolicy::Spread},
               {"superset", coll::LeaderPolicy::Superset}});
     }},
    {"--local-aggs", kSim | kSweep, "N",
     "local aggregators (lanes) per\nnode; N > 1 pipelines each\nlane's "
     "gather against its\nforwards (default 1)",
     [](Line& l, V v) {
       l.cfg.spec.options.local_aggregators = integer(v, 1, 1'000'000);
     }},
    {"--reps", kSim | kSweep, "N", "measurements (default 3)",
     [](Line& l, V v) { l.cfg.reps = integer(v, 1, 1'000'000); }},
    {"--seed", kSim, "N", "master seed (default 1)",
     [](Line& l, V v) { l.cfg.seed_base = unsigned_value(v); }},
    {"--verify", kSim, nullptr, "check file contents",
     [](Line& l, V) { l.cfg.spec.verify = true; }},
    {"--fault-rate", kSim | kSweep, "R", "per-attempt write-failure prob.",
     [](Line& l, V v) { l.faults.write_fail_rate = number(v, 0.0, 1.0); }},
    {"--fault-seed", kSim | kSweep, "N", "fault-scenario seed (default 1)",
     [](Line& l, V v) { l.faults.seed = unsigned_value(v); }},
    {"--fail-until", kSim, "N", "attempts 1..N-1 of every op fail",
     [](Line& l, V v) { l.faults.fail_until_attempt = integer(v, 1, 1'000); }},
    {"--straggler", kSim | kSweep, "F", "straggler service multiplier",
     [](Line& l, V v) { l.faults.straggler_factor = number(v, 1.0, 1e6); }},
    {"--straggler-targets", kSim | kSweep, "N",
     "targets that straggle (default 0)",
     [](Line& l, V v) {
       l.faults.straggler_targets = integer(v, 0, 1'000'000);
     }},
    {"--straggler-after", kSim, "MS", "virtual onset of the slowdown",
     [](Line& l, V v) {
       l.faults.straggler_after =
           static_cast<sim::Time>(std::llround(number(v, 0.0, 1e12) * 1e6));
     }},
    {"--max-retries", kSim | kSweep, "N", "retry budget per op (default 4)",
     [](Line& l, V v) {
       l.cfg.spec.options.max_retries = integer(v, 0, 1'000);
     }},
    {"--degrade", kSim, "F", "degraded-mode trigger ratio",
     [](Line& l, V v) {
       l.cfg.spec.options.degrade_slowdown = number(v, 0.0, 1e6);
     }},
    {"--tenants", kSim | kSweep, "N",
     "run N copies on one shared PFS;\ntenant 0 is measured, the rest\nare "
     "NoOverlap background writers",
     [](Line& l, V v) { l.cfg.tenants = integer(v, 1, 64); }},
    {"--arrival", kSim | kSweep, "fixed:MS|poisson:MS|trace:MS,MS,...",
     "tenant arrival schedule (virtual\nmilliseconds; default fixed:0)",
     [](Line& l, V v) {
       if (!parse_arrival_arg(v, l.cfg.arrival)) {
         throw Wants{"fixed:MS|poisson:MS|trace:MS,MS,..."};
       }
     }},
    {"--qos", kSim | kSweep, "fifo|fair|priority",
     "shared-target queuing discipline\n(priority: tenant 0 on top)",
     [](Line& l, V v) {
       try {
         l.cfg.qos = pfs::parse_qos(v);
       } catch (const tpio::Error&) {
         throw Wants{"fifo|fair|priority"};
       }
     }},
    {"--sub-comms", kSim | kSweep, "N|auto",
     "split ranks into N sub-\ncommunicators, one file each\n(subfiling; "
     "default 1 = shared\nfile; auto = probe-driven,\ntpio_sim only)",
     [](Line& l, V v) {
       if (v != "auto") {
         l.cfg.spec.options.sub_comm_count = integer(v, 1, 1'000'000);
       } else if (l.tool == Tool::Sim) {
         l.cfg.spec.options.sub_comm_count = 0;  // resolved by the tool
       } else {
         tpio::fail("tpio_sweep does not take --sub-comms auto: a grid "
                    "cannot resolve k per cell, give a count");
       }
     }},
    {"--stripe-unit", kSim | kSweep, "SIZE",
     "per-(sub)file stripe unit\noverride (default: platform)",
     [](Line& l, V v) {
       l.cfg.spec.options.subfile_stripe_unit = byte_size(v);
     }},
    {"--stripe-factor", kSim | kSweep, "N",
     "targets each (sub)file stripes\nover (default: all targets)",
     [](Line& l, V v) {
       l.cfg.spec.options.subfile_stripe_factor = integer(v, 1, 1'000'000);
     }},
    {"--primitives", kSweep, nullptr,
     "Fig. 4 grid: the shuffle\nprimitives under write-comm-2",
     [](Line& l, V) { l.cfg.primitives = true; }},
    {"--auto", kSweep, nullptr, "add the adaptive scheduler as a\nsixth column",
     [](Line& l, V) { l.cfg.include_auto = true; }},
    {"--quick", kSweep | kBench, nullptr, "reduced grid",
     [](Line& l, V) { l.cfg.quick = true; }},
    {"--jobs", kSweep | kBench, "N",
     "worker threads (default 0 = all\ncores; 1 = serial)",
     [](Line& l, V v) { l.cfg.exec.jobs = integer(v, 0, 10'000); }},
    {"--resume", kSweep, "FILE",
     "checkpoint finished grid points\nto FILE; a rerun skips them",
     [](Line& l, V v) { l.cfg.exec.checkpoint = v; }},
    {"--progress", kSweep | kBench, nullptr, "live progress on stderr",
     [](Line& l, V) { l.cfg.exec.progress = true; }},
    {"--paper-scale", kBench, nullptr,
     "unscaled geometry: presets\nverbatim, the paper's process\ncounts, "
     "32 MiB collective buffer",
     [](Line& l, V) { l.cfg.paper_scale = true; }},
    {"--help", kSim | kSweep, nullptr, "print this text",
     [](Line& l, V) { l.cfg.quick_help = true; }},
};

const Flag* find_flag(const std::string& name) {
  for (const Flag& f : kFlags) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

/// "tpio_sim", "tpio_sweep and bench-driver", ... for a tool mask.
std::string owners(unsigned tools) {
  std::string out;
  for (Tool t : {Tool::Sim, Tool::Sweep, Tool::Bench}) {
    if ((tools & bit(t)) == 0) continue;
    out += (out.empty() ? "" : " and ") + std::string(tool_name(t));
  }
  return out;
}

/// tpio_sweep's checks: the flag combinations its grids lack, then
/// check_cli on every cell as it will run — the scaled platform at each
/// process count of the grid.
std::string check_sweep(const CliConfig& cfg) {
  if (cfg.primitives && cfg.tenants > 1) {
    return "--primitives and --tenants cannot be combined (the contended "
           "sweep covers the overlap grid)";
  }
  if (cfg.include_auto && (cfg.primitives || cfg.tenants > 1)) {
    return "--auto adds a column to the idle overlap grid only; it cannot "
           "be combined with --primitives or --tenants";
  }
  for (const int procs : paper_proc_counts(cfg.quick)) {
    CliConfig cell = cfg;
    cell.spec.platform = scaled(cfg.spec.platform);
    cell.spec.nprocs = procs;
    std::string error = check_cli(cell);
    if (!error.empty()) return error;
  }
  return {};
}

}  // namespace

Platform platform_by_name(const std::string& name) {
  try {
    return scaled(preset(name));
  } catch (const Wants& w) {
    tpio::fail("unknown platform '" + name + "' (" + w.what + ")");
  }
}

std::vector<std::string> cli_flags(Tool tool) {
  std::vector<std::string> out;
  for (const Flag& f : kFlags) {
    if ((f.tools & bit(tool)) != 0) out.push_back(f.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string cli_usage(Tool tool) {
  static const char* const kTitle[] = {
      "tpio_sim - run one simulated collective-write experiment",
      "tpio_sweep - run the paper's sweep grid on one platform and print "
      "CSV",
      "bench-driver flags"};
  // Help text starts at this column, on the next line when the flag and
  // its value reach it.
  constexpr std::size_t kColumn = 37;
  const std::string indent(kColumn, ' ');
  std::string out =
      std::string(kTitle[static_cast<std::size_t>(tool)]) + "\n\n";
  for (const Flag& f : kFlags) {
    if ((f.tools & bit(tool)) == 0) continue;
    std::string line = std::string("  ") + f.name;
    if (f.arg != nullptr) line += std::string(" ") + f.arg;
    line += line.size() < kColumn ? std::string(kColumn - line.size(), ' ')
                                  : "\n" + indent;
    for (const char* c = f.help; *c != '\0'; ++c) {
      line += *c;
      if (*c == '\n') line += indent;
    }
    out += line + "\n";
  }
  return out;
}

CliConfig parse_cli(const std::vector<std::string>& args, Tool tool) {
  Line l;
  l.tool = tool;
  CliConfig& cfg = l.cfg;
  cfg.spec.nprocs = 64;
  cfg.spec.options.cb_size = kCbSize;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string a = args[i] == "-h" ? "--help" : args[i];
    const Flag* f = find_flag(a);
    if (f == nullptr) {
      cfg.error = "unknown flag '" + a + "'";
      return cfg;
    }
    if ((f->tools & bit(tool)) == 0) {
      cfg.error = a + " is not a " + tool_name(tool) + " flag (it is a " +
                  owners(f->tools) + " flag)";
      return cfg;
    }
    std::string v;
    if (f->arg != nullptr) {
      if (i + 1 >= args.size()) {
        cfg.error = "flag " + a + " needs a value";
        return cfg;
      }
      v = args[++i];
    }
    try {
      f->set(l, v);
    } catch (const Wants& w) {
      cfg.error = a + " wants " + w.what + ", got '" + v + "'";
    } catch (const tpio::Error& e) {
      cfg.error = e.what();
    }
    if (!cfg.error.empty() || cfg.quick_help) return cfg;
  }

  // Fault knobs land on the platform's storage system, which exists only
  // once the whole line has parsed.
  switch (tool) {
    case Tool::Sim:
      cfg.spec.platform = scaled(l.platform);
      cfg.spec.platform.pfs.faults = l.faults;
      cfg.spec.workload = make_workload(l.workload, l.bytes);
      cfg.error = check_cli(cfg);
      break;
    case Tool::Sweep:
      cfg.spec.platform = l.platform;  // the sweep scales it per grid
      cfg.spec.platform.pfs.faults = l.faults;
      cfg.error = check_sweep(cfg);
      break;
    case Tool::Bench:
      break;
  }
  return cfg;
}

std::string check_cli(const CliConfig& cfg) {
  const RunSpec& spec = cfg.spec;
  const coll::Options& opt = spec.options;
  const int ppn = spec.platform.procs_per_node;
  const int nodes = net::Topology::fit(spec.nprocs, ppn).nodes;
  // Co-located storage grows with the nodes of every tenant sharing the
  // machine, so the smallest system either tool builds is one tenant
  // alone — which tpio_sim's slowdown baselines run.
  const int targets = storage_targets(spec.platform, nodes);
  if (spec.platform.pfs.faults.straggler_targets > targets) {
    return "--straggler-targets " +
           std::to_string(spec.platform.pfs.faults.straggler_targets) +
           " exceeds the " + std::to_string(targets) +
           " storage targets of a " + std::to_string(spec.nprocs) +
           "-process job on " + spec.platform.name;
  }
  if (opt.sub_comm_count > spec.nprocs) {
    return "--sub-comms " + std::to_string(opt.sub_comm_count) +
           " exceeds the " + std::to_string(spec.nprocs) +
           " processes of the run";
  }
  // Every sub-communicator elects its aggregators from its own ranks; the
  // smallest holds floor(P / k). tpio_sim rechecks once auto k resolves.
  const int smallest = spec.nprocs / std::max(opt.sub_comm_count, 1);
  if (opt.num_aggregators > smallest) {
    return "--aggregators " + std::to_string(opt.num_aggregators) +
           " exceeds the " + std::to_string(smallest) + " processes of " +
           (opt.sub_comm_count > 1 ? "the smallest sub-communicator"
                                   : "the run");
  }
  if (opt.local_aggregators > ppn) {
    return "--local-aggs " + std::to_string(opt.local_aggregators) +
           " exceeds the platform's " + std::to_string(ppn) +
           " processes per node";
  }
  if (opt.leader_policy == coll::LeaderPolicy::Superset &&
      opt.local_aggregators > 1) {
    // Superset needs one global aggregator per lane leader, or the fill
    // degenerates to Spread picks. Placement is round-robin over nodes, so
    // the per-node capacity is ceil(A / nodes); auto aggregator count
    // (--aggregators 0) guarantees only one.
    const int per_node = opt.num_aggregators == 0
                             ? 1
                             : (opt.num_aggregators + nodes - 1) / nodes;
    if (opt.local_aggregators > per_node) {
      return "--leader superset with --local-aggs " +
             std::to_string(opt.local_aggregators) + " exceeds the " +
             std::to_string(per_node) +
             " aggregator(s) per node; raise --aggregators, lower "
             "--local-aggs or use --leader spread";
    }
  }
  if (cfg.arrival.model == ArrivalModel::Trace &&
      static_cast<int>(cfg.arrival.trace.size()) != cfg.tenants) {
    return "--arrival trace lists " +
           std::to_string(cfg.arrival.trace.size()) +
           " instants but --tenants is " + std::to_string(cfg.tenants);
  }
  return {};
}

}  // namespace tpio::xp
