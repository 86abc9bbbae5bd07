#include "harness/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "harness/sweep.hpp"
#include "net/topology.hpp"
#include "simbase/error.hpp"
#include "simbase/units.hpp"

namespace tpio::xp {

namespace {

wl::Spec workload_by_name(const std::string& name, std::uint64_t bytes,
                          std::string& error) {
  if (name == "ior") {
    return wl::make_ior(bytes != 0 ? bytes : 2ull << 20);
  }
  if (name == "tile256") {
    const std::uint64_t b = bytes != 0 ? bytes : 512ull << 10;
    // 512-byte rows; derive the row count from the requested volume.
    return wl::make_tile256(2, std::max(1, static_cast<int>(b / 512)));
  }
  if (name == "tile1m") {
    const std::uint64_t b = bytes != 0 ? bytes : 2ull << 20;
    return wl::make_tile1m(1, std::max(1, static_cast<int>(b >> 20)));
  }
  if (name == "flash") {
    const std::uint64_t b = bytes != 0 ? bytes : 3ull << 19;  // 1.5 MiB
    const auto per_var = std::max<std::uint64_t>(b / 24, 16 * 1024);
    return wl::make_flash(24, std::max(1, static_cast<int>(per_var / (16 * 1024))),
                          16 * 1024);
  }
  error = "unknown workload '" + name + "'";
  return {};
}

bool parse_overlap(const std::string& v, coll::OverlapMode& out) {
  if (v == "none") out = coll::OverlapMode::None;
  else if (v == "comm") out = coll::OverlapMode::Comm;
  else if (v == "write") out = coll::OverlapMode::Write;
  else if (v == "write-comm") out = coll::OverlapMode::WriteComm;
  else if (v == "write-comm-2") out = coll::OverlapMode::WriteComm2;
  else if (v == "auto") out = coll::OverlapMode::Auto;
  else return false;
  return true;
}

bool parse_transfer(const std::string& v, coll::Transfer& out) {
  if (v == "two-sided") out = coll::Transfer::TwoSided;
  else if (v == "fence") out = coll::Transfer::OneSidedFence;
  else if (v == "lock") out = coll::Transfer::OneSidedLock;
  else return false;
  return true;
}

bool parse_leader(const std::string& v, coll::LeaderPolicy& out) {
  if (v == "lowest") out = coll::LeaderPolicy::Lowest;
  else if (v == "spread") out = coll::LeaderPolicy::Spread;
  else if (v == "superset") out = coll::LeaderPolicy::Superset;
  else return false;
  return true;
}

}  // namespace

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

Platform platform_by_name(const std::string& name) {
  if (name == "crill") return scaled(crill());
  if (name == "ibex") return scaled(ibex());
  if (name == "lustre") return scaled(lustre());
  tpio::fail("unknown platform '" + name + "' (crill|ibex|lustre)");
}

std::string cli_usage() {
  return
      "tpio_sim - run one simulated collective-write experiment\n"
      "\n"
      "  --platform crill|ibex|lustre       cluster profile (default ibex)\n"
      "  --workload ior|tile256|tile1m|flash  access pattern (default tile1m)\n"
      "  --procs N                          MPI processes (default 64)\n"
      "  --bytes-per-proc SIZE              per-process volume (e.g. 4M)\n"
      "  --cb SIZE                          collective buffer (default 4M)\n"
      "  --overlap none|comm|write|write-comm|write-comm-2|auto\n"
      "  --transfer two-sided|fence|lock    shuffle primitive\n"
      "  --aggregators N                    0 = automatic\n"
      "  --probe-cycles N                   auto: probe cycles (default 4)\n"
      "  --tuning-cache FILE                auto: persistent decision cache\n"
      "  --hierarchical                     two-level (intra-node) shuffle\n"
      "  --leader lowest|spread|superset    lane-leader policy (default\n"
      "                                     lowest; superset puts leaders on\n"
      "                                     the node's aggregators)\n"
      "  --local-aggs N                     local aggregators (lanes) per\n"
      "                                     node; N > 1 pipelines each\n"
      "                                     lane's gather against its\n"
      "                                     forwards (default 1)\n"
      "  --reps N                           measurements (default 3)\n"
      "  --seed N                           master seed (default 1)\n"
      "  --verify                           check file contents\n"
      "  --fault-rate R                     per-attempt write-failure prob.\n"
      "  --fault-seed N                     fault-scenario seed (default 1)\n"
      "  --fail-until N                     attempts 1..N-1 of every op fail\n"
      "  --straggler F                      straggler service multiplier\n"
      "  --straggler-targets N              targets that straggle (default 0)\n"
      "  --straggler-after MS               virtual onset of the slowdown\n"
      "  --max-retries N                    retry budget per op (default 4)\n"
      "  --degrade F                        degraded-mode trigger ratio\n"
      "  --tenants N                        run N copies on one shared PFS;\n"
      "                                     tenant 0 is measured, the rest\n"
      "                                     are NoOverlap background writers\n"
      "  --arrival fixed:MS|poisson:MS|trace:MS,MS,...\n"
      "                                     tenant arrival schedule (virtual\n"
      "                                     milliseconds; default fixed:0)\n"
      "  --qos fifo|fair|priority           shared-target queuing discipline\n"
      "                                     (priority: tenant 0 on top)\n"
      "  --sub-comms N|auto                 split ranks into N sub-\n"
      "                                     communicators, one file each\n"
      "                                     (subfiling; default 1 = shared\n"
      "                                     file; auto = probe-driven)\n"
      "  --stripe-unit SIZE                 per-(sub)file stripe unit\n"
      "                                     override (default: platform)\n"
      "  --stripe-factor N                  targets each (sub)file stripes\n"
      "                                     over (default: all targets)\n"
      "  --help\n";
}

CliConfig parse_cli(const std::vector<std::string>& args) {
  CliConfig cfg;
  std::string platform = "ibex";
  std::string workload = "tile1m";
  std::uint64_t bytes = 0;
  // Fault knobs land on the platform's storage system, which is built only
  // after the whole line parses — collect them here, apply at the end.
  pfs::FaultParams faults;
  cfg.spec.nprocs = 64;
  cfg.spec.options.cb_size = kCbSize;

  auto need_value = [&](std::size_t i) -> bool {
    if (i + 1 >= args.size()) {
      cfg.error = "flag " + args[i] + " needs a value";
      return false;
    }
    return true;
  };
  // Strict numeric parsing: rejects zero/negative counts, trailing
  // garbage, and overflowing values with a message naming the flag.
  auto int_flag = [&](const std::string& flag, const std::string& v,
                      long long lo, long long hi) -> long long {
    long long out = 0;
    if (!parse_int_arg(v, lo, hi, out)) {
      cfg.error = flag + " wants an integer in [" + std::to_string(lo) +
                  ", " + std::to_string(hi) + "], got '" + v + "'";
    }
    return out;
  };
  auto bytes_flag = [&](const std::string& flag,
                        const std::string& v) -> std::uint64_t {
    const std::uint64_t b = sim::parse_bytes(v);  // throws on malformed
    if (b == 0) cfg.error = flag + " wants a positive size, got '" + v + "'";
    return b;
  };
  auto double_flag = [&](const std::string& flag, const std::string& v,
                         double lo, double hi) -> double {
    double out = lo;
    if (!parse_double_arg(v, lo, hi, out)) {
      cfg.error = flag + " wants a number in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "], got '" + v + "'";
    }
    return out;
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    try {
      if (a == "--help" || a == "-h") {
        cfg.quick_help = true;
        return cfg;
      } else if (a == "--platform") {
        if (!need_value(i)) return cfg;
        platform = args[++i];
      } else if (a == "--workload") {
        if (!need_value(i)) return cfg;
        workload = args[++i];
      } else if (a == "--procs") {
        if (!need_value(i)) return cfg;
        cfg.spec.nprocs =
            static_cast<int>(int_flag(a, args[++i], 1, 1'000'000));
      } else if (a == "--bytes-per-proc") {
        if (!need_value(i)) return cfg;
        bytes = bytes_flag(a, args[++i]);
      } else if (a == "--cb") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.cb_size = bytes_flag(a, args[++i]);
      } else if (a == "--overlap") {
        if (!need_value(i)) return cfg;
        if (!parse_overlap(args[++i], cfg.spec.options.overlap)) {
          cfg.error = "unknown overlap mode '" + args[i] + "'";
        }
      } else if (a == "--transfer") {
        if (!need_value(i)) return cfg;
        if (!parse_transfer(args[++i], cfg.spec.options.transfer)) {
          cfg.error = "unknown transfer '" + args[i] + "'";
        }
      } else if (a == "--aggregators") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.num_aggregators =
            static_cast<int>(int_flag(a, args[++i], 0, 1'000'000));
      } else if (a == "--probe-cycles") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.probe_cycles =
            static_cast<int>(int_flag(a, args[++i], 1, 1'000'000));
      } else if (a == "--tuning-cache") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.tuning_cache = args[++i];
      } else if (a == "--hierarchical") {
        cfg.spec.options.hierarchical = true;
      } else if (a == "--leader") {
        if (!need_value(i)) return cfg;
        if (!parse_leader(args[++i], cfg.spec.options.leader_policy)) {
          cfg.error = "unknown leader policy '" + args[i] + "'";
        }
      } else if (a == "--local-aggs") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.local_aggregators =
            static_cast<int>(int_flag(a, args[++i], 1, 1'000'000));
      } else if (a == "--reps") {
        if (!need_value(i)) return cfg;
        cfg.reps = static_cast<int>(int_flag(a, args[++i], 1, 1'000'000));
      } else if (a == "--seed") {
        if (!need_value(i)) return cfg;
        if (!parse_u64_arg(args[++i], cfg.seed_base)) {
          cfg.error = "--seed wants an unsigned integer, got '" + args[i] + "'";
        }
      } else if (a == "--verify") {
        cfg.spec.verify = true;
      } else if (a == "--fault-rate") {
        if (!need_value(i)) return cfg;
        faults.write_fail_rate = double_flag(a, args[++i], 0.0, 1.0);
      } else if (a == "--fault-seed") {
        if (!need_value(i)) return cfg;
        if (!parse_u64_arg(args[++i], faults.seed)) {
          cfg.error =
              "--fault-seed wants an unsigned integer, got '" + args[i] + "'";
        }
      } else if (a == "--fail-until") {
        if (!need_value(i)) return cfg;
        faults.fail_until_attempt =
            static_cast<int>(int_flag(a, args[++i], 1, 1'000));
      } else if (a == "--straggler") {
        if (!need_value(i)) return cfg;
        faults.straggler_factor = double_flag(a, args[++i], 1.0, 1e6);
      } else if (a == "--straggler-targets") {
        if (!need_value(i)) return cfg;
        faults.straggler_targets =
            static_cast<int>(int_flag(a, args[++i], 0, 1'000'000));
      } else if (a == "--straggler-after") {
        if (!need_value(i)) return cfg;
        const double ms = double_flag(a, args[++i], 0.0, 1e12);
        faults.straggler_after =
            static_cast<sim::Time>(std::llround(ms * 1e6));
      } else if (a == "--max-retries") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.max_retries =
            static_cast<int>(int_flag(a, args[++i], 0, 1'000));
      } else if (a == "--degrade") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.degrade_slowdown =
            double_flag(a, args[++i], 0.0, 1e6);
      } else if (a == "--tenants") {
        if (!need_value(i)) return cfg;
        cfg.tenants = static_cast<int>(int_flag(a, args[++i], 1, 64));
      } else if (a == "--arrival") {
        if (!need_value(i)) return cfg;
        if (!parse_arrival_arg(args[++i], cfg.arrival)) {
          cfg.error = "--arrival wants fixed:MS|poisson:MS|trace:MS,MS,..., "
                      "got '" + args[i] + "'";
        }
      } else if (a == "--qos") {
        if (!need_value(i)) return cfg;
        cfg.qos = pfs::parse_qos(args[++i]);  // throws -> caught below
      } else if (a == "--sub-comms") {
        if (!need_value(i)) return cfg;
        const std::string v = args[++i];
        if (v == "auto") {
          cfg.spec.options.sub_comm_count = 0;  // resolved by the tool
        } else {
          cfg.spec.options.sub_comm_count =
              static_cast<int>(int_flag(a, v, 1, 1'000'000));
        }
      } else if (a == "--stripe-unit") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.subfile_stripe_unit = bytes_flag(a, args[++i]);
      } else if (a == "--stripe-factor") {
        if (!need_value(i)) return cfg;
        cfg.spec.options.subfile_stripe_factor =
            static_cast<int>(int_flag(a, args[++i], 1, 1'000'000));
      } else {
        cfg.error = "unknown flag '" + a + "'";
      }
    } catch (const tpio::Error& e) {
      cfg.error = e.what();
    }
    if (!cfg.error.empty()) return cfg;
  }

  try {
    cfg.spec.platform = platform_by_name(platform);
    cfg.spec.platform.pfs.faults = faults;
    cfg.spec.workload = workload_by_name(workload, bytes, cfg.error);
  } catch (const tpio::Error& e) {
    cfg.error = e.what();
  }
  if (cfg.error.empty()) cfg.error = check_cli(cfg);
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
