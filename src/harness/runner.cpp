#include "harness/runner.hpp"

#include <algorithm>
#include <cstdio>

#include "core/autotune.hpp"
#include "harness/tenancy.hpp"
#include "net/topology.hpp"
#include "simbase/error.hpp"
#include "simbase/rng.hpp"

namespace tpio::xp {

RunResult execute(const RunSpec& spec) {
  MultiRunSpec ms;
  ms.tenants = {spec};
  ms.seed = spec.seed;
  return std::move(execute_multi(ms).tenants[0].run);
}

void add_rank_results(RunResult& out, std::span<const coll::Result> ranks) {
  sim::Duration fwd_lifetime = 0, fwd_blocked = 0;
  for (const coll::Result& res : ranks) {
    out.rank_sum += res.timings;
    out.faults += res.faults;
    fwd_lifetime += res.forward_lifetime;
    fwd_blocked += res.forward_blocked;
    out.gather_critical = std::max(out.gather_critical, res.timings.gather);
    if (out.io_error.empty()) out.io_error = res.io_error;
    // Aggregators are the ranks that reported write time (non-aggregators
    // never touch the file system).
    if (res.timings.write > 0) {
      out.agg_sum += res.timings;
      if (res.timings.write > out.agg_max.write) out.agg_max = res.timings;
    }
  }
  // Pipelined-overlap fraction: across all lane leaders and cycles, the
  // share of forward-message lifetime the leaders were NOT blocked on —
  // forwarding hidden under other work (typically the next lane gather).
  // 0.0 whenever no rank forwarded (non-hierarchical, one-sided).
  if (fwd_lifetime > 0) {
    out.pipelined_overlap =
        1.0 - static_cast<double>(fwd_blocked) /
                  static_cast<double>(fwd_lifetime);
  }
}

std::string fingerprint(const RunResult& r) {
  std::string out;
  auto put = [&out](const std::string& name, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += name + '=' + value;
  };
  auto num = [](auto v) { return std::to_string(v); };
  auto exact = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  auto quoted = [](const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c == '\n' ? ' ' : c;
    }
    return q + '"';
  };
  auto timings = [&](const std::string& p, const coll::PhaseTimings& t) {
    put(p + ".meta", num(t.meta));
    put(p + ".pack", num(t.pack));
    put(p + ".gather", num(t.gather));
    put(p + ".forward", num(t.forward));
    put(p + ".shuffle", num(t.shuffle));
    put(p + ".sync", num(t.sync));
    put(p + ".write", num(t.write));
    put(p + ".backoff", num(t.backoff));
    put(p + ".total", num(t.total));
  };
  put("arrival", num(r.arrival));
  put("completion", num(r.completion));
  put("makespan", num(r.makespan));
  timings("rank_sum", r.rank_sum);
  timings("agg_sum", r.agg_sum);
  timings("agg_max", r.agg_max);
  put("aggregators", num(r.aggregators));
  put("cycles", num(r.cycles));
  put("bytes", num(r.bytes));
  put("inter_node_bytes", num(r.inter_node_bytes));
  put("inter_node_messages", num(r.inter_node_messages));
  put("intra_node_bytes", num(r.intra_node_bytes));
  put("pipelined_overlap", exact(r.pipelined_overlap));
  put("gather_critical", num(r.gather_critical));
  put("autotune.engaged", num(r.autotune.engaged));
  put("autotune.chosen", coll::to_string(r.autotune.chosen));
  put("autotune.from_cache", num(r.autotune.from_cache));
  put("autotune.probe_cycles", num(r.autotune.probe_cycles));
  put("autotune.comm_share", exact(r.autotune.comm_share));
  put("autotune.aio_ratio", exact(r.autotune.aio_ratio));
  put("faults.retries", num(r.faults.retries));
  put("faults.giveups", num(r.faults.giveups));
  put("faults.degraded_cycles", num(r.faults.degraded_cycles));
  put("io_error", quoted(r.io_error));
  put("verify_error", quoted(r.verify_error));
  put("subfiles", num(r.subfiles.size()));
  for (std::size_t i = 0; i < r.subfiles.size(); ++i) {
    const SubfileResult& f = r.subfiles[i];
    const std::string p = "subfile" + std::to_string(i) + ".";
    put(p + "group", num(f.group));
    put(p + "ranks", num(f.ranks));
    put(p + "aggregators", num(f.aggregators));
    put(p + "bytes", num(f.bytes));
    put(p + "completion", num(f.completion));
    put(p + "qos.requests", num(f.qos.requests));
    put(p + "qos.busy", num(f.qos.busy));
    put(p + "qos.cross_wait", num(f.qos.cross_wait));
    put(p + "qos.peak_active", num(f.qos.peak_active));
  }
  return out;
}

int auto_sub_comm_count(const RunSpec& spec) {
  // Fractional improvement a larger k must show over the previously
  // accepted probe; absorbs run-to-run noise so near-ties keep the shared
  // file.
  constexpr double kMinGain = 0.02;
  const net::Topology topo =
      net::Topology::fit(spec.nprocs, spec.platform.procs_per_node);
  const int num_targets = storage_targets(spec.platform, topo.nodes);
  // Blocking probe runs at doubling k, lazily: the search stops at the
  // first candidate that fails the improvement floor, so the common
  // shared-file answer costs two probes. Probes are virtual-time runs of
  // the spec itself (same seed), so the decision is a pure function of
  // the spec — deterministic across workers and conductor backends.
  std::vector<double> probe_ms;
  for (const int k : coll::sub_comm_candidates(topo, num_targets)) {
    if (k > spec.nprocs) break;
    RunSpec probe = spec;
    probe.options.sub_comm_count = k;
    probe.options.overlap = coll::OverlapMode::None;
    probe.options.trace = nullptr;
    probe.options.tuning_cache.clear();
    probe.verify = false;
    const RunResult r = execute(probe);
    probe_ms.push_back(sim::to_millis(r.makespan));
    if (coll::decide_sub_comm_count(probe_ms, kMinGain) < k) {
      break;  // k lost to the previous probe; larger k only fragments more
    }
  }
  return coll::decide_sub_comm_count(probe_ms, kMinGain);
}

sim::Duration Series::min_makespan() const {
  TPIO_CHECK(!runs.empty(), "empty series");
  sim::Duration m = runs.front().makespan;
  for (const RunResult& r : runs) m = std::min(m, r.makespan);
  return m;
}

Series execute_series(RunSpec spec, int reps, std::uint64_t seed_base) {
  Series s;
  s.runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    spec.seed = sim::Rng::derive_seed(seed_base, static_cast<std::uint64_t>(i));
    s.runs.push_back(execute(spec));
    TPIO_CHECK(s.runs.back().verify_error.empty(),
               "verification failed: " + s.runs.back().verify_error);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Table output
// ---------------------------------------------------------------------------

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  TPIO_CHECK(cells.size() == headers_.size(), "table row arity mismatch");
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(width[c] - row[c].size(), ' ') + " |";
    }
    std::puts(line.c_str());
  };
  print_row(headers_);
  std::string sep = "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    sep += std::string(width[c] + 2, '-') + "|";
  }
  std::puts(sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string fmt_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

std::string fmt_ms(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", sim::to_millis(d));
  return buf;
}

}  // namespace tpio::xp
