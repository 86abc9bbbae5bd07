#include "measure.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string_view>

namespace tpio::bench {

namespace {

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// `v` with every significant digit; non-finite values as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct SpanRec {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int cell = -1;
};

/// What one child reported, plus what the kernel says it cost.
struct Child {
  bool ok = false;
  std::string error;
  double elapsed_s = 0.0;   // fork to reap, as the parent saw it
  double cpu_s = 0.0;       // user + sys of the child
  double maxrss_mib = 0.0;  // ru_maxrss of the child
  std::map<std::string, std::string> kv;
  std::vector<SpanRec> spans;

  std::string str(const std::string& key) const {
    const auto it = kv.find(key);
    return it == kv.end() ? std::string() : it->second;
  }
  double num(const std::string& key) const {
    const auto it = kv.find(key);
    return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  }
  /// Summed duration of the spans named `name`, in seconds.
  double total(const std::string& name) const {
    std::int64_t ns = 0;
    for (const SpanRec& s : spans) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }
  /// Summed self time (duration minus that of direct children) of the
  /// spans named `name`, in seconds.
  double self(const std::string& name) const {
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const SpanRec& s : spans) {
      if (s.parent >= 0) {
        covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name) {
        ns += spans[i].end_ns - spans[i].start_ns - covered[i];
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }
};

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void parse_report(const std::string& text, Child& c) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    if (key == "span") {
      char name[96];
      long long start = 0, stop = 0;
      int parent = -1, cell = -1;
      if (std::sscanf(line.c_str(), "span %95s %lld %lld %d %d", name, &start,
                      &stop, &parent, &cell) == 5) {
        c.spans.push_back({name, start, stop, parent, cell});
      }
    } else {
      c.kv[key] = line.substr(sp + 1);
    }
  }
}

bool write_all(int fd, const std::string& s) {
  std::size_t done = 0;
  while (done < s.size()) {
    const ssize_t n = ::write(fd, s.data() + done, s.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Run `body` in a fresh fork()ed child and wait for it: the only place
/// simulations run. The parent reads the child's report to EOF before
/// reaping it, so a large report cannot deadlock on a full pipe.
Child run_child(const std::function<void(Report&)>& body) {
  Child c;
  const Clock::time_point t0 = Clock::now();
  int fds[2];
  if (::pipe(fds) != 0) {
    c.error = "pipe() failed";
    return c;
  }
  std::fflush(nullptr);  // nothing buffered may be printed twice
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    c.error = "fork() failed";
    return c;
  }
  if (pid == 0) {
    ::close(fds[0]);
    // Die with the parent, so a killed benchmark leaves no child behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(3);
    Report rep;
    int code = 0;
    try {
      body(rep);
    } catch (const std::exception& e) {
      rep.put("error", e.what());
      code = 1;
    }
    if (!write_all(fds[1], rep.text())) code = 1;
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  c.elapsed_s = since(t0);
  c.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  c.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  parse_report(text, c);
  c.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!c.ok) {
    c.error = c.str("error");
    if (c.error.empty()) {
      c.error = WIFSIGNALED(status)
                    ? "child killed by signal " + std::to_string(WTERMSIG(status))
                    : "child exited with code " +
                          std::to_string(WEXITSTATUS(status));
    }
  }
  return c;
}

/// Whether another pass (or traced round) starts: a fixed count when one is
/// given, else while the last one would still fit in the budget.
bool more(const RunOptions& o, int done, int min_done, Clock::time_point t0,
          double last_s) {
  if (o.passes > 0) return done < o.passes;
  return done < min_done || since(t0) + last_s <= o.seconds;
}

void fail(WorkloadReport& r, long runs, const std::string& why) {
  r.failed += runs;
  if (r.errors.size() < 8) r.errors.push_back(why);
}

/// Check a pass's sim_fingerprint against the first one of the run.
bool same_fingerprint(WorkloadReport& r, const std::string& fp) {
  if (r.fingerprint.empty()) r.fingerprint = fp;
  return fp == r.fingerprint;
}

WorkloadReport start_report(const Workload& w, const RunOptions& o) {
  WorkloadReport r;
  r.workload = w.name;
  r.seed = o.seed;
  r.trace = o.trace;
  r.runs_per_pass = static_cast<int>(w.cells.size());
  return r;
}

WorkloadReport run_e2e(const Workload& w, const RunOptions& o) {
  WorkloadReport r = start_report(w, o);
  const long n = r.runs_per_pass;
  const Clock::time_point t0 = Clock::now();
  Metric wall{"wall_s", "s", {}}, cpu{"cpu_s", "s", {}},
      rss{"peak_rss_mib", "MiB", {}}, setup{"setup_s", "s", {}};

  // setup_s: short set-up children, one before each pass and at least
  // kSetupChildren in all, each reporting its median build; the run keeps
  // the lowest. A shared host's vCPUs switch between speed levels about
  // 1.5x apart for seconds at a time, and every build of one short child
  // lands on one level. Spread over the run, some child meets the fast
  // level, which is the cost of set-up itself; a median over children
  // would flip between levels from run to run.
  const Cell& big = largest_cell(w);
  ++r.attempted;  // the set-up measurement, however many children it takes
  std::vector<double> setups;
  bool setup_ok = true;
  auto setup_child = [&] {
    if (!setup_ok) return;
    const Child sc = run_child([&](Report& out) {
      setup_pass(big, kSetupSeconds / kSetupChildren, out);
    });
    setup_ok = sc.ok;
    if (sc.ok) {
      setups.push_back(sc.num("setup_s"));
    } else {
      fail(r, 1, "setup: " + sc.error);
    }
  };

  double last = 0.0;
  while (more(o, r.passes, kMinPasses, t0, last)) {
    setup_child();
    const Child c = run_child([&](Report& out) { e2e_pass(w, out); });
    last = c.elapsed_s;
    ++r.passes;
    r.attempted += n;
    if (!c.ok) {
      fail(r, n, c.error);
      continue;
    }
    const auto bad = static_cast<long>(c.num("failed"));
    if (bad > 0) fail(r, bad, c.str("error"));
    if (!same_fingerprint(r, c.str("fingerprint"))) {
      fail(r, n - bad, "sim_fingerprint " + c.str("fingerprint") +
                           " differs from the first pass's " + r.fingerprint);
      continue;
    }
    wall.samples.push_back(c.total("pass"));
    cpu.samples.push_back(c.cpu_s);
    rss.samples.push_back(c.maxrss_mib);
  }
  while (setup_ok && static_cast<int>(setups.size()) < kSetupChildren) {
    setup_child();
  }
  if (!setups.empty()) {
    setup.samples.push_back(*std::min_element(setups.begin(), setups.end()));
  }
  r.metrics = {wall, cpu, rss, setup};
  return r;
}

struct LayerDef {
  const char* name;
  const char* unit;
};

constexpr LayerDef kLayerMetrics[] = {
    {"harness.overhead_s", "s"},
    {"sched.setup_s", "s"},
    {"sched.spawn_s", "s"},
    {"sched.actions", "count"},
    {"sched.ns_per_action", "ns"},
    {"net.setup_s", "s"},
    {"net.inter_node_msgs", "count"},
    {"net.inter_node_mib", "MiB"},
    {"net.intra_node_mib", "MiB"},
    {"mpi.setup_s", "s"},
    {"mpi.meta_s", "s"},
    {"core.plan_s", "s"},
    {"core.plan_hit_ratio", "ratio"},
    {"core.engine_s", "s"},
    {"core.read_s", "s"},
    {"pfs.setup_s", "s"},
    {"pfs.requests", "count"},
    {"pfs.busy_ms_virt", "virt_ms"},
    {"pfs.verify_s", "s"},
    {"workloads.view_s", "s"},
    {"workloads.fill_s", "s"},
    {"simbase.pool_fresh_ratio", "ratio"},
    {"virt.meta_ms", "virt_ms"},
    {"virt.shuffle_ms", "virt_ms"},
    {"virt.gather_ms", "virt_ms"},
    {"virt.forward_ms", "virt_ms"},
    {"virt.write_ms", "virt_ms"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// The host-time layer metrics that partition the composed traced pass.
constexpr const char* kHostLayers[] = {
    "sched.setup_s", "sched.spawn_s", "net.setup_s",      "mpi.setup_s",
    "mpi.meta_s",    "core.plan_s",   "core.engine_s",    "core.read_s",
    "pfs.setup_s",   "pfs.verify_s",  "workloads.view_s", "workloads.fill_s"};

/// Per-layer values of one traced round. E = end-to-end-shaped pass,
/// S = empty-program spawn pass, M = metadata replica, U / F = composed
/// pass untraced / traced.
std::map<std::string, double> layer_values(const Child& e, const Child& s,
                                           const Child& m, const Child& u,
                                           const Child& f) {
  constexpr double kMiB = 1024.0 * 1024.0;
  const double wall_e = e.total("pass");
  const double wall_u = u.total("pass");
  const double wall_f = f.total("pass");
  const double spawn = s.total("sched.run");
  const double meta_run = m.total("sched.run");
  const double view = m.total("workloads.view");
  const double plan = m.total("core.plan");
  const double fill = f.total("workloads.fill");
  const double compare = f.total("pfs.compare");
  const double after_barrier = f.num("read_s");  // read-back + compare
  const double actions = f.num("actions");
  std::map<std::string, double> v;
  v["harness.overhead_s"] = wall_e - wall_u;
  v["sched.setup_s"] = f.total("sched.setup");
  v["sched.spawn_s"] = spawn;
  v["sched.actions"] = actions;
  v["sched.ns_per_action"] = actions > 0 ? wall_e * 1e9 / actions : NAN;
  v["net.setup_s"] = f.total("net.setup");
  v["net.inter_node_msgs"] = f.num("inter_node_msgs");
  v["net.inter_node_mib"] = f.num("inter_node_bytes") / kMiB;
  v["net.intra_node_mib"] = f.num("intra_node_bytes") / kMiB;
  v["mpi.setup_s"] = f.total("mpi.setup");
  v["mpi.meta_s"] = meta_run - spawn - plan - view;
  v["core.plan_s"] = plan;
  v["core.plan_hit_ratio"] = e.num("plan_hits") / e.num("plan_lookups");
  v["core.engine_s"] = f.total("sched.run") - meta_run - fill - after_barrier;
  v["core.read_s"] = after_barrier - compare;
  v["pfs.setup_s"] = f.total("pfs.setup");
  v["pfs.requests"] = f.num("pfs_requests");
  v["pfs.busy_ms_virt"] = f.num("pfs_busy_ns") / 1e6;
  v["pfs.verify_s"] = f.total("pfs.verify") + compare;
  v["workloads.view_s"] = view;
  v["workloads.fill_s"] = fill;
  v["simbase.pool_fresh_ratio"] = e.num("pool_fresh") / e.num("pool_acquires");
  v["virt.meta_ms"] = f.num("virt_meta_ns") / 1e6;
  v["virt.shuffle_ms"] = f.num("virt_shuffle_ns") / 1e6;
  v["virt.gather_ms"] = f.num("virt_gather_ns") / 1e6;
  v["virt.forward_ms"] = f.num("virt_forward_ns") / 1e6;
  v["virt.write_ms"] = f.num("virt_write_ns") / 1e6;
  // Self time of the structural spans: host time inside the composed pass
  // that no layer call covers.
  v["trace.unattributed_frac"] = (f.self("pass") + f.self("cell")) / wall_f;
  v["trace.overhead_frac"] = (wall_f - wall_u) / wall_u;
  return v;
}

void write_chrome(const std::string& path,
                  const std::vector<std::pair<std::string, const Child*>>& kids,
                  const std::map<std::string, double>& values) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "tpio_bench: cannot write %s\n", path.c_str());
    return;
  }
  std::int64_t origin = INT64_MAX;
  for (const auto& [label, c] : kids) {
    for (const SpanRec& s : c->spans) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  int pid = 0;
  for (const auto& [label, c] : kids) {
    ++pid;
    std::fprintf(f,
                 "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                 "\"args\": {\"name\": %s}}",
                 first ? "" : ",\n", pid, json_quote(label).c_str());
    first = false;
    for (const SpanRec& s : c->spans) {
      const std::string layer = s.name.substr(0, s.name.find('.'));
      std::fprintf(f,
                   ",\n{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": %d, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"parent\": %d}}",
                   json_quote(s.name).c_str(), json_quote(layer).c_str(), pid,
                   s.cell + 1, static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.parent);
    }
  }
  std::fputs("\n], \"displayTimeUnit\": \"ms\", \"tpio_layers\": {", f);
  first = true;
  for (const auto& [name, v] : values) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", json_quote(name).c_str(),
                 json_number(v).c_str());
    first = false;
  }
  std::fputs("}}\n", f);
  std::fclose(f);
}

WorkloadReport run_traced(const Workload& w, const RunOptions& o) {
  WorkloadReport r = start_report(w, o);
  const long n = r.runs_per_pass;
  for (const LayerDef& d : kLayerMetrics) {
    r.metrics.push_back({d.name, d.unit, {}});
  }
  const Clock::time_point t0 = Clock::now();
  double last = 0.0;
  while (more(o, r.passes, 1, t0, last)) {
    const Clock::time_point round0 = Clock::now();
    ++r.passes;
    r.attempted += n;
    // Each pass in its own fresh child, so every one starts equally cold.
    const Child e = run_child([&](Report& out) { e2e_pass(w, out); });
    Child x;
    x.ok = true;
    if (w.entry == Entry::Restart) {
      x = run_child([&](Report& out) { reference_pass(w, out); });
    }
    const Child s = run_child([&](Report& out) { spawn_pass(w, out); });
    const Child m = run_child([&](Report& out) { meta_pass(w, out); });
    const Child u = run_child([&](Report& out) { composed_pass(w, false, out); });
    const Child f = run_child([&](Report& out) { composed_pass(w, true, out); });
    last = since(round0);
    bool ok = true;
    for (const Child* c : std::initializer_list<const Child*>{&e, &x, &s, &m,
                                                               &u, &f}) {
      if (ok && !c->ok) {
        fail(r, n, c->error);
        ok = false;
      }
    }
    if (!ok) continue;
    if (!same_fingerprint(r, e.str("fingerprint"))) {
      fail(r, n, "sim_fingerprint " + e.str("fingerprint") +
                     " differs from the first round's " + r.fingerprint);
      continue;
    }
    const auto bad = static_cast<long>(f.num("failed"));
    if (bad > 0) fail(r, bad, f.str("error"));
    // The composed runs must reproduce the harness's virtual results, and
    // the metadata replica the metadata phase of the real call: otherwise
    // mpi.meta_s would time an outdated replica and core.engine_s, taken
    // as the difference, would absorb the gap.
    const Child& ref = w.entry == Entry::Restart ? x : e;
    for (long i = 0; i < n; ++i) {
      const std::string cell = "cell " + std::to_string(i) + ": ";
      const std::string ms = "ms." + std::to_string(i);
      const std::string meta = "meta_ns." + std::to_string(i);
      if (f.num(ms) != ref.num(ms) || ref.str(ms).empty()) {
        fail(r, 1, cell + "composed makespan " + f.str(ms) +
                       " ms != xp::execute's " + ref.str(ms));
      } else if (m.num(meta) != f.num(meta) || f.str(meta).empty()) {
        fail(r, 1, cell + "metadata replica takes " + m.str(meta) +
                       " virtual ns over all ranks != collective_write's " +
                       f.str(meta));
      }
    }
    const std::map<std::string, double> v = layer_values(e, s, m, u, f);
    for (Metric& metric : r.metrics) metric.samples.push_back(v.at(metric.name));
    if (!r.layer_split.empty()) continue;  // split and trace: first good round
    for (const char* name : kHostLayers) r.layer_split.emplace_back(name, v.at(name));
    if (!o.trace_out.empty()) {
      std::vector<std::pair<std::string, const Child*>> kids = {
          {"end-to-end pass (xp harness)", &e}};
      if (w.entry == Entry::Restart) kids.push_back({"xp::execute reference", &x});
      kids.push_back({"spawn pass (empty programs)", &s});
      kids.push_back({"metadata replica pass", &m});
      kids.push_back({"composed pass, untraced", &u});
      kids.push_back({"composed pass, traced", &f});
      write_chrome(o.trace_out, kids, v);
    }
  }
  return r;
}

}  // namespace

WorkloadReport run_workload(const Workload& w, const RunOptions& o) {
  return o.trace ? run_traced(w, o) : run_e2e(w, o);
}

std::string samples_line(const WorkloadReport& r) {
  std::string s = "{\"workload\": " + json_quote(r.workload) +
                  ", \"seed\": " + std::to_string(r.seed) +
                  ", \"trace\": " + (r.trace ? "true" : "false") +
                  ", \"passes\": " + std::to_string(r.passes) +
                  ", \"runs_per_pass\": " + std::to_string(r.runs_per_pass) +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"sim_fingerprint\": " + json_quote(r.fingerprint) +
                  ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    s += (i ? ", " : "") + json_quote(r.errors[i]);
  }
  s += "], \"split\": [";
  for (std::size_t i = 0; i < r.layer_split.size(); ++i) {
    s += std::string(i ? ", " : "") + "[" + json_quote(r.layer_split[i].first) +
         ", " + json_number(r.layer_split[i].second) + "]";
  }
  s += "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += std::string(i ? ", " : "") + json_quote(m.name) +
         ": {\"unit\": " + json_quote(m.unit) + ", \"samples\": [";
    for (std::size_t k = 0; k < m.samples.size(); ++k) {
      s += (k ? ", " : "") + json_number(m.samples[k]);
    }
    s += "]}";
  }
  return s + "}}";
}

}  // namespace tpio::bench
