#include "harness/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#include "simbase/error.hpp"
#include "simbase/json.hpp"

namespace tpio::xp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::string grid_signature(const std::vector<SweepJob>& jobs) {
  // FNV-1a over the ordered keys with a separator byte, so the signature
  // distinguishes re-orderings and key-boundary shifts, not just content.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const SweepJob& j : jobs) {
    for (char ch : j.key) mix(static_cast<unsigned char>(ch));
    mix(0x1f);
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", jobs.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

bool checkpoint_load(const std::string& path, Checkpoint& out) {
  out = Checkpoint{};
  std::string text;
  if (!sim::json::read_file(path, text)) return false;
  sim::json::Reader r(text);
  const bool ok =
      r.literal('{') && r.key("manifest") && r.string(out.manifest) &&
      r.literal(',') && r.key("grid") && r.string(out.grid) &&
      r.literal(',') && r.key("done") &&
      r.object([&](const std::string& key) {
        double v = 0.0;
        if (!r.number(v)) return false;
        out.done[key] = v;
        return true;
      }) &&
      r.literal('}');
  if (!ok) out = Checkpoint{};
  return ok;
}

void checkpoint_save(const std::string& path, const Checkpoint& cp) {
  std::vector<sim::json::Member> done;
  for (const auto& [key, value] : cp.done) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    done.emplace_back(key, buf);
  }
  sim::json::write_file(
      path,
      sim::json::document({{"manifest", sim::json::quote(cp.manifest)},
                           {"grid", sim::json::quote(cp.grid)}},
                          "done", done),
      "checkpoint");
}

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  // hardware_concurrency() may legally return 0 ("not computable").
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(hw);
}

int effective_workers(int jobs, std::size_t grid_jobs) {
  return std::min<int>(resolve_jobs(jobs),
                       static_cast<int>(std::max<std::size_t>(grid_jobs, 1)));
}

namespace {

/// Shared mutable state of one sweep execution. All fields under `mu`
/// except the claim counter, which workers advance lock-free.
struct SweepState {
  explicit SweepState(std::size_t n)
      : results(n, 0.0), status(n, Pending), started_at(n) {}

  enum Status : char { Pending, Running, Done, Restored };

  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<double> results;
  std::vector<Status> status;
  std::vector<Clock::time_point> started_at;
  std::size_t completed = 0;   // finished this run (excludes restored)
  std::size_t restored = 0;    // satisfied from the checkpoint
  Clock::time_point run_start = Clock::now();
  bool aborted = false;
  std::exception_ptr first_error;
  Checkpoint checkpoint;       // mirrors the on-disk file
};

void report_progress(const std::vector<SweepJob>& jobs, SweepState& st) {
  // Caller holds st.mu.
  const std::size_t total = jobs.size();
  const std::size_t finished = st.completed + st.restored;
  std::size_t running = 0;
  std::ptrdiff_t slowest = -1;
  for (std::size_t i = 0; i < total; ++i) {
    if (st.status[i] != SweepState::Running) continue;
    ++running;
    if (slowest < 0 || st.started_at[i] < st.started_at[static_cast<std::size_t>(slowest)]) {
      slowest = static_cast<std::ptrdiff_t>(i);
    }
  }
  std::string line = "[sweep] " + std::to_string(finished) + "/" +
                     std::to_string(total) + " jobs, " +
                     std::to_string(running) + " running";
  if (st.completed > 0 && finished < total) {
    // ETA from this run's own throughput (restored jobs cost ~nothing):
    // elapsed wall-clock per completed job, scaled by the remaining count.
    // Concurrency is already folded in — elapsed/completed measures the
    // pool's aggregate rate, not a single worker's.
    const double elapsed = seconds_since(st.run_start);
    const double per_job = elapsed / static_cast<double>(st.completed);
    const double eta = per_job * static_cast<double>(total - finished);
    char buf[32];
    std::snprintf(buf, sizeof(buf), ", ETA %.0fs", eta);
    line += buf;
  }
  if (slowest >= 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (%.1fs)",
                  seconds_since(st.started_at[static_cast<std::size_t>(slowest)]));
    line += ", slowest: " + jobs[static_cast<std::size_t>(slowest)].key + buf;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

/// Claim-execute-record loop shared by the pool workers and the serial path.
void drain(const std::vector<SweepJob>& jobs, const ExecOptions& opt,
           SweepState& st) {
  for (;;) {
    const std::size_t i = st.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= jobs.size()) return;
    {
      std::lock_guard lk(st.mu);
      if (st.aborted) return;
      if (st.status[i] == SweepState::Restored) continue;
      st.status[i] = SweepState::Running;
      st.started_at[i] = Clock::now();
    }
    double value = 0.0;
    try {
      value = jobs[i].run();
    } catch (...) {
      std::lock_guard lk(st.mu);
      if (!st.first_error) st.first_error = std::current_exception();
      st.aborted = true;
      st.status[i] = SweepState::Pending;
      return;
    }
    std::lock_guard lk(st.mu);
    st.results[i] = value;
    st.status[i] = SweepState::Done;
    ++st.completed;
    if (!opt.checkpoint.empty()) {
      st.checkpoint.done[jobs[i].key] = value;
      checkpoint_save(opt.checkpoint, st.checkpoint);
    }
    if (opt.progress) report_progress(jobs, st);
  }
}

}  // namespace

std::vector<double> run_jobs(const std::vector<SweepJob>& jobs,
                             const ExecOptions& opt) {
  if (!opt.checkpoint.empty() && opt.manifest.empty()) {
    tpio::fail("checkpoint " + opt.checkpoint +
               " needs a manifest naming the sweep that writes it");
  }
  {
    std::set<std::string> keys;
    for (const SweepJob& j : jobs) {
      TPIO_CHECK(keys.insert(j.key).second,
                 "duplicate sweep job key: " + j.key);
      TPIO_CHECK(static_cast<bool>(j.run), "sweep job without a body");
    }
  }
  SweepState st(jobs.size());
  st.checkpoint.manifest = opt.manifest;
  st.checkpoint.grid = grid_signature(jobs);

  // Resume: splice in results of a matching checkpoint, skip those jobs.
  // A checkpoint that parses but belongs to a different grid is a hard
  // error: silently re-running (or worse, splicing) would hide the fact
  // that half the table came from different options, a different case set,
  // or a different mode set.
  if (!opt.checkpoint.empty()) {
    Checkpoint prior;
    if (checkpoint_load(opt.checkpoint, prior)) {
      const char* fresh =
          "\ndelete the file (or point --resume elsewhere) to start fresh";
      if (prior.manifest != opt.manifest) {
        tpio::fail("checkpoint " + opt.checkpoint +
                   " belongs to a different sweep\n  file manifest: " +
                   prior.manifest + "\n  this run:      " + opt.manifest +
                   fresh);
      }
      if (prior.grid != st.checkpoint.grid) {
        tpio::fail("checkpoint " + opt.checkpoint +
                   " was written against a different job grid (same "
                   "manifest, different cases/modes/order)\n  file grid: " +
                   prior.grid + "\n  this run:  " + st.checkpoint.grid +
                   fresh);
      }
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto it = prior.done.find(jobs[i].key);
        if (it == prior.done.end()) continue;
        st.results[i] = it->second;
        st.status[i] = SweepState::Restored;
        st.checkpoint.done[jobs[i].key] = it->second;
        ++st.restored;
      }
    }
    if (opt.progress && st.restored > 0) {
      std::fprintf(stderr, "[sweep] resumed %zu/%zu jobs from %s\n",
                   st.restored, jobs.size(), opt.checkpoint.c_str());
    }
  }

  // The calling thread is one of the workers. Alone, it drains the jobs
  // inline in input order; beside workers - 1 pool threads, the memory its
  // earlier runs left in its malloc arena serves its share of the jobs,
  // where an idle caller would leave it unused while every job ran on a
  // fresh thread's arena.
  const int workers = effective_workers(opt.jobs, jobs.size());
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
      pool.emplace_back([&] { drain(jobs, opt, st); });
    }
    drain(jobs, opt, st);
  }  // joins the pool

  if (st.first_error) std::rethrow_exception(st.first_error);
  TPIO_CHECK(st.completed + st.restored == jobs.size(),
             "sweep executor finished with unprocessed jobs");
  return std::move(st.results);
}

}  // namespace tpio::xp
