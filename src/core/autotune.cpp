#include "core/autotune.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>

#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "simbase/error.hpp"
#include "simbase/json.hpp"

namespace tpio::coll {

double probe_comm_share(const ProbeStats& s) {
  const double denom = s.shuffle_ns + s.write_block_ns;
  return denom > 0.0 ? s.shuffle_ns / denom : 0.0;
}

double probe_aio_ratio(const ProbeStats& s) {
  if (!s.has_async || s.write_block_ns <= 0.0) return 1.0;
  return s.write_async_ns / s.write_block_ns;
}

namespace {

// Thresholds of the decision model, calibrated on the quick Table I grid.
// Async writes are rejected when their per-cycle floor (aio_ratio *
// blocking write) exceeds the blocking pipeline's floor max(shuffle,
// blocking write) by more than this fraction: the Lustre guard of the
// paper's section V. It absorbs the platforms' aio jitter (sigma <= 0.08)
// without tripping on healthy aio.
constexpr double kAioMargin = 0.15;
// Bad-aio regime: minimum comm share for Comm to beat NoOverlap.
constexpr double kCommFloor = 0.10;
// Good-aio regime: below this comm share the plain Write scheduler is
// chosen (a non-blocking shuffle has nothing to hide behind).
constexpr double kWriteOnlyCeiling = 0.04;

}  // namespace

OverlapMode decide(const ProbeStats& s) {
  const double share = probe_comm_share(s);
  const double ratio = probe_aio_ratio(s);
  // aio guard: an async-write scheduler's steady-state cycle can never beat
  // max(shuffle, async write) — the penalised write is on its critical
  // path every cycle — while the blocking-write pipeline (Comm) floors at
  // max(shuffle, blocking write). When the async floor exceeds the
  // blocking floor by more than the margin (jitter allowance), async
  // writes are a net loss — the Lustre regime — and only the
  // blocking-write schedulers compete.
  const double blocking_floor = std::max(s.shuffle_ns, s.write_block_ns);
  const double async_floor = ratio * s.write_block_ns;
  if (async_floor > (1.0 + kAioMargin) * blocking_floor) {
    return share >= kCommFloor ? OverlapMode::Comm : OverlapMode::None;
  }
  return share < kWriteOnlyCeiling ? OverlapMode::Write
                                   : OverlapMode::WriteComm2;
}

std::vector<int> sub_comm_candidates(const net::Topology& topo,
                                     int num_targets) {
  const int cap = std::min({topo.nodes, num_targets, 8});
  std::vector<int> ks{1};
  for (int k = 2; k <= cap; k *= 2) ks.push_back(k);
  return ks;
}

int decide_sub_comm_count(const std::vector<double>& probe_ms,
                          double min_gain) {
  TPIO_CHECK(!probe_ms.empty(), "need at least the shared-file probe");
  TPIO_CHECK(min_gain >= 0.0, "subfile improvement floor must be >= 0");
  // Doubling search over the probed candidates: accept k=2 only when it
  // beats the shared file by the gain floor, k=4 only when it beats the
  // accepted k=2, and so on. The first non-improvement ends the search —
  // fragmentation costs grow monotonically with k, so there is nothing
  // past the first regression.
  int best = 0;
  for (std::size_t i = 1; i < probe_ms.size(); ++i) {
    TPIO_CHECK(probe_ms[i] > 0.0, "probe makespans must be positive");
    if (probe_ms[i] < (1.0 - min_gain) * probe_ms[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    } else {
      break;
    }
  }
  return 1 << best;
}

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string platform_signature(const net::Topology& topo,
                               const net::FabricParams& fabric,
                               const smpi::MpiParams& mpi,
                               const pfs::PfsParams& pfs) {
  // Only knobs that shape the comm/IO balance; per-run noise seeds and the
  // (jittered) aio penalty stay out so reps of one machine share a key.
  std::string s = "n" + std::to_string(topo.nodes) + "x" +
                  std::to_string(topo.procs_per_node);
  s += "|net" + num(fabric.inter_bw) + "/" + num(fabric.intra_bw);
  s += "|eager" + std::to_string(mpi.eager_limit);
  s += "|tgt" + std::to_string(pfs.num_targets) + "x" + num(pfs.target_bw);
  s += "|stripe" + std::to_string(pfs.stripe_size);
  s += "|client" + num(pfs.client_bw);
  s += pfs.share_compute_nic ? "|shared-nic" : "|dedicated-nic";
  return s;
}

std::string workload_signature(int nprocs, std::uint64_t global_bytes,
                               const Options& opt) {
  std::string s = "P" + std::to_string(nprocs);
  s += "|b" + std::to_string(global_bytes);
  s += "|cb" + std::to_string(opt.cb_size);
  s += "|agg" + std::to_string(opt.num_aggregators);
  s += std::string("|ts=") + to_string(opt.transfer);
  if (opt.hierarchical) s += "|hier";
  return s;
}

// ---------------------------------------------------------------------------
// Tuning cache
// ---------------------------------------------------------------------------

namespace {

/// Serializes every cache access in this process: parallel sweep workers
/// run one engine per thread and may consult the same file concurrently.
std::mutex& cache_mutex() {
  static std::mutex mu;
  return mu;
}

constexpr const char* kMagic = "tpio-tuning-cache";

bool mode_by_name(const std::string& name, OverlapMode& out) {
  for (OverlapMode m : {OverlapMode::None, OverlapMode::Comm,
                        OverlapMode::Write, OverlapMode::WriteComm,
                        OverlapMode::WriteComm2}) {
    if (name == to_string(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

/// Load `path` into `out`; false when absent or not a cache file. Caller
/// holds the cache mutex.
bool load_entries(const std::string& path,
                  std::map<std::string, OverlapMode>& out) {
  out.clear();
  std::string text;
  if (!sim::json::read_file(path, text)) return false;
  sim::json::Reader r(text);
  double version = 0.0;
  const bool ok =
      r.literal('{') && r.key(kMagic) && r.number(version) &&
      version == 1.0 && r.literal(',') && r.key("entries") &&
      r.object([&](const std::string& key) {
        std::string value;
        OverlapMode mode{};
        if (!r.string(value) || !mode_by_name(value, mode)) return false;
        out[key] = mode;
        return true;
      }) &&
      r.literal('}');
  if (!ok) out.clear();
  return ok;
}

void save_entries(const std::string& path,
                  const std::map<std::string, OverlapMode>& entries) {
  std::vector<sim::json::Member> text;
  for (const auto& [key, mode] : entries) {
    text.emplace_back(key, sim::json::quote(to_string(mode)));
  }
  sim::json::write_file(
      path, sim::json::document({{kMagic, "1"}}, "entries", text),
      "tuning cache");
}

}  // namespace

bool TuningCache::lookup(const std::string& path, const std::string& key,
                         OverlapMode& out) {
  std::lock_guard lk(cache_mutex());
  std::map<std::string, OverlapMode> entries;
  if (!load_entries(path, entries)) return false;
  const auto it = entries.find(key);
  if (it == entries.end()) return false;
  out = it->second;
  return true;
}

void TuningCache::store(const std::string& path, const std::string& key,
                        OverlapMode mode) {
  std::lock_guard lk(cache_mutex());
  // Re-read + merge under the lock so concurrent store()s of different
  // keys (parallel sweep workers) never lose each other's entries.
  std::map<std::string, OverlapMode> entries;
  load_entries(path, entries);
  entries[key] = mode;
  save_entries(path, entries);
}

}  // namespace tpio::coll
