#pragma once

// Runtime overlap-scheduler selection (OverlapMode::Auto).
//
// The paper's central practical finding is that no fixed overlap algorithm
// wins everywhere: async-write variants take most series, no-overlap still
// wins where aio_write is pathological (Lustre, section V), and the winner
// tracks the platform's communication/IO time share (section IV-A). This
// module turns that analysis into a runtime policy: the engine executes the
// first K cycles as blocking probes (Engine::probe) and reduces the measured
// per-cycle costs job-wide, decide() maps them onto a fixed scheduler, and
// the engine runs the remaining cycles under it. A persistent JSON tuning
// cache keyed by platform signature x workload shape x procs lets later
// opens of the same configuration skip the probes. coll::collective_write
// is the one caller of all of it.
//
// Probes run through the same resilient write path as every scheduler
// (retries, backoff, give-ups — see Options::max_retries), so Auto
// composes with fault injection; probe costs include any retry time the
// fault scenario charged, which is exactly what the decision should see.

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "net/topology.hpp"
#include "pfs/pfs.hpp"

namespace tpio::smpi {
struct MpiParams;
}

namespace tpio::net {
struct FabricParams;
}

namespace tpio::coll {

/// Per-cycle probe costs in virtual nanoseconds, max-reduced over the job
/// so every rank feeds decide() the same numbers. Shuffle cost is the
/// job-wide bottleneck (any rank); write costs come from the bottleneck
/// aggregator (non-aggregators report zero and drop out of the max).
struct ProbeStats {
  double shuffle_ns = 0.0;      // blocking shuffle + its metadata sync
  double write_block_ns = 0.0;  // blocking write service
  double write_async_ns = 0.0;  // async write, init + immediate wait
  bool has_async = false;       // at least one async probe ran
  int cycles = 0;               // probe cycles run
};

/// Shuffle share of a probed cycle: shuffle / (shuffle + blocking write).
double probe_comm_share(const ProbeStats& s);
/// Async-write quality: async / blocking per-cycle cost (1 = free aio).
/// Falls back to 1 when no async probe ran.
double probe_aio_ratio(const ProbeStats& s);

/// Map probe statistics onto a fixed scheduler under the thresholds
/// calibrated on the quick Table I grid. Pure and deterministic: identical
/// inputs give identical outputs on every rank. Never WriteComm: its joint
/// wait is dominated by WriteComm2's data-flow ordering on every measured
/// grid.
OverlapMode decide(const ProbeStats& s);

/// Sub-communicator counts worth probing for one geometry: powers of two
/// in [1, min(nodes, num_targets, 8)]. Splitting only helps when there is
/// something to split over — multiple nodes (smaller collectives) and
/// multiple storage targets (subfiles on disjoint stripe sets) — so a
/// single-node or single-target system probes nothing but the shared file.
std::vector<int> sub_comm_candidates(const net::Topology& topo,
                                     int num_targets);

/// Pick a sub-communicator count (Options::sub_comm_count) from probed
/// makespans, one per candidate k (sub_comm_candidates order; candidates
/// not probed may be omitted from the tail). Pure and deterministic: a
/// doubling search that accepts a larger k only while it improves the
/// previously accepted probe by at least `min_gain` (fractional; the
/// harness's auto-k passes 0.02) and stops at the first non-improvement —
/// whether splitting pays is a property of the whole platform (per-request
/// storage overheads, stream limits, fabric speed), which one shared-file
/// cycle cannot reveal but two cheap probe runs measure directly.
int decide_sub_comm_count(const std::vector<double>& probe_ms,
                          double min_gain);

/// Hardware fingerprint of the simulated platform, built from the knobs
/// that shape the comm/IO balance. Deliberately excludes per-run noise
/// seeds and the jittered aio penalty so repeated measurements of one
/// machine share a cache entry.
std::string platform_signature(const net::Topology& topo,
                               const net::FabricParams& fabric,
                               const smpi::MpiParams& mpi,
                               const pfs::PfsParams& pfs);

/// Shape fingerprint of one collective write (ranks, volume, buffer
/// budget, primitive) — together with the platform signature the
/// tuning-cache key. Deliberately geometry-independent (no cycle counts
/// or sub-buffer sizes): a warm start replans with the chosen scheduler's
/// native geometry, so the key must agree between the Auto plan that
/// stored the decision and the fixed-mode plan that consumes it.
std::string workload_signature(int nprocs, std::uint64_t global_bytes,
                               const Options& opt);

/// Persistent JSON map of signature -> chosen scheduler. All accessors are
/// safe against concurrent use from parallel sweep workers in this process
/// (a global mutex serializes them) and store() re-reads and merges before
/// the atomic tmp+rename write, so concurrent writers of *different* keys
/// never lose entries.
class TuningCache {
 public:
  /// True + `out` when `key` is present in the cache file at `path`.
  /// A missing or malformed file is simply a miss.
  static bool lookup(const std::string& path, const std::string& key,
                     OverlapMode& out);
  /// Insert/overwrite `key` and persist atomically (tmp + rename).
  static void store(const std::string& path, const std::string& key,
                    OverlapMode mode);
};

}  // namespace tpio::coll
