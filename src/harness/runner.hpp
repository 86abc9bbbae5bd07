#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "harness/platform.hpp"
#include "pfs/qos.hpp"
#include "workloads/workloads.hpp"

namespace tpio::xp {

/// Per-subfile outcome of a subfiled run (Options::sub_comm_count > 1):
/// one entry per sub-communicator, in subgroup order.
struct SubfileResult {
  int group = 0;             // sub-communicator index, 0..k-1
  int ranks = 0;             // ranks in the subgroup
  int aggregators = 0;       // aggregator count the subgroup elected
  std::uint64_t bytes = 0;   // bytes the subgroup wrote to its subfile
  sim::Time completion = 0;  // virtual instant the subgroup finished
  pfs::QosStats qos;         // storage interference stats of the subfile
};

/// One fully-specified simulated collective-write job.
struct RunSpec {
  Platform platform;
  wl::Spec workload;
  int nprocs = 16;
  coll::Options options;
  /// Master seed; the runner derives independent fabric/storage noise
  /// streams from it. Distinct seeds model distinct "measurements" of the
  /// same configuration on a shared machine.
  std::uint64_t seed = 1;
  /// Verify file contents after the run (Digest) or only time it (None).
  bool verify = false;
};

struct RunResult {
  /// Virtual instant the job entered the system (0 for solo runs; a
  /// tenant's arrival offset in contended multi-runs).
  sim::Time arrival = 0;
  /// Virtual instant the slowest rank finished.
  sim::Time completion = 0;
  /// Turnaround: completion - arrival. For a job arriving at t=0 this is
  /// the historical "job completion (slowest rank)"; for delayed arrivals
  /// it measures the job itself, not the idle lead-in — which keeps
  /// bandwidth() and the sweep winner logic honest (a job delayed on an
  /// idle system reports the same makespan as one starting at 0).
  sim::Duration makespan = 0;
  coll::PhaseTimings rank_sum;       // timings summed over ranks
  coll::PhaseTimings agg_sum;        // timings summed over aggregators only
  /// Timings of the bottleneck aggregator (largest write time). Storage
  /// service is not perfectly balanced across aggregators; the early
  /// finishers wait for the slowest at the next cycle's synchronization,
  /// so per-phase shares are only meaningful on the critical aggregator.
  coll::PhaseTimings agg_max;
  int aggregators = 0;
  int cycles = 0;
  std::uint64_t bytes = 0;           // global volume
  // Fabric traffic counters (whole run, all ranks): what the hierarchical
  // shuffle trades — fewer/larger inter-node messages for intra-node copies.
  std::uint64_t inter_node_bytes = 0;
  std::uint64_t inter_node_messages = 0;
  std::uint64_t intra_node_bytes = 0;
  /// Pipelined intra-node aggregation (hierarchical, local_aggregators > 1,
  /// two-sided): fraction of the lane leaders' forward-message lifetimes
  /// hidden under other work (next cycle's gather) instead of blocking the
  /// leader. 0.0 whenever nothing forwarded pipelined — non-hierarchical
  /// runs, co = 1, one-sided transfers — so legacy results compare equal
  /// field-for-field.
  double pipelined_overlap = 0.0;
  /// Critical path of the intra-node gather: the largest per-rank gather
  /// time. This is the quantity local aggregators (co) attack — splitting a
  /// node into lanes shortens the serial chain of member receives on each
  /// leader. Deliberately excludes the forward bucket: co = 1 charges its
  /// forwards to `shuffle` (legacy field equality), so gather is the only
  /// bucket that means the same thing at every co.
  sim::Duration gather_critical = 0;
  /// OverlapMode::Auto only: what the probe phase decided (identical on
  /// every rank; engaged == false for fixed overlap modes).
  coll::AutoDecision autotune;
  /// Retry/give-up/degradation counters summed over all ranks (fault
  /// injection; all zero on a fault-free run). Deterministic: identical at
  /// any --jobs N for a given spec + seed.
  coll::FaultStats faults;
  /// First give-up description across ranks; empty when every operation
  /// eventually succeeded. Non-empty means the file has a hole (verify
  /// will also report it when requested).
  std::string io_error;
  std::string verify_error;          // empty = verified / not requested
  /// Subfiling only (Options::sub_comm_count > 1): per-subfile outcomes.
  /// Empty on every shared-file run, so k == 1 results compare equal to
  /// the pre-subfiling RunResult field-for-field.
  std::vector<SubfileResult> subfiles;
  double bandwidth() const {         // effective write bandwidth, bytes/s
    return makespan > 0
               ? static_cast<double>(bytes) / sim::to_seconds(makespan)
               : 0.0;
  }
};

/// Execute one job on a freshly-built simulated cluster.
RunResult execute(const RunSpec& spec);

/// Roll one job's per-rank results into `out`: rank_sum, faults,
/// gather_critical, the first io_error, pipelined_overlap, and agg_sum /
/// agg_max over the ranks that wrote (the aggregators).
void add_rank_results(RunResult& out, std::span<const coll::Result> ranks);

/// One-line rendering of every RunResult field as space-separated
/// `name=value` pairs: integers in decimal, doubles exactly (%.17g),
/// strings quoted, then `subfiles=K` followed by each subfile's fields
/// (its QoS stats included). Two results are bit-identical iff their
/// fingerprints are equal; the golden suite (tests/golden/) and every
/// differential test compare these.
std::string fingerprint(const RunResult& r);

/// Resolve Options::sub_comm_count == 0 ("auto-k") by measurement: run a
/// cheap blocking probe of `spec` (OverlapMode::None, no trace/verify,
/// same seed) at each k from coll::sub_comm_candidates — lazily, stopping
/// at the first k that fails the improvement floor — and pick via
/// coll::decide_sub_comm_count. Whether splitting pays is a property of
/// the whole platform (per-request storage overheads, stream limits,
/// fabric speed) that no single shared-file run reveals, so auto-k probes
/// instead of predicting. Deterministic: probe timings are virtual, so
/// the result is a pure function of the spec. Returns k >= 1; the caller
/// stores it into Options::sub_comm_count before execute().
int auto_sub_comm_count(const RunSpec& spec);

/// Minimum makespan across `reps` seeds (the paper compares per-point
/// minima across 3-9 measurements; see section IV).
struct Series {
  std::vector<RunResult> runs;
  sim::Duration min_makespan() const;
};
Series execute_series(RunSpec spec, int reps, std::uint64_t seed_base);

// ------------------------------------------------------------------------
// Table output
// ------------------------------------------------------------------------

/// Fixed-width console table, markdown-ish.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt_pct(double fraction);     // "12.3%"
std::string fmt_ms(sim::Duration d);      // "12.34"
std::string fmt_bw(double bytes_per_s);   // "1.23 GiB/s"

}  // namespace tpio::xp
