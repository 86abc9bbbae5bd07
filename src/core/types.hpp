#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
#include "simbase/time.hpp"
#include "simbase/units.hpp"

namespace tpio::coll {

class Trace;

/// One contiguous region of the shared file owned by a rank.
struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  std::uint64_t end() const { return offset + length; }
  friend bool operator==(const Extent&, const Extent&) = default;
};

/// Fixed-size digest of a FileView, the unit of the first (dense) stage of
/// the two-stage metadata exchange: every rank allgathers one ViewSummary
/// per rank — O(P·32B) instead of O(P·view) — and derives the aggregator
/// map, file range, and global byte count from the summaries alone. Full
/// views travel only in the second, targeted stage. Trivially copyable;
/// shipped as raw bytes.
struct ViewSummary {
  std::uint64_t first_offset = UINT64_MAX;  // min extent offset (empty: MAX)
  std::uint64_t last_end = 0;               // max extent end (empty: 0)
  std::uint64_t total_bytes = 0;            // sum of extent lengths
  std::uint64_t extent_count = 0;           // number of extents

  friend bool operator==(const ViewSummary&, const ViewSummary&) = default;
};
static_assert(sizeof(ViewSummary) == 32);

/// A rank's view of the file: sorted, non-overlapping extents. The rank's
/// local data buffer holds the extents' bytes contiguously, in order —
/// the flattened representation OMPIO derives from an MPI file view.
struct FileView {
  std::vector<Extent> extents;

  std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (const Extent& e : extents) n += e.length;
    return n;
  }

  /// Validate ordering/disjointness; throws tpio::Error on violation.
  void validate() const;

  /// Fixed-size digest for the first stage of the metadata exchange.
  ViewSummary summarize() const;

  /// Serialize to/from bytes for the metadata exchange.
  std::vector<std::byte> serialize() const;
  static FileView deserialize(const std::vector<std::byte>& blob);

  /// Sum of extent lengths of a serialized view, without deserializing.
  static std::uint64_t blob_total_bytes(const std::vector<std::byte>& blob);
};

/// Which internal operations of the two-phase cycle pipeline overlap
/// (section III-A of the paper).
enum class OverlapMode {
  None,        // classic two-phase, single collective buffer
  Comm,        // Alg. 1: non-blocking shuffle, blocking write
  Write,       // Alg. 2: blocking shuffle, asynchronous write
  WriteComm,   // Alg. 3: both non-blocking, joint wait
  WriteComm2,  // Alg. 4: both non-blocking, data-flow ordering
  Auto,        // probe the first cycles, then switch to the best of the
               // above at a cycle boundary (core/autotune.hpp)
};

/// Data-transfer primitive of the shuffle phase (section III-B).
enum class Transfer {
  TwoSided,       // Isend/Irecv
  OneSidedFence,  // Put + Win_fence (active target)
  OneSidedLock,   // Put + Win_lock/unlock + Barrier (passive target)
};

/// Which rank of each node acts as the node leader when the hierarchical
/// (two-level) shuffle is enabled (Options::hierarchical).
enum class LeaderPolicy {
  Lowest,    // first rank of each lane: co-locates leader and aggregator duty
  Spread,    // last rank of each lane: keeps gather CPU off aggregator ranks
  Superset,  // lane leaders sit on the node's global aggregators first, so
             // the inter-node forward hop is local for them (Kang et al.)
};

const char* to_string(OverlapMode m);
const char* to_string(Transfer t);
const char* to_string(LeaderPolicy p);

/// Tuning knobs of the collective write (OMPIO-flavoured defaults).
struct Options {
  /// Collective buffer per aggregator; overlap modes split it into two
  /// sub-buffers of half this size (paper, section III-A).
  std::uint64_t cb_size = 32 * sim::MiB;
  OverlapMode overlap = OverlapMode::WriteComm2;
  Transfer transfer = Transfer::TwoSided;
  /// 0 = automatic selection (volume-capped, one per node, ref [5]).
  int num_aggregators = 0;
  /// Align file-domain boundaries to the stripe size (Liao-style).
  bool stripe_align = true;
  /// Lock flavour for Transfer::OneSidedLock; the paper argues Shared is
  /// required for performance, Exclusive kept as an ablation.
  smpi::Mpi::LockType lock_type = smpi::Mpi::LockType::Shared;
  /// Two-level shuffle (Kang et al., intra-node request aggregation): each
  /// node elects a leader that gathers its co-located ranks' segments over
  /// intra-node links, coalesces contiguous pieces, and forwards one merged
  /// message per (node, aggregator, cycle). Composes with every overlap
  /// mode and transfer primitive; degenerates to the direct path on
  /// single-member nodes.
  bool hierarchical = false;
  LeaderPolicy leader_policy = LeaderPolicy::Lowest;
  /// Local aggregators per node (Kang et al.'s `co`): each node's members
  /// split into this many contiguous lanes, each lane electing its own
  /// leader per leader_policy. 1 (the default) is the single-leader scheme
  /// and stays bit-identical to the pre-lane hierarchical path on every
  /// RunResult field; > 1 additionally pipelines each lane's intra-node
  /// gather against its inter-node forwards (per-lane sub-batons replace
  /// the whole-node barrier). Clamped to the node's member count.
  int local_aggregators = 1;
  /// OverlapMode::Auto: leading cycles executed as blocking probes before
  /// the scheduler is chosen (clamped to the operation's cycle count).
  /// Even probes write blocking, odd ones through the aio path, so the
  /// decision sees the platform's real async-write quality.
  int probe_cycles = 4;
  /// OverlapMode::Auto: thresholds of the decision model (autotune.hpp).
  /// The aggregate type is defined there; defaults are calibrated on the
  /// quick Table I grid.
  double auto_aio_margin = 0.15;
  double auto_comm_floor = 0.10;
  double auto_write_only_ceiling = 0.04;
  double auto_joint_wait_floor = 2.0;
  /// OverlapMode::Auto: path of a persistent JSON tuning cache keyed by
  /// platform signature x workload shape x procs. A hit skips the probe
  /// cycles entirely (warm start); a cold decision is stored back. Empty
  /// disables the cache — required for bit-reproducible sweeps whose grid
  /// points must not influence each other.
  std::string tuning_cache;
  /// CPU bandwidth for pack/unpack memcpy at sender/aggregator.
  double pack_bw = 6e9;
  /// Per-segment CPU cost when packing/unpacking or issuing one put.
  sim::Duration seg_cpu = sim::nanoseconds(1500);
  /// Optional per-rank phase recording (chrome://tracing export); not
  /// owned, may be null. Each rank passes its own Trace.
  Trace* trace = nullptr;

  // ----- subfiling (sub-communicator multi-file write) ----------------------
  /// Number of sub-communicators (gio-style subfiling): the P ranks split
  /// into this many contiguous subgroups, each electing its own aggregator
  /// set and running an independent two-phase write into its own striped
  /// subfile. 1 (the default) is the shared-file mode and is bit-identical
  /// to the pre-subfiling path on every RunResult field; 0 asks the
  /// harness to pick k from probe cycles (xp::auto_sub_comm_count).
  int sub_comm_count = 1;
  /// Stripe unit of each subfile in bytes (pfs::FileStriping::stripe_unit,
  /// sweepable 1 MB-512 MB as in gio); 0 inherits the system stripe size.
  /// Also honoured at k == 1 for stripe-unit sweeps of the shared file.
  std::uint64_t subfile_stripe_unit = 0;
  /// Striping factor of each subfile — how many storage targets it spreads
  /// over; 0 = all targets. Subfile g starts its stripe set at target
  /// g * factor (mod num_targets), so k * factor <= num_targets gives the
  /// subfiles disjoint target subsets.
  int subfile_stripe_factor = 0;
  /// sub_comm_count == 0 (auto-k): minimum fractional improvement a larger
  /// k must show over the previously accepted probe run before auto-k
  /// accepts it (coll::decide_sub_comm_count); the default absorbs run-
  /// to-run noise so near-ties keep the shared file.
  double auto_subfile_floor = 0.02;

  // ----- resilience (fault injection: pfs::FaultParams) ---------------------
  /// Transiently failed writes/reads are retried up to this many times
  /// beyond the first attempt before the engine gives up (records a give-up
  /// in Result::faults and an error in Result::io_error, leaving a hole the
  /// file's verify() reports). Inert without injected faults: a fault-free
  /// run never retries and is bit-identical at any max_retries.
  int max_retries = 4;
  /// Base delay of the exponential retry backoff, virtual nanoseconds.
  /// Attempt k (k >= 2) waits base * 2^min(k-2, 16) * (1 + j), jitter j in
  /// [0, 1) drawn
  /// as a pure function of (fault seed, rank, cycle, attempt) — never from
  /// a shared stream — so backoff schedules are deterministic and
  /// bit-identical at any worker count. Accounted in PhaseTimings::backoff.
  sim::Duration retry_backoff = sim::microseconds(500);
  /// Straggler-aware degraded mode: when > 1, an aggregator whose completed
  /// asynchronous write cost more per byte than `degrade_slowdown` times the
  /// best per-byte cost it has observed abandons the aio pipeline and drains
  /// its remaining cycles with blocking writes (one bad server no longer
  /// stalls the double-buffer swap). 0 disables (default). The trigger uses
  /// only this rank's own deterministic observations, so degraded runs stay
  /// bit-identical across hosts and worker counts.
  double degrade_slowdown = 0.0;

  // ----- host-side performance (no effect on the virtual timeline) ----------
  /// false elides every payload memcpy on the host (pack, unpack, gather,
  /// PFS content snapshots) while still advancing the virtual clock by the
  /// same pack costs and byte counts. Every RunResult field is bit-identical
  /// either way; only the simulated file's *contents* become meaningless, so
  /// this must stay true whenever the file records content (digest/store
  /// integrity, i.e. spec.verify). The runner sets this from RunSpec::verify;
  /// it is excluded from autotune workload signatures and plan-cache keys.
  bool materialize = true;
};

/// Where a rank's blocked time went, in virtual nanoseconds. Mirrors the
/// paper's communication/IO breakdown analysis (section IV-A).
struct PhaseTimings {
  sim::Duration meta = 0;     // view exchange + planning collectives
  sim::Duration pack = 0;     // CPU pack/unpack
  sim::Duration gather = 0;   // intra-node leader gather (hierarchical mode)
  sim::Duration forward = 0;  // inter-node forward sends of pipelined lane
                              // leaders (hierarchical, local_aggregators > 1;
                              // the co = 1 path keeps forward time in shuffle
                              // for bit-identity, leaving this 0)
  sim::Duration shuffle = 0;  // blocked in sends/recvs/puts + their waits
  sim::Duration sync = 0;     // fences, barriers, lock traffic
  sim::Duration write = 0;    // blocked in file writes / write waits
  sim::Duration backoff = 0;  // retry backoff waits (fault injection)
  sim::Duration total = 0;    // whole collective_write

  PhaseTimings& operator+=(const PhaseTimings& o);
};

/// Resilience counters of one collective operation on one rank. All zero on
/// a fault-free run (and bit-identical to a build without the fault layer).
struct FaultStats {
  /// Write/read attempts that failed transiently and were re-issued.
  int retries = 0;
  /// Operations abandoned after Options::max_retries re-issues all failed;
  /// each leaves a hole in the file that verify() reports, and the first
  /// one sets Result::io_error.
  int giveups = 0;
  /// Cycles this rank drained through the blocking fallback after the
  /// degraded-mode trigger fired (Options::degrade_slowdown).
  int degraded_cycles = 0;

  FaultStats& operator+=(const FaultStats& o);
};

/// What OverlapMode::Auto decided for one operation. Identical on every
/// rank: the probe statistics are max-reduced job-wide before the decision
/// and cache hits are broadcast from rank 0.
struct AutoDecision {
  bool engaged = false;            // the run used OverlapMode::Auto
  OverlapMode chosen = OverlapMode::None;
  bool from_cache = false;         // warm start: probes skipped entirely
  int probe_cycles = 0;            // probes actually executed
  double comm_share = 0.0;         // shuffle / (shuffle + blocking write)
  double aio_ratio = 0.0;          // async / blocking per-cycle write cost
};

/// Outcome of one collective write on one rank.
struct Result {
  PhaseTimings timings;
  int aggregators = 0;
  int cycles = 0;
  std::uint64_t bytes_local = 0;   // this rank's contribution
  std::uint64_t bytes_global = 0;  // whole operation
  AutoDecision autotune;           // OverlapMode::Auto only
  /// Retry/give-up/degradation counters of this rank (fault injection).
  FaultStats faults;
  /// First give-up description on this rank; empty when every operation
  /// eventually succeeded. A non-empty value means the file has a hole.
  std::string io_error;
  /// Pipelined-overlap inputs (two-sided hierarchical runs with
  /// local_aggregators > 1, lane leaders only; both 0 everywhere else, in
  /// particular on every co = 1 run): summed lifetimes of this rank's
  /// forward messages (post instant to completion wait) and the part of
  /// that the rank spent blocked posting/waiting on them. The difference
  /// is forward time hidden under other work (typically the next cycle's
  /// lane gather); the runner rolls both up into a job-wide fraction.
  sim::Duration forward_lifetime = 0;
  sim::Duration forward_blocked = 0;
};

}  // namespace tpio::coll
