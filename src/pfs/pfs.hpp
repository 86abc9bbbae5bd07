#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "pfs/qos.hpp"
#include "simbase/error.hpp"
#include "sched/conductor.hpp"
#include "sched/timeline.hpp"
#include "simbase/rng.hpp"
#include "simbase/time.hpp"
#include "simbase/units.hpp"

namespace tpio::pfs {

/// How a file retains what was written, trading memory for verifiability.
enum class Integrity {
  /// Keep every byte (read_back works). For tests and small examples.
  Store,
  /// Keep one 64-bit hash per written piece (one write's part of one stripe
  /// chunk) instead of the bytes. Verifies exactly-once writes and every
  /// byte's content without storing data — the mode benchmark sweeps use.
  Digest,
  /// Keep nothing but timing. For the largest sweeps.
  None,
};

/// Typed outcome of one file-system operation attempt. The storage model
/// never fails silently: an injected fault surfaces here, on both the
/// blocking and the asynchronous paths, and the caller decides whether to
/// retry (see coll::Options::max_retries).
enum class IoStatus {
  Ok,
  /// Injected transient failure (FaultParams): the attempt consumed its
  /// full service time but no content became durable. Retryable — a later
  /// attempt of the same operation draws its own fault decision.
  TransientError,
};

/// Deterministic fault-injection configuration of a storage system.
///
/// All fields default to "healthy": a value-constructed FaultParams is
/// exactly the fault-free model, and a simulation with these defaults is
/// bit-identical to one built before the fault layer existed (no RNG is
/// consumed, no timing changes). Every knob is deterministic: fault
/// decisions are pure functions of (seed, operation key, attempt), never
/// of wall-clock, thread schedule, or call order.
struct FaultParams {
  /// Per-attempt probability that a write op fails transiently, in [0, 1].
  double write_fail_rate = 0.0;
  /// Per-attempt probability that a read op fails transiently, in [0, 1].
  double read_fail_rate = 0.0;
  /// Seed of the fault stream. Deliberately separate from the run's noise
  /// seed: the fault *scenario* stays fixed while measurement noise varies
  /// across repetitions.
  std::uint64_t seed = 1;
  /// Deterministic failure schedule: attempts 1..N-1 of *every* operation
  /// fail regardless of the rates above. 1 (or 0) disables. Used to force
  /// exact retry counts and give-up paths in tests.
  int fail_until_attempt = 1;
  /// Service-time multiplier (>= 1) applied on straggler targets — the
  /// slow-OST / slow-I/O-server model. Asynchronous requests on a straggler
  /// pay the factor twice (factor^2): a congested server services its
  /// synchronous RPCs with priority while background aio requests queue
  /// behind everything else — the same asymmetry the paper measured as
  /// pathological aio_write on Lustre (section V), here emerging from
  /// injected per-server variance. See docs/FAULTS.md.
  double straggler_factor = 1.0;
  /// Number of straggler targets (the first N of the system). 0 disables.
  int straggler_targets = 0;
  /// Virtual time at which the stragglers begin to lag (fail-slow servers);
  /// 0 = slow from the start. Service requested before this instant runs at
  /// full speed, which is what the engine's degraded-mode detector needs to
  /// establish a healthy baseline.
  sim::Time straggler_after = 0;
};

/// Pure-function fault oracle shared by all files of a storage system.
///
/// Owns no mutable state: each decision hashes (seed, operation key,
/// attempt) through the simulation's SplitMix64 stream, so the verdict for
/// a given operation is independent of how many other operations ran, in
/// which order, on how many worker threads — the property behind the
/// "identical retry counts at any --jobs N" guarantee.
class FaultModel {
 public:
  FaultModel() = default;
  explicit FaultModel(const FaultParams& p) : p_(p) {}

  const FaultParams& params() const { return p_; }

  /// True when any knob deviates from the healthy default. When false, the
  /// storage paths skip the fault layer entirely (bit-identity guarantee).
  bool enabled() const {
    return p_.write_fail_rate > 0.0 || p_.read_fail_rate > 0.0 ||
           p_.fail_until_attempt > 1 ||
           (p_.straggler_factor > 1.0 && p_.straggler_targets > 0);
  }

  /// Fault verdict for attempt `attempt` (1-based) of the write op `key`.
  bool write_fails(std::uint64_t key, int attempt) const {
    return fails(p_.write_fail_rate, key, 0x57u, attempt);
  }
  /// Fault verdict for attempt `attempt` (1-based) of the read op `key`.
  bool read_fails(std::uint64_t key, int attempt) const {
    return fails(p_.read_fail_rate, key, 0x5Eu, attempt);
  }

  /// Service-time multiplier of `target` for a request whose service is
  /// scheduled no earlier than `at`: straggler_factor on straggler targets
  /// (squared for asynchronous requests — see FaultParams), 1 otherwise.
  double service_factor(int target, bool async, sim::Time at) const {
    if (p_.straggler_targets <= 0 || p_.straggler_factor <= 1.0) return 1.0;
    if (target >= p_.straggler_targets || at < p_.straggler_after) return 1.0;
    return async ? p_.straggler_factor * p_.straggler_factor
                 : p_.straggler_factor;
  }

  /// Stable identity of one operation: (issuing node, file region). Two
  /// attempts of the same logical operation share the key and differ only
  /// in `attempt`, so retry schedules are reproducible.
  static std::uint64_t op_key(int node, std::uint64_t offset,
                              std::uint64_t length);

 private:
  bool fails(double rate, std::uint64_t key, std::uint64_t salt,
             int attempt) const;

  FaultParams p_;
};

/// BeeGFS-flavoured parallel file system model. All durations are virtual
/// nanoseconds, all bandwidths bytes/second.
struct PfsParams {
  int num_targets = 16;
  std::uint64_t stripe_size = sim::MiB;
  /// Sustained write bandwidth of one storage target.
  double target_bw = 125e6;
  /// Per-chunk request overhead (RPC, metadata, head movement).
  sim::Duration request_overhead = sim::microseconds(250);
  /// Per-write-call dispatch overhead at the client (syscall, aio setup,
  /// request marshalling) — the fixed price of issuing one write, however
  /// large. Splitting a buffer into more, smaller writes pays it more
  /// often, which is why halving the collective buffer is not free.
  sim::Duration op_overhead = sim::microseconds(150);
  /// Client-side injection bandwidth (storage NIC of a compute node).
  double client_bw = 2.5e9;
  /// One-way latency from client to storage target.
  sim::Duration storage_latency = sim::microseconds(30);
  /// Crill-style co-located storage: storage traffic also occupies the
  /// node's compute-fabric transmit channel.
  bool share_compute_nic = false;
  /// Service-time multiplier applied to *asynchronous* writes only.
  /// 1.0 models ideal aio; slightly above 1 models the dispatch/kernel-
  /// thread overhead of healthy aio (BeeGFS); >>1 models the pathological
  /// aio_write behaviour the paper observed on Lustre.
  double aio_penalty = 1.0;
  /// Run-to-run variability of aio quality: the effective penalty of a job
  /// is aio_penalty * max(1, lognormal(aio_penalty_sigma)) — some runs see
  /// near-ideal background progress, others see sluggish kernel aio. The
  /// experiment runner draws this once per run from its seed.
  double aio_penalty_sigma = 0.0;
  /// Variability of target service times (shared storage).
  double noise_sigma = 0.0;
  std::uint64_t noise_seed = 1;
  /// Fault injection (transient failures, straggler targets). Defaults to
  /// the healthy, bit-identical-to-fault-free model.
  FaultParams faults;
  /// Queuing discipline of the storage targets when several tenants share
  /// the system. Fifo (the default) with a single tenant is bit-identical
  /// to the pre-QoS model.
  QosPolicy qos = QosPolicy::Fifo;
};

class File;

/// Per-file striping overrides (gio-style subfiling knobs). Every field's
/// zero value means "inherit the system-wide default", so a value-
/// constructed FileStriping is byte- and timing-identical to the historical
/// system-uniform striping — the k=1 bit-identity guarantee leans on this.
struct FileStriping {
  /// Stripe unit of this file in bytes; 0 = PfsParams::stripe_size. The
  /// gio benchmark sweeps this 1 MB–512 MB per subfile.
  std::uint64_t stripe_unit = 0;
  /// Number of targets this file stripes over (the striping factor);
  /// 0 = all of the system's targets.
  int stripe_factor = 0;
  /// First target of this file's stripe set (mod num_targets). Subfiled
  /// runs spread disjoint files over disjoint target subsets by offsetting
  /// each file, as `lfs setstripe -i` does.
  int target_offset = 0;
};

/// Handle of an asynchronous write or read; completed by the storage model
/// at the time the last stripe chunk is durably on (or off) its target.
///
/// Value-constructed handles are fully zero-initialized and report
/// valid() == false; every field carries a default member initializer so a
/// `WriteOp op;` never holds indeterminate state (regression: fault_test
/// WriteOpValueInitialized).
class WriteOp {
 public:
  WriteOp() = default;
  bool valid() const { return ev_ != nullptr; }
  /// Scheduled completion time (valid from issue until wait() consumes the
  /// handle).
  sim::Time completion() const {
    TPIO_CHECK(ev_ != nullptr, "completion() on an empty/consumed WriteOp");
    return ev_->time();
  }
  /// Outcome of the attempt. Decided deterministically at submission but —
  /// like a real aio error — only *observable* by the program through
  /// File::wait(), which returns it; exposed here for the bookkeeping of a
  /// consumed handle and for tests. Ok for an empty handle.
  IoStatus status() const { return status_; }

 private:
  friend class File;
  WriteOp(sim::EventPtr ev, IoStatus status)
      : ev_(std::move(ev)), status_(status) {}
  sim::EventPtr ev_ = nullptr;
  IoStatus status_ = IoStatus::Ok;
};

/// A cluster-wide storage system: `num_targets` independent targets, files
/// striped across them round-robin by stripe index. Owns the target and
/// client-channel timelines and the fault oracle; Files hold a non-owning
/// back-pointer and must not outlive it.
class StorageSystem {
 public:
  /// `fabric` may be null; required only when share_compute_nic is set.
  /// Validates PfsParams (positive geometry/bandwidths, rates in [0, 1],
  /// straggler factor >= 1) and throws tpio::Error on violation.
  StorageSystem(const PfsParams& params, net::Fabric* fabric);

  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  /// Exactly create(name, integrity, {}, 0, {}).
  std::shared_ptr<File> create(std::string name, Integrity integrity);

  /// Multi-tenant create: the file's I/O is billed to `tenant` under the
  /// system's QoS policy, and the caller's tenant-local compute nodes are
  /// translated by `node_offset` onto the shared system's node space
  /// (client storage channels, compute-NIC sharing, fault-oracle keys).
  /// `striping` overrides the file's stripe unit, striping factor and
  /// first target; a default-constructed FileStriping inherits the
  /// system-wide striping.
  std::shared_ptr<File> create(std::string name, Integrity integrity,
                               const TenantClass& tenant, int node_offset,
                               const FileStriping& striping);

  const PfsParams& params() const { return params_; }
  const FaultModel& faults() const { return faults_; }

  /// Aggregate bytes accepted across all files (diagnostic). Failed
  /// attempts contribute nothing.
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Per-tenant interference accounting summed across all targets.
  QosStats tenant_stats(int tenant) const;
  /// One target's service queue (diagnostics/tests).
  const ServiceQueue& target(int t) const;

 private:
  friend class File;
  PfsParams params_;
  net::Fabric* fabric_;
  FaultModel faults_;
  std::vector<std::unique_ptr<sim::NoiseModel>> noise_;
  std::vector<ServiceQueue> targets_;
  std::vector<sim::Timeline> client_tx_;  // lazily sized per node
  std::uint64_t bytes_written_ = 0;

  sim::Timeline& client_channel(int node);
};

/// One striped file. All I/O entry points must run on a rank's fiber; the
/// caller passes its RankCtx and the compute node it runs on (for client-
/// side channel contention). Offsets and lengths are bytes; `attempt`
/// parameters are 1-based and thread through to the fault oracle so a
/// retry of the same region draws a fresh verdict.
class File {
 public:
  /// Asynchronous write: returns immediately with the scheduled completion.
  /// Models aio_write / MPI_File_iwrite_at — service proceeds on storage
  /// resources regardless of what the issuing rank does afterwards.
  WriteOp iwrite_at(sim::RankCtx& ctx, int node, std::uint64_t offset,
                    std::span<const std::byte> data, int attempt = 1);

  /// Schedule a write without advancing the caller's clock. `async` selects
  /// the aio service path (and its penalty). Callers that want blocking
  /// semantics plus bookkeeping between scheduling and completion — e.g.
  /// declaring an MPI-progress blackout for the write's duration — use this
  /// and then wait().
  WriteOp start_write(sim::RankCtx& ctx, int node, std::uint64_t offset,
                      std::span<const std::byte> data, bool async,
                      int attempt = 1);

  /// Blocking write: the rank's clock advances to durable completion.
  /// Returns the attempt's outcome; on TransientError the full service
  /// time elapsed but nothing became durable. (Callers that also run an
  /// MPI engine should declare the rank unavailable for the same interval;
  /// see coll::CollectiveWriter.)
  IoStatus write_at(sim::RankCtx& ctx, int node, std::uint64_t offset,
                    std::span<const std::byte> data, int attempt = 1);

  /// Consume `op`, blocking until its completion time; returns the
  /// operation's outcome — the point where an injected failure becomes
  /// observable, like the error slot of a real aiocb.
  IoStatus wait(sim::RankCtx& ctx, WriteOp& op);

  /// Schedule a read of [offset, offset+out.size()) into `out`. Contents
  /// come from stored chunks (Store mode); unwritten bytes — and all bytes
  /// in Digest/None modes — read as zero, with full timing either way.
  /// Content visibility follows the virtual timeline: a read issued before
  /// an asynchronous write's completion does not observe that write's data.
  /// `async` selects the aio path, as for writes. A read that draws a
  /// transient fault still fills `out` (the bytes are untrustworthy, as
  /// after a failed pread) and reports the failure through wait().
  WriteOp start_read(sim::RankCtx& ctx, int node, std::uint64_t offset,
                     std::span<std::byte> out, bool async, int attempt = 1);

  /// Blocking read: clock advances to completion. Returns the outcome.
  IoStatus read_at(sim::RankCtx& ctx, int node, std::uint64_t offset,
                   std::span<std::byte> out, int attempt = 1);

  // ----- inspection / verification -----------------------------------------
  const std::string& name() const { return name_; }
  Integrity integrity() const { return integrity_; }
  /// Effective stripe size of this file: the per-file stripe_unit override
  /// when set, else the storage system's stripe_size.
  std::uint64_t stripe_size() const;
  /// Parameters of the underlying storage system (e.g. for the autotune
  /// platform signature).
  const PfsParams& params() const { return sys_->params(); }
  /// Fault oracle of the underlying storage system (for retry jitter
  /// seeding and tests).
  const FaultModel& faults() const { return sys_->faults(); }
  /// Highest successfully written offset + 1 (0 for an empty file).
  std::uint64_t size() const { return size_; }
  /// Lowest successfully written offset (0 for an empty file). Subfiles
  /// keep their members' *global* offsets, so a subfile's written extent is
  /// [base_offset, size), not [0, size); verify() checks exactly that.
  std::uint64_t base_offset() const {
    return bytes_accepted_ > 0 ? min_offset_ : 0;
  }
  /// Bytes accepted by successful write attempts (failed attempts are not
  /// counted — they never became durable).
  std::uint64_t bytes_written() const { return bytes_accepted_; }

  /// Store mode only: copy out a region; unwritten bytes read as zero.
  std::vector<std::byte> read_back(std::uint64_t offset, std::uint64_t len) const;

  /// Store/Digest modes: check that the region [base_offset, size) was
  /// written exactly once and that every byte equals the expected content.
  /// `expected(offset, out)` fills `out` with the bytes that belong at
  /// [offset, offset + out.size()); verify asks for runs of up to 64 KiB.
  /// Returns an empty string on success, else a human-readable mismatch:
  /// the first wrong offset (Store) or the byte range of the first piece
  /// whose hash differs (Digest). A write that gave up after exhausting its
  /// retries leaves a hole that this reports.
  std::string verify(
      const std::function<void(std::uint64_t, std::span<std::byte>)>& expected)
      const;

 private:
  friend class StorageSystem;
  File(StorageSystem& sys, std::string name, Integrity integrity,
       const TenantClass& tenant, int node_offset,
       const FileStriping& striping)
      : sys_(&sys),
        name_(std::move(name)),
        integrity_(integrity),
        tenant_(tenant),
        node_offset_(node_offset),
        striping_(striping) {}

  /// Target serving stripe index `stripe_idx` of this file: round-robin
  /// over the file's stripe set (striping factor wide, rotated by
  /// target_offset). With no overrides this is stripe_idx % num_targets.
  int target_of(std::uint64_t stripe_idx) const;

  /// Digest mode: one write's part of one stripe chunk, hashed at
  /// submission.
  struct Piece {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t hash = 0;
  };

  struct Chunk {
    std::vector<std::byte> bytes;   // Store mode
    std::uint64_t written = 0;      // Store mode: bytes accepted
    std::vector<Piece> pieces;      // Digest mode, in submission order
  };

  /// Store mode: content handed to the storage system but not yet applied
  /// to chunks_, snapshotted at submission (the caller may reuse its
  /// buffer immediately, like aio_write). A read issued before the write's
  /// completion sees the old contents; it applies every write durable by
  /// its issue time. A later write's submission applies the leading run of
  /// durable ones, so pending_ holds the writes still in flight and those
  /// queued behind one. Digest content is never read back, so Digest
  /// pieces go to their chunks at submission.
  struct PendingWrite {
    sim::Time visible_at = 0;       // write completion time
    std::uint64_t offset = 0;
    std::vector<std::byte> bytes;   // submission-time snapshot
  };

  /// Record content + compute service completion. Under the baton. A
  /// faulted attempt (status out-param) consumes service but records no
  /// content.
  sim::Time schedule_write(sim::RankCtx& ctx, int node, std::uint64_t offset,
                           std::span<const std::byte> data, bool async,
                           int attempt, IoStatus& status);
  /// Account the write immediately (size, byte counters), hash its pieces
  /// (Digest) or queue its content to become visible at `visible_at`
  /// (Store).
  void record(std::uint64_t offset, std::span<const std::byte> data,
              sim::Time visible_at);
  /// Apply the pending writes with visible_at <= `upto` to chunks_, in
  /// submission order, and drop them from pending_. `prefix_only` stops at
  /// the first write still in flight.
  void flush_content(sim::Time upto, bool prefix_only = false);
  void apply_content(const PendingWrite& w);

  StorageSystem* sys_;
  std::string name_;
  Integrity integrity_;
  TenantClass tenant_;
  int node_offset_ = 0;
  FileStriping striping_;
  std::uint64_t size_ = 0;
  std::uint64_t bytes_accepted_ = 0;
  std::uint64_t min_offset_ = UINT64_MAX;
  std::unordered_map<std::uint64_t, Chunk> chunks_;  // by chunk index
  std::vector<PendingWrite> pending_;  // Store mode, submission order
};

}  // namespace tpio::pfs
