#pragma once

#include <memory>
#include <span>

#include "core/plan.hpp"
#include "core/types.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"
#include "simbase/bufpool.hpp"

namespace tpio::coll {

/// Execution engine of one collective write on one rank.
///
/// Owns the two collective sub-buffers (plain memory for two-sided
/// transfers, RMA windows for one-sided ones), implements the shuffle and
/// I/O phases, and sequences them according to the selected overlap
/// algorithm. Constructed and run by coll::collective_write(); exposed for
/// white-box tests of individual phases.
///
/// Resilience: every file write (blocking and asynchronous, all five
/// schedulers) runs under a bounded retry policy — a transiently failed
/// attempt (pfs::FaultParams injection) is re-issued after an exponential
/// backoff on the virtual timeline, up to Options::max_retries times, then
/// abandoned (give-up). With Options::degrade_slowdown set, an aggregator
/// that observes a pathologically slow asynchronous write switches its
/// remaining cycles to blocking writes (degraded mode). All of it is
/// deterministic: decisions derive from seeds and virtual-time
/// observations only, so runs are bit-identical at any worker count.
class Engine {
 public:
  Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
         std::span<const std::byte> local_data, const Options& opt,
         PhaseTimings& timings);

  /// Execute all cycles with the configured overlap algorithm.
  void run();

  // ----- individual phase operations (also used by tests) -----------------
  /// Hierarchical-mode intra-node gather: the lane leader collects its
  /// lane's ranks' pieces of `cycle` into a per-slot staging buffer
  /// (coalesced, aggregator-major order) over intra-node links. With one
  /// lane per node (local_aggregators == 1) the lane is the whole node and
  /// this is the historical single-leader gather, byte for byte. No-op
  /// unless Options::hierarchical; idempotent per (cycle, slot); called
  /// automatically at the top of shuffle_init. Single-member lanes skip
  /// staging entirely — the direct send path is used unchanged.
  void leader_gather(int cycle, int slot);
  void shuffle_init(int cycle, int slot);
  void shuffle_wait(int slot);
  void shuffle_blocking(int cycle, int slot);
  void write_init(int cycle, int slot);
  void write_wait(int slot);
  void write_blocking(int cycle, int slot);

  /// OverlapMode::Auto only: what the probe phase decided (valid after
  /// run(); engaged == false for fixed overlap modes).
  const AutoDecision& auto_decision() const { return auto_decision_; }

  /// Retry/give-up/degradation counters of this rank (valid after run();
  /// all zero on a fault-free run).
  const FaultStats& fault_stats() const { return faults_; }
  /// First give-up description, empty when every write eventually
  /// succeeded. Mirrored into Result::io_error by collective_write().
  const std::string& io_error() const { return io_error_; }

  /// Pipelined-overlap inputs (two-sided pipelined lane leaders only; both
  /// zero otherwise — in particular on every co = 1 run). The lifetime of
  /// a cycle's forwards spans their post instant to the slot's waitall;
  /// blocked is the part the leader spent posting or waiting on them.
  sim::Duration forward_lifetime() const { return fwd_lifetime_; }
  sim::Duration forward_blocked() const { return fwd_blocked_; }

 private:
  /// One staged multi-segment receive: the source, its pooled landing
  /// buffer, and the segment layout it will be scattered with at
  /// shuffle_wait (computed once at shuffle_init instead of twice).
  struct RecvStage {
    int src = -1;
    sim::BufferPool::Buffer buf;
    std::vector<Segment> segs;
  };
  struct ShuffleState {
    int cycle = -1;
    bool pending = false;
    std::vector<smpi::Request> reqs;
    // Two-sided receive staging (per source), unpacked into the
    // collective buffer at shuffle_wait. Pooled storage, recycled across
    // cycles and runs; the vector keeps its capacity (clear, never
    // reconstruct) so steady-state cycles do not allocate.
    std::vector<RecvStage> recv_bufs;

    void clear() {
      reqs.clear();
      recv_bufs.clear();
    }
  };
  struct Slot {
    sim::BufferPool::Buffer cb;          // two-sided sub-buffer (aggregators)
    std::shared_ptr<smpi::Window> win;   // one-sided sub-buffer
    ShuffleState sh;
    pfs::WriteOp wr;
    int wr_cycle = -1;  // cycle of the outstanding write, -1 if none
    sim::Time wr_submit = 0;      // issue time of the outstanding write
    std::uint64_t wr_bytes = 0;   // bytes of the outstanding write
    // Hierarchical mode, leaders of multi-member lanes only: the lane's
    // merged cycle payload, laid out as the concatenation over aggregators
    // of the coalesced lane segments. Forwards (sends/puts) reference this
    // memory, so it stays untouched until the slot's shuffle_wait.
    sim::BufferPool::Buffer stage;
    int gathered_cycle = -1;  // last cycle gathered into this slot
    // Pipelined lane mode (local_aggregators > 1), lane leaders only:
    // when this slot's forwards were posted, and the leader's blocked time
    // while posting them — inputs of the pipelined-overlap stat closed out
    // at the slot's shuffle_wait.
    bool fwd_posted = false;
    sim::Time fwd_begin = 0;
    sim::Duration fwd_post_cost = 0;
  };

  std::span<std::byte> cb_span(int slot);
  /// Segment layout of the message an aggregator receives from `src` for
  /// [lo, hi): per-rank segments on the direct path, the source node's
  /// coalesced union under hierarchy.
  std::vector<Segment> incoming_segments(int src, std::uint64_t lo,
                                         std::uint64_t hi) const;

  // Each scheduler runs cycles [first, num_cycles). `first` > 0 is the
  // Auto continuation: the probe cycles before it completed blocking, so
  // both sub-buffers are quiescent at the handoff boundary and any
  // scheduler can take over mid-operation.
  void run_none(int first);
  void run_comm(int first);        // Algorithm 1
  void run_write(int first);       // Algorithm 2
  void run_write_comm(int first);  // Algorithm 3
  void run_write_comm2(int first); // Algorithm 4 (data-flow interpretation)
  /// Dispatch to the fixed scheduler `m` starting at cycle `first`.
  void run_scheduler(OverlapMode m, int first);
  /// OverlapMode::Auto: consult the tuning cache, else probe, decide,
  /// persist, and hand the remaining cycles to the chosen scheduler.
  void run_auto();

  int slot_of(int cycle) const {
    return opt_.overlap == OverlapMode::None ? 0 : cycle % 2;
  }

  /// Advance the virtual clock by the retry backoff (io_path.hpp), account
  /// it, trace it, count the retry.
  void retry_backoff(int cycle, int attempt);
  /// Record a give-up: count it, set io_error_ (first one wins), trace it.
  void give_up(const char* what, int cycle);
  /// Bounded-retry blocking write of `r` from `slot`'s sub-buffer.
  void write_attempts(int cycle, int slot, const Plan::Range& r);
  /// Feed the degraded-mode detector with one completed asynchronous
  /// write's observed (duration, bytes); may latch degraded_.
  void observe_async_write(int cycle, sim::Duration d, std::uint64_t bytes);

  smpi::Mpi& mpi_;
  pfs::File& file_;
  const Plan& plan_;
  std::span<const std::byte> data_;
  Options opt_;
  PhaseTimings& t_;
  int my_agg_ = -1;  // aggregator index of this rank, or -1
  int node_ = 0;
  // Hierarchical-mode geometry (valid when opt_.hierarchical).
  bool is_leader_ = false;
  int lane_ = 0;                        // this rank's lane within its node
  int lane_first_ = 0, lane_last_ = 0;  // this lane's rank range
  // Options::local_aggregators > 1: per-lane sub-batons replace the
  // whole-node + leader barriers, and lane leaders forward as soon as
  // their own gather completes (timed into PhaseTimings::forward).
  bool pipelined_ = false;
  // Pipelined-overlap inputs (host-side counters, zero virtual cost):
  // summed forward lifetimes and the portion the leader spent blocked.
  sim::Duration fwd_lifetime_ = 0;
  sim::Duration fwd_blocked_ = 0;
  AutoDecision auto_decision_;
  FaultStats faults_;
  std::string io_error_;
  // Degraded mode (Options::degrade_slowdown): once latched, write_init
  // drains cycles through the blocking path instead of the aio pipeline.
  bool degraded_ = false;
  double best_write_ns_per_byte_ = 0.0;  // 0 = no observation yet
  Slot slots_[2];
};

/// Perform a collective write of `data` (laid out per `view`) into `file`,
/// together with every other rank of the job. Collective: all ranks must
/// call with consistent Options.
Result collective_write(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                        std::span<const std::byte> data, const Options& opt);

}  // namespace tpio::coll
