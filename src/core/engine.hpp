#pragma once

#include <memory>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "core/autotune.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/types.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"
#include "simbase/bufpool.hpp"

namespace tpio::coll {

/// Execution engine of one collective write on one rank.
///
/// Owns the two collective sub-buffers (plain memory for two-sided
/// transfers, RMA windows for one-sided ones), implements the shuffle
/// phase, and runs shuffle -> write through the two-stage pipeline
/// (pipeline.hpp) in the selected overlap algorithm's order. The write
/// phase is the pipeline's FileStage, with its retry policy and degraded
/// mode. Constructed and run by coll::collective_write(); exposed for
/// white-box tests of individual phases.
class Engine {
 public:
  /// `policy` holds the thresholds OverlapMode::Auto decides with.
  Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
         std::span<const std::byte> local_data, const Options& opt,
         PhaseTimings& timings, const AutoPolicy& policy = AutoPolicy{});

  /// Execute all cycles with the configured overlap algorithm.
  void run();

  // ----- individual phase operations (also used by tests) -----------------
  /// Hierarchical-mode intra-node gather: the lane leader collects its
  /// lane's ranks' pieces of `cycle` into a per-slot staging buffer
  /// (coalesced, aggregator-major order) over intra-node links. With one
  /// lane per node (local_aggregators == 1) the lane is the whole node.
  /// No-op unless Plan::hierarchical; idempotent per (cycle, slot); called
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
  const FaultStats& fault_stats() const { return io_.faults(); }
  /// First give-up description, empty when every write eventually
  /// succeeded. Mirrored into Result::io_error by collective_write().
  const std::string& io_error() const { return io_.io_error(); }

  /// Pipelined-overlap inputs (two-sided leaders of multi-member lanes
  /// only; both zero otherwise). The lifetime of a cycle's forwards spans
  /// their post instant to the slot's waitall; blocked is the part the
  /// leader spent posting or waiting on them.
  sim::Duration forward_lifetime() const { return fwd_lifetime_; }
  sim::Duration forward_blocked() const { return fwd_blocked_; }

 private:
  /// One staged multi-segment receive: its pooled landing buffer and the
  /// piece layout it is scattered with at shuffle_wait — a range of the
  /// source's view on the direct path, the source lane's merged union
  /// under hierarchy (computed once, at shuffle_init).
  struct RecvStage {
    sim::BufferPool::Buffer buf;
    std::variant<SegmentRange, std::vector<Segment>> pieces;
  };
  struct ShuffleState {
    int cycle = -1;
    bool pending = false;
    std::vector<smpi::Request> reqs;
    // Two-sided receive staging (per source), unpacked into the
    // collective buffer at shuffle_wait. Pooled storage, recycled across
    // the run's cycles; the vector keeps its capacity (clear, never
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
    // Hierarchical mode, leaders of multi-member lanes only: the lane's
    // merged cycle payload, laid out as the concatenation over aggregators
    // of the coalesced lane segments. Forwards (sends/puts) reference this
    // memory, so it stays untouched until the slot's shuffle_wait.
    sim::BufferPool::Buffer stage;
    int gathered_cycle = -1;  // last cycle gathered into this slot
    // Two-sided leaders of multi-member lanes only: when this slot's
    // forwards were posted, and the leader's blocked time while posting
    // them — inputs of the pipelined-overlap stat closed out at the slot's
    // shuffle_wait.
    bool fwd_posted = false;
    sim::Time fwd_begin = 0;
    sim::Duration fwd_post_cost = 0;
  };

  std::span<std::byte> cb_span(int slot);
  /// shuffle_init's two-sided aggregator side: post this cycle's receives
  /// into `slot`. Kept out of shuffle_init so that every sender's fiber
  /// does not carry the receive side's locals on its stack.
  void post_receives(int cycle, int slot);

  /// Run cycles [first, num_cycles) under the fixed scheduler `m`.
  /// `first` > 0 is the Auto continuation.
  void run_scheduler(OverlapMode m, int first);
  /// OverlapMode::Auto: consult the tuning cache, else probe, decide,
  /// persist, and hand the remaining cycles to the chosen scheduler.
  void run_auto();

  smpi::Mpi& mpi_;
  pfs::File& file_;
  const Plan& plan_;
  std::span<const std::byte> data_;
  Options opt_;
  PhaseTimings& t_;
  AutoPolicy policy_;
  FileStage io_;  // the write phase; holds opt_ and t_ by reference
  // How buffers the shuffle fills before reading are checked out:
  // overwritten, or unread where nothing touches the payload.
  const sim::BufferPool::Contents staging_;
  int my_agg_ = -1;  // aggregator index of this rank, or -1
  int node_ = 0;
  // Hierarchical-mode geometry (valid when plan_.hierarchical(); the
  // empty range [0, 0) otherwise, which keeps every rank on the direct
  // path).
  bool is_leader_ = false;
  int lane_ = 0;                        // this rank's lane within its node
  int lane_first_ = 0, lane_last_ = 0;  // this lane's rank range
  // Aggregators [first, second) this lane's members may send to: the hull
  // of their Plan::aggs_of intervals, which a leader gathers and forwards
  // over.
  std::pair<int, int> lane_aggs_{0, 0};
  // Pipelined-overlap inputs (host-side counters, zero virtual cost):
  // summed forward lifetimes and the portion the leader spent blocked.
  sim::Duration fwd_lifetime_ = 0;
  sim::Duration fwd_blocked_ = 0;
  AutoDecision auto_decision_;
  Slot slots_[2];
};

/// Whether anything touches a write's payload bytes: the engines copy them
/// under Options::materialize, smpi when `machine` carries payloads. Where
/// neither does, the rank's data buffer and every buffer the engine stages
/// are checked out BufferPool::Contents::unread (DESIGN.md §5b).
inline bool payload_touched(const Options& opt, const smpi::Machine& machine) {
  return opt.materialize || machine.payloads();
}

/// Perform a collective write of `data` (laid out per `view`) into `file`,
/// together with every other rank of the job. Collective: all ranks must
/// call with consistent Options.
Result collective_write(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                        std::span<const std::byte> data, const Options& opt);

}  // namespace tpio::coll
