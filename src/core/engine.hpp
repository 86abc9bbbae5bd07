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
/// white-box tests of individual phases. Holds `opt` and `timings` by
/// reference.
class Engine {
 public:
  Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
         std::span<const std::byte> local_data, const Options& opt,
         PhaseTimings& timings);

  /// Run cycles [first, num_cycles) under the fixed scheduler `mode`.
  /// `first` > 0 continues an OverlapMode::Auto write after probe().
  void run(OverlapMode mode, int first = 0);
  /// OverlapMode::Auto's probe phase: run the first K = min(max(
  /// Options::probe_cycles, 1), num_cycles) cycles blocking and max-reduce
  /// their per-cycle costs over the job (ProbeStats::cycles is K).
  /// Collective; needs a cycle. run(m, K) may then continue under any
  /// scheduler m.
  ProbeStats probe();

  // ----- individual phase operations (also used by tests) -----------------
  void shuffle_init(int cycle, int slot);
  void shuffle_wait(int slot);
  void shuffle_blocking(int cycle, int slot);
  void write_init(int cycle, int slot);
  void write_wait(int slot);
  void write_blocking(int cycle, int slot);

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
  /// A lane leader's cycle layout, built by leader_gather and forwarded by
  /// shuffle_init: the lane's coalesced segments concatenated over
  /// aggregators (local_offset = position in the stage), and each
  /// aggregator's run of them, ascending. The vectors keep their capacity
  /// across the run's cycles (clear, never reconstruct).
  struct StageLayout {
    std::vector<Segment> segs;
    std::vector<std::pair<int, std::size_t>> runs;  // (aggregator, end in segs)
  };
  struct Slot {
    sim::BufferPool::Buffer cb;          // two-sided sub-buffer (aggregators)
    std::shared_ptr<smpi::Window> win;   // one-sided sub-buffer
    ShuffleState sh;
    // Hierarchical mode, leaders of multi-member lanes only: the lane's
    // merged cycle payload, laid out per `layout`. Forwards (sends/puts)
    // reference this memory, so it stays untouched until the slot's
    // shuffle_wait. The layout sits behind a pointer because an Engine
    // lives in collective_write's frame on every rank's fiber stack, whose
    // deepest chain ends less than 96 bytes above a page boundary on an
    // Auto write (DESIGN.md §5a).
    sim::BufferPool::Buffer stage;
    std::unique_ptr<StageLayout> layout;
    // Two-sided leaders of multi-member lanes only: when this slot's
    // forwards (the layout's runs) were posted, and the leader's blocked
    // time while posting them — inputs of the pipelined-overlap stat
    // closed out at the slot's shuffle_wait.
    sim::Time fwd_begin = 0;
    sim::Duration fwd_post_cost = 0;
  };

  std::span<std::byte> cb_span(int slot);
  /// shuffle_init's first step in hierarchical mode: the lane leader
  /// collects its lane's ranks' pieces of `cycle` into the slot's stage
  /// (coalesced, aggregator-major order) over intra-node links, and keeps
  /// the stage's layout for shuffle_init to forward. With one lane per
  /// node (local_aggregators == 1) the lane is the whole node. No-op
  /// unless Plan::hierarchical; single-member lanes skip staging entirely
  /// (the direct send path is used unchanged).
  void leader_gather(int cycle, int slot);
  /// shuffle_init's two-sided aggregator side: post this cycle's receives
  /// into `slot`. Kept out of shuffle_init so that every sender's fiber
  /// does not carry the receive side's locals on its stack.
  void post_receives(int cycle, int slot);

  smpi::Mpi& mpi_;
  pfs::File& file_;
  const Plan& plan_;
  std::span<const std::byte> data_;
  const Options& opt_;
  PhaseTimings& t_;
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
