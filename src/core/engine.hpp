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

/// Execution engine of one collective write or read on one rank.
///
/// Owns the aggregators' two collective sub-buffers (plain memory for
/// two-sided transfers, RMA windows for one-sided writes) and runs the
/// two-stage pipeline (pipeline.hpp) in either direction in the selected
/// overlap algorithm's order: shuffle -> write, or read -> shuffle (the
/// scatter). The file stage is the pipeline's FileStage, with its retry
/// policy and degraded mode. Each part of the shuffle serves both
/// directions: the origin-side walk (Plan::aggs_of x segments_in, or a
/// lane leader's stage layout) sends on a write and receives on a read;
/// the aggregator-side walk (Plan::sources_of, per source lane under
/// hierarchy) receives on a write and sends on a read; the lane step
/// gathers a lane's pieces before a write's forward and scatters them
/// after a read's. Constructed and run by coll::collective_write() and
/// collective_read(); exposed for white-box tests of individual phases.
/// Holds `opt` and `timings` by reference.
class Engine {
 public:
  /// An operation in direction `dir` (kWrite or kRead) on `buf`, this
  /// rank's view bytes in order, which only a read writes into. A read
  /// refuses what read_refusal() names.
  Engine(const Direction& dir, smpi::Mpi& mpi, pfs::File& file,
         const Plan& plan, std::span<std::byte> buf, const Options& opt,
         PhaseTimings& timings);
  /// A collective write of `data`.
  Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
         std::span<const std::byte> data, const Options& opt,
         PhaseTimings& timings);

  /// Run cycles [first, num_cycles) under the fixed scheduler `mode`.
  /// `first` > 0 continues an OverlapMode::Auto write after probe().
  void run(OverlapMode mode, int first = 0);
  /// OverlapMode::Auto's probe phase (writes only): run the first K =
  /// min(max(Options::probe_cycles, 1), num_cycles) cycles blocking and
  /// max-reduce their per-cycle costs over the job (ProbeStats::cycles is
  /// K). Collective; needs a cycle. run(m, K) may then continue under any
  /// scheduler m.
  ProbeStats probe();

  // ----- individual phase operations (also used by tests) -----------------
  void shuffle_init(int cycle, int slot);
  void shuffle_wait(int slot);
  void shuffle_blocking(int cycle, int slot);
  void file_init(int cycle, int slot);
  void file_wait(int slot);
  void file_blocking(int cycle, int slot);

  /// Fill `res` once run() returned: the timings, closed at now as the
  /// operation's total since `start`, this rank's fault counters and
  /// forward stats, and the plan's geometry.
  void report(Result& res, sim::Time start);

 private:
  /// One staged message of the aggregator-side walk: a write's landing
  /// buffer and the pieces it is scattered with at shuffle_wait (a range
  /// of the source's view, or the source lane's merged union), or a read's
  /// packed send buffer.
  struct Staged {
    sim::BufferPool::Buffer buf;
    std::variant<SegmentRange, std::vector<Segment>> pieces;
  };
  struct ShuffleState {
    int cycle = -1;
    bool pending = false;
    std::vector<smpi::Request> reqs;
    // Pooled storage, recycled across the run's cycles; the vector keeps
    // its capacity (clear, never reconstruct) so steady-state cycles do
    // not allocate.
    std::vector<Staged> staged;

    void clear() {
      reqs.clear();
      staged.clear();
    }
  };
  /// A lane leader's cycle layout, built by stage_lane: the lane's
  /// coalesced segments concatenated over aggregators (local_offset =
  /// position in the stage), and each aggregator's run of them, ascending:
  /// one forward message each. The vectors keep their capacity across the
  /// run's cycles (clear, never reconstruct).
  struct StageLayout {
    std::vector<Segment> segs;
    std::vector<std::pair<int, std::size_t>> runs;  // (aggregator, end in segs)

    /// Stage position of a member's piece. Union segments are maximal
    /// coalesced runs, so each piece fits inside exactly one.
    std::uint64_t position(const Segment& piece) const;
  };
  struct Slot {
    sim::BufferPool::Buffer cb;          // two-sided sub-buffer (aggregators)
    std::shared_ptr<smpi::Window> win;   // one-sided sub-buffer
    ShuffleState sh;
    // Hierarchical mode, leaders of multi-member lanes only: the lane's
    // merged cycle payload, laid out per `layout`. Forwards (sends, puts
    // or a read's receives) reference this memory, so it stays untouched
    // until the slot's shuffle_wait. The layout sits behind a pointer
    // because an Engine lives in collective_write's frame on every rank's
    // fiber stack, whose deepest chain ends less than 96 bytes above a page
    // boundary on an Auto write (DESIGN.md §5a).
    sim::BufferPool::Buffer stage;
    std::unique_ptr<StageLayout> layout;
    // Two-sided leaders of multi-member lanes only: when this slot's
    // forwards (the layout's runs) were posted, and the leader's blocked
    // time while posting them — inputs of the pipelined-overlap stat
    // closed out at the slot's shuffle_wait.
    sim::Time fwd_begin = 0;
    sim::Duration fwd_post_cost = 0;
  };
  bool writes() const { return io_.direction().write; }
  std::span<std::byte> cb_span(int slot);
  /// This rank runs in a lane of two or more members (hierarchical mode).
  bool in_lane() const { return lane_last_ - lane_first_ > 1; }
  /// Rank `r`'s pieces of `cycle`, in the origin walk's (aggregator, file
  /// offset) order: fn(a, pieces) for each aggregator `a` of
  /// Plan::aggs_of(r) whose cycle range holds some. A cycle range's
  /// pieces are one run of the rank's buffer.
  template <class Fn>
  void for_pieces(int r, int cycle, Fn&& fn) const;
  /// A lane leader's stage for `cycle`: lay out the lane's coalesced
  /// segments (StageLayout) and check out the slot's stage. False when the
  /// lane has nothing in this cycle.
  bool stage_lane(int cycle, int slot);
  /// Copy pieces `g` from their packed run at `packed` into the slot's
  /// stage (a write), or back (a read).
  void stage_copy(Slot& s, const SegmentRange& g, std::byte* packed);
  /// The lane step, over intra-node links: a write's leader gathers its
  /// members' pieces of `cycle` into the slot's stage before shuffle_init
  /// forwards it; a read's leader hands each member its pieces once
  /// shuffle_wait has landed the forward in the stage. No-op outside a
  /// multi-member lane (single-member lanes take the direct path).
  void lane_step(int cycle, int slot);
  /// The aggregator-side walk: one message per contributing source — a
  /// rank on the direct path, a (node, lane) leader under hierarchy — in
  /// ascending source order. Kept out of shuffle_init so that every
  /// origin's fiber does not carry its locals on its stack.
  void aggregator_walk(int cycle, int slot);

  smpi::Mpi& mpi_;
  const Plan& plan_;
  // This rank's view bytes in order: a write's source (never stored into),
  // a read's destination.
  std::span<std::byte> user_;
  const Options& opt_;
  PhaseTimings& t_;
  FileStage io_;  // the file stage and the direction; holds opt_ and t_
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
  // Aggregators [first, second) this lane's members may exchange with:
  // the hull of their Plan::aggs_of intervals, which a leader's stage
  // spans.
  std::pair<int, int> lane_aggs_{0, 0};
  // Pipelined-overlap inputs (host-side counters, zero virtual cost):
  // summed forward lifetimes and the portion the leader spent blocked.
  sim::Duration fwd_lifetime_ = 0;
  sim::Duration fwd_blocked_ = 0;
  Slot slots_[2];
};

/// Whether anything touches an operation's payload bytes: the engine
/// copies them under Options::materialize, smpi when `machine` carries
/// payloads. Where neither does, a writer's data buffer and every buffer
/// the engine stages are checked out BufferPool::Contents::unread
/// (DESIGN.md §5b).
inline bool payload_touched(const Options& opt, const smpi::Machine& machine) {
  return opt.materialize || machine.payloads();
}

/// Perform a collective write of `data` (laid out per `view`) into `file`,
/// together with every other rank of the job. Collective: all ranks must
/// call with consistent Options.
Result collective_write(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                        std::span<const std::byte> data, const Options& opt);

}  // namespace tpio::coll
