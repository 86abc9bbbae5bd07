#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <variant>

#include "core/autotune.hpp"
#include "core/io_path.hpp"
#include "core/metadata.hpp"
#include "core/pipeline.hpp"
#include "core/segcopy.hpp"
#include "core/trace.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/error.hpp"

namespace tpio::coll {

namespace {

/// Tag space of the intra-node gather (member -> lane leader); disjoint
/// from the forward tags (plain cycle numbers) so a rank that is both a
/// member and an aggregator can never cross-match the two streams. The
/// lane index occupies the bits above the marker, giving every lane leader
/// its own tag space.
smpi::Tag gather_tag(int cycle, int lane) {
  return static_cast<smpi::Tag>(cycle) | (smpi::Tag{1} << 40) |
         (static_cast<smpi::Tag>(lane) << 41);
}

constexpr FileDirection kWriteDirection{
    .write = true, .salt = 0xB0FF, .init = "write_init", .wait = "write_wait",
    .blocking = "write_blocking", .retry = "write_retry",
    .giveup = "write_giveup", .degraded = "write_degraded"};

using ShuffleStage = Stage<Engine, &Engine::shuffle_init, &Engine::shuffle_wait,
                           &Engine::shuffle_blocking>;
using WriteStage = Stage<Engine, &Engine::write_init, &Engine::write_wait,
                         &Engine::write_blocking>;

}  // namespace

Engine::Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
               std::span<const std::byte> local_data, const Options& opt,
               PhaseTimings& timings, const AutoPolicy& policy)
    : mpi_(mpi),
      file_(file),
      plan_(plan),
      data_(local_data),
      opt_(opt),
      t_(timings),
      policy_(policy),
      io_(mpi, file, plan, opt_, timings, kWriteDirection),
      staging_(payload_touched(opt, mpi.machine())
                   ? sim::BufferPool::Contents::overwritten
                   : sim::BufferPool::Contents::unread) {
  TPIO_CHECK(data_.size() == plan.view(mpi.rank()).total_bytes(),
             "local buffer size does not match the file view");
  // Timing-only mode must never meet a content-recording file: it would
  // store (Store) or hash (Digest) bytes that were never materialized.
  TPIO_CHECK(opt_.materialize || file_.integrity() == pfs::Integrity::None,
             "Options::materialize == false requires Integrity::None");
  my_agg_ = plan_.agg_index(mpi_.rank());
  node_ = mpi_.machine().fabric().topology().node_of(mpi_.rank());
  if (plan_.hierarchical()) {
    is_leader_ = plan_.is_leader(mpi_.rank());
    lane_ = plan_.lane_of(mpi_.rank());
    const auto [first, last] = plan_.lane_rank_range(node_, lane_);
    lane_first_ = first;
    lane_last_ = last;
    int a0 = plan_.num_aggregators(), a1 = 0;
    for (int m = first; m < last; ++m) {
      const auto [b, e] = plan_.aggs_of(m);
      if (b == e) continue;
      a0 = std::min(a0, b);
      a1 = std::max(a1, e);
    }
    if (a0 < a1) lane_aggs_ = {a0, a1};
  }

  const int nslots = num_slots(opt_.overlap);
  const std::uint64_t sb = plan_.sub_buffer_bytes();
  if (opt_.transfer == Transfer::TwoSided) {
    if (my_agg_ >= 0) {
      // Pooled sub-buffers, recycled across the run's cycles. Zeroing is
      // only needed when contents are recorded: file regions of a cycle
      // range not covered by any incoming segment keep the sub-buffer's
      // prior bytes, which a fresh std::vector guaranteed to be zero.
      for (int s = 0; s < nslots; ++s) {
        slots_[s].cb = sim::BufferPool::local().acquire(
            sb, opt_.materialize ? sim::BufferPool::Contents::zeroed
                                 : staging_);
      }
    }
  } else {
    // One-sided: the sub-buffers ARE the exposed windows; puts land
    // directly at their final position, no aggregator-side unpack.
    timed(mpi_.ctx(), t_.sync, [&] {
      for (int s = 0; s < nslots; ++s) {
        slots_[s].win =
            mpi_.win_allocate(my_agg_ >= 0 ? static_cast<std::size_t>(sb) : 0);
      }
    });
  }
}

std::span<std::byte> Engine::cb_span(int slot) {
  Slot& s = slots_[slot];
  if (opt_.transfer == Transfer::TwoSided) return s.cb.span();
  return s.win->local(mpi_.rank());
}

// ---------------------------------------------------------------------------
// Shuffle phase
// ---------------------------------------------------------------------------

void Engine::leader_gather(int cycle, int slot) {
  if (!plan_.hierarchical()) return;
  Slot& s = slots_[slot];
  if (s.gathered_cycle == cycle) return;
  TPIO_CHECK(!s.sh.pending,
             "leader_gather while a shuffle is pending on slot");
  s.gathered_cycle = cycle;
  if (lane_last_ - lane_first_ <= 1) return;  // degenerate: direct path

  const int me = mpi_.rank();

  // Member `m`'s pieces of this cycle in the (aggregator, file-offset) pack
  // order: one non-empty range per aggregator its data may reach.
  const auto for_pieces = [&](int m, auto&& fn) {
    const auto [a0, a1] = plan_.aggs_of(m);
    for (int a = a0; a < a1; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      const SegmentRange pieces = plan_.segments_in(m, r.begin, r.end);
      if (!pieces.empty()) fn(pieces);
    }
  };

  if (!is_leader_) {
    // Member: pack own pieces and hand them to the leader. The blocking
    // wait models the copy into node-shared staging. Each range is one
    // local run; when the runs also line up back to back (always so for
    // one range) the message is a slice of the user buffer, sent in place
    // (the wait keeps it safe).
    std::size_t count = 0;
    std::uint64_t start = 0, total = 0;
    bool one_run = true;
    for_pieces(me, [&](const SegmentRange& g) {
      if (count == 0) start = g.local_offset();
      one_run = one_run && g.local_offset() == start + total;
      count += g.size();
      total += g.bytes();
    });
    if (count == 0) return;
    std::span<const std::byte> payload;
    sim::BufferPool::Buffer buf;
    if (one_run) {
      payload = data_.subspan(start, total);
    } else {
      buf = sim::BufferPool::local().acquire(total, staging_);
      if (opt_.materialize) {
        std::uint64_t pos = 0;
        for_pieces(me, [&](const SegmentRange& g) {
          std::memcpy(buf.data() + pos, data_.data() + g.local_offset(),
                      g.bytes());
          pos += g.bytes();
        });
      }
      payload = buf.span();
    }
    if (count > 1) {
      // Pack CPU is charged from the piece count regardless of how many
      // host copies actually moved the bytes.
      timed(mpi_.ctx(), t_.pack, [&] {
        mpi_.ctx().advance(pack_cost(count, payload.size()));
      });
    }
    timed(mpi_.ctx(), t_.gather, [&] {
      smpi::Request rq =
          mpi_.isend(plan_.leader_of(me), gather_tag(cycle, lane_), payload);
      mpi_.wait(rq);
    });
    return;
  }

  // Leader: derive the staging layout — concatenation over aggregators of
  // the lane's coalesced cycle segments, file-ordered within each
  // aggregator slice. Only leaders compute it (it reads every lane
  // member's view, which the sparse metadata exchange delivers to leaders
  // alone); members pack in for_pieces order, whose positions the leader
  // re-derives when unpacking, so no gather metadata is exchanged.
  std::vector<Segment> layout;  // local_offset = position in stage
  std::uint64_t stage_bytes = 0;
  for (int a = lane_aggs_.first; a < lane_aggs_.second; ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    const auto segs = plan_.lane_segments_in(node_, lane_, r.begin, r.end);
    for (Segment g : segs) {
      g.local_offset += stage_bytes;
      layout.push_back(g);
    }
    if (!segs.empty()) {
      stage_bytes += segs.back().local_offset + segs.back().length;
    }
  }
  if (stage_bytes == 0) return;  // lane contributes nothing this cycle

  // Map a member piece to its slot in the merged layout. Union segments
  // are maximal coalesced runs, so each piece fits inside exactly one.
  auto stage_pos = [&](const Segment& piece) -> std::uint64_t {
    auto it = std::upper_bound(
        layout.begin(), layout.end(), piece.file_offset,
        [](std::uint64_t v, const Segment& g) { return v < g.file_offset; });
    TPIO_CHECK(it != layout.begin(), "gather piece outside node layout");
    --it;
    TPIO_CHECK(piece.file_offset >= it->file_offset &&
                   piece.file_offset + piece.length <=
                       it->file_offset + it->length,
               "gather piece straddles node layout");
    return it->local_offset + (piece.file_offset - it->file_offset);
  };
  // Copy one range's pieces from `src` (packed back to back) into the
  // stage. File-contiguous pieces are also contiguous in the packed source
  // and in the stage layout, so each run collapses into one copy.
  auto unpack = [&](const SegmentRange& g, const std::byte* src) {
    segcopy::for_file_runs(g, [&](std::size_t first, std::size_t,
                                  std::uint64_t, std::uint64_t len) {
      std::memcpy(s.stage.data() + stage_pos(g[first]), src, len);
      src += len;
    });
  };

  // Receive every member's packed pieces, scatter them (and our own) into
  // the merged staging buffer.
  ScopedTraceEvent ev(opt_.trace, "leader_gather", cycle, mpi_.ctx());
  // The staging buffer is fully covered by the members' pieces, so it
  // needs no zeroing; pooled, recycled across the run's cycles.
  s.stage = sim::BufferPool::local().acquire(stage_bytes, staging_);
  std::vector<std::pair<int, sim::BufferPool::Buffer>> bufs;
  std::vector<smpi::Request> reqs;
  bufs.reserve(static_cast<std::size_t>(lane_last_ - lane_first_));
  reqs.reserve(static_cast<std::size_t>(lane_last_ - lane_first_));
  for (int m = lane_first_; m < lane_last_; ++m) {
    if (m == me) continue;
    std::uint64_t n = 0;
    for_pieces(m, [&](const SegmentRange& g) { n += g.bytes(); });
    if (n == 0) continue;
    bufs.emplace_back(m, sim::BufferPool::local().acquire(n, staging_));
    timed(mpi_.ctx(), t_.gather, [&] {
      reqs.push_back(
          mpi_.irecv(m, gather_tag(cycle, lane_), bufs.back().second.span()));
    });
  }
  std::size_t own_segs = 0;
  std::uint64_t own_bytes = 0;
  for_pieces(me, [&](const SegmentRange& g) {
    if (opt_.materialize) unpack(g, data_.data() + g.local_offset());
    own_segs += g.size();
    own_bytes += g.bytes();
  });
  if (own_bytes > 0) {
    timed(mpi_.ctx(), t_.pack,
          [&] { mpi_.ctx().advance(pack_cost(own_segs, own_bytes)); });
  }
  timed(mpi_.ctx(), t_.gather, [&] { mpi_.waitall(reqs); });
  std::size_t nsegs = 0;
  std::uint64_t bytes = 0;
  for (const auto& member : bufs) {
    const sim::BufferPool::Buffer& buf = member.second;
    std::uint64_t pos = 0;
    for_pieces(member.first, [&](const SegmentRange& g) {
      if (opt_.materialize) unpack(g, buf.data() + pos);
      pos += g.bytes();
      nsegs += g.size();
    });
    TPIO_CHECK(pos == buf.size(), "gather unpack size mismatch");
    bytes += pos;
  }
  if (bytes > 0) {
    timed(mpi_.ctx(), t_.pack,
          [&] { mpi_.ctx().advance(pack_cost(nsegs, bytes)); });
  }
}

void Engine::post_receives(int cycle, int slot) {
  // Aggregator side: one receive per contributing source — a rank on
  // the direct path, a (node, lane) leader under hierarchy — posted in
  // ascending source order. Plan::sources_of lists every rank that can
  // hold pieces of this domain, so the walk costs one range query per
  // candidate, not one per rank of the job. A source whose contribution
  // is one contiguous piece lands directly at its final position in the
  // collective buffer (no staging, no unpack) — the common case for
  // contiguous workloads like IOR; multi-segment contributions go
  // through a staging buffer and are scattered at shuffle_wait, paying
  // CPU per segment and per byte.
  Slot& s = slots_[slot];
  const auto tag = static_cast<smpi::Tag>(cycle);
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  std::span<std::byte> cb = cb_span(slot);
  const std::span<const int> sources = plan_.sources_of(my_agg_);
  s.sh.reqs.reserve(sources.size());
  s.sh.recv_bufs.reserve(sources.size());
  const auto post_recv = [&](int src, auto pieces) {
    if (pieces.empty()) return;
    std::span<std::byte> dest;
    if (pieces.size() == 1) {
      const Segment g = pieces[0];
      dest = cb.subspan(g.file_offset - r.begin, g.length);
    } else {
      RecvStage st;
      st.buf = sim::BufferPool::local().acquire(segcopy::total_bytes(pieces),
                                                staging_);
      st.pieces = std::move(pieces);  // scattered at shuffle_wait
      s.sh.recv_bufs.push_back(std::move(st));
      dest = s.sh.recv_bufs.back().buf.span();
    }
    timed(mpi_.ctx(), t_.shuffle,
          [&] { s.sh.reqs.push_back(mpi_.irecv(src, tag, dest)); });
  };
  if (plan_.hierarchical()) {
    // A lane is a run of consecutive ranks, so the ascending sources
    // meet each contributing lane once, in (node, lane) order; its
    // leader sends the lane's coalesced union.
    const net::Topology& topo = plan_.topology();
    std::pair<int, int> prev{-1, -1};
    for (const int src : sources) {
      const std::pair<int, int> lane{topo.node_of(src), plan_.lane_of(src)};
      if (lane == prev) continue;
      prev = lane;
      post_recv(plan_.lane_leader(lane.first, lane.second),
                plan_.lane_segments_in(lane.first, lane.second, r.begin,
                                       r.end));
    }
  } else {
    for (const int src : sources) {
      post_recv(src, plan_.segments_in(src, r.begin, r.end));
    }
  }
}

void Engine::shuffle_init(int cycle, int slot) {
  leader_gather(cycle, slot);  // hierarchical mode only; no-op otherwise
  ScopedTraceEvent ev(opt_.trace, "shuffle_init", cycle, mpi_.ctx());
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.sh.pending, "shuffle_init while a shuffle is pending on slot");
  TPIO_CHECK(!io_.in_flight(slot),
             "shuffle_init into a sub-buffer with an outstanding write");
  s.sh.clear();  // keeps vector capacity: steady-state cycles don't allocate
  s.sh.cycle = cycle;
  s.sh.pending = true;

  const int me = mpi_.rank();
  const auto tag = static_cast<smpi::Tag>(cycle);
  // The aggregators this rank's own pieces may reach (Plan::aggs_of); the
  // direct paths below visit only these, in ascending order.
  const auto [my_a0, my_a1] = plan_.aggs_of(me);

  if (opt_.transfer == Transfer::TwoSided) {
    // Per-cycle metadata synchronization (vulcan exchanges offsets/counts
    // at the start of every cycle). Besides its own cost this keeps
    // senders in lock-step with the aggregators: without it, eager senders
    // race arbitrarily far ahead and pre-deliver future cycles into
    // unexpected-message buffers, which no real implementation allows at
    // collective-buffer granularity.
    if (plan_.hierarchical()) {
      // Each lane syncs only among its own members — the per-(leader,
      // cycle) sub-baton, at shared-memory cost. A lane leader whose
      // gather is done forwards immediately, without waiting for the
      // node's other lanes or for other nodes' leaders.
      timed(mpi_.ctx(), t_.sync,
            [&] { mpi_.lane_barrier(lane_first_, lane_last_); });
    } else {
      timed(mpi_.ctx(), t_.sync, [&] { mpi_.barrier(); });
    }
    // Aggregator side: one receive per contributing source.
    if (my_agg_ >= 0) post_receives(cycle, slot);
    if (lane_last_ - lane_first_ > 1) {
      // Hierarchical forward: the lane leader sends one contiguous slice of
      // the staging buffer per destination aggregator, zero-copy (the slice
      // layout is exactly leader_gather's). Members already handed their
      // pieces to the leader and send nothing. The posts are timed into the
      // forward bucket and the slot remembers the post instant, feeding the
      // pipelined-overlap stat at shuffle_wait.
      if (is_leader_) {
        s.fwd_begin = mpi_.ctx().now();
        std::uint64_t base = 0;
        for (int a = lane_aggs_.first; a < lane_aggs_.second; ++a) {
          const Plan::Range r = plan_.cycle_range(a, cycle);
          const std::uint64_t n =
              plan_.lane_bytes_in(node_, lane_, r.begin, r.end);
          if (n == 0) continue;
          const std::span<const std::byte> payload(s.stage.data() + base, n);
          timed(mpi_.ctx(), t_.forward, [&] {
            s.sh.reqs.push_back(mpi_.isend(plan_.agg_rank(a), tag, payload));
          });
          base += n;
        }
        s.fwd_posted = base > 0;
        s.fwd_post_cost = mpi_.ctx().now() - s.fwd_begin;
      }
      return;
    }
    // Sender side (direct path; also hierarchical single-member lanes):
    // the pieces of a cycle range form one contiguous local run
    // (SegmentRange), so the message is a slice of the user buffer, sent
    // in place and untouched until this slot's shuffle_wait. The pack CPU
    // of a multi-segment message is still charged on the virtual timeline.
    for (int a = my_a0; a < my_a1; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      const SegmentRange pieces = plan_.segments_in(me, r.begin, r.end);
      if (pieces.empty()) continue;
      const std::span<const std::byte> payload =
          data_.subspan(pieces.local_offset(), pieces.bytes());
      if (pieces.size() > 1) {
        timed(mpi_.ctx(), t_.pack, [&] {
          mpi_.ctx().advance(pack_cost(pieces.size(), payload.size()));
        });
      }
      timed(mpi_.ctx(), t_.shuffle, [&] {
        s.sh.reqs.push_back(mpi_.isend(plan_.agg_rank(a), tag, payload));
      });
    }
    return;
  }

  // One-sided variants.
  if (opt_.transfer == Transfer::OneSidedLock) {
    // Origins must not overwrite a sub-buffer whose previous content the
    // aggregator is still writing; the paper resolves this with a barrier.
    timed(mpi_.ctx(), t_.sync, [&] { mpi_.barrier(); });
  } else {
    // Active target: the opening fence starts the exposure epoch.
    timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_fence(*s.win); });
  }

  if (lane_last_ - lane_first_ > 1) {
    // Hierarchical one-sided: only lane leaders originate puts — one per
    // coalesced union segment, sourced from the staging buffer. The gather
    // itself stays two-sided intra-node traffic (it models shared-memory
    // staging, not RMA). The lanes' leaders originate their puts
    // independently; the fence/barrier epoch structure is global, so there
    // is no per-cycle lane sync here. Put issue time is charged to the
    // forward bucket (the lifetime stat stays two-sided-only: put
    // completion is epoch-based, so no per-leader forward lifetime exists
    // to measure).
    if (!is_leader_) return;
    std::uint64_t base = 0;
    for (int a = lane_aggs_.first; a < lane_aggs_.second; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      const auto segs = plan_.lane_segments_in(node_, lane_, r.begin, r.end);
      if (segs.empty()) continue;
      const int target = plan_.agg_rank(a);
      if (opt_.transfer == Transfer::OneSidedLock) {
        timed(mpi_.ctx(), t_.sync,
              [&] { mpi_.win_lock(*s.win, target, opt_.lock_type); });
      }
      timed(mpi_.ctx(), t_.forward, [&] {
        for (const Segment& g : segs) {
          mpi_.ctx().advance(kSegmentCpu);
          mpi_.put(*s.win, target, g.file_offset - r.begin,
                   s.stage.span().subspan(base + g.local_offset, g.length));
        }
      });
      if (opt_.transfer == Transfer::OneSidedLock) {
        timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_unlock(*s.win, target); });
      }
      base += segs.back().local_offset + segs.back().length;
    }
    return;
  }

  for (int a = my_a0; a < my_a1; ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    const SegmentRange pieces = plan_.segments_in(me, r.begin, r.end);
    if (pieces.empty()) continue;
    const int target = plan_.agg_rank(a);
    if (opt_.transfer == Transfer::OneSidedLock) {
      timed(mpi_.ctx(), t_.sync,
            [&] { mpi_.win_lock(*s.win, target, opt_.lock_type); });
    }
    timed(mpi_.ctx(), t_.shuffle, [&] {
      for (const Segment& g : pieces) {
        // Each contiguous piece goes straight to its final position in the
        // target's sub-buffer: origin-side placement, no target CPU.
        mpi_.ctx().advance(kSegmentCpu);
        mpi_.put(*s.win, target, g.file_offset - r.begin,
                 data_.subspan(g.local_offset, g.length));
      }
    });
    if (opt_.transfer == Transfer::OneSidedLock) {
      timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_unlock(*s.win, target); });
    }
  }
}

void Engine::shuffle_wait(int slot) {
  ScopedTraceEvent ev(opt_.trace, "shuffle_wait", slots_[slot].sh.cycle,
                      mpi_.ctx());
  Slot& s = slots_[slot];
  TPIO_CHECK(s.sh.pending, "shuffle_wait without a pending shuffle");
  s.sh.pending = false;

  switch (opt_.transfer) {
    case Transfer::TwoSided: {
      // Pure lane leaders (not also aggregators) wait here only on their
      // own forward isends, so the blocked time is forward-completion wait;
      // a leader that is also an aggregator waits on a mix of recvs and
      // forwards, which stays in shuffle.
      const bool fwd_wait = s.fwd_posted && my_agg_ < 0;
      const sim::Time w0 = mpi_.ctx().now();
      timed(mpi_.ctx(), fwd_wait ? t_.forward : t_.shuffle,
            [&] { mpi_.waitall(s.sh.reqs); });
      if (s.fwd_posted) {
        // Pipelined-overlap stat: the forward lifetime runs from the post
        // instant to the end of this waitall; the leader was blocked on
        // forwarding while posting and (pure leaders only) inside the
        // waitall. Everything else in the lifetime — typically the next
        // cycle's lane gather under an overlapping scheduler — is forward
        // time hidden behind useful work. Host-side only: no virtual cost.
        fwd_lifetime_ += mpi_.ctx().now() - s.fwd_begin;
        fwd_blocked_ += s.fwd_post_cost;
        if (fwd_wait) fwd_blocked_ += mpi_.ctx().now() - w0;
        s.fwd_posted = false;
        s.fwd_post_cost = 0;
      }
      if (my_agg_ >= 0 && !s.sh.recv_bufs.empty()) {
        // Scatter staged multi-segment messages into the collective buffer
        // at their final offsets (single-segment sources already landed in
        // place), one copy per file-contiguous run. The piece layouts were
        // stored at shuffle_init; the unpack CPU is charged from their
        // counts, and only a materialized run walks them.
        const Plan::Range r = plan_.cycle_range(my_agg_, s.sh.cycle);
        std::span<std::byte> cb = cb_span(slot);
        std::size_t nsegs = 0;
        std::uint64_t bytes = 0;
        for (const RecvStage& st : s.sh.recv_bufs) {
          std::visit(
              [&](const auto& pieces) {
                nsegs += pieces.size();
                if (!opt_.materialize) return;
                std::uint64_t pos = 0;
                segcopy::for_file_runs(
                    pieces, [&](std::size_t, std::size_t, std::uint64_t off,
                                std::uint64_t len) {
                      std::memcpy(cb.data() + (off - r.begin),
                                  st.buf.data() + pos, len);
                      pos += len;
                    });
                TPIO_CHECK(pos == st.buf.size(), "unpack size mismatch");
              },
              st.pieces);
          bytes += st.buf.size();
        }
        timed(mpi_.ctx(), t_.pack,
              [&] { mpi_.ctx().advance(pack_cost(nsegs, bytes)); });
      }
      break;
    }
    case Transfer::OneSidedFence:
      // Closing fence: completes all puts of the epoch, everywhere.
      timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_fence(*s.win); });
      break;
    case Transfer::OneSidedLock:
      // Unlocks already guaranteed per-origin completion; the barrier tells
      // the aggregator that *all* origins are done.
      timed(mpi_.ctx(), t_.sync, [&] { mpi_.barrier(); });
      break;
  }
  s.sh.clear();
}

void Engine::shuffle_blocking(int cycle, int slot) {
  shuffle_init(cycle, slot);
  shuffle_wait(slot);
}

// ---------------------------------------------------------------------------
// I/O phase
// ---------------------------------------------------------------------------

void Engine::write_init(int cycle, int slot) {
  TPIO_CHECK(!slots_[slot].sh.pending,
             "write_init while the sub-buffer is shuffling");
  io_.init(cycle, slot, cb_span(slot));
}

void Engine::write_wait(int slot) { io_.wait(slot); }

void Engine::write_blocking(int cycle, int slot) {
  TPIO_CHECK(!slots_[slot].sh.pending,
             "blocking write while the sub-buffer is shuffling");
  io_.blocking(cycle, slot, cb_span(slot));
}

// ---------------------------------------------------------------------------
// Scheduling: the pipeline's fixed orders (pipeline.hpp) and Auto
// ---------------------------------------------------------------------------

void Engine::run() {
  if (plan_.num_cycles() == 0) return;
  if (opt_.overlap == OverlapMode::Auto) {
    run_auto();
    return;
  }
  run_scheduler(opt_.overlap, 0);
}

void Engine::run_scheduler(OverlapMode m, int first) {
  ShuffleStage shuffle{*this};
  WriteStage write{*this};
  run_pipeline(shuffle, write, m, /*file_first=*/false, first,
               plan_.num_cycles(), num_slots(opt_.overlap));
}

void Engine::run_auto() {
  const int N = plan_.num_cycles();
  AutoDecision& d = auto_decision_;
  d.engaged = true;

  // The warm-start path lives in collective_write(): a cache hit is
  // resolved *before* planning so the chosen scheduler runs with its
  // native buffer geometry rather than Auto's split sub-buffers. When this
  // engine runs, the cache (if any) missed — probe, decide, and store the
  // fresh decision under the same geometry-independent key.
  std::string key;
  if (!opt_.tuning_cache.empty()) {
    key = platform_signature(plan_.topology(),
                             mpi_.machine().fabric().params(),
                             mpi_.machine().params(), file_.params()) +
          "|" + workload_signature(plan_, opt_);
  }

  // Probe phase: K fully blocking cycles. Even cycles write through the
  // blocking path, odd ones through aio (init + immediate wait), so the
  // stats expose the platform's async-write quality. Blocking probes leave
  // both sub-buffers quiescent — the precondition for any scheduler to
  // take over at the switch boundary.
  const int K = std::min(std::max(opt_.probe_cycles, 1), N);
  d.probe_cycles = K;
  sim::Duration shuffle_ns = 0, write_block_ns = 0, write_async_ns = 0;
  int nblock = 0, nasync = 0;
  for (int c = 0; c < K; ++c) {
    const int slot = c % 2;  // Auto always runs two slots
    const sim::Time s0 = mpi_.ctx().now();
    shuffle_blocking(c, slot);
    shuffle_ns += mpi_.ctx().now() - s0;
    const sim::Time w0 = mpi_.ctx().now();
    if (c % 2 == 0) {
      write_blocking(c, slot);
      write_block_ns += mpi_.ctx().now() - w0;
      ++nblock;
    } else {
      write_init(c, slot);
      write_wait(slot);
      write_async_ns += mpi_.ctx().now() - w0;
      ++nasync;
    }
  }

  // Job-wide consensus: max-reduce the per-cycle averages. Every rank sees
  // the bottleneck aggregator's write costs (non-aggregators report zero)
  // and the slowest rank's shuffle cost, so decide() is identical
  // everywhere. Attributed to meta like the other planning collectives.
  ProbeStats st;
  timed(mpi_.ctx(), t_.meta, [&] {
    st.shuffle_ns = static_cast<double>(mpi_.allreduce_max(
        static_cast<std::uint64_t>(shuffle_ns / K)));
    st.write_block_ns = static_cast<double>(mpi_.allreduce_max(
        static_cast<std::uint64_t>(nblock > 0 ? write_block_ns / nblock : 0)));
    st.write_async_ns = static_cast<double>(mpi_.allreduce_max(
        static_cast<std::uint64_t>(nasync > 0 ? write_async_ns / nasync : 0)));
  });
  st.has_async = nasync > 0 && st.write_async_ns > 0.0;

  d.comm_share = probe_comm_share(st);
  d.aio_ratio = probe_aio_ratio(st);
  d.chosen = decide(st, policy_);
  // Persist only decisions backed by both write paths; a one-cycle
  // operation never sampled aio and teaches the cache nothing.
  if (!key.empty() && st.has_async && mpi_.rank() == 0) {
    TuningCache::store(opt_.tuning_cache, key, d.chosen);
  }
  run_scheduler(d.chosen, K);
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

Result collective_write(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                        std::span<const std::byte> data, const Options& opt) {
  view.validate();
  TPIO_CHECK(data.size() == view.total_bytes(),
             "local buffer size does not match the file view");

  Result res;
  const sim::Time start = mpi.ctx().now();

  // Metadata phase, stage 1: allgather the fixed-size view summaries —
  // O(P·32B) per run, shared by every rank — instead of the old O(P·view)
  // full-blob allgatherv.
  PhaseTimings t;
  const sim::Time meta_start = mpi.ctx().now();
  MetadataExchange meta(mpi, view);

  // Warm start (OverlapMode::Auto + tuning cache): resolve the cached
  // decision before planning, so a hit runs the chosen scheduler with its
  // native buffer geometry — a fixed-mode plan, not Auto's split
  // sub-buffers. Rank 0 consults the host file and broadcasts, so every
  // rank replans identically even if cache files diverge across (real)
  // nodes; the broadcast costs virtual time (meta) like any collective.
  Options eff = opt;
  AutoDecision warm;
  if (opt.overlap == OverlapMode::Auto && !opt.tuning_cache.empty()) {
    const net::Topology& topo = mpi.machine().fabric().topology();
    const std::string key =
        platform_signature(topo, mpi.machine().fabric().params(),
                           mpi.machine().params(), file.params()) +
        "|" + workload_signature(topo.nprocs(), meta.global_bytes(), opt);
    std::byte msg[2] = {std::byte{0}, std::byte{0}};
    if (mpi.rank() == 0) {
      OverlapMode cached{};
      if (TuningCache::lookup(opt.tuning_cache, key, cached)) {
        msg[0] = std::byte{1};
        msg[1] = static_cast<std::byte>(cached);
      }
    }
    mpi.bcast(msg, 0);
    if (msg[0] == std::byte{1}) {
      warm.engaged = true;
      warm.chosen = static_cast<OverlapMode>(msg[1]);
      warm.from_cache = true;
      eff.overlap = warm.chosen;
    }
  }

  // The skeleton (aggregator map, domains, cycle count) comes from the
  // summaries alone under the effective options; stage 2 then delivers
  // full views, with the two-level shuffle's lane leaders pulling theirs.
  const std::shared_ptr<const Plan> plan =
      meta.plan(file.stripe_size(), eff, /*lane_routing=*/true);
  t.meta += mpi.ctx().now() - meta_start;

  Engine engine(mpi, file, *plan, data, eff, t);
  engine.run();

  t.total = mpi.ctx().now() - start;
  res.timings = t;
  res.autotune = warm.engaged ? warm : engine.auto_decision();
  res.faults = engine.fault_stats();
  res.io_error = engine.io_error();
  res.forward_lifetime = engine.forward_lifetime();
  res.forward_blocked = engine.forward_blocked();
  res.aggregators = plan->num_aggregators();
  res.cycles = plan->num_cycles();
  res.bytes_local = view.total_bytes();
  res.bytes_global = plan->global_bytes();
  return res;
}

}  // namespace tpio::coll
