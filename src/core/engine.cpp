#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "core/autotune.hpp"
#include "core/io_path.hpp"
#include "core/metadata.hpp"
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
/// its own tag space; lane 0 reproduces the historical single-leader tags
/// exactly.
smpi::Tag gather_tag(int cycle, int lane) {
  return static_cast<smpi::Tag>(cycle) | (smpi::Tag{1} << 40) |
         (static_cast<smpi::Tag>(lane) << 41);
}

}  // namespace

Engine::Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
               std::span<const std::byte> local_data, const Options& opt,
               PhaseTimings& timings)
    : mpi_(mpi),
      file_(file),
      plan_(plan),
      data_(local_data),
      opt_(opt),
      t_(timings) {
  TPIO_CHECK(data_.size() == plan.view(mpi.rank()).total_bytes(),
             "local buffer size does not match the file view");
  // Timing-only mode must never meet a content-recording file: the digest
  // would be computed over unmaterialized bytes.
  TPIO_CHECK(opt_.materialize || file_.integrity() == pfs::Integrity::None,
             "Options::materialize == false requires Integrity::None");
  my_agg_ = plan_.agg_index(mpi_.rank());
  node_ = mpi_.machine().fabric().topology().node_of(mpi_.rank());
  if (opt_.hierarchical) {
    is_leader_ = plan_.is_leader(mpi_.rank());
    lane_ = plan_.lane_of(mpi_.rank());
    const auto [first, last] = plan_.lane_rank_range(node_, lane_);
    lane_first_ = first;
    lane_last_ = last;
    // Pipelined lane mode is an option-level property (uniform across
    // ranks even where small nodes clamp to one lane): the per-cycle sync
    // structure must agree job-wide.
    pipelined_ = plan_.local_aggregators() > 1;
  }

  const int nslots = opt_.overlap == OverlapMode::None ? 1 : 2;
  const std::uint64_t sb = plan_.sub_buffer_bytes();
  if (opt_.transfer == Transfer::TwoSided) {
    if (my_agg_ >= 0) {
      // Pooled sub-buffers, recycled across cycles and runs. Zeroing is
      // only needed when contents are recorded: file regions of a cycle
      // range not covered by any incoming segment keep the sub-buffer's
      // prior bytes, which a fresh std::vector guaranteed to be zero.
      for (int s = 0; s < nslots; ++s) {
        slots_[s].cb =
            sim::BufferPool::local().acquire(sb, /*zeroed=*/opt_.materialize);
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

std::vector<Segment> Engine::incoming_segments(int src, std::uint64_t lo,
                                               std::uint64_t hi) const {
  if (!opt_.hierarchical) return plan_.segments_in(src, lo, hi);
  // `src` is a lane leader; its message carries its lane's coalesced
  // union. One lane per node (co = 1) makes this the node union exactly.
  return plan_.lane_segments_in(plan_.topology().node_of(src),
                                plan_.lane_of(src), lo, hi);
}

void Engine::leader_gather(int cycle, int slot) {
  if (!opt_.hierarchical) return;
  Slot& s = slots_[slot];
  if (s.gathered_cycle == cycle) return;
  TPIO_CHECK(!s.sh.pending,
             "leader_gather while a shuffle is pending on slot");
  s.gathered_cycle = cycle;
  if (lane_last_ - lane_first_ <= 1) return;  // degenerate: direct path

  const int me = mpi_.rank();
  const int A = plan_.num_aggregators();

  // Pieces of member `m`, in the (aggregator, file-offset) pack order.
  auto pieces_of = [&](int m) {
    std::vector<Segment> out;
    for (int a = 0; a < A; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      for (const Segment& g : plan_.segments_in(m, r.begin, r.end)) {
        out.push_back(g);
      }
    }
    return out;
  };

  if (!is_leader_) {
    // Member: pack own pieces and hand them to the leader. The blocking
    // wait models the copy into node-shared staging; a single contiguous
    // piece goes zero-copy (the wait keeps the user buffer safe).
    const auto pieces = pieces_of(me);
    if (pieces.empty()) return;
    std::span<const std::byte> payload;
    sim::BufferPool::Buffer buf;
    const segcopy::LocalRun run = segcopy::local_run(pieces);
    if (run.ok) {
      // Every piece lines up contiguously in the user buffer (always so
      // for one piece): the message is a slice of it, sent in place.
      payload = data_.subspan(run.local_offset, run.total);
    } else {
      std::uint64_t total = 0;
      for (const Segment& g : pieces) total += g.length;
      buf = sim::BufferPool::local().acquire(total, /*zeroed=*/false);
      if (opt_.materialize) {
        std::uint64_t pos = 0;
        segcopy::for_local_runs(
            pieces, [&](std::size_t, std::size_t, std::uint64_t off,
                        std::uint64_t len) {
              std::memcpy(buf.data() + pos, data_.data() + off, len);
              pos += len;
            });
      }
      payload = buf.span();
    }
    if (pieces.size() > 1) {
      // Pack CPU is charged from the piece count regardless of how many
      // host copies actually moved the bytes.
      timed(mpi_.ctx(), t_.pack, [&] {
        mpi_.ctx().advance(pack_cost(opt_, pieces.size(), payload.size()));
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
  // alone); members pack against pieces_of(me), whose positions the leader
  // re-derives when unpacking, so no gather metadata is exchanged.
  std::vector<Segment> layout;  // local_offset = position in stage
  std::uint64_t stage_bytes = 0;
  for (int a = 0; a < A; ++a) {
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

  // Receive every member's packed pieces, scatter them (and our own) into
  // the merged staging buffer.
  ScopedTraceEvent ev_(opt_.trace, "leader_gather", cycle, mpi_.ctx().now());
  struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
  // The staging buffer is fully covered by the members' pieces, so it
  // needs no zeroing; pooled, recycled across cycles and runs.
  s.stage = sim::BufferPool::local().acquire(stage_bytes, /*zeroed=*/false);
  std::vector<std::pair<int, sim::BufferPool::Buffer>> bufs;
  std::vector<smpi::Request> reqs;
  bufs.reserve(static_cast<std::size_t>(lane_last_ - lane_first_));
  reqs.reserve(static_cast<std::size_t>(lane_last_ - lane_first_));
  for (int m = lane_first_; m < lane_last_; ++m) {
    if (m == me) continue;
    std::uint64_t n = 0;
    for (int a = 0; a < A; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      n += plan_.bytes_in(m, r.begin, r.end);
    }
    if (n == 0) continue;
    bufs.emplace_back(m,
                      sim::BufferPool::local().acquire(n, /*zeroed=*/false));
    timed(mpi_.ctx(), t_.gather, [&] {
      reqs.push_back(
          mpi_.irecv(m, gather_tag(cycle, lane_), bufs.back().second.span()));
    });
  }
  const auto own = pieces_of(me);
  std::uint64_t own_bytes = 0;
  for (const Segment& g : own) own_bytes += g.length;
  if (opt_.materialize) {
    // File-contiguous pieces are also contiguous in the user buffer and in
    // the stage layout, so each run collapses into one copy.
    segcopy::for_file_runs(
        own, [&](std::size_t first, std::size_t, std::uint64_t,
                 std::uint64_t len) {
          std::memcpy(s.stage.data() + stage_pos(own[first]),
                      data_.data() + own[first].local_offset, len);
        });
  }
  if (own_bytes > 0) {
    timed(mpi_.ctx(), t_.pack,
          [&] { mpi_.ctx().advance(pack_cost(opt_, own.size(), own_bytes)); });
  }
  timed(mpi_.ctx(), t_.gather, [&] { mpi_.waitall(reqs); });
  std::size_t nsegs = 0;
  std::uint64_t bytes = 0;
  for (const auto& [m, buf] : bufs) {
    const auto pieces = pieces_of(m);
    std::uint64_t pos = 0;
    segcopy::for_file_runs(
        pieces, [&](std::size_t first, std::size_t, std::uint64_t,
                    std::uint64_t len) {
          if (opt_.materialize) {
            std::memcpy(s.stage.data() + stage_pos(pieces[first]),
                        buf.data() + pos, len);
          }
          pos += len;
        });
    TPIO_CHECK(pos == buf.size(), "gather unpack size mismatch");
    nsegs += pieces.size();
    bytes += pos;
  }
  if (bytes > 0) {
    timed(mpi_.ctx(), t_.pack,
          [&] { mpi_.ctx().advance(pack_cost(opt_, nsegs, bytes)); });
  }
}

void Engine::shuffle_init(int cycle, int slot) {
  leader_gather(cycle, slot);  // hierarchical mode only; no-op otherwise
  ScopedTraceEvent ev_(opt_.trace, "shuffle_init", cycle, mpi_.ctx().now());
  struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.sh.pending, "shuffle_init while a shuffle is pending on slot");
  TPIO_CHECK(!s.wr.valid(),
             "shuffle_init into a sub-buffer with an outstanding write");
  s.sh.clear();  // keeps vector capacity: steady-state cycles don't allocate
  s.sh.cycle = cycle;
  s.sh.pending = true;

  const int me = mpi_.rank();
  const auto tag = static_cast<smpi::Tag>(cycle);

  if (opt_.transfer == Transfer::TwoSided) {
    // Per-cycle metadata synchronization (vulcan exchanges offsets/counts
    // at the start of every cycle). Besides its own cost this keeps
    // senders in lock-step with the aggregators: without it, eager senders
    // race arbitrarily far ahead and pre-deliver future cycles into
    // unexpected-message buffers, which no real implementation allows at
    // collective-buffer granularity.
    if (opt_.hierarchical && pipelined_) {
      // Pipelined lane mode: each lane syncs only among its own members —
      // the per-(leader, cycle) sub-baton. A lane leader whose gather is
      // done forwards immediately, without waiting for the node's other
      // lanes or for other nodes' leaders (no whole-node barrier, no
      // fabric-wide leader barrier on the per-cycle path).
      timed(mpi_.ctx(), t_.sync,
            [&] { mpi_.lane_barrier(lane_, lane_last_ - lane_first_); });
    } else if (opt_.hierarchical) {
      // Hierarchical metadata sync: members only need lockstep with their
      // node leader, leaders with the aggregators — most ranks pay the
      // cheap shared-memory barrier instead of the O(log P) fabric one.
      // At one rank per node this decomposes into exactly the flat
      // barrier (node_barrier is a 1-party no-op, leader_barrier spans
      // every rank).
      timed(mpi_.ctx(), t_.sync, [&] {
        mpi_.node_barrier();
        if (is_leader_) mpi_.leader_barrier();
      });
    } else {
      timed(mpi_.ctx(), t_.sync, [&] { mpi_.barrier(); });
    }
    // Aggregator side: one receive per contributing source — every rank on
    // the direct path, one per (node, lane) under hierarchy. A source whose
    // contribution is one contiguous piece lands directly at its final
    // position in the collective buffer (no staging, no unpack) — the
    // common case for contiguous workloads like IOR; multi-segment
    // contributions go through a staging buffer and are scattered at
    // shuffle_wait, paying CPU per segment and per byte.
    if (my_agg_ >= 0) {
      const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
      std::span<std::byte> cb = cb_span(slot);
      const int nodes = plan_.topology().nodes;
      int nsrc = mpi_.size();
      if (opt_.hierarchical) {
        nsrc = 0;
        for (int n = 0; n < nodes; ++n) nsrc += plan_.lanes(n);
      }
      s.sh.reqs.reserve(static_cast<std::size_t>(nsrc) +
                        static_cast<std::size_t>(plan_.num_aggregators()));
      s.sh.recv_bufs.reserve(static_cast<std::size_t>(nsrc));
      const auto post_recv = [&](int src) {
        auto segs = incoming_segments(src, r.begin, r.end);
        if (segs.empty()) return;
        std::span<std::byte> dest;
        if (segs.size() == 1) {
          dest = cb.subspan(segs[0].file_offset - r.begin, segs[0].length);
        } else {
          std::uint64_t n = 0;
          for (const Segment& g : segs) n += g.length;
          RecvStage st;
          st.src = src;
          st.buf = sim::BufferPool::local().acquire(n, /*zeroed=*/false);
          st.segs = std::move(segs);  // reused by shuffle_wait's scatter
          s.sh.recv_bufs.push_back(std::move(st));
          dest = s.sh.recv_bufs.back().buf.span();
        }
        timed(mpi_.ctx(), t_.shuffle,
              [&] { s.sh.reqs.push_back(mpi_.irecv(src, tag, dest)); });
      };
      if (opt_.hierarchical) {
        for (int n = 0; n < nodes; ++n) {
          for (int l = 0; l < plan_.lanes(n); ++l) {
            post_recv(plan_.lane_leader(n, l));
          }
        }
      } else {
        for (int i = 0; i < nsrc; ++i) post_recv(i);
      }
    }
    if (opt_.hierarchical && lane_last_ - lane_first_ > 1) {
      // Hierarchical forward: the lane leader sends one contiguous slice of
      // the staging buffer per destination aggregator, zero-copy (the slice
      // layout is exactly leader_gather's). Members already handed their
      // pieces to the leader and send nothing. In pipelined mode the posts
      // are timed into the forward bucket and the slot remembers the post
      // instant, feeding the pipelined-overlap stat at shuffle_wait.
      if (is_leader_) {
        if (pipelined_) {
          s.fwd_begin = mpi_.ctx().now();
        }
        std::uint64_t base = 0;
        sim::Duration& bucket = pipelined_ ? t_.forward : t_.shuffle;
        for (int a = 0; a < plan_.num_aggregators(); ++a) {
          const Plan::Range r = plan_.cycle_range(a, cycle);
          const std::uint64_t n =
              plan_.lane_bytes_in(node_, lane_, r.begin, r.end);
          if (n == 0) continue;
          const std::span<const std::byte> payload(s.stage.data() + base, n);
          timed(mpi_.ctx(), bucket, [&] {
            s.sh.reqs.push_back(mpi_.isend(plan_.agg_rank(a), tag, payload));
          });
          base += n;
        }
        if (pipelined_) {
          s.fwd_posted = base > 0;
          s.fwd_post_cost = mpi_.ctx().now() - s.fwd_begin;
        }
      }
      return;
    }
    // Sender side (direct path; also hierarchical single-member nodes):
    // the pieces of a cycle range form one contiguous local run (see
    // segcopy.hpp), so the message is a slice of the user buffer, sent in
    // place and untouched until this slot's shuffle_wait. The pack CPU of a
    // multi-segment message is still charged on the virtual timeline.
    const int A = plan_.num_aggregators();
    if (my_agg_ < 0) s.sh.reqs.reserve(static_cast<std::size_t>(A));
    for (int a = 0; a < A; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      const auto segs = plan_.segments_in(me, r.begin, r.end);
      if (segs.empty()) continue;
      const segcopy::LocalRun run = segcopy::local_run(segs);
      TPIO_CHECK(run.ok, "a cycle range's pieces must form one local run");
      const std::span<const std::byte> payload =
          data_.subspan(run.local_offset, run.total);
      if (segs.size() > 1) {
        timed(mpi_.ctx(), t_.pack, [&] {
          mpi_.ctx().advance(pack_cost(opt_, segs.size(), run.total));
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

  if (opt_.hierarchical && lane_last_ - lane_first_ > 1) {
    // Hierarchical one-sided: only lane leaders originate puts — one per
    // coalesced union segment, sourced from the staging buffer. The gather
    // itself stays two-sided intra-node traffic (it models shared-memory
    // staging, not RMA). With co > 1 the lanes' leaders originate their
    // puts independently; the fence/barrier epoch structure is global
    // either way, so there is no per-cycle lane sync here. Put issue time
    // is charged to the forward bucket in pipelined mode (the lifetime
    // stat stays two-sided-only: put completion is epoch-based, so no
    // per-leader forward lifetime exists to measure).
    if (!is_leader_) return;
    std::uint64_t base = 0;
    sim::Duration& bucket = pipelined_ ? t_.forward : t_.shuffle;
    for (int a = 0; a < plan_.num_aggregators(); ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      const auto segs = plan_.lane_segments_in(node_, lane_, r.begin, r.end);
      if (segs.empty()) continue;
      const int target = plan_.agg_rank(a);
      if (opt_.transfer == Transfer::OneSidedLock) {
        timed(mpi_.ctx(), t_.sync,
              [&] { mpi_.win_lock(*s.win, target, opt_.lock_type); });
      }
      timed(mpi_.ctx(), bucket, [&] {
        for (const Segment& g : segs) {
          mpi_.ctx().advance(opt_.seg_cpu);
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

  for (int a = 0; a < plan_.num_aggregators(); ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    const auto segs = plan_.segments_in(me, r.begin, r.end);
    if (segs.empty()) continue;
    const int target = plan_.agg_rank(a);
    if (opt_.transfer == Transfer::OneSidedLock) {
      timed(mpi_.ctx(), t_.sync,
            [&] { mpi_.win_lock(*s.win, target, opt_.lock_type); });
    }
    timed(mpi_.ctx(), t_.shuffle, [&] {
      for (const Segment& g : segs) {
        // Each contiguous piece goes straight to its final position in the
        // target's sub-buffer: origin-side placement, no target CPU.
        mpi_.ctx().advance(opt_.seg_cpu);
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
  ScopedTraceEvent ev_(opt_.trace, "shuffle_wait", slots_[slot].sh.cycle, mpi_.ctx().now());
  struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
  Slot& s = slots_[slot];
  TPIO_CHECK(s.sh.pending, "shuffle_wait without a pending shuffle");
  s.sh.pending = false;

  switch (opt_.transfer) {
    case Transfer::TwoSided: {
      // Pure lane leaders (not also aggregators) wait here only on their
      // own forward isends, so the blocked time is forward-completion wait;
      // a leader that is also an aggregator (Superset) waits on a mix of
      // recvs and forwards and keeps the historical shuffle attribution.
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
        // place), one copy per file-contiguous run. The segment layouts
        // were computed (and stored) at shuffle_init.
        const Plan::Range r = plan_.cycle_range(my_agg_, s.sh.cycle);
        std::span<std::byte> cb = cb_span(slot);
        std::size_t nsegs = 0;
        std::uint64_t bytes = 0;
        for (const RecvStage& st : s.sh.recv_bufs) {
          std::uint64_t pos = 0;
          segcopy::for_file_runs(
              st.segs, [&](std::size_t, std::size_t, std::uint64_t off,
                           std::uint64_t len) {
                if (opt_.materialize) {
                  std::memcpy(cb.data() + (off - r.begin), st.buf.data() + pos,
                              len);
                }
                pos += len;
              });
          TPIO_CHECK(pos == st.buf.size(), "unpack size mismatch");
          nsegs += st.segs.size();
          bytes += pos;
        }
        timed(mpi_.ctx(), t_.pack,
              [&] { mpi_.ctx().advance(pack_cost(opt_, nsegs, bytes)); });
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

void Engine::retry_backoff(int cycle, int attempt) {
  ++faults_.retries;
  const sim::Duration d =
      backoff_delay(opt_, file_.faults().params().seed, /*salt=*/0xB0FF,
                    mpi_.rank(), cycle, attempt);
  ScopedTraceEvent ev_(opt_.trace, "write_retry", cycle, mpi_.ctx().now());
  struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
  timed(mpi_.ctx(), t_.backoff, [&] { mpi_.ctx().advance(d); });
}

void Engine::give_up(const char* what, int cycle) {
  ++faults_.giveups;
  if (io_error_.empty()) {
    io_error_ = std::string(what) + " gave up after " +
                std::to_string(opt_.max_retries + 1) + " attempts (cycle " +
                std::to_string(cycle) + ", rank " +
                std::to_string(mpi_.rank()) + ")";
  }
  ScopedTraceEvent ev_(opt_.trace, "write_giveup", cycle, mpi_.ctx().now());
  ev_.finish(mpi_.ctx().now());
}

void Engine::observe_async_write(int cycle, sim::Duration d,
                                 std::uint64_t bytes) {
  if (opt_.degrade_slowdown <= 1.0 || degraded_ || bytes == 0) return;
  const double per_byte = static_cast<double>(d) / static_cast<double>(bytes);
  if (best_write_ns_per_byte_ <= 0.0 || per_byte < best_write_ns_per_byte_) {
    best_write_ns_per_byte_ = per_byte;
    return;
  }
  if (per_byte > opt_.degrade_slowdown * best_write_ns_per_byte_) {
    // This aggregator's storage path has gone pathological (straggling
    // server): abandon the aio pipeline, drain remaining cycles blocking.
    degraded_ = true;
    ScopedTraceEvent ev_(opt_.trace, "degrade", cycle, mpi_.ctx().now());
    ev_.finish(mpi_.ctx().now());
  }
}

void Engine::write_init(int cycle, int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.wr.valid(), "write_init with an outstanding write on slot");
  TPIO_CHECK(!s.sh.pending, "write_init while the sub-buffer is shuffling");
  if (my_agg_ < 0) return;  // non-aggregator: no write, no trace event
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  if (r.size() == 0) return;
  if (degraded_) {
    // Degraded mode: the aio path on this aggregator is pathological —
    // drain the cycle blocking instead of queueing behind the straggler.
    // The scheduler's later write_wait finds no outstanding op.
    ++faults_.degraded_cycles;
    ScopedTraceEvent ev_(opt_.trace, "write_degraded", cycle,
                         mpi_.ctx().now());
    struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
    write_attempts(cycle, slot, r);
    return;
  }
  ScopedTraceEvent ev_(opt_.trace, "write_init", cycle, mpi_.ctx().now());
  struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
  s.wr_cycle = cycle;
  s.wr_submit = mpi_.ctx().now();
  s.wr_bytes = r.size();
  timed(mpi_.ctx(), t_.write, [&] {
    s.wr = file_.start_write(mpi_.ctx(), node_, r.begin,
                             cb_span(slot).subspan(0, r.size()),
                             /*async=*/true);
  });
}

void Engine::write_wait(int slot) {
  Slot& s = slots_[slot];
  if (!s.wr.valid()) return;  // non-aggregator or empty cycle: no trace event
  const int cycle = s.wr_cycle;
  pfs::IoStatus st = pfs::IoStatus::Ok;
  {
    ScopedTraceEvent ev_(opt_.trace, "write_wait", cycle, mpi_.ctx().now());
    struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
    const sim::Time done = s.wr.completion();
    timed(mpi_.ctx(), t_.write, [&] { st = file_.wait(mpi_.ctx(), s.wr); });
    if (st == pfs::IoStatus::Ok) {
      observe_async_write(cycle, done - s.wr_submit, s.wr_bytes);
    }
  }
  s.wr_cycle = -1;
  if (st == pfs::IoStatus::Ok) return;

  // The asynchronous attempt bounced. The sub-buffer still holds the
  // cycle's payload (the scheduler only reuses a slot after this wait), so
  // re-issue from it — blocking, like a degraded rewrite: the pipeline is
  // already stalled on this cycle, queueing another aio behind a flaky
  // server helps nobody.
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  for (int attempt = 2;; ++attempt) {
    if (attempt > opt_.max_retries + 1) {
      give_up("async write", cycle);
      return;
    }
    retry_backoff(cycle, attempt - 1);
    ScopedTraceEvent ev_(opt_.trace, "write_blocking", cycle,
                         mpi_.ctx().now());
    struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
    timed(mpi_.ctx(), t_.write, [&] {
      pfs::WriteOp op = file_.start_write(mpi_.ctx(), node_, r.begin,
                                          cb_span(slot).subspan(0, r.size()),
                                          /*async=*/false, attempt);
      mpi_.set_unavailable_until(op.completion());
      st = file_.wait(mpi_.ctx(), op);
    });
    if (st == pfs::IoStatus::Ok) return;
  }
}

void Engine::write_attempts(int cycle, int slot, const Plan::Range& r) {
  // Bounded-retry blocking write of [r.begin, r.end) from the slot's
  // sub-buffer: attempt, and on transient failure back off and re-issue
  // until success or give-up.
  for (int attempt = 1;; ++attempt) {
    if (attempt > opt_.max_retries + 1) {
      give_up("blocking write", cycle);
      return;
    }
    if (attempt > 1) retry_backoff(cycle, attempt - 1);
    pfs::IoStatus st = pfs::IoStatus::Ok;
    timed(mpi_.ctx(), t_.write, [&] {
      pfs::WriteOp op = file_.start_write(mpi_.ctx(), node_, r.begin,
                                          cb_span(slot).subspan(0, r.size()),
                                          /*async=*/false, attempt);
      // A blocking pwrite keeps this rank out of the MPI progress engine
      // for its whole duration — the effect the paper identifies as the
      // weakness of communication-only overlap.
      mpi_.set_unavailable_until(op.completion());
      st = file_.wait(mpi_.ctx(), op);
    });
    if (st == pfs::IoStatus::Ok) return;
  }
}

void Engine::write_blocking(int cycle, int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.wr.valid(), "blocking write with an outstanding write on slot");
  TPIO_CHECK(!s.sh.pending, "blocking write while the sub-buffer is shuffling");
  if (my_agg_ < 0) return;  // non-aggregator: no write, no trace event
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  if (r.size() == 0) return;
  ScopedTraceEvent ev_(opt_.trace, "write_blocking", cycle, mpi_.ctx().now());
  struct F_ { ScopedTraceEvent& e; smpi::Mpi& m; ~F_() { e.finish(m.ctx().now()); } } f_{ev_, mpi_};
  write_attempts(cycle, slot, r);
}

// ---------------------------------------------------------------------------
// Overlap schedulers (Algorithms 1-4 of the paper + the baseline)
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
  switch (m) {
    case OverlapMode::None: run_none(first); return;
    case OverlapMode::Comm: run_comm(first); return;
    case OverlapMode::Write: run_write(first); return;
    case OverlapMode::WriteComm: run_write_comm(first); return;
    case OverlapMode::WriteComm2: run_write_comm2(first); return;
    case OverlapMode::Auto: break;  // not a fixed scheduler
  }
  tpio::fail("run_scheduler needs a fixed overlap mode");
}

void Engine::run_none(int first) {
  // Classic two-phase: fully serial. As the Auto continuation (first > 0)
  // the plan keeps the split-buffer geometry, so slots alternate; every
  // operation is blocking either way.
  for (int c = first; c < plan_.num_cycles(); ++c) {
    shuffle_blocking(c, slot_of(c));
    write_blocking(c, slot_of(c));
  }
}

void Engine::run_comm(int first) {
  // Algorithm 1 (Communication Overlap): non-blocking shuffle, blocking
  // write. The next cycle's shuffle runs behind the current write.
  const int N = plan_.num_cycles();
  shuffle_init(first, slot_of(first));
  for (int c = first; c + 1 < N; ++c) {
    shuffle_init(c + 1, slot_of(c + 1));
    shuffle_wait(slot_of(c));
    write_blocking(c, slot_of(c));
  }
  shuffle_wait(slot_of(N - 1));
  write_blocking(N - 1, slot_of(N - 1));
}

void Engine::run_write(int first) {
  // Algorithm 2 (Write Overlap): blocking shuffle, asynchronous write. The
  // previous cycle's write drains while the next shuffle runs.
  const int N = plan_.num_cycles();
  shuffle_blocking(first, slot_of(first));
  write_init(first, slot_of(first));
  for (int c = first + 1; c < N; ++c) {
    shuffle_blocking(c, slot_of(c));
    write_init(c, slot_of(c));
    write_wait(slot_of(c - 1));
  }
  write_wait(slot_of(N - 1));
}

void Engine::run_write_comm(int first) {
  // Algorithm 3 (Write-Communication Overlap): asynchronous write and
  // non-blocking shuffle posted together, then a joint wait.
  const int N = plan_.num_cycles();
  shuffle_blocking(first, slot_of(first));
  for (int c = first; c < N; ++c) {
    write_init(c, slot_of(c));
    if (c + 1 < N) shuffle_init(c + 1, slot_of(c + 1));
    // wait_all(p1, p2): both the write and the shuffle must finish before
    // the buffers swap. Completing the shuffle first lets its aggregator-
    // side unpack overlap the tail of the in-flight write.
    if (c + 1 < N) shuffle_wait(slot_of(c + 1));
    write_wait(slot_of(c));
  }
}

void Engine::run_write_comm2(int first) {
  // Algorithm 4 (Write-Communication-2 Overlap), data-flow interpretation:
  // the completion of any non-blocking operation immediately posts its
  // follow-up (write after its shuffle, shuffle after the write that frees
  // its sub-buffer) instead of Algorithm 3's joint wait.
  //
  // The paper's listing contains an apparent typo (line 11 re-issues
  // write_init(p1) right before waiting on it); we implement the stated
  // intent — see DESIGN.md, "Notes on fidelity".
  const int N = plan_.num_cycles();
  shuffle_blocking(first, slot_of(first));
  write_init(first, slot_of(first));
  if (first + 1 < N) shuffle_init(first + 1, slot_of(first + 1));
  for (int c = first + 1; c < N; ++c) {
    shuffle_wait(slot_of(c));          // shuffle c finished ...
    write_init(c, slot_of(c));         // ... so its write posts immediately
    write_wait(slot_of(c - 1));        // write c-1 frees sub-buffer ...
    if (c + 1 < N) {
      shuffle_init(c + 1, slot_of(c + 1));  // ... so shuffle c+1 posts
    }
  }
  write_wait(slot_of(N - 1));
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
    const int slot = slot_of(c);
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
  d.chosen = decide(st, AutoPolicy::from(opt_));
  // Persist only decisions backed by both write paths; a one-cycle
  // operation never sampled aio and teaches the cache nothing.
  if (!key.empty() && st.has_async && mpi_.rank() == 0) {
    TuningCache::store(opt_.tuning_cache, key, d.chosen);
  }
  if (K < N) run_scheduler(d.chosen, K);
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
