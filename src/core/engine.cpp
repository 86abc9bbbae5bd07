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
#include "core/read_engine.hpp"
#include "core/segcopy.hpp"
#include "core/trace.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/error.hpp"

namespace tpio::coll {

namespace {

/// Tag of `cycle`'s shuffle messages in direction `dir`, or, for `lane` >=
/// 0, of that lane's lane step: above a marker bit, with the lane index
/// above it, so a rank that is both a lane member and an aggregator never
/// cross-matches the two streams and every lane leader has its own space.
smpi::Tag tag_of(const Direction& dir, int cycle, int lane = -1) {
  smpi::Tag t = static_cast<smpi::Tag>(cycle) | dir.tags;
  if (lane >= 0) {
    t |= (smpi::Tag{1} << 40) | (static_cast<smpi::Tag>(lane) << 41);
  }
  return t;
}

using ShuffleStage = Stage<Engine, &Engine::shuffle_init, &Engine::shuffle_wait,
                           &Engine::shuffle_blocking>;
using IoStage = Stage<Engine, &Engine::file_init, &Engine::file_wait,
                      &Engine::file_blocking>;

}  // namespace

const char* read_refusal(const Options& opt) {
  if (opt.transfer != Transfer::TwoSided) {
    return "options.transfer: the collective read scatters two-sided only";
  }
  if (opt.overlap == OverlapMode::Auto) {
    return "options.overlap: the collective read needs a fixed mode (Auto "
           "probes write costs only)";
  }
  return nullptr;
}

Engine::Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
               std::span<const std::byte> data, const Options& opt,
               PhaseTimings& timings)
    : Engine(kWrite, mpi, file, plan,
             {const_cast<std::byte*>(data.data()), data.size()}, opt,
             timings) {}

Engine::Engine(const Direction& dir, smpi::Mpi& mpi, pfs::File& file,
               const Plan& plan, std::span<std::byte> buf, const Options& opt,
               PhaseTimings& timings)
    : mpi_(mpi),
      plan_(plan),
      user_(buf),
      opt_(opt),
      t_(timings),
      io_(mpi, file, plan, opt, timings, dir),
      staging_(payload_touched(opt, mpi.machine())
                   ? sim::BufferPool::Contents::overwritten
                   : sim::BufferPool::Contents::unread) {
  if (!dir.write) {
    if (const char* refusal = read_refusal(opt)) fail(refusal);
  }
  TPIO_CHECK(user_.size() == plan.view(mpi.rank()).total_bytes(),
             "buffer size does not match the file view");
  // Timing-only mode must never meet a content-recording file: a write
  // would store (Store) or hash (Digest) bytes that were never
  // materialized.
  TPIO_CHECK(!dir.write || opt_.materialize ||
                 file.integrity() == pfs::Integrity::None,
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
      // Pooled sub-buffers, recycled across the run's cycles. A write's
      // file regions of a cycle range not covered by any incoming segment
      // keep the sub-buffer's prior bytes, which a fresh std::vector
      // guaranteed to be zero, so recorded contents need it zeroed; a
      // read's file access defines every byte of the span it is handed
      // (zero-fill plus stored-content overlay).
      const sim::BufferPool::Contents contents =
          !dir.write            ? sim::BufferPool::Contents::overwritten
          : opt_.materialize    ? sim::BufferPool::Contents::zeroed
                                : staging_;
      for (int s = 0; s < nslots; ++s) {
        slots_[s].cb = sim::BufferPool::local().acquire(sb, contents);
      }
    }
  } else {
    // One-sided (writes only): the sub-buffers ARE the exposed windows;
    // puts land directly at their final position, no aggregator-side
    // unpack.
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

template <class Fn>
void Engine::for_pieces(int r, int cycle, Fn&& fn) const {
  const auto [a0, a1] = plan_.aggs_of(r);
  for (int a = a0; a < a1; ++a) {
    const Plan::Range range = plan_.cycle_range(a, cycle);
    const SegmentRange pieces = plan_.segments_in(r, range.begin, range.end);
    if (!pieces.empty()) fn(a, pieces);
  }
}

std::uint64_t Engine::StageLayout::position(const Segment& piece) const {
  auto it = std::upper_bound(
      segs.begin(), segs.end(), piece.file_offset,
      [](std::uint64_t v, const Segment& g) { return v < g.file_offset; });
  TPIO_CHECK(it != segs.begin(), "lane piece outside the stage layout");
  --it;
  TPIO_CHECK(piece.file_offset >= it->file_offset &&
                 piece.file_offset + piece.length <=
                     it->file_offset + it->length,
             "lane piece straddles the stage layout");
  return it->local_offset + (piece.file_offset - it->file_offset);
}

bool Engine::stage_lane(int cycle, int slot) {
  // Only leaders lay out a stage: it reads every lane member's view, which
  // the sparse metadata exchange delivers to leaders alone. Members pack
  // in for_pieces order, whose positions the leader re-derives, so no lane
  // metadata is exchanged.
  Slot& s = slots_[slot];
  if (!s.layout) s.layout = std::make_unique<StageLayout>();
  std::vector<Segment>& layout = s.layout->segs;
  layout.clear();
  s.layout->runs.clear();
  std::uint64_t stage_bytes = 0;
  for (int a = lane_aggs_.first; a < lane_aggs_.second; ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    const auto segs = plan_.lane_segments_in(node_, lane_, r.begin, r.end);
    if (segs.empty()) continue;
    for (Segment g : segs) {
      g.local_offset += stage_bytes;
      layout.push_back(g);
    }
    stage_bytes += segs.back().local_offset + segs.back().length;
    s.layout->runs.emplace_back(a, layout.size());
  }
  if (stage_bytes == 0) return false;
  // The members' pieces (a write) or the forward (a read) fill the whole
  // stage, so it needs no zeroing; pooled, recycled across the run's
  // cycles.
  s.stage = sim::BufferPool::local().acquire(stage_bytes, staging_);
  return true;
}

void Engine::stage_copy(Slot& s, const SegmentRange& g, std::byte* packed) {
  // File-contiguous pieces are also contiguous in the packed run and in the
  // stage layout, so each run collapses into one copy.
  segcopy::for_file_runs(g, [&](std::size_t first, std::size_t, std::uint64_t,
                                std::uint64_t len) {
    std::byte* at = s.stage.data() + s.layout->position(g[first]);
    std::memcpy(writes() ? at : packed, writes() ? packed : at, len);
    packed += len;
  });
}

void Engine::lane_step(int cycle, int slot) {
  if (!in_lane()) return;  // flat or single-member lane
  Slot& s = slots_[slot];
  const bool write = writes();
  const int me = mpi_.rank();
  const smpi::Tag tag = tag_of(io_.direction(), cycle, lane_);
  // Pack CPU, charged from piece counts however many host copies ran.
  const auto charge = [&](std::size_t segs, std::uint64_t bytes) {
    timed(mpi_.ctx(), t_.pack,
          [&] { mpi_.ctx().advance(pack_cost(segs, bytes)); });
  };

  if (!is_leader_) {
    // Member: one message with the leader holding this rank's pieces in
    // for_pieces order, handed over by a write and taken by a read; the
    // blocking wait models the copy through node-shared staging. When the
    // pieces lie back to back in the user buffer (always so for one
    // aggregator's range) the message is a slice of it, used in place.
    std::size_t count = 0;
    std::uint64_t start = 0, bytes = 0;
    bool in_place = true;
    for_pieces(me, cycle, [&](int, const SegmentRange& g) {
      if (count == 0) start = g.local_offset();
      in_place = in_place && g.local_offset() == start + bytes;
      count += g.size();
      bytes += g.bytes();
    });
    if (count == 0) return;
    sim::BufferPool::Buffer buf;
    std::span<std::byte> msg;
    if (in_place) {
      msg = user_.subspan(start, bytes);
    } else {
      buf = sim::BufferPool::local().acquire(bytes, staging_);
      msg = buf.span();
    }
    // Pack (a write) or unpack (a read) the pieces of a message that is
    // not in place, then pay for it.
    const auto copy = [&] {
      if (!in_place && opt_.materialize) {
        std::uint64_t pos = 0;
        for_pieces(me, cycle, [&](int, const SegmentRange& g) {
          std::byte* at = user_.data() + g.local_offset();
          std::byte* packed = buf.data() + pos;
          std::memcpy(write ? packed : at, write ? at : packed, g.bytes());
          pos += g.bytes();
        });
      }
      if (count > 1) charge(count, bytes);
    };
    if (write) copy();
    timed(mpi_.ctx(), t_.gather, [&] {
      const int leader = plan_.leader_of(me);
      smpi::Request rq = write ? mpi_.isend(leader, tag, msg)
                               : mpi_.irecv(leader, tag, msg);
      mpi_.wait(rq);
    });
    if (!write) copy();
    return;
  }

  // Leader: a write lays out the stage here and fills it from the members
  // for shuffle_init to forward; a read's shuffle_init laid it out, and
  // its forward has landed in it for the members to take.
  if (write ? !stage_lane(cycle, slot)
            : !s.layout || s.layout->runs.empty()) {
    return;  // the lane has nothing this cycle
  }
  ScopedTraceEvent ev(opt_.trace, write ? "leader_gather" : "leader_scatter",
                      cycle, mpi_.ctx());
  std::vector<std::pair<int, sim::BufferPool::Buffer>> bufs;
  std::vector<smpi::Request> reqs;
  bufs.reserve(static_cast<std::size_t>(lane_last_ - lane_first_));
  reqs.reserve(static_cast<std::size_t>(lane_last_ - lane_first_));
  std::size_t nsegs = 0;
  std::uint64_t bytes = 0;
  for (int m = lane_first_; m < lane_last_; ++m) {
    if (m == me) continue;
    std::uint64_t n = 0;
    for_pieces(m, cycle, [&](int, const SegmentRange& g) {
      n += g.bytes();
      nsegs += g.size();
    });
    if (n == 0) continue;
    bufs.emplace_back(m, sim::BufferPool::local().acquire(n, staging_));
    bytes += n;
  }
  // The members' messages, copied into the stage after a write's receives
  // or out of it before a read's sends.
  const auto copy_members = [&] {
    for (auto& [m, buf] : bufs) {
      std::uint64_t pos = 0;
      for_pieces(m, cycle, [&](int, const SegmentRange& g) {
        if (opt_.materialize) stage_copy(s, g, buf.data() + pos);
        pos += g.bytes();
      });
      TPIO_CHECK(pos == buf.size(), "lane message size mismatch");
    }
    if (bytes > 0) charge(nsegs, bytes);
  };
  if (!write) copy_members();
  for (auto& [m, buf] : bufs) {
    timed(mpi_.ctx(), t_.gather, [&] {
      reqs.push_back(write ? mpi_.irecv(m, tag, buf.span())
                           : mpi_.isend(m, tag, buf.span()));
    });
  }
  std::size_t own_segs = 0;
  std::uint64_t own_bytes = 0;
  for_pieces(me, cycle, [&](int, const SegmentRange& g) {
    if (opt_.materialize) stage_copy(s, g, user_.data() + g.local_offset());
    own_segs += g.size();
    own_bytes += g.bytes();
  });
  if (own_bytes > 0) charge(own_segs, own_bytes);
  timed(mpi_.ctx(), t_.gather, [&] { mpi_.waitall(reqs); });
  if (write) copy_members();
}

void Engine::aggregator_walk(int cycle, int slot) {
  // Plan::sources_of lists every rank that can hold pieces of this domain:
  // one range query per candidate, not per rank of the job. A message moves
  // in place in the collective buffer for one piece (contiguous workloads
  // like IOR) and, on a read, for file-contiguous pieces; otherwise a write
  // stages it (scattered at shuffle_wait) and a read packs it, each paying
  // CPU per segment and byte.
  Slot& s = slots_[slot];
  const bool write = writes();
  const smpi::Tag tag = tag_of(io_.direction(), cycle);
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  std::span<std::byte> cb = cb_span(slot);
  const std::span<const int> sources = plan_.sources_of(my_agg_);
  s.sh.reqs.reserve(s.sh.reqs.size() + sources.size());
  s.sh.staged.reserve(sources.size());
  const auto post = [&](int peer, auto pieces) {
    if (pieces.empty()) return;
    const std::size_t count = pieces.size();
    const std::uint64_t total = segcopy::total_bytes(pieces);
    const Segment head = pieces[0], tail = pieces[count - 1];
    std::span<std::byte> msg =
        cb.subspan(head.file_offset - r.begin,
                   tail.file_offset + tail.length - head.file_offset);
    if (write ? count > 1 : msg.size() != total) {
      Staged& st = s.sh.staged.emplace_back();
      st.buf = sim::BufferPool::local().acquire(total, staging_);
      if (!write && opt_.materialize) {
        std::uint64_t pos = 0;
        segcopy::for_file_runs(pieces, [&](std::size_t, std::size_t,
                                           std::uint64_t off,
                                           std::uint64_t len) {
          std::memcpy(st.buf.data() + pos, cb.data() + (off - r.begin), len);
          pos += len;
        });
      }
      if (write) st.pieces = std::move(pieces);  // scattered at shuffle_wait
      msg = st.buf.span();
    }
    if (!write && count > 1) {
      timed(mpi_.ctx(), t_.pack,
            [&] { mpi_.ctx().advance(pack_cost(count, total)); });
    }
    timed(mpi_.ctx(), t_.shuffle, [&] {
      s.sh.reqs.push_back(write ? mpi_.irecv(peer, tag, msg)
                                : mpi_.isend(peer, tag, msg));
    });
  };
  if (plan_.hierarchical()) {
    // A lane is a run of consecutive ranks, so the ascending sources meet
    // each contributing lane once, in (node, lane) order: one message with
    // its leader of the lane's coalesced union.
    const net::Topology& topo = plan_.topology();
    std::pair<int, int> prev{-1, -1};
    for (const int src : sources) {
      const std::pair<int, int> lane{topo.node_of(src), plan_.lane_of(src)};
      if (lane == prev) continue;
      prev = lane;
      post(plan_.lane_leader(lane.first, lane.second),
           plan_.lane_segments_in(lane.first, lane.second, r.begin,
                                  r.end));
    }
  } else {
    for (const int src : sources) {
      post(src, plan_.segments_in(src, r.begin, r.end));
    }
  }
}

void Engine::shuffle_init(int cycle, int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.sh.pending, "shuffle_init while a shuffle is pending on slot");
  TPIO_CHECK(!io_.in_flight(slot),
             "shuffle_init on a sub-buffer with an outstanding file access");
  TPIO_CHECK(writes() || my_agg_ < 0 || io_.cycle(slot) == cycle,
             "a read's shuffle_init without the cycle's data in the "
             "sub-buffer");
  if (writes()) lane_step(cycle, slot);  // no-op outside a lane
  ScopedTraceEvent ev(opt_.trace, io_.direction().shuffle_init, cycle,
                      mpi_.ctx());
  s.sh.clear();  // keeps vector capacity: steady-state cycles don't allocate
  s.sh.cycle = cycle;
  s.sh.pending = true;

  if (!writes()) {
    // A read needs no per-cycle sync (no origin can race ahead of an
    // aggregator); it posts its receives, then its sends (below).
  } else if (opt_.transfer == Transfer::TwoSided) {
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
    if (my_agg_ >= 0) aggregator_walk(cycle, slot);
  } else if (opt_.transfer == Transfer::OneSidedLock) {
    // Origins must not overwrite a sub-buffer whose previous content the
    // aggregator is still writing; the paper resolves this with a barrier.
    timed(mpi_.ctx(), t_.sync, [&] { mpi_.barrier(); });
  } else {
    // Active target: the opening fence starts the exposure epoch.
    timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_fence(*s.win); });
  }

  // Origin side. In a multi-member lane only the leader exchanges with the
  // aggregators, over the runs of its stage layout: a write's gather
  // already collected the members' pieces into the stage, a read's lane
  // step hands them out of it once the forward has landed (intra-node
  // traffic, two-sided, modelling shared-memory staging). One-sided
  // leaders put inside the job-wide epoch (barrier or fence above), so
  // they need no per-cycle lane sync. Every other rank exchanges its own
  // pieces with the user buffer, the direct path.
  if (!in_lane() || is_leader_) {
    const bool forward = in_lane();
    const smpi::Tag tag = tag_of(io_.direction(), cycle);
    sim::Duration& bucket = forward ? t_.forward : t_.shuffle;
    // One message with aggregator `a` of `pieces`, which lie back to back
    // in `buf` in file order.
    const auto post = [&](int a, const auto& pieces, std::span<std::byte> buf) {
      const int peer = plan_.agg_rank(a);
      if (opt_.transfer == Transfer::TwoSided) {
        // The message is one contiguous slice of `buf`, sent or received in
        // place and untouched until this slot's shuffle_wait. A direct
        // sender still charges the pack CPU of a multi-segment message on
        // the virtual timeline (a direct receiver its unpack, at
        // shuffle_wait); a leader pays it in the lane step.
        const Segment head = pieces.front(), tail = pieces.back();
        const std::span<std::byte> run =
            buf.subspan(head.local_offset,
                        tail.local_offset + tail.length - head.local_offset);
        if (writes() && !forward && pieces.size() > 1) {
          timed(mpi_.ctx(), t_.pack, [&] {
            mpi_.ctx().advance(pack_cost(pieces.size(), run.size()));
          });
        }
        timed(mpi_.ctx(), bucket, [&] {
          s.sh.reqs.push_back(writes() ? mpi_.isend(peer, tag, run)
                                       : mpi_.irecv(peer, tag, run));
        });
        return;
      }
      // One-sided: each contiguous piece goes straight to its final
      // position in the target's sub-buffer (origin-side placement, no
      // target CPU).
      const std::uint64_t lo = plan_.cycle_range(a, cycle).begin;
      if (opt_.transfer == Transfer::OneSidedLock) {
        timed(mpi_.ctx(), t_.sync,
              [&] { mpi_.win_lock(*s.win, peer, opt_.lock_type); });
      }
      timed(mpi_.ctx(), bucket, [&] {
        for (const Segment& g : pieces) {
          mpi_.ctx().advance(kSegmentCpu);
          mpi_.put(*s.win, peer, g.file_offset - lo,
                   buf.subspan(g.local_offset, g.length));
        }
      });
      if (opt_.transfer == Transfer::OneSidedLock) {
        timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_unlock(*s.win, peer); });
      }
    };

    if (!forward) {
      // The aggregators this rank's pieces may reach (Plan::aggs_of), in
      // ascending order.
      for_pieces(mpi_.rank(), cycle, [&](int a, const SegmentRange& pieces) {
        post(a, pieces, user_);
      });
    } else if (writes() || stage_lane(cycle, slot)) {
      // The slot remembers when the forwards were posted and what posting
      // cost, inputs of the pipelined-overlap stat that a two-sided
      // shuffle_wait closes out (put completion is epoch-based, so
      // one-sided forwards have no lifetime to measure). A write's gather
      // laid out the stage; a read lays it out here.
      s.fwd_begin = mpi_.ctx().now();
      const StageLayout& layout = *s.layout;
      std::size_t first = 0;
      for (const auto& [a, end] : layout.runs) {
        post(a,
             std::span<const Segment>(layout.segs).subspan(first, end - first),
             s.stage.span());
        first = end;
      }
      s.fwd_post_cost = mpi_.ctx().now() - s.fwd_begin;
    }
  }
  if (!writes() && my_agg_ >= 0) aggregator_walk(cycle, slot);
}

void Engine::shuffle_wait(int slot) {
  Slot& s = slots_[slot];
  ScopedTraceEvent ev(opt_.trace, io_.direction().shuffle_wait, s.sh.cycle,
                      mpi_.ctx());
  TPIO_CHECK(s.sh.pending, "shuffle_wait without a pending shuffle");
  s.sh.pending = false;

  switch (opt_.transfer) {
    case Transfer::TwoSided: {
      // Pure lane leaders (not also aggregators) wait here only on their
      // own forwards, so the blocked time is forward-completion wait; a
      // leader that is also an aggregator waits on a mix of its forwards
      // and its aggregator-side messages, which stays in shuffle.
      const bool fwd_posted = s.layout && !s.layout->runs.empty();
      const bool fwd_wait = fwd_posted && my_agg_ < 0;
      const sim::Time w0 = mpi_.ctx().now();
      timed(mpi_.ctx(), fwd_wait ? t_.forward : t_.shuffle,
            [&] { mpi_.waitall(s.sh.reqs); });
      if (fwd_posted) {
        // Pipelined-overlap stat: the forward lifetime runs from the post
        // instant to the end of this waitall; the leader was blocked on
        // forwarding while posting and (pure leaders only) inside the
        // waitall. Everything else in the lifetime — typically the next
        // cycle's lane gather under an overlapping scheduler — is forward
        // time hidden behind useful work. Host-side only: no virtual cost.
        fwd_lifetime_ += mpi_.ctx().now() - s.fwd_begin;
        fwd_blocked_ += s.fwd_post_cost;
        if (fwd_wait) fwd_blocked_ += mpi_.ctx().now() - w0;
      }
      if (!writes() && in_lane()) {
        lane_step(s.sh.cycle, slot);
      } else if (!writes()) {
        // A direct receiver's messages landed in place; it pays the unpack
        // CPU of the multi-segment ones.
        std::size_t nsegs = 0;
        std::uint64_t bytes = 0;
        for_pieces(mpi_.rank(), s.sh.cycle, [&](int, const SegmentRange& g) {
          nsegs += g.size() > 1 ? g.size() : 0;
          bytes += g.size() > 1 ? g.bytes() : 0;
        });
        if (nsegs > 0) {
          timed(mpi_.ctx(), t_.pack,
                [&] { mpi_.ctx().advance(pack_cost(nsegs, bytes)); });
        }
      } else if (my_agg_ >= 0 && !s.sh.staged.empty()) {
        // Scatter staged multi-segment messages into the collective buffer
        // at their final offsets (single-segment sources already landed in
        // place), one copy per file-contiguous run. The piece layouts were
        // stored at shuffle_init; the unpack CPU is charged from their
        // counts, and only a materialized run walks them.
        const Plan::Range r = plan_.cycle_range(my_agg_, s.sh.cycle);
        std::span<std::byte> cb = cb_span(slot);
        std::size_t nsegs = 0;
        std::uint64_t bytes = 0;
        for (const Staged& st : s.sh.staged) {
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
// File access phase
// ---------------------------------------------------------------------------

void Engine::file_init(int cycle, int slot) {
  TPIO_CHECK(!slots_[slot].sh.pending,
             "file access init while the sub-buffer is shuffling");
  io_.init(cycle, slot, cb_span(slot));
}

void Engine::file_wait(int slot) { io_.wait(slot); }

void Engine::file_blocking(int cycle, int slot) {
  TPIO_CHECK(!slots_[slot].sh.pending,
             "blocking file access while the sub-buffer is shuffling");
  io_.blocking(cycle, slot, cb_span(slot));
}

// ---------------------------------------------------------------------------
// Scheduling: the pipeline's fixed orders (pipeline.hpp) and Auto's probe
// ---------------------------------------------------------------------------

void Engine::run(OverlapMode mode, int first) {
  ShuffleStage shuffle{*this};
  IoStage file{*this};
  if (writes()) {
    run_pipeline(shuffle, file, mode, /*file_first=*/false, first,
                 plan_.num_cycles(), num_slots(opt_.overlap));
  } else {
    run_pipeline(file, shuffle, mode, /*file_first=*/true, first,
                 plan_.num_cycles(), num_slots(opt_.overlap));
  }
}

ProbeStats Engine::probe() {
  // K fully blocking cycles. Even cycles write through the blocking path,
  // odd ones through aio (init + immediate wait), so the stats expose the
  // platform's async-write quality. Blocking probes leave both sub-buffers
  // quiescent — the precondition for any scheduler to take over at the
  // switch boundary.
  const int K = std::min(std::max(opt_.probe_cycles, 1), plan_.num_cycles());
  TPIO_CHECK(K > 0 && num_slots(opt_.overlap) == 2,
             "the Auto probe needs a cycle and two slots");
  sim::Duration shuffle_ns = 0, write_block_ns = 0, write_async_ns = 0;
  int nblock = 0, nasync = 0;
  for (int c = 0; c < K; ++c) {
    const int slot = c % 2;
    const sim::Time s0 = mpi_.ctx().now();
    shuffle_blocking(c, slot);
    shuffle_ns += mpi_.ctx().now() - s0;
    const sim::Time w0 = mpi_.ctx().now();
    if (c % 2 == 0) {
      file_blocking(c, slot);
      write_block_ns += mpi_.ctx().now() - w0;
      ++nblock;
    } else {
      file_init(c, slot);
      file_wait(slot);
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
  st.cycles = K;
  return st;
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

Result collective_write(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                        std::span<const std::byte> data, const Options& opt) {
  view.validate();
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
  // The key is geometry-independent, so a cold run stores its decision
  // under the same one.
  Options eff = opt;
  std::string key;
  if (opt.overlap == OverlapMode::Auto && !opt.tuning_cache.empty()) {
    const net::Topology& topo = mpi.machine().fabric().topology();
    key = platform_signature(topo, mpi.machine().fabric().params(),
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
      res.autotune.engaged = true;
      res.autotune.chosen = static_cast<OverlapMode>(msg[1]);
      res.autotune.from_cache = true;
      eff.overlap = res.autotune.chosen;
    }
  }

  // The skeleton (aggregator map, domains, cycle count) comes from the
  // summaries alone under the effective options; stage 2 then delivers
  // full views, with the two-level shuffle's lane leaders pulling theirs.
  const std::shared_ptr<const Plan> plan = meta.plan(file.stripe_size(), eff);
  t.meta += mpi.ctx().now() - meta_start;

  Engine engine(mpi, file, *plan, data, eff, t);
  if (eff.overlap != OverlapMode::Auto) {
    engine.run(eff.overlap);
  } else if (plan->num_cycles() > 0) {
    // Cold Auto: probe, decide, persist, and hand the remaining cycles to
    // the chosen scheduler.
    const ProbeStats st = engine.probe();
    AutoDecision& d = res.autotune;
    d.engaged = true;
    d.probe_cycles = st.cycles;
    d.comm_share = probe_comm_share(st);
    d.aio_ratio = probe_aio_ratio(st);
    d.chosen = decide(st);
    // Persist only decisions backed by both write paths; a one-cycle
    // operation never sampled aio and teaches the cache nothing.
    if (!key.empty() && st.has_async && mpi.rank() == 0) {
      TuningCache::store(opt.tuning_cache, key, d.chosen);
    }
    engine.run(d.chosen, st.cycles);
  }

  engine.report(res, start);
  return res;
}

Result collective_read(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                       std::span<std::byte> out, const Options& opt) {
  view.validate();
  Result res;
  const sim::Time start = mpi.ctx().now();
  // The metadata phase is collective_write's: under hierarchy, read lane
  // leaders pull their lane's views as write leaders do.
  PhaseTimings t;
  const std::shared_ptr<const Plan> plan =
      MetadataExchange(mpi, view).plan(file.stripe_size(), opt);
  t.meta += mpi.ctx().now() - start;

  Engine engine(kRead, mpi, file, *plan, out, opt, t);
  engine.run(opt.overlap);
  engine.report(res, start);
  return res;
}

void Engine::report(Result& res, sim::Time start) {
  t_.total = mpi_.ctx().now() - start;
  res.timings = t_;
  res.faults = io_.faults();
  res.io_error = io_.io_error();
  res.forward_lifetime = fwd_lifetime_;
  res.forward_blocked = fwd_blocked_;
  res.aggregators = plan_.num_aggregators();
  res.cycles = plan_.num_cycles();
  res.bytes_local = user_.size();
  res.bytes_global = plan_.global_bytes();
}

}  // namespace tpio::coll
