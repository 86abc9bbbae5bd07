#include "core/read_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/io_path.hpp"
#include "core/metadata.hpp"
#include "core/segcopy.hpp"
#include "core/trace.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/error.hpp"

namespace tpio::coll {

namespace {

/// Scatter tags live in their own space so interleaved collective writes
/// and reads on one machine can never cross-match.
smpi::Tag scatter_tag(int cycle) {
  return static_cast<smpi::Tag>(cycle) | (smpi::Tag{1} << 30);
}

constexpr FileDirection kReadDirection{
    .write = false, .salt = 0x5EB0FF, .init = "read_init", .wait = "read_wait",
    .blocking = "read_blocking", .retry = "read_retry",
    .giveup = "read_giveup", .degraded = "read_degraded"};

using ReadStage = Stage<ReadEngine, &ReadEngine::read_init,
                        &ReadEngine::read_wait, &ReadEngine::read_blocking>;
using ScatterStage =
    Stage<ReadEngine, &ReadEngine::scatter_init, &ReadEngine::scatter_wait,
          &ReadEngine::scatter_blocking>;

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

ReadEngine::ReadEngine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
                       std::span<std::byte> local_out, const Options& opt,
                       PhaseTimings& timings)
    : mpi_(mpi),
      file_(file),
      plan_(plan),
      out_(local_out),
      opt_(opt),
      t_(timings),
      io_(mpi, file, plan, opt, timings, kReadDirection) {
  if (const char* refusal = read_refusal(opt)) fail(refusal);
  TPIO_CHECK(out_.size() == plan.view(mpi.rank()).total_bytes(),
             "output buffer size does not match the file view");
  my_agg_ = plan_.agg_index(mpi_.rank());
  if (my_agg_ >= 0) {
    for (int s = 0; s < num_slots(opt_.overlap); ++s) {
      // start_read always defines every byte of the span it is handed
      // (zero-fill plus stored-content overlay), so the pooled sub-buffer
      // needs no zeroing even with materialized contents.
      slots_[s].cb = sim::BufferPool::local().acquire(
          plan_.sub_buffer_bytes(), sim::BufferPool::Contents::overwritten);
    }
  }
}

// ---------------------------------------------------------------------------
// File access phase
// ---------------------------------------------------------------------------

void ReadEngine::read_init(int cycle, int slot) {
  TPIO_CHECK(!slots_[slot].sc.pending,
             "read_init into a sub-buffer still being scattered");
  io_.init(cycle, slot, slots_[slot].cb.span());
}

void ReadEngine::read_wait(int slot) { io_.wait(slot); }

void ReadEngine::read_blocking(int cycle, int slot) {
  TPIO_CHECK(!slots_[slot].sc.pending,
             "blocking read into a sub-buffer still being scattered");
  io_.blocking(cycle, slot, slots_[slot].cb.span());
}

// ---------------------------------------------------------------------------
// Scatter (shuffle) phase
// ---------------------------------------------------------------------------

void ReadEngine::scatter_init(int cycle, int slot) {
  ScopedTraceEvent ev(opt_.trace, "scatter_init", cycle, mpi_.ctx());
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.sc.pending, "scatter_init while a scatter is pending on slot");
  TPIO_CHECK(!io_.in_flight(slot),
             "scatter_init from a sub-buffer with an outstanding read");
  TPIO_CHECK(my_agg_ < 0 || io_.cycle(slot) == cycle,
             "scatter_init without the cycle's data in the sub-buffer");
  s.sc.clear();  // keeps vector capacity: steady-state cycles don't allocate
  s.sc.cycle = cycle;
  s.sc.pending = true;
  const int me = mpi_.rank();
  const smpi::Tag tag = scatter_tag(cycle);
  // The domain-overlap index bounds both walks: the aggregators this
  // rank's pieces may come from, and the ranks an aggregator may scatter
  // to (Plan::aggs_of / sources_of), each visited in ascending order.
  const auto [a0, a1] = plan_.aggs_of(me);
  const std::span<const int> dsts =
      my_agg_ >= 0 ? plan_.sources_of(my_agg_) : std::span<const int>{};
  s.sc.reqs.reserve(static_cast<std::size_t>(a1 - a0) + dsts.size());

  // Receive side first (pre-post): one message per aggregator that holds
  // pieces of this rank's view in this cycle. The pieces of a cycle range
  // form one contiguous local run (SegmentRange), so the message lands
  // straight in the output buffer; the unpack CPU of a multi-segment
  // message is still charged at scatter_wait.
  for (int a = a0; a < a1; ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    const SegmentRange pieces = plan_.segments_in(me, r.begin, r.end);
    if (pieces.empty()) continue;
    const std::span<std::byte> dest =
        out_.subspan(pieces.local_offset(), pieces.bytes());
    if (pieces.size() > 1) {
      s.sc.unpack_segs += pieces.size();
      s.sc.unpack_bytes += dest.size();
    }
    timed(mpi_.ctx(), t_.shuffle, [&] {
      s.sc.reqs.push_back(mpi_.irecv(plan_.agg_rank(a), tag, dest));
    });
  }

  // Send side (aggregators): each destination's pieces, gathered from the
  // collective buffer; destinations whose pieces are contiguous in the
  // file (first piece to last spans exactly their bytes) go zero-copy (a
  // slice of the sub-buffer), scattered ones are packed with one copy per
  // file-contiguous run.
  if (my_agg_ >= 0) {
    const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
    std::span<std::byte> cb = s.cb.span();
    s.sc.send_bufs.reserve(dsts.size());
    for (const int dst : dsts) {
      const SegmentRange pieces = plan_.segments_in(dst, r.begin, r.end);
      if (pieces.empty()) continue;
      const std::uint64_t total = pieces.bytes();
      const std::uint64_t first = pieces.front().file_offset;
      const Segment last = pieces.back();
      std::span<const std::byte> payload;
      if (last.file_offset + last.length - first == total) {
        // The message is a contiguous slice of the sub-buffer (always so
        // for one piece); the slice is stable until this slot's
        // scatter_wait.
        payload = cb.subspan(first - r.begin, total);
      } else {
        sim::BufferPool::Buffer buf = sim::BufferPool::local().acquire(
            total, sim::BufferPool::Contents::overwritten);
        if (opt_.materialize) {
          std::uint64_t pos = 0;
          segcopy::for_file_runs(
              pieces, [&](std::size_t, std::size_t, std::uint64_t off,
                          std::uint64_t len) {
                std::memcpy(buf.data() + pos, cb.data() + (off - r.begin),
                            len);
                pos += len;
              });
        }
        s.sc.send_bufs.push_back(std::move(buf));
        payload = s.sc.send_bufs.back().span();
      }
      if (pieces.size() > 1) {
        timed(mpi_.ctx(), t_.pack,
              [&] { mpi_.ctx().advance(pack_cost(pieces.size(), total)); });
      }
      timed(mpi_.ctx(), t_.shuffle,
            [&] { s.sc.reqs.push_back(mpi_.isend(dst, tag, payload)); });
    }
  }
}

void ReadEngine::scatter_wait(int slot) {
  ScopedTraceEvent ev(opt_.trace, "scatter_wait", slots_[slot].sc.cycle,
                      mpi_.ctx());
  Slot& s = slots_[slot];
  TPIO_CHECK(s.sc.pending, "scatter_wait without a pending scatter");
  s.sc.pending = false;
  timed(mpi_.ctx(), t_.shuffle, [&] { mpi_.waitall(s.sc.reqs); });
  if (s.sc.unpack_segs > 0) {
    timed(mpi_.ctx(), t_.pack, [&] {
      mpi_.ctx().advance(pack_cost(s.sc.unpack_segs, s.sc.unpack_bytes));
    });
  }
  s.sc.clear();
}

void ReadEngine::scatter_blocking(int cycle, int slot) {
  scatter_init(cycle, slot);
  scatter_wait(slot);
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

void ReadEngine::run() {
  ReadStage read{*this};
  ScatterStage scatter{*this};
  run_pipeline(read, scatter, opt_.overlap, /*file_first=*/true, 0,
               plan_.num_cycles(), num_slots(opt_.overlap));
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

Result collective_read(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                       std::span<std::byte> out, const Options& opt) {
  view.validate();
  TPIO_CHECK(out.size() == view.total_bytes(),
             "output buffer size does not match the file view");

  Result res;
  const sim::Time start = mpi.ctx().now();
  PhaseTimings t;
  const sim::Time meta_start = mpi.ctx().now();

  // Two-stage metadata exchange, shared with collective_write: summaries
  // first (fixed 32B per rank), then full views only to the aggregators
  // that scatter over every destination view. The read path is flat (no
  // lane routing), so non-aggregators keep just their own view.
  const std::shared_ptr<const Plan> plan =
      MetadataExchange(mpi, view)
          .plan(file.stripe_size(), opt, /*lane_routing=*/false);
  t.meta += mpi.ctx().now() - meta_start;

  ReadEngine engine(mpi, file, *plan, out, opt, t);
  engine.run();

  t.total = mpi.ctx().now() - start;
  res.timings = t;
  res.faults = engine.fault_stats();
  res.io_error = engine.io_error();
  res.aggregators = plan->num_aggregators();
  res.cycles = plan->num_cycles();
  res.bytes_local = view.total_bytes();
  res.bytes_global = plan->global_bytes();
  return res;
}

}  // namespace tpio::coll
