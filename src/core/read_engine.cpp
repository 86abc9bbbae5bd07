#include "core/read_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/io_path.hpp"
#include "core/metadata.hpp"
#include "core/segcopy.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/error.hpp"

namespace tpio::coll {

namespace {

/// Scatter tags live in their own space so interleaved collective writes
/// and reads on one machine can never cross-match.
smpi::Tag scatter_tag(int cycle) {
  return static_cast<smpi::Tag>(cycle) | (smpi::Tag{1} << 30);
}

}  // namespace

ReadEngine::ReadEngine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
                       std::span<std::byte> local_out, const Options& opt,
                       PhaseTimings& timings)
    : mpi_(mpi),
      file_(file),
      plan_(plan),
      out_(local_out),
      opt_(opt),
      t_(timings) {
  TPIO_CHECK(opt.transfer == Transfer::TwoSided,
             "collective read implements the two-sided scatter only");
  TPIO_CHECK(out_.size() == plan.view(mpi.rank()).total_bytes(),
             "output buffer size does not match the file view");
  my_agg_ = plan_.agg_index(mpi_.rank());
  node_ = mpi_.machine().fabric().topology().node_of(mpi_.rank());
  if (my_agg_ >= 0) {
    const int nslots = opt_.overlap == OverlapMode::None ? 1 : 2;
    for (int s = 0; s < nslots; ++s) {
      // start_read always defines every byte of the span it is handed
      // (zero-fill plus stored-content overlay), so the pooled sub-buffer
      // needs no zeroing even with materialized contents.
      slots_[s].cb = sim::BufferPool::local().acquire(
          plan_.sub_buffer_bytes(), /*zeroed=*/false);
    }
  }
}

// ---------------------------------------------------------------------------
// File access phase
// ---------------------------------------------------------------------------

void ReadEngine::retry_backoff(int cycle, int attempt) {
  ++faults_.retries;
  const sim::Duration d =
      backoff_delay(opt_, file_.faults().params().seed, /*salt=*/0x5EB0FF,
                    mpi_.rank(), cycle, attempt);
  timed(mpi_.ctx(), t_.backoff, [&] { mpi_.ctx().advance(d); });
}

void ReadEngine::give_up(int cycle) {
  ++faults_.giveups;
  if (io_error_.empty()) {
    io_error_ = "collective read gave up after " +
                std::to_string(opt_.max_retries + 1) + " attempts (cycle " +
                std::to_string(cycle) + ", rank " +
                std::to_string(mpi_.rank()) + ")";
  }
}

void ReadEngine::read_attempts(int cycle, int slot, const Plan::Range& r,
                               int first) {
  Slot& s = slots_[slot];
  for (int attempt = first;; ++attempt) {
    if (attempt > opt_.max_retries + 1) {
      give_up(cycle);
      return;
    }
    if (attempt > first) retry_backoff(cycle, attempt - 1);
    pfs::IoStatus st = pfs::IoStatus::Ok;
    timed(mpi_.ctx(), t_.write, [&] {
      pfs::WriteOp op = file_.start_read(
          mpi_.ctx(), node_, r.begin, s.cb.span().subspan(0, r.size()),
          /*async=*/false, attempt);
      mpi_.set_unavailable_until(op.completion());
      st = file_.wait(mpi_.ctx(), op);
    });
    if (st == pfs::IoStatus::Ok) return;
  }
}

void ReadEngine::read_init(int cycle, int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.rd.valid(), "read_init with an outstanding read on slot");
  TPIO_CHECK(!s.sc.pending,
             "read_init into a sub-buffer still being scattered");
  s.rd_cycle = cycle;
  if (my_agg_ < 0) return;
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  if (r.size() == 0) return;
  timed(mpi_.ctx(), t_.write, [&] {
    s.rd = file_.start_read(mpi_.ctx(), node_, r.begin,
                            s.cb.span().subspan(0, r.size()),
                            /*async=*/true);
  });
}

void ReadEngine::read_wait(int slot) {
  Slot& s = slots_[slot];
  if (!s.rd.valid()) return;
  pfs::IoStatus st = pfs::IoStatus::Ok;
  timed(mpi_.ctx(), t_.write, [&] { st = file_.wait(mpi_.ctx(), s.rd); });
  if (st == pfs::IoStatus::Ok) return;
  // The asynchronous attempt bounced; re-read the cycle's range blocking
  // (the sub-buffer is only consumed after this wait), continuing the
  // attempt numbering so the fault oracle sees the retry as attempt 2.
  const Plan::Range r = plan_.cycle_range(my_agg_, s.rd_cycle);
  retry_backoff(s.rd_cycle, 1);
  read_attempts(s.rd_cycle, slot, r, /*first=*/2);
}

void ReadEngine::read_blocking(int cycle, int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.rd.valid(), "blocking read with an outstanding read on slot");
  TPIO_CHECK(!s.sc.pending,
             "blocking read into a sub-buffer still being scattered");
  s.rd_cycle = cycle;
  if (my_agg_ < 0) return;
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  if (r.size() == 0) return;
  read_attempts(cycle, slot, r);
}

// ---------------------------------------------------------------------------
// Scatter (shuffle) phase
// ---------------------------------------------------------------------------

void ReadEngine::scatter_init(int cycle, int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.sc.pending, "scatter_init while a scatter is pending on slot");
  TPIO_CHECK(!s.rd.valid(),
             "scatter_init from a sub-buffer with an outstanding read");
  TPIO_CHECK(my_agg_ < 0 || s.rd_cycle == cycle,
             "scatter_init without the cycle's data in the sub-buffer");
  s.sc.clear();  // keeps vector capacity: steady-state cycles don't allocate
  s.sc.cycle = cycle;
  s.sc.pending = true;
  const int me = mpi_.rank();
  const smpi::Tag tag = scatter_tag(cycle);
  const int A = plan_.num_aggregators();
  s.sc.reqs.reserve(static_cast<std::size_t>(A) +
                    (my_agg_ >= 0 ? static_cast<std::size_t>(mpi_.size()) : 0));

  // Receive side first (pre-post): one message per aggregator that holds
  // pieces of this rank's view in this cycle. The pieces of a cycle range
  // form one contiguous local run (segcopy.hpp), so the message lands
  // straight in the output buffer; the unpack CPU of a multi-segment
  // message is still charged at scatter_wait.
  for (int a = 0; a < A; ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    const auto segs = plan_.segments_in(me, r.begin, r.end);
    if (segs.empty()) continue;
    const segcopy::LocalRun run = segcopy::local_run(segs);
    TPIO_CHECK(run.ok, "a cycle range's pieces must form one local run");
    if (segs.size() > 1) {
      s.sc.unpack_segs += segs.size();
      s.sc.unpack_bytes += run.total;
    }
    const std::span<std::byte> dest = out_.subspan(run.local_offset, run.total);
    timed(mpi_.ctx(), t_.shuffle, [&] {
      s.sc.reqs.push_back(mpi_.irecv(plan_.agg_rank(a), tag, dest));
    });
  }

  // Send side (aggregators): each destination's pieces, gathered from the
  // collective buffer; destinations whose pieces are contiguous in the
  // file go zero-copy (a slice of the sub-buffer), scattered ones are
  // packed with one copy per file-contiguous run.
  if (my_agg_ >= 0) {
    const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
    std::span<std::byte> cb = s.cb.span();
    s.sc.send_bufs.reserve(static_cast<std::size_t>(mpi_.size()));
    for (int dst = 0; dst < mpi_.size(); ++dst) {
      const auto segs = plan_.segments_in(dst, r.begin, r.end);
      if (segs.empty()) continue;
      std::uint64_t total = segs[0].length;
      bool file_run = true;
      for (std::size_t i = 1; i < segs.size(); ++i) {
        total += segs[i].length;
        file_run = file_run && segs[i].file_offset == segs[i - 1].file_offset +
                                                          segs[i - 1].length;
      }
      std::span<const std::byte> payload;
      if (file_run) {
        // The message is a contiguous slice of the sub-buffer (always so
        // for one piece); the slice is stable until this slot's
        // scatter_wait.
        payload = cb.subspan(segs[0].file_offset - r.begin, total);
      } else {
        sim::BufferPool::Buffer buf =
            sim::BufferPool::local().acquire(total, /*zeroed=*/false);
        if (opt_.materialize) {
          std::uint64_t pos = 0;
          segcopy::for_file_runs(
              segs, [&](std::size_t, std::size_t, std::uint64_t off,
                        std::uint64_t len) {
                std::memcpy(buf.data() + pos, cb.data() + (off - r.begin),
                            len);
                pos += len;
              });
        }
        s.sc.send_bufs.push_back(std::move(buf));
        payload = s.sc.send_bufs.back().span();
      }
      if (segs.size() > 1) {
        timed(mpi_.ctx(), t_.pack,
              [&] { mpi_.ctx().advance(pack_cost(opt_, segs.size(), total)); });
      }
      timed(mpi_.ctx(), t_.shuffle,
            [&] { s.sc.reqs.push_back(mpi_.isend(dst, tag, payload)); });
    }
  }
}

void ReadEngine::scatter_wait(int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(s.sc.pending, "scatter_wait without a pending scatter");
  s.sc.pending = false;
  timed(mpi_.ctx(), t_.shuffle, [&] { mpi_.waitall(s.sc.reqs); });
  if (s.sc.unpack_segs > 0) {
    timed(mpi_.ctx(), t_.pack, [&] {
      mpi_.ctx().advance(pack_cost(opt_, s.sc.unpack_segs, s.sc.unpack_bytes));
    });
  }
  s.sc.clear();
}

void ReadEngine::scatter_blocking(int cycle, int slot) {
  scatter_init(cycle, slot);
  scatter_wait(slot);
}

// ---------------------------------------------------------------------------
// Schedulers (mirrors of the write engine's Algorithms 1-4)
// ---------------------------------------------------------------------------

void ReadEngine::run() {
  if (plan_.num_cycles() == 0) return;
  switch (opt_.overlap) {
    case OverlapMode::None: run_none(); break;
    case OverlapMode::Comm: run_comm(); break;
    case OverlapMode::Write: run_read_ahead(); break;
    case OverlapMode::WriteComm: run_read_comm(); break;
    case OverlapMode::WriteComm2: run_read_comm2(); break;
    // Probe-based selection is a write-side feature (the paper's analysis
    // is of collective writes); reads fall back to the data-flow scheduler.
    case OverlapMode::Auto: run_read_comm2(); break;
  }
}

void ReadEngine::run_none() {
  for (int c = 0; c < plan_.num_cycles(); ++c) {
    read_blocking(c, 0);
    scatter_blocking(c, 0);
  }
}

void ReadEngine::run_comm() {
  // Non-blocking scatter of cycle c overlaps the blocking read of c+1.
  const int N = plan_.num_cycles();
  read_blocking(0, slot_of(0));
  for (int c = 0; c < N; ++c) {
    scatter_init(c, slot_of(c));
    if (c + 1 < N) read_blocking(c + 1, slot_of(c + 1));
    scatter_wait(slot_of(c));
  }
}

void ReadEngine::run_read_ahead() {
  // Asynchronous read of cycle c+1 behind the blocking scatter of c.
  const int N = plan_.num_cycles();
  read_init(0, slot_of(0));
  for (int c = 0; c < N; ++c) {
    read_wait(slot_of(c));
    if (c + 1 < N) read_init(c + 1, slot_of(c + 1));
    scatter_blocking(c, slot_of(c));
  }
}

void ReadEngine::run_read_comm() {
  // Joint wait of the in-flight read and scatter each iteration.
  const int N = plan_.num_cycles();
  read_blocking(0, slot_of(0));
  for (int c = 0; c < N; ++c) {
    scatter_init(c, slot_of(c));
    if (c + 1 < N) read_init(c + 1, slot_of(c + 1));
    if (c + 1 < N) read_wait(slot_of(c + 1));
    scatter_wait(slot_of(c));
  }
}

void ReadEngine::run_read_comm2() {
  // Data-flow: a completed read immediately posts its scatter; a completed
  // scatter immediately frees its slot for the next read.
  const int N = plan_.num_cycles();
  read_blocking(0, slot_of(0));
  scatter_init(0, slot_of(0));
  if (N > 1) read_init(1, slot_of(1));
  for (int c = 1; c < N; ++c) {
    read_wait(slot_of(c));
    scatter_init(c, slot_of(c));
    scatter_wait(slot_of(c - 1));
    if (c + 1 < N) read_init(c + 1, slot_of(c + 1));
  }
  scatter_wait(slot_of(N - 1));
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
