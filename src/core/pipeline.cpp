#include "core/pipeline.hpp"

#include "core/io_path.hpp"
#include "core/trace.hpp"

namespace tpio::coll {

FileStage::FileStage(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
                     const Options& opt, PhaseTimings& timings,
                     const Direction& dir)
    : mpi_(mpi), file_(file), plan_(plan), opt_(opt), t_(timings), dir_(dir) {
  // Materialized contents must travel through the shuffle: on a size-only
  // Machine a verified run would check bytes that never moved.
  TPIO_CHECK(!opt_.materialize || mpi_.machine().payloads(),
             "Options::materialize == true requires a Machine built with "
             "payloads (this one carries message sizes only)");
  my_agg_ = plan_.agg_index(mpi_.rank());
  node_ = mpi_.machine().fabric().topology().node_of(mpi_.rank());
}

bool FileStage::bind(Slot& s, int cycle, std::span<std::byte> cb) {
  s.cycle = cycle;
  if (my_agg_ < 0) return false;
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  if (r.size() == 0) return false;
  s.offset = r.begin;
  s.buf = cb.subspan(0, r.size());
  return true;
}

pfs::WriteOp FileStage::start(const Slot& s, bool async, int attempt) {
  if (dir_.write) {
    return file_.start_write(mpi_.ctx(), node_, s.offset, s.buf, async,
                             attempt);
  }
  return file_.start_read(mpi_.ctx(), node_, s.offset, s.buf, async, attempt);
}

void FileStage::init(int cycle, int slot, std::span<std::byte> cb) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.op.valid(), "file access init with one in flight on slot");
  if (!bind(s, cycle, cb)) return;
  if (degraded_) {
    // Degraded mode: the aio path on this aggregator is pathological —
    // drain the cycle blocking instead of queueing behind the straggler.
    // The scheduler's later wait finds nothing in flight.
    ++faults_.degraded_cycles;
    ScopedTraceEvent ev(opt_.trace, dir_.degraded, cycle, mpi_.ctx());
    attempts(s, 1);
    return;
  }
  ScopedTraceEvent ev(opt_.trace, dir_.init, cycle, mpi_.ctx());
  s.submit = mpi_.ctx().now();
  timed(mpi_.ctx(), t_.write, [&] { s.op = start(s, /*async=*/true, 1); });
}

void FileStage::wait(int slot) {
  Slot& s = slots_[slot];
  if (!s.op.valid()) return;  // nothing in flight: no trace event
  pfs::IoStatus st = pfs::IoStatus::Ok;
  {
    ScopedTraceEvent ev(opt_.trace, dir_.wait, s.cycle, mpi_.ctx());
    const sim::Time done = s.op.completion();
    timed(mpi_.ctx(), t_.write, [&] { st = file_.wait(mpi_.ctx(), s.op); });
    if (st == pfs::IoStatus::Ok) {
      observe(s.cycle, done - s.submit, s.buf.size());
    }
  }
  // A bounced asynchronous attempt is re-issued blocking from the slot,
  // whose bytes the scheduler leaves alone until this wait returns: the
  // pipeline is already stalled on this cycle, and queueing another aio
  // behind a flaky server helps nobody. The attempt numbering continues,
  // so the fault oracle sees the first re-issue as attempt 2.
  if (st != pfs::IoStatus::Ok) attempts(s, 2);
}

void FileStage::blocking(int cycle, int slot, std::span<std::byte> cb) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.op.valid(), "blocking file access with one in flight on slot");
  if (!bind(s, cycle, cb)) return;
  ScopedTraceEvent ev(opt_.trace, dir_.blocking, cycle, mpi_.ctx());
  attempts(s, 1);
}

void FileStage::attempts(const Slot& s, int first) {
  for (int attempt = first;; ++attempt) {
    if (attempt > opt_.max_retries + 1) {
      give_up(first == 1 ? "blocking " : "async ", s.cycle);
      return;
    }
    if (attempt > 1) backoff(s.cycle, attempt - 1);
    // Each recovery re-issue is its own blocking event; a blocking access
    // is one event around all its attempts, recorded by the caller.
    ScopedTraceEvent ev(first > 1 ? opt_.trace : nullptr, dir_.blocking,
                        s.cycle, mpi_.ctx());
    pfs::IoStatus st = pfs::IoStatus::Ok;
    timed(mpi_.ctx(), t_.write, [&] {
      pfs::WriteOp op = start(s, /*async=*/false, attempt);
      // A blocking access keeps this rank out of the MPI progress engine
      // for its whole duration — the effect the paper identifies as the
      // weakness of communication-only overlap.
      mpi_.set_unavailable_until(op.completion());
      st = file_.wait(mpi_.ctx(), op);
    });
    if (st == pfs::IoStatus::Ok) return;
  }
}

void FileStage::backoff(int cycle, int attempt) {
  ++faults_.retries;
  const sim::Duration d =
      backoff_delay(opt_, file_.faults().params().seed, dir_.salt,
                    mpi_.rank(), cycle, attempt);
  ScopedTraceEvent ev(opt_.trace, dir_.retry, cycle, mpi_.ctx());
  timed(mpi_.ctx(), t_.backoff, [&] { mpi_.ctx().advance(d); });
}

void FileStage::give_up(const char* how, int cycle) {
  ++faults_.giveups;
  if (io_error_.empty()) {
    io_error_ = std::string(how) + (dir_.write ? "write" : "read") +
                " gave up after " + std::to_string(opt_.max_retries + 1) +
                " attempts (cycle " + std::to_string(cycle) + ", rank " +
                std::to_string(mpi_.rank()) + ")";
  }
  ScopedTraceEvent{opt_.trace, dir_.giveup, cycle, mpi_.ctx()};
}

void FileStage::observe(int cycle, sim::Duration d, std::uint64_t bytes) {
  if (opt_.degrade_slowdown <= 1.0 || degraded_ || bytes == 0) return;
  const double per_byte = static_cast<double>(d) / static_cast<double>(bytes);
  if (best_ns_per_byte_ <= 0.0 || per_byte < best_ns_per_byte_) {
    best_ns_per_byte_ = per_byte;
    return;
  }
  if (per_byte > opt_.degrade_slowdown * best_ns_per_byte_) {
    // This aggregator's storage path has gone pathological (straggling
    // server): abandon the aio pipeline, drain remaining cycles blocking.
    degraded_ = true;
    ScopedTraceEvent{opt_.trace, "degrade", cycle, mpi_.ctx()};
  }
}

}  // namespace tpio::coll
