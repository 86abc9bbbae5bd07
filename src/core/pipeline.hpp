#pragma once

// The two-stage cycle pipeline of the collective engine in both directions
// (internal to src/core): shuffle -> write for a collective write, read ->
// scatter for a collective read, double-buffered over two collective
// sub-buffers ("slots"). run_pipeline() holds the five schedules;
// FileStage is the file access with its retry policy (docs/FAULTS.md).

#include <cstdint>
#include <span>
#include <string>

#include "core/plan.hpp"
#include "core/types.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"
#include "simbase/error.hpp"

namespace tpio::coll {

/// Sub-buffers an engine allocates: one for the classic two-phase
/// baseline, two (double buffering) for every overlapping mode.
inline int num_slots(OverlapMode configured) {
  return configured == OverlapMode::None ? 1 : 2;
}

/// A pipeline stage made of three phase methods of engine `E`: init(cycle,
/// slot) starts the stage's work on a slot, wait(slot) completes it, and
/// blocking(cycle, slot) is the synchronous form, which need not be init +
/// wait (a blocking file access keeps the rank out of MPI progress). The
/// methods are template arguments, never type-erased callables: the
/// pipeline runs on every rank's fiber stack, and each call compiles to a
/// direct one.
template <class E, void (E::*Init)(int, int), void (E::*Wait)(int),
          void (E::*Blocking)(int, int)>
struct Stage {
  E& engine;
  void init(int cycle, int slot) { (engine.*Init)(cycle, slot); }
  void wait(int slot) { (engine.*Wait)(slot); }
  void blocking(int cycle, int slot) { (engine.*Blocking)(cycle, slot); }
};

/// Run cycles [first, n) through stage `in`, which fills a slot, then stage
/// `out`, which drains it, in the order of the fixed overlap mode `mode`.
/// `Comm` overlaps the communication stage and `Write` the file stage;
/// `file_first` says which of the two `in` is (a read: read -> scatter).
/// `first` > 0 is the Auto continuation: the probe cycles before it ran
/// blocking, so both slots are quiescent and any mode can take over.
template <class In, class Out>
void run_pipeline(In& in, Out& out, OverlapMode mode, bool file_first,
                  int first, int n, int nslots) {
  if (first >= n) return;
  const auto slot = [nslots](int c) { return nslots == 1 ? 0 : c % 2; };
  switch (mode) {
    case OverlapMode::None:
      // Classic two-phase: fully serial. As the Auto continuation the plan
      // keeps the split-buffer geometry, so slots alternate; every
      // operation is blocking either way.
      for (int c = first; c < n; ++c) {
        in.blocking(c, slot(c));
        out.blocking(c, slot(c));
      }
      return;
    case OverlapMode::Comm:
    case OverlapMode::Write:
      // The overlapped stage (Comm: communication, Write: file) is `in`
      // for a write's Comm and a read's Write, `out` otherwise.
      if ((mode == OverlapMode::Write) == file_first) {
        // Algorithm 1's shape (a write's Communication Overlap, a read's
        // read-ahead): `in` of cycle c+1 is posted before `in` of cycle c
        // is waited on, and runs behind the blocking `out` of cycle c.
        in.init(first, slot(first));
        for (int c = first; c + 1 < n; ++c) {
          in.init(c + 1, slot(c + 1));
          in.wait(slot(c));
          out.blocking(c, slot(c));
        }
        in.wait(slot(n - 1));
        out.blocking(n - 1, slot(n - 1));
      } else {
        // Algorithm 2's shape (a write's Write Overlap, a read's
        // communication overlap): blocking `in`; `out` of cycle c is posted
        // before `out` of cycle c-1 is waited on, so it drains behind the
        // next `in`.
        in.blocking(first, slot(first));
        out.init(first, slot(first));
        for (int c = first + 1; c < n; ++c) {
          in.blocking(c, slot(c));
          out.init(c, slot(c));
          out.wait(slot(c - 1));
        }
        out.wait(slot(n - 1));
      }
      return;
    case OverlapMode::WriteComm:
      // Algorithm 3 (Write-Communication Overlap): `out` of cycle c and
      // `in` of cycle c+1 posted together, then a joint wait. Completing
      // `in` first lets a write's aggregator-side unpack overlap the tail
      // of the in-flight write.
      in.blocking(first, slot(first));
      for (int c = first; c < n; ++c) {
        out.init(c, slot(c));
        if (c + 1 < n) {
          in.init(c + 1, slot(c + 1));
          in.wait(slot(c + 1));
        }
        out.wait(slot(c));
      }
      return;
    case OverlapMode::WriteComm2:
      // Algorithm 4 (Write-Communication-2 Overlap), data-flow
      // interpretation: the completion of any non-blocking operation
      // immediately posts its follow-up (`out` after its `in`, `in` after
      // the `out` that frees its slot) instead of Algorithm 3's joint wait.
      // The paper's listing contains an apparent typo (line 11 re-issues
      // write_init(p1) right before waiting on it); this is the stated
      // intent — see DESIGN.md, "Notes on fidelity".
      in.blocking(first, slot(first));
      out.init(first, slot(first));
      if (first + 1 < n) in.init(first + 1, slot(first + 1));
      for (int c = first + 1; c < n; ++c) {
        in.wait(slot(c));       // in c finished ...
        out.init(c, slot(c));   // ... so its out posts immediately
        out.wait(slot(c - 1));  // out c-1 frees its slot ...
        if (c + 1 < n) in.init(c + 1, slot(c + 1));  // ... so in c+1 posts
      }
      out.wait(slot(n - 1));
      return;
    case OverlapMode::Auto:
      break;  // not a fixed schedule
  }
  tpio::fail("the pipeline needs a fixed overlap mode");
}

/// What a direction supplies to both stages: the file stage (FileStage)
/// and the engine's communication stage.
struct Direction {
  bool write;          // File::start_write, else File::start_read
  std::uint64_t salt;  // backoff jitter salt (io_path.hpp)
  smpi::Tag tags;      // the direction's tag space, OR'd into every tag
  // Trace event names.
  const char* init;
  const char* wait;
  const char* blocking;  // a blocking access, or one recovery re-issue
  const char* retry;     // backoff before a re-issue
  const char* giveup;
  const char* degraded;  // one cycle drained blocking in degraded mode
  const char* shuffle_init;
  const char* shuffle_wait;
};

/// A collective write: shuffle -> write.
inline constexpr Direction kWrite{
    .write = true, .salt = 0xB0FF, .tags = 0, .init = "write_init",
    .wait = "write_wait", .blocking = "write_blocking",
    .retry = "write_retry", .giveup = "write_giveup",
    .degraded = "write_degraded", .shuffle_init = "shuffle_init",
    .shuffle_wait = "shuffle_wait"};
/// A collective read: read -> shuffle (the scatter), in a tag space of its
/// own so that interleaved writes and reads never cross-match.
inline constexpr Direction kRead{
    .write = false, .salt = 0x5EB0FF, .tags = smpi::Tag{1} << 30,
    .init = "read_init", .wait = "read_wait", .blocking = "read_blocking",
    .retry = "read_retry", .giveup = "read_giveup",
    .degraded = "read_degraded", .shuffle_init = "scatter_init",
    .shuffle_wait = "scatter_wait"};

/// The aggregator's file access, in either direction: each cycle moves the
/// aggregator's slice of its file domain between the file and a slot's
/// sub-buffer, asynchronously (init + wait) or blocking. Non-aggregators
/// and empty cycles do nothing and record no event.
///
/// A transiently failed attempt (pfs::FaultParams) is re-issued blocking
/// after a deterministic exponential backoff (io_path.hpp), up to
/// Options::max_retries times, then abandoned: a give-up counted in
/// faults() and described in io_error(). With Options::degrade_slowdown
/// set, an aggregator that sees one asynchronous access cost more per byte
/// than that factor times its best latches degraded mode and drains every
/// later cycle blocking. All of it derives from seeds and virtual-time
/// observations only, so runs are bit-identical at any worker count.
class FileStage {
 public:
  /// `opt` and `timings` must outlive the stage; accesses are timed into
  /// PhaseTimings::write and backoffs into PhaseTimings::backoff.
  FileStage(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
            const Options& opt, PhaseTimings& timings, const Direction& dir);

  /// Start the asynchronous access of `cycle` through `cb`, the slot's
  /// sub-buffer, which must stay untouched until wait(slot).
  void init(int cycle, int slot, std::span<std::byte> cb);
  /// Complete the slot's asynchronous access; a failed one is re-issued
  /// blocking. No-op when nothing is in flight on the slot.
  void wait(int slot);
  /// Blocking access of `cycle` through `cb`.
  void blocking(int cycle, int slot, std::span<std::byte> cb);

  /// An asynchronous access is in flight on the slot.
  bool in_flight(int slot) const { return slots_[slot].op.valid(); }
  /// Cycle of the slot's latest access (-1 before the first).
  int cycle(int slot) const { return slots_[slot].cycle; }
  const Direction& direction() const { return dir_; }

  /// Retry/give-up/degradation counters (all zero on a fault-free run).
  const FaultStats& faults() const { return faults_; }
  /// First give-up description; empty when every access succeeded.
  const std::string& io_error() const { return io_error_; }

 private:
  struct Slot {
    pfs::WriteOp op;            // in-flight asynchronous access, if any
    int cycle = -1;
    std::uint64_t offset = 0;   // file offset of the latest access
    std::span<std::byte> buf;   // its bytes; retries re-issue through it
    sim::Time submit = 0;       // issue time of the asynchronous access
  };

  /// Point the slot at `cycle`'s range; false when this rank has nothing
  /// to access in it.
  bool bind(Slot& s, int cycle, std::span<std::byte> cb);
  pfs::WriteOp start(const Slot& s, bool async, int attempt);
  /// Blocking attempts `first`, `first` + 1, ... until one succeeds or the
  /// retry budget is spent.
  void attempts(const Slot& s, int first);
  void backoff(int cycle, int attempt);
  void give_up(const char* how, int cycle);
  /// Feed the degraded-mode detector one completed asynchronous access.
  void observe(int cycle, sim::Duration d, std::uint64_t bytes);

  smpi::Mpi& mpi_;
  pfs::File& file_;
  const Plan& plan_;
  const Options& opt_;
  PhaseTimings& t_;
  const Direction& dir_;
  int my_agg_ = -1;
  int node_ = 0;
  FaultStats faults_;
  std::string io_error_;
  bool degraded_ = false;
  double best_ns_per_byte_ = 0.0;  // 0 = no observation yet
  Slot slots_[2];
};

}  // namespace tpio::coll
