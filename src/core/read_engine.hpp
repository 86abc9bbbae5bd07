#pragma once

#include <span>

#include "core/plan.hpp"
#include "core/types.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"
#include "simbase/bufpool.hpp"

namespace tpio::coll {

/// Two-phase collective read — the mirror of the write engine and the
/// extension direction the paper's related work highlights (view-based
/// collective read with read-ahead, Blas et al.).
///
/// Per internal cycle, the aggregator reads its file-domain slice into a
/// collective sub-buffer (file access phase) and scatters each rank's
/// pieces back through the fabric (shuffle phase). The write engine's
/// overlap modes map naturally:
///
///   None       — read, then scatter, strictly alternating.
///   Comm       — non-blocking scatter overlaps the next blocking read.
///   Write      — *read-ahead*: asynchronous read of cycle c+1 overlaps
///                the scatter of cycle c (the read-side analogue of
///                asynchronous writes).
///   WriteComm  — asynchronous read and non-blocking scatter, joint wait.
///   WriteComm2 — data-flow ordering of the above.
///
/// The scatter uses two-sided messages (single-segment destinations
/// receive in place; multi-segment destinations are packed/unpacked with
/// per-segment CPU cost, as in the write engine).
///
/// Resilience mirrors the write engine: transiently failed reads
/// (pfs::FaultParams::read_fail_rate) are re-issued after a deterministic
/// exponential backoff up to Options::max_retries times, then abandoned
/// with a give-up recorded in fault_stats()/io_error().
class ReadEngine {
 public:
  ReadEngine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
             std::span<std::byte> local_out, const Options& opt,
             PhaseTimings& timings);

  void run();

  /// Retry/give-up counters of this rank (valid after run(); all zero on a
  /// fault-free run). degraded_cycles stays zero — degraded mode is a
  /// write-pipeline feature.
  const FaultStats& fault_stats() const { return faults_; }
  /// First give-up description, empty when every read eventually succeeded.
  const std::string& io_error() const { return io_error_; }

  // Individual phases (exposed for white-box tests).
  void read_init(int cycle, int slot);    // aggregator: async file read
  void read_wait(int slot);
  void read_blocking(int cycle, int slot);
  void scatter_init(int cycle, int slot); // agg sends, everyone receives
  void scatter_wait(int slot);
  void scatter_blocking(int cycle, int slot);

 private:
  struct ScatterState {
    int cycle = -1;
    bool pending = false;
    std::vector<smpi::Request> reqs;
    std::vector<sim::BufferPool::Buffer> send_bufs;
    // Unpack CPU owed for the cycle's multi-segment receives (the bytes
    // land in place; only the cost is charged at scatter_wait).
    std::size_t unpack_segs = 0;
    std::uint64_t unpack_bytes = 0;

    void clear() {
      reqs.clear();
      send_bufs.clear();
      unpack_segs = 0;
      unpack_bytes = 0;
    }
  };
  struct Slot {
    sim::BufferPool::Buffer cb;
    pfs::WriteOp rd;
    int rd_cycle = -1;
    ScatterState sc;
  };

  int slot_of(int cycle) const {
    return opt_.overlap == OverlapMode::None ? 0 : cycle % 2;
  }
  /// Wait out the retry backoff (io_path.hpp; the write engine's schedule,
  /// salted differently) and count the retry.
  void retry_backoff(int cycle, int attempt);
  void give_up(int cycle);
  /// Bounded-retry blocking read of `r` into `slot`'s sub-buffer, starting
  /// the fault oracle's attempt numbering at `first` (continuation of a
  /// failed asynchronous attempt passes 2).
  void read_attempts(int cycle, int slot, const Plan::Range& r,
                     int first = 1);

  void run_none();
  void run_comm();
  void run_read_ahead();
  void run_read_comm();
  void run_read_comm2();

  smpi::Mpi& mpi_;
  pfs::File& file_;
  const Plan& plan_;
  std::span<std::byte> out_;
  Options opt_;
  PhaseTimings& t_;
  int my_agg_ = -1;
  int node_ = 0;
  FaultStats faults_;
  std::string io_error_;
  Slot slots_[2];
};

/// Collective read of this rank's `view` into `out` (extent bytes in
/// order), together with every other rank. Collective call.
Result collective_read(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                       std::span<std::byte> out, const Options& opt);

}  // namespace tpio::coll
