#pragma once

#include <span>

#include "core/pipeline.hpp"
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
/// pieces back through the fabric (shuffle phase): the write engine's
/// two-stage pipeline (pipeline.hpp) with the stages swapped, run in the
/// same five orders. `Comm` overlaps the communication stage and `Write`
/// the file stage, so the modes map to:
///
///   None       — read, then scatter, strictly alternating.
///   Comm       — Algorithm 2's shape: the scatter of cycle c is posted
///                before the scatter of c-1 is waited on, so it drains
///                behind the blocking read of c+1.
///   Write      — *read-ahead*, Algorithm 1's shape: the asynchronous read
///                of cycle c+1 is posted before the read of c is waited
///                on, so two reads are in flight while cycle c scatters
///                (the read-side analogue of asynchronous writes).
///   WriteComm  — asynchronous read and non-blocking scatter, joint wait.
///   WriteComm2 — data-flow ordering of the above.
///
/// Auto is rejected: its probes measure write costs only.
///
/// The scatter uses two-sided messages (single-segment destinations
/// receive in place; multi-segment destinations are packed/unpacked with
/// per-segment CPU cost, as in the write engine).
///
/// The file access is the pipeline's FileStage, as in the write engine:
/// the same retry policy (pfs::FaultParams::read_fail_rate draws the
/// verdicts), give-up record, degraded mode and trace events, with read
/// names (docs/FAULTS.md).
class ReadEngine {
 public:
  ReadEngine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
             std::span<std::byte> local_out, const Options& opt,
             PhaseTimings& timings);

  void run();

  /// Retry/give-up/degradation counters of this rank (valid after run();
  /// all zero on a fault-free run).
  const FaultStats& fault_stats() const { return io_.faults(); }
  /// First give-up description, empty when every read eventually succeeded.
  const std::string& io_error() const { return io_.io_error(); }

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
    ScatterState sc;
  };

  smpi::Mpi& mpi_;
  pfs::File& file_;
  const Plan& plan_;
  std::span<std::byte> out_;
  const Options& opt_;
  PhaseTimings& t_;
  FileStage io_;  // the read phase; holds opt_ and t_ by reference
  int my_agg_ = -1;
  Slot slots_[2];
};

/// Why collective_read cannot run under `opt`, naming the Options field,
/// or nullptr. ReadEngine refuses it from inside a rank; xp::execute_restart
/// before any rank runs.
const char* read_refusal(const Options& opt);

/// Collective read of this rank's `view` into `out` (extent bytes in
/// order), together with every other rank. Collective call.
Result collective_read(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                       std::span<std::byte> out, const Options& opt);

}  // namespace tpio::coll
