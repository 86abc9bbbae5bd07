#pragma once

#include <span>

#include "core/engine.hpp"
#include "core/types.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"

namespace tpio::coll {

/// Two-phase collective read — the mirror of the collective write and the
/// extension direction the paper's related work highlights (view-based
/// collective read with read-ahead, Blas et al.).
///
/// The write's Engine run in the other direction (kRead): per internal
/// cycle, the aggregator reads its file-domain slice into a collective
/// sub-buffer and scatters each rank's pieces back, two-sided, through
/// the write shuffle's walks (and lanes, under Options::hierarchical). The
/// five schedules are the write's with the stages swapped; `Comm`
/// overlaps the communication stage and `Write` the file stage:
///
///   None       — read, then scatter, strictly alternating.
///   Comm       — Algorithm 2's shape: the scatter of cycle c is posted
///                before the scatter of c-1 is waited on, so it drains
///                behind the blocking read of c+1.
///   Write      — *read-ahead*, Algorithm 1's shape: the asynchronous read
///                of cycle c+1 is posted before the read of c is waited
///                on, so two reads are in flight while cycle c scatters.
///   WriteComm  — asynchronous read and non-blocking scatter, joint wait.
///   WriteComm2 — data-flow ordering of the above.
///
/// The file stage retries, gives up, degrades and traces as a write's,
/// under read names (docs/FAULTS.md).

/// Why collective_read cannot run under `opt`, naming the Options field,
/// or nullptr: one-sided transfers (the scatter is two-sided) and Auto (its
/// probes measure write costs only). The read Engine refuses it from
/// inside a rank; xp::execute_restart before any rank runs.
const char* read_refusal(const Options& opt);

/// Collective read of this rank's `view` into `out` (extent bytes in
/// order), together with every other rank. Collective call.
Result collective_read(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                       std::span<std::byte> out, const Options& opt);

}  // namespace tpio::coll
