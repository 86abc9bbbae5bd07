#pragma once

#include <string>

#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "pfs/pfs.hpp"

namespace tpio::xp {

/// A cluster profile: everything the simulation substrate needs to stand in
/// for one of the paper's machines. The two presets below are calibrated to
/// the hardware description in section IV, with per-run noise seeds filled
/// in by the runner.
struct Platform {
  std::string name;
  int procs_per_node = 1;
  /// Co-located storage (crill): the job's storage pool is the drives of
  /// the nodes it runs on, so the target count scales with the node count
  /// (targets = nodes * targets_per_node). 0 = fixed external system
  /// (pfs.num_targets).
  int targets_per_node = 0;
  net::FabricParams fabric;
  smpi::MpiParams mpi;
  pfs::PfsParams pfs;
};

/// Storage targets a job spanning `nodes` compute nodes sees on `p`:
/// max(1, nodes * targets_per_node) on co-located storage, else the fixed
/// pfs.num_targets.
int storage_targets(const Platform& p, int nodes);

/// University of Houston *crill*: 16 nodes x 48 cores (AMD Magny Cours),
/// QDR InfiniBand (~2.6 GB/s node-to-node), BeeGFS v7 striped over two
/// extra HDDs in each of the 16 compute nodes (storage shares the compute
/// interconnect), stripe 1 MB. Dedicated machine -> low variance.
Platform crill();

/// KAUST *Ibex* (Skylake partition): 40-core nodes, QDR InfiniBand
/// (~3.4 GB/s), large dedicated BeeGFS (16 targets used, stripe 1 MB) with
/// much higher write bandwidth. Shared machine -> high variance.
Platform ibex();

/// Lustre-like profile: ibex hardware, pathological aio (paper, section V:
/// "significant performance problems of the aio_write operations on
/// Lustre"). The regime where the blocking-write schedulers win.
Platform lustre();

/// Scale a platform's I/O geometry down by `k` for affordable simulation:
/// stripe size and eager limit shrink by k while bandwidths, latencies and
/// target counts stay physical. Pair with a collective buffer of
/// 32 MiB / k and per-process volumes scaled accordingly; the dimensionless
/// regime (stripes per sub-buffer >= storage targets, messages straddling
/// the eager/rendezvous boundary, cycles per domain) then matches the
/// paper's full-size setup.
void scale_geometry(Platform& p, std::uint64_t k, std::uint64_t proc_scale);

}  // namespace tpio::xp
