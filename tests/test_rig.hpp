#pragma once

// Shared test harness: a complete simulated cluster (fabric + MPI machine +
// parallel file system + conductor) with cheap-to-reason-about parameters.

#include <functional>
#include <memory>

#include "core/engine.hpp"
#include "harness/runner.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "pfs/pfs.hpp"
#include "sched/conductor.hpp"

namespace tpio::test {

struct ClusterSpec {
  int nodes = 4;
  int ppn = 2;
  int ranks = 0;  // 0 = nodes * ppn; else a partially-filled last node
  bool payloads = true;  // false: the Machine carries message sizes only
  net::FabricParams fabric;
  smpi::MpiParams mpi;
  pfs::PfsParams pfs;

  ClusterSpec() {
    fabric.inter_bw = 1e9;
    fabric.intra_bw = 4e9;
    fabric.inter_latency = 100;
    fabric.intra_latency = 10;
    pfs.num_targets = 4;
    pfs.stripe_size = 4096;
    pfs.target_bw = 1e9;
    pfs.client_bw = 4e9;
    pfs.request_overhead = 100;
    pfs.storage_latency = 10;
  }
};

/// A job of `workload` on the rig's nodes * ppn ranks, for xp::execute or
/// xp::execute_restart.
inline xp::RunSpec rig_job(const ClusterSpec& spec, wl::Spec workload) {
  xp::RunSpec job;
  job.platform = {"rig", spec.ppn, 0, spec.fabric, spec.mpi, spec.pfs};
  job.workload = std::move(workload);
  job.nprocs = spec.nodes * spec.ppn;
  return job;
}

class Cluster {
 public:
  explicit Cluster(const ClusterSpec& spec = ClusterSpec{})
      : topo_{spec.nodes, spec.ppn, spec.ranks},
        fabric_(topo_, spec.fabric),
        conductor_(topo_.nprocs()),
        machine_(fabric_, spec.mpi, spec.payloads),
        storage_(spec.pfs, &fabric_) {}

  int nprocs() const { return topo_.nprocs(); }
  net::Topology topology() const { return topo_; }
  net::Fabric& fabric() { return fabric_; }
  pfs::StorageSystem& storage() { return storage_; }
  sim::Conductor& conductor() { return conductor_; }

  /// Run `prog` on every rank with a fresh Mpi facade.
  void run(const std::function<void(smpi::Mpi&)>& prog) {
    conductor_.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(machine_, ctx);
      prog(mpi);
    });
  }

 private:
  net::Topology topo_;
  net::Fabric fabric_;
  sim::Conductor conductor_;
  smpi::Machine machine_;
  pfs::StorageSystem storage_;
};

}  // namespace tpio::test
