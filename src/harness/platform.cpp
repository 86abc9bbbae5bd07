#include "harness/platform.hpp"
#include <algorithm>

#include "simbase/time.hpp"
#include "simbase/units.hpp"

namespace tpio::xp {

int storage_targets(const Platform& p, int nodes) {
  return p.targets_per_node > 0 ? std::max(1, nodes * p.targets_per_node)
                                : p.pfs.num_targets;
}

Platform crill() {
  Platform p;
  p.name = "crill";
  p.procs_per_node = 48;

  p.fabric.inter_bw = 2.6e9;
  p.fabric.intra_bw = 6.0e9;
  p.fabric.inter_latency = sim::microseconds(1.9);
  p.fabric.intra_latency = sim::microseconds(0.5);
  p.fabric.noise_sigma = 0.015;  // dedicated machine

  p.mpi.eager_limit = 512 * sim::KiB;  // Open MPI + UCX on InfiniBand
  p.mpi.send_overhead = sim::microseconds(0.6);
  p.mpi.recv_overhead = sim::microseconds(0.6);
  p.mpi.match_cost = sim::nanoseconds(25);  // older, slower cores
  p.mpi.put_overhead = sim::microseconds(1.8);
  p.mpi.rma_control_latency = sim::microseconds(12.0);
  p.mpi.collective_hop = sim::microseconds(8.0);

  // Two extra HDDs per node: storage is co-located with compute, so the
  // pool a job sees scales with the nodes it occupies (targets_per_node).
  // The weak storage makes runs I/O-dominated (the paper measures ~93% of
  // time in file access for Tile 1M @ 576).
  p.targets_per_node = 1;
  p.pfs.num_targets = 16;
  p.pfs.stripe_size = sim::MiB;
  p.pfs.target_bw = 190e6;
  p.pfs.request_overhead = sim::microseconds(350);
  p.pfs.op_overhead = sim::microseconds(600);
  p.pfs.client_bw = 2.6e9;
  p.pfs.storage_latency = sim::microseconds(60);
  p.pfs.share_compute_nic = true;
  p.pfs.aio_penalty = 1.05;
  p.pfs.aio_penalty_sigma = 0.08;
  p.pfs.noise_sigma = 0.02;
  return p;
}

Platform ibex() {
  Platform p;
  p.name = "ibex";
  p.procs_per_node = 40;

  p.fabric.inter_bw = 3.4e9;
  p.fabric.intra_bw = 9.0e9;
  p.fabric.inter_latency = sim::microseconds(1.6);
  p.fabric.intra_latency = sim::microseconds(0.35);
  p.fabric.noise_sigma = 0.10;  // shared machine

  p.mpi.eager_limit = 512 * sim::KiB;
  p.mpi.send_overhead = sim::microseconds(0.45);
  p.mpi.recv_overhead = sim::microseconds(0.45);
  p.mpi.match_cost = sim::nanoseconds(15);
  p.mpi.put_overhead = sim::microseconds(1.5);
  p.mpi.rma_control_latency = sim::microseconds(10.0);
  p.mpi.collective_hop = sim::microseconds(6.0);

  // Large dedicated storage system: the 16 configured targets deliver an
  // order of magnitude more write bandwidth than crill's HDD pairs, so
  // communication is a visible fraction of the run (~23% in the paper's
  // breakdown) and overlap pays off more.
  p.pfs.num_targets = 16;
  p.pfs.stripe_size = sim::MiB;
  // Enterprise storage servers: the target pool is never the binding
  // constraint; a client's sustainable stream rate (RPC processing,
  // buffer management) is, as on production BeeGFS installations.
  p.pfs.target_bw = 2.0e9;
  p.pfs.request_overhead = sim::microseconds(60);
  p.pfs.op_overhead = sim::microseconds(250);
  p.pfs.client_bw = 1.6e9;
  p.pfs.storage_latency = sim::microseconds(40);
  p.pfs.share_compute_nic = false;
  p.pfs.aio_penalty = 1.01;
  p.pfs.aio_penalty_sigma = 0.04;
  p.pfs.noise_sigma = 0.12;
  return p;
}

Platform lustre() {
  Platform p = ibex();
  p.name = "lustre";
  p.pfs.aio_penalty = 2.2;
  p.pfs.aio_penalty_sigma = 0.25;
  return p;
}

void scale_geometry(Platform& p, std::uint64_t k, std::uint64_t proc_scale) {
  p.pfs.stripe_size = std::max<std::uint64_t>(p.pfs.stripe_size / k, 4096);
  // Shuffle messages are (sub-buffer / P): they shrink by k but P only
  // shrinks by proc_scale, so the eager/rendezvous boundary must scale by
  // k / proc_scale to keep messages in the same protocol regime as the
  // published runs.
  p.mpi.eager_limit =
      std::max<std::uint64_t>(p.mpi.eager_limit * proc_scale / k, 1024);
}

}  // namespace tpio::xp


