#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "sched/timeline.hpp"
#include "simbase/rng.hpp"
#include "simbase/time.hpp"

namespace tpio::net {

/// LogGP-style fabric parameters.
///
/// CPU overheads (o_s, o_r) are charged to rank clocks by the MPI layer;
/// the fabric models only wire latency, serialization bandwidth, and
/// endpoint contention (one NIC per node, one channel per direction).
struct FabricParams {
  double inter_bw = 3.0e9;          // bytes/s, node <-> node
  double intra_bw = 8.0e9;          // bytes/s, shared-memory copies
  sim::Duration inter_latency = sim::microseconds(1.8);
  sim::Duration intra_latency = sim::microseconds(0.4);
  double noise_sigma = 0.0;         // service-time variability
  std::uint64_t noise_seed = 1;
};

/// Cluster interconnect model: a full-bisection fabric with contention at
/// the node endpoints. Each node has one NIC with independent transmit and
/// receive channels; intra-node traffic uses a per-node memory channel.
///
/// Incast — many ranks sending to one aggregator node — serializes on that
/// node's receive channel, which is the first-order contention effect in
/// the two-phase shuffle.
class Fabric {
 public:
  Fabric(const Topology& topo, const FabricParams& params);

  /// Tenant view over a shared parent fabric: presents a tenant-local
  /// topology (nodes renumbered from 0) while every reservation lands on
  /// the parent's per-node NIC/memory timelines at `node_offset + local
  /// node` — so co-scheduled tenants contend for the same endpoints. The
  /// view keeps its own byte/message counters (per-tenant interference
  /// accounting) and also feeds the parent's aggregate counters. A lone
  /// view at offset 0 over an idle parent of the same size is
  /// bit-identical to a standalone Fabric built with the parent's params.
  /// The parent must outlive the view.
  Fabric(Fabric& parent, const Topology& local_topo, int node_offset);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Model one message of `bytes` from `src` to `dst` departing no earlier
  /// than `depart`. Returns the arrival time of the last byte at the
  /// destination's memory. Must be called under the simulation baton.
  sim::Time transfer(int src, int dst, std::uint64_t bytes, sim::Time depart);

  /// Reserve transmit-side capacity only (e.g. a storage client pushing to
  /// a remote target when the storage fabric is shared with MPI traffic).
  sim::Time reserve_tx(int node, std::uint64_t bytes, sim::Time start);

  /// Arrival time of a small protocol/control message (RTS, CTS, acks):
  /// control traffic travels on its own virtual lane and does not queue
  /// behind bulk transfers.
  sim::Time transfer_control(int src, int dst, sim::Time depart) const;

  const Topology& topology() const { return topo_; }
  const FabricParams& params() const { return params_; }

  /// Serialization time of `bytes` on an inter-node link (no contention).
  sim::Duration wire_time(std::uint64_t bytes) const;

  /// Total bytes that crossed node boundaries (diagnostic).
  std::uint64_t inter_node_bytes() const { return inter_bytes_; }
  /// Number of bulk transfers that crossed node boundaries (diagnostic;
  /// the quantity the hierarchical shuffle exists to reduce).
  std::uint64_t inter_node_messages() const { return inter_msgs_; }
  /// Total bytes moved over intra-node memory channels (diagnostic).
  std::uint64_t intra_node_bytes() const { return intra_bytes_; }

  /// True when this fabric is a tenant view over a shared parent.
  bool is_view() const { return parent_ != nullptr; }

 private:
  // Timeline resolution: standalone fabrics own their per-node channels;
  // views borrow the parent's at a node offset.
  sim::Timeline& tx_chan(int global_node);
  sim::Timeline& rx_chan(int global_node);
  sim::Timeline& mem_chan(int global_node);

  Topology topo_;
  FabricParams params_;
  Fabric* parent_ = nullptr;
  int node_offset_ = 0;
  std::vector<std::unique_ptr<sim::NoiseModel>> noise_;  // one per timeline
  std::vector<sim::Timeline> nic_tx_, nic_rx_, mem_;     // per node
  std::uint64_t inter_bytes_ = 0;
  std::uint64_t inter_msgs_ = 0;
  std::uint64_t intra_bytes_ = 0;
};

}  // namespace tpio::net
