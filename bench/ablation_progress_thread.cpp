// Ablation: MPI progress thread (paper, section III-A1).
//
// "MPI libraries provide progress for pending non-blocking data transfer
// operations either when invoking an MPI function, or more recently also
// through a specific progress thread." The consequence for collective
// write: a rendezvous message whose matching receive is already posted
// still stalls if its handshake arrives while the target rank sits in a
// blocking file write — unless a progress thread services it.
//
// Part 1 isolates the mechanism at the MPI level; part 2 shows the effect
// on a collective write where aggregators pre-post receives and then
// block in the file system (Comm-Overlap with slow senders).

#include <cstdio>
#include <vector>

#include "harness/sweep.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"
#include "sched/conductor.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace sim = tpio::sim;
namespace smpi = tpio::smpi;
namespace net = tpio::net;

namespace {

/// Pre-posted rendezvous receive + blocking "write" blackout at the
/// target: returns the receive completion time.
sim::Time stalled_receive(bool progress_thread) {
  net::Topology topo{2, 1};
  xp::Platform plat = xp::scaled(xp::ibex());
  plat.mpi.progress_thread = progress_thread;
  net::Fabric fabric(topo, plat.fabric);
  smpi::Machine machine(fabric, plat.mpi);
  sim::Conductor c(2);
  sim::Time done = 0;
  const std::size_t n = 2 * plat.mpi.eager_limit;  // rendezvous for sure
  c.run([&](sim::RankCtx& ctx) {
    smpi::Mpi mpi(machine, ctx);
    std::vector<std::byte> buf(n);
    if (mpi.rank() == 0) {
      smpi::Request r = mpi.irecv(1, 0, buf);  // pre-posted
      // Blocking file write occupying the rank until t = 5 ms.
      mpi.set_unavailable_until(sim::milliseconds(5.0));
      mpi.ctx().advance(sim::milliseconds(5.0));
      mpi.wait(r);
      done = mpi.ctx().now();
    } else {
      mpi.ctx().advance(sim::microseconds(50));  // RTS lands mid-write
      mpi.send(0, 0, buf);
    }
  });
  return done;
}

}  // namespace

int main(int argc, char** argv) {
  xp::bench_args(argc, argv, {});
  using tpio::net::Topology;
  std::puts("== Ablation: MPI progress thread ==\n");

  std::puts("Part 1 - pre-posted rendezvous receive, target blocked in a "
            "5 ms write, sender posts at t=50us:");
  const sim::Time without = stalled_receive(false);
  const sim::Time with = stalled_receive(true);
  std::printf("  receive completes at %s without a progress thread\n",
              sim::format_time(without).c_str());
  std::printf("  receive completes at %s with a progress thread\n",
              sim::format_time(with).c_str());
  std::printf("  (transfer %s the blocking write)\n\n",
              with < without ? "overlapped" : "did not overlap");
  return without > with ? 0 : 1;
}
