// Ablation C: MPI_LOCK_SHARED vs MPI_LOCK_EXCLUSIVE (paper, section
// III-B2b — "the second option ... will serialize the shuffle phase and
// thus harm the performance"), and
// Ablation D: stripe-aligned file domains (Liao-style partitioning,
// related work section) vs plain even split.

#include <cstdio>

#include "harness/sweep.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

double run(const xp::Platform& plat, const coll::Options& opt, int procs) {
  xp::RunSpec spec;
  spec.platform = plat;
  spec.workload = wl::make_tile1m(1, 2);
  spec.nprocs = procs;
  spec.options = opt;
  spec.seed = 41;
  return sim::to_millis(xp::execute(spec).makespan);
}

}  // namespace

int main(int argc, char** argv) {
  xp::bench_args(argc, argv, {});
  const xp::Platform plat = xp::scaled(xp::ibex());

  std::puts("== Ablation C: passive-target lock type (Tile 1M, ibex) ==");
  std::puts("(storage accelerated 10x so the shuffle phase is the critical "
            "path and lock behaviour is visible)");
  xp::Platform fast = plat;
  fast.pfs.client_bw *= 10;
  fast.pfs.target_bw *= 10;
  xp::Table t1({"procs", "shared lock(ms)", "exclusive lock(ms)", "slowdown"});
  for (int procs : {16, 36, 64}) {
    coll::Options o;
    o.cb_size = xp::kCbSize;
    o.overlap = coll::OverlapMode::WriteComm2;
    o.transfer = coll::Transfer::OneSidedLock;
    o.lock_type = tpio::smpi::Mpi::LockType::Shared;
    const double shared = run(fast, o, procs);
    o.lock_type = tpio::smpi::Mpi::LockType::Exclusive;
    const double exclusive = run(fast, o, procs);
    char a[32], b[32], c[32];
    std::snprintf(a, sizeof(a), "%.2f", shared);
    std::snprintf(b, sizeof(b), "%.2f", exclusive);
    std::snprintf(c, sizeof(c), "%.2fx", exclusive / shared);
    t1.add_row({std::to_string(procs), a, b, c});
  }
  t1.print();
  std::puts("Expected: exclusive locks serialize origins; the slowdown "
            "grows with the process count.\n");

  std::puts("== Ablation D: stripe-aligned file domains ==");
  xp::Table t2({"platform", "aligned(ms)", "unaligned(ms)", "alignment gain"});
  for (const auto& base : {xp::crill(), xp::ibex()}) {
    const xp::Platform p = xp::scaled(base);
    coll::Options o;
    o.cb_size = xp::kCbSize;
    o.overlap = coll::OverlapMode::WriteComm2;
    o.stripe_align = true;
    const double aligned = run(p, o, 64);
    o.stripe_align = false;
    const double unaligned = run(p, o, 64);
    char a[32], b[32], c[32];
    std::snprintf(a, sizeof(a), "%.2f", aligned);
    std::snprintf(b, sizeof(b), "%.2f", unaligned);
    std::snprintf(c, sizeof(c), "%+.1f%%", (unaligned - aligned) / unaligned * 100);
    t2.add_row({p.name, a, b, c});
  }
  t2.print();
  std::puts("Unaligned domains split stripe chunks between aggregators: two "
            "writers touch one target chunk, costing extra requests.");
  return 0;
}
