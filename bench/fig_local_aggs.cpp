// Extension figure: local aggregators per node (Kang et al.'s `co`) with
// pipelined intra-node gather/forward. Reproduces the shape of Kang's
// Table I: a (ppn x message-size) grid, each cell swept over
// co in {1, 2, 4, ppn}, on both cluster profiles. With co == 1 the node's
// single lane leader serializes ppn - 1 member receives before anything
// crosses the network; splitting the node into co lanes divides that chain
// and lets each lane's forward overlap the other lanes' gathers — the win
// grows with ppn and shrinks with message size (large messages are
// bandwidth-bound, not chain-bound).
//
// Reported per cell: write-comm-2 makespan, the intra-node gather
// critical path (max over ranks of gather time), and the pipelined-overlap
// fraction measured under the comm-overlap scheduler — the one whose call
// order lets a leader start the next lane gather between posting forwards
// and waiting on them (write-comm-2 posts and immediately waits, so its
// per-rank overlap is structurally zero). Self-check: every co must land
// the same bytes.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

struct Cell {
  std::string platform;
  int ppn = 0;
  std::string size_label;
  std::vector<int> cos;
  std::vector<xp::RunResult> runs;  // parallel to cos
  int best_by_gather() const {
    int best = 0;
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].gather_critical < runs[static_cast<std::size_t>(best)]
                                        .gather_critical) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }
};

xp::Platform with_ppn(xp::Platform p, int ppn) {
  // Same fabric/storage physics, re-packed nodes: the grid varies how many
  // ranks share a node leader, exactly Kang's experiment.
  p.name += "-ppn" + std::to_string(ppn);
  p.procs_per_node = ppn;
  return p;
}

xp::RunResult run(const xp::Platform& plat, const wl::Spec& workload,
                  int procs, int co, coll::OverlapMode overlap) {
  xp::RunSpec spec;
  spec.platform = plat;
  spec.workload = workload;
  spec.nprocs = procs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = overlap;
  spec.options.hierarchical = true;
  spec.options.leader_policy = coll::LeaderPolicy::Spread;
  spec.options.local_aggregators = co;
  spec.seed = 7;
  return xp::execute(spec);
}

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(argc, argv, {"--quick"});
  const bool quick = args.quick;
  const int nodes = quick ? 4 : 6;
  bool ok = true;

  for (const char* pname : {"crill", "ibex"}) {
    const xp::Platform base =
        std::string(pname) == "crill" ? xp::scaled(xp::crill())
                                      : xp::scaled(xp::ibex());
    std::printf("== Local aggregators (co) grid: %s, write-comm-2, "
                "spread leaders, %d nodes ==\n",
                pname, nodes);
    xp::Table t({"ppn", "msg", "co", "time(ms)", "gather-crit(ms)",
                 "overlap(comm)", "vs co=1"});
    for (const int ppn : {4, 8, 16}) {
      const xp::Platform plat = with_ppn(base, ppn);
      const int procs = nodes * ppn;
      struct Size {
        const char* label;
        std::uint64_t bytes;
      };
      // Small transfers make the gather chain the bottleneck; large ones
      // are bandwidth-bound and bound the scheme's overhead.
      const std::vector<Size> sizes = quick
          ? std::vector<Size>{{"64K", 64ull << 10}, {"1M", 1ull << 20}}
          : std::vector<Size>{{"64K", 64ull << 10},
                              {"256K", 256ull << 10},
                              {"1M", 1ull << 20}};
      for (const Size& sz : sizes) {
        const wl::Spec workload = wl::make_ior(sz.bytes);
        std::vector<int> cos = {1, 2, 4};
        if (ppn > 4) cos.push_back(ppn);
        Cell cell;
        cell.platform = pname;
        cell.ppn = ppn;
        cell.size_label = sz.label;
        std::vector<double> comm_overlap;
        for (const int co : cos) {
          cell.cos.push_back(co);
          cell.runs.push_back(
              run(plat, workload, procs, co, coll::OverlapMode::WriteComm2));
          comm_overlap.push_back(
              run(plat, workload, procs, co, coll::OverlapMode::Comm)
                  .pipelined_overlap);
        }
        for (std::size_t i = 0; i < cell.runs.size(); ++i) {
          const xp::RunResult& r = cell.runs[i];
          if (r.bytes != cell.runs[0].bytes) {
            std::printf("FAIL: co=%d changed the written volume\n",
                        cell.cos[i]);
            ok = false;
          }
          const double base_ms = sim::to_millis(cell.runs[0].makespan);
          char gain[32];
          std::snprintf(gain, sizeof(gain), "%+.1f%%",
                        (base_ms - sim::to_millis(r.makespan)) / base_ms *
                            100.0);
          t.add_row({std::to_string(ppn), sz.label,
                     std::to_string(cell.cos[i]), xp::fmt_ms(r.makespan),
                     xp::fmt_ms(r.gather_critical),
                     xp::fmt_pct(comm_overlap[i]),
                     i == 0 ? std::string("-") : std::string(gain)});
        }
        const int best = cell.best_by_gather();
        if (ppn == 16 && sz.bytes <= (64ull << 10) && best == 0) {
          std::printf("note: co=1 still holds the shortest gather chain at "
                      "%s ppn=16 %s\n",
                      pname, sz.label);
        }
      }
    }
    t.print();
    std::puts("");
  }

  std::puts("Pipelining bound: each lane leader forwards as soon as its own "
            "gather\ncompletes — no whole-node barrier — so the intra-node "
            "critical path is the\nslowest *lane*, not the whole node.");
  if (!ok) {
    std::puts("FAIL: see messages above");
    return 1;
  }
  return 0;
}
