// Extension figure: two-level (intra-node) aggregation for the shuffle
// phase. Every rank first ships its cycle data to a node leader over the
// intra-node links; the leader coalesces contiguous pieces and forwards one
// merged message per (node, aggregator) across the network. The driver
// compares the direct and hierarchical shuffles on ibex — execution time
// plus the traffic trade the hierarchy makes (fewer/larger inter-node
// messages, extra intra-node copies) — and demonstrates the ppn=1
// degeneracy: with one process per node there is nothing to merge and the
// hierarchical path must collapse to the direct one exactly.

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

xp::RunResult run(const xp::Platform& plat, const wl::Spec& workload,
                  int procs, bool hier) {
  xp::RunSpec spec;
  spec.platform = plat;
  spec.workload = workload;
  spec.nprocs = procs;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::WriteComm2;
  spec.options.hierarchical = hier;
  spec.seed = 7;
  return xp::execute(spec);
}

std::string fmt_count(std::uint64_t n) { return std::to_string(n); }

}  // namespace

int main(int argc, char** argv) {
  const xp::BenchArgs args = xp::bench_args(argc, argv, {"--quick"});
  const bool quick = args.quick;
  const xp::Platform plat = xp::scaled(xp::ibex());

  std::printf("== Two-level shuffle vs direct (ibex, write-comm-2, ppn=%d) ==\n",
              plat.procs_per_node);
  xp::Table t({"workload", "procs", "direct(ms)", "hier(ms)", "gain",
               "inter msgs d/h", "inter bytes d/h"});
  struct Case {
    const char* label;
    wl::Spec workload;
  };
  // Flash interleaves every rank's blocks inside each variable region, so
  // its shuffle crosses nodes no matter how ranks are placed — the pattern
  // the two-level scheme targets. The tile workloads place consecutive
  // ranks in consecutive file rows (mostly node-local at ppn=10); they
  // bound the hierarchy's overhead when there is little to merge.
  const std::vector<Case> cases = {
      {"flash", wl::make_flash(24, 2, 16 * 1024)},
      {"tile256", wl::make_tile256(2, 1024)},
      {"tile1m", wl::make_tile1m(1, 2)},
  };
  for (const Case& c : cases) {
    for (int procs : quick ? std::vector<int>{20, 40}
                           : std::vector<int>{20, 40, 80}) {
      const xp::RunResult d = run(plat, c.workload, procs, false);
      const xp::RunResult h = run(plat, c.workload, procs, true);
      const double dm = sim::to_millis(d.makespan);
      const double hm = sim::to_millis(h.makespan);
      char gain[32];
      std::snprintf(gain, sizeof(gain), "%+.1f%%", (dm - hm) / dm * 100);
      t.add_row({c.label, std::to_string(procs), xp::fmt_ms(d.makespan),
                 xp::fmt_ms(h.makespan), gain,
                 fmt_count(d.inter_node_messages) + " / " +
                     fmt_count(h.inter_node_messages),
                 sim::format_bytes(d.inter_node_bytes) + " / " +
                     sim::format_bytes(h.inter_node_bytes)});
    }
  }
  t.print();
  std::puts("The hierarchy may never *increase* inter-node bytes: each byte "
            "crosses\nthe network at most once (leader -> aggregator), and "
            "coalescing merges\nco-located pieces into fewer messages.\n");

  // ppn=1: every rank is its own node leader with nothing to gather — the
  // hierarchical code path must degenerate to the direct one, bit for bit.
  xp::Platform flat = plat;
  flat.name = "ibex-ppn1";
  flat.procs_per_node = 1;
  std::puts("== Degeneracy check: one process per node ==");
  xp::Table t1({"workload", "procs", "direct(ms)", "hier(ms)", "identical"});
  bool all_identical = true;
  for (const Case& c : cases) {
    const int procs = quick ? 16 : 32;
    const xp::RunResult d = run(flat, c.workload, procs, false);
    const xp::RunResult h = run(flat, c.workload, procs, true);
    const bool same = d.makespan == h.makespan &&
                      d.inter_node_messages == h.inter_node_messages &&
                      d.inter_node_bytes == h.inter_node_bytes;
    all_identical = all_identical && same;
    t1.add_row({c.label, std::to_string(procs), xp::fmt_ms(d.makespan),
                xp::fmt_ms(h.makespan), same ? "yes" : "NO"});
  }
  t1.print();
  if (!all_identical) {
    std::puts("FAIL: hierarchical mode did not degenerate at ppn=1");
    return 1;
  }
  return 0;
}
