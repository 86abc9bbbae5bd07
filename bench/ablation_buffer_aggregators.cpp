// Ablation: the two structural tuning knobs of two-phase collective I/O —
// collective buffer size (number of internal cycles) and aggregator count
// (file-domain width / storage parallelism). DESIGN.md calls these out as
// the design choices whose values the paper inherits from OMPIO defaults
// (32 MiB buffer, automatic aggregator selection).

#include <cstdio>

#include "harness/sweep.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

namespace {

double run(const xp::Platform& plat, std::uint64_t cb, int aggs,
           coll::OverlapMode mode) {
  xp::RunSpec spec;
  spec.platform = plat;
  spec.workload = wl::make_tile1m(1, 2);
  spec.nprocs = 64;
  spec.options.cb_size = cb;
  spec.options.num_aggregators = aggs;
  spec.options.overlap = mode;
  spec.seed = 31;
  return sim::to_millis(xp::execute(spec).makespan);
}

}  // namespace

int main(int argc, char** argv) {
  xp::bench_args(argc, argv, {});
  const xp::Platform plat = xp::scaled(xp::ibex());

  std::puts("== Ablation A: collective buffer size (Tile 1M, 64 procs, ibex) ==");
  xp::Table t1({"cb size", "no-overlap(ms)", "write-comm-2(ms)", "overlap gain"});
  for (std::uint64_t cb : {1ull << 20, 2ull << 20, 4ull << 20, 8ull << 20,
                           16ull << 20}) {
    const double none = run(plat, cb, 0, coll::OverlapMode::None);
    const double wc2 = run(plat, cb, 0, coll::OverlapMode::WriteComm2);
    char a[32], b[32], c[32];
    std::snprintf(a, sizeof(a), "%.2f", none);
    std::snprintf(b, sizeof(b), "%.2f", wc2);
    std::snprintf(c, sizeof(c), "%+.1f%%", (none - wc2) / none * 100);
    t1.add_row({sim::format_bytes(cb), a, b, c});
  }
  t1.print();
  std::puts("Small buffers -> many cycles -> per-op overheads dominate; huge "
            "buffers -> too few cycles to pipeline.\n");

  std::puts("== Ablation B: aggregator count (same job; 0 = automatic) ==");
  xp::Table t2({"aggregators", "no-overlap(ms)", "write-comm-2(ms)"});
  for (int aggs : {0, 1, 2, 4, 6, 12, 24}) {
    const double none = run(plat, xp::kCbSize, aggs, coll::OverlapMode::None);
    const double wc2 = run(plat, xp::kCbSize, aggs, coll::OverlapMode::WriteComm2);
    char a[32], b[32];
    std::snprintf(a, sizeof(a), "%.2f", none);
    std::snprintf(b, sizeof(b), "%.2f", wc2);
    t2.add_row({aggs == 0 ? "auto" : std::to_string(aggs), a, b});
  }
  t2.print();
  std::puts("Expected: too few aggregators serialize the file phase; too "
            "many per node contend for NICs and storage paths.");
  return 0;
}
