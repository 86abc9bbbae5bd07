// Golden fingerprints: a canonical grid of simulated runs whose every
// RunResult field (xp::fingerprint) is compared against the committed files
// under tests/golden/, one line per cell. These files are the reference for
// the virtual-time results; a change that moves any of them shows up as a
// reviewable diff of those files.
//
// On a mismatch the test writes the actual file into the build tree
// (<build>/tests/golden/), names the cells that moved and prints the `cp`
// command that accepts the new file; `git diff --word-diff` of the copied
// file then shows each moved name=value pair. See docs/HANDBOOK.md
// section 11.
//
// Registered under the `golden` ctest label (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/read_engine.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"
#include "random_program.hpp"
#include "simbase/crc.hpp"
#include "test_rig.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

namespace {

namespace fs = std::filesystem;

/// Compare `actual` with tests/golden/<name>.txt. On a mismatch, write the
/// actual text into the build tree, name the cells whose lines differ and
/// print the command that accepts the new file.
void expect_golden(const std::string& name, const std::string& actual) {
  const fs::path want_path = fs::path(TPIO_GOLDEN_DIR) / (name + ".txt");
  std::ostringstream want;
  want << std::ifstream(want_path, std::ios::binary).rdbuf();
  if (want.str() == actual) return;
  const fs::path got_path = fs::path(TPIO_GOLDEN_OUT) / (name + ".txt");
  fs::create_directories(got_path.parent_path());
  std::ofstream(got_path, std::ios::binary) << actual;
  std::istringstream a(want.str()), b(actual);
  std::string moved, la, lb;
  while (std::getline(b, lb)) {
    if (!std::getline(a, la)) la.clear();
    if (la != lb) moved += "  " + lb.substr(0, lb.find(' ')) + "\n";
  }
  ADD_FAILURE() << "golden mismatch: " << want_path.string()
                << "\ncells that differ:\n" << moved
                << "actual file written; if the change is intended, accept "
                   "it with\n  cp "
                << got_path.string() << " " << want_path.string()
                << "\nand read the moved fields with git diff --word-diff\n";
}

/// Appends "<cell> <fingerprint>\n" lines.
struct Golden {
  std::string text;
  void add(const std::string& cell, const std::string& fp) {
    text += cell + " " + fp + "\n";
  }
  void add(const std::string& cell, const xp::RunResult& r) {
    add(cell, xp::fingerprint(r));
  }
};

xp::RunSpec base_spec(wl::Spec w, int procs) {
  xp::RunSpec s;
  s.platform = xp::scaled(xp::ibex());
  s.workload = std::move(w);
  s.nprocs = procs;
  s.options.cb_size = xp::kCbSize;
  s.seed = 0x601D;
  s.verify = true;
  return s;
}

/// RunResult of one composed run (the restart cells, which run outside
/// xp::execute).
xp::RunResult summarize(const std::vector<coll::Result>& rs, sim::Time end,
                        tpio::test::Cluster& cl) {
  xp::RunResult out;
  out.completion = out.makespan = end;
  out.aggregators = rs[0].aggregators;
  out.cycles = rs[0].cycles;
  out.bytes = rs[0].bytes_global;
  out.inter_node_bytes = cl.fabric().inter_node_bytes();
  out.inter_node_messages = cl.fabric().inter_node_messages();
  out.intra_node_bytes = cl.fabric().intra_node_bytes();
  xp::add_rank_results(out, rs);
  return out;
}

std::string sweep_text(const std::vector<xp::OverlapSeries>& rows) {
  std::string s;
  for (const xp::OverlapSeries& row : rows) {
    s += row.platform + "/" + wl::to_string(row.kind) + "/" + row.size_label +
         "/" + std::to_string(row.procs);
    for (const auto& [mode, ms] : row.min_ms) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.17g", ms);
      s += std::string(" ") + coll::to_string(mode) + "=" + buf;
    }
    s += "\n";
  }
  return s;
}

std::string quick_sweep(int jobs) {
  xp::ExecOptions exec;
  exec.jobs = jobs;
  return sweep_text(
      xp::run_overlap_sweep(xp::ibex(), coll::Options{}, 1, 0xC57, true, exec));
}

// 5 schedulers x 3 primitives on one layout: flat (co = 0 here) or
// hierarchical with `co` local aggregators per node.
std::string scheduler_grid(int co) {
  Golden g;
  for (int m = 0; m < 5; ++m) {
    for (int t = 0; t < 3; ++t) {
      xp::RunSpec spec = base_spec(wl::make_tile256(2, 2048), 20);
      spec.options.overlap = static_cast<coll::OverlapMode>(m);
      spec.options.transfer = static_cast<coll::Transfer>(t);
      spec.options.hierarchical = co > 0;
      spec.options.local_aggregators = std::max(co, 1);
      g.add(std::string(coll::to_string(spec.options.overlap)) + "/" +
                coll::to_string(spec.options.transfer),
            xp::execute(spec));
    }
  }
  return g.text;
}

}  // namespace

TEST(Golden, SchedulersFlat) {
  expect_golden("schedulers_flat", scheduler_grid(0));
}

TEST(Golden, SchedulersHierCo1) {
  expect_golden("schedulers_hier_co1", scheduler_grid(1));
}

TEST(Golden, SchedulersHierCo4) {
  expect_golden("schedulers_hier_co4", scheduler_grid(4));
}

TEST(Golden, Auto) {
  Golden g;
  for (const bool hier : {false, true}) {
    xp::RunSpec spec = base_spec(wl::make_ior(1u << 19), 20);
    spec.options.overlap = coll::OverlapMode::Auto;
    spec.options.hierarchical = hier;
    g.add(hier ? "auto/hier" : "auto/flat", xp::execute(spec));
  }
  expect_golden("auto", g.text);
}

TEST(Golden, Faults) {
  Golden g;
  {
    xp::RunSpec spec = base_spec(wl::make_ior(1u << 18), 16);
    spec.options.overlap = coll::OverlapMode::WriteComm2;
    spec.options.max_retries = 8;
    spec.platform.pfs.faults.write_fail_rate = 0.2;
    spec.platform.pfs.faults.seed = 7;
    g.add("faults/retries", xp::execute(spec));
  }
  {
    xp::RunSpec spec = base_spec(wl::make_ior(1u << 18), 16);
    spec.options.overlap = coll::OverlapMode::Write;
    spec.options.max_retries = 2;
    spec.platform.pfs.faults.fail_until_attempt = 9;
    g.add("faults/give_up", xp::execute(spec));
  }
  for (const double degrade : {0.0, 2.5}) {
    xp::RunSpec spec = base_spec(wl::make_tile1m(1, 2), 16);
    spec.options.overlap = coll::OverlapMode::Write;
    spec.options.degrade_slowdown = degrade;
    spec.platform.pfs.faults.straggler_factor = 6.0;
    spec.platform.pfs.faults.straggler_targets = 8;
    spec.platform.pfs.faults.straggler_after = sim::milliseconds(5);
    g.add(degrade > 0 ? "faults/stragglers_degraded" : "faults/stragglers",
          xp::execute(spec));
  }
  expect_golden("faults", g.text);
}

// A partial last node (scaled ibex: 10 + 6 ranks) with one aggregator per
// rank requested explicitly.
TEST(Golden, PartialNodeExplicitAggregators) {
  Golden g;
  for (const bool hier : {false, true}) {
    xp::RunSpec spec = base_spec(wl::make_ior(1u << 18), 16);
    spec.options.overlap = coll::OverlapMode::WriteComm2;
    spec.options.num_aggregators = 16;
    spec.options.hierarchical = hier;
    g.add(hier ? "partial_node/hier/aggs16" : "partial_node/flat/aggs16",
          xp::execute(spec));
  }
  expect_golden("partial_node", g.text);
}

TEST(Golden, TwoTenants) {
  Golden g;
  for (const pfs::QosPolicy q :
       {pfs::QosPolicy::FairShare, pfs::QosPolicy::Priority}) {
    xp::MultiRunSpec m;
    xp::RunSpec a = base_spec(wl::make_ior(1u << 19), 16);
    a.options.overlap = coll::OverlapMode::WriteComm2;
    xp::RunSpec b = base_spec(wl::make_flash(8, 2, 16 * 1024), 16);
    b.options.overlap = coll::OverlapMode::Write;
    m.tenants = {a, b};
    m.arrival.model = xp::ArrivalModel::Fixed;
    m.arrival.gap = sim::microseconds(500);
    m.qos = q;
    if (q == pfs::QosPolicy::Priority) m.priorities = {0, 1};
    m.seed = 23;
    const xp::MultiRunResult r = xp::execute_multi(m);
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
      const xp::TenantResult& tr = r.tenants[t];
      const std::string cell = std::string("tenants/") + pfs::to_string(q) +
                               "/t" + std::to_string(t);
      g.add(cell, xp::fingerprint(tr.run) +
                      " qos.requests=" + std::to_string(tr.qos.requests) +
                      " qos.busy=" + std::to_string(tr.qos.busy) +
                      " qos.cross_wait=" + std::to_string(tr.qos.cross_wait) +
                      " qos.peak_active=" + std::to_string(tr.qos.peak_active));
    }
    g.add(std::string("tenants/") + pfs::to_string(q) + "/all",
          "makespan=" + std::to_string(r.makespan));
  }
  expect_golden("tenants", g.text);
}

TEST(Golden, SubComms) {
  Golden g;
  for (const int k : {2, 0}) {
    xp::RunSpec spec = base_spec(wl::make_tile256(2, 256), 24);
    spec.platform = xp::scaled(xp::crill());
    spec.options.overlap = coll::OverlapMode::WriteComm2;
    spec.options.sub_comm_count = k;
    if (k == 0) spec.options.sub_comm_count = xp::auto_sub_comm_count(spec);
    g.add(k == 0 ? "sub_comms/auto" : "sub_comms/2",
          "k=" + std::to_string(spec.options.sub_comm_count) + " " +
              xp::fingerprint(xp::execute(spec)));
  }
  expect_golden("sub_comms", g.text);
}

// Write, then read the same file back through collective_read (the
// restart path), flat and with co = 4 local aggregators on the write.
TEST(Golden, WriteThenRestartRead) {
  Golden g;
  for (const int co : {0, 4}) {
    tpio::test::ClusterSpec cs;
    cs.nodes = 4;
    cs.ppn = 4;
    tpio::test::Cluster cl(cs);
    auto file = cl.storage().create("restart", pfs::Integrity::Store);
    const int P = cl.nprocs();
    const wl::Spec w = wl::make_tile256(4, 64);
    coll::Options wopt;
    wopt.cb_size = 1u << 16;
    wopt.overlap = coll::OverlapMode::WriteComm2;
    wopt.hierarchical = co > 0;
    wopt.local_aggregators = std::max(co, 1);
    coll::Options ropt;
    ropt.cb_size = 1u << 16;
    ropt.overlap = coll::OverlapMode::WriteComm2;
    std::vector<coll::Result> wres(static_cast<std::size_t>(P));
    std::vector<coll::Result> rres(static_cast<std::size_t>(P));
    std::vector<sim::Time> wend(static_cast<std::size_t>(P));
    std::uint64_t crc = 0;
    cl.run([&](tpio::smpi::Mpi& mpi) {
      const auto r = static_cast<std::size_t>(mpi.rank());
      const coll::FileView view = w.view(mpi.rank(), P);
      const std::vector<std::byte> data = wl::fill_local(view);
      wres[r] = coll::collective_write(mpi, *file, view, data, wopt);
      wend[r] = mpi.ctx().now();
      mpi.barrier();
      std::vector<std::byte> back(view.total_bytes(), std::byte{0xEE});
      rres[r] = coll::collective_read(mpi, *file, view, back, ropt);
      EXPECT_EQ(back, data) << "rank " << mpi.rank();
      mpi.ctx().act([&] { crc = sim::crc64(crc, back); });
    });
    const std::string cell = co == 0 ? "restart/flat" : "restart/hier_co4";
    g.add(cell + "/write",
          summarize(wres, *std::max_element(wend.begin(), wend.end()), cl));
    g.add(cell + "/read", xp::fingerprint(summarize(
                              rres, cl.conductor().makespan(), cl)) +
                              " readback_crc=" + std::to_string(crc));
  }
  expect_golden("restart", g.text);
}

// The quick Table-I sweep at --jobs 1 and --jobs 8 against one file.
TEST(Golden, QuickSweepJobs1) { expect_golden("quick_sweep", quick_sweep(1)); }

TEST(Golden, QuickSweepJobs8) { expect_golden("quick_sweep", quick_sweep(8)); }

// The conductor fuzz seeds' action logs (rank:step:time per committed
// action, in commit order).
TEST(Golden, ConductorFuzzActionLogs) {
  Golden g;
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    const auto log = tpio::test::run_random_program(seed ^ 0xD1FF, 11, 14);
    std::string line;
    for (const auto& [rank, step, t] : log.entries) {
      if (!line.empty()) line += ' ';
      line += std::to_string(rank) + ":" + std::to_string(step) + ":" +
              std::to_string(t);
    }
    g.add("fuzz/" + std::to_string(seed), line);
  }
  expect_golden("conductor_fuzz", g.text);
}
