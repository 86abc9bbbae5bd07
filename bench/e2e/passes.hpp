#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hpp"

// Workload definitions and the passes that run them. Every function below
// that runs a simulation is called only inside a forked child; the parent
// process builds Workload values (plain specs) but never simulates.

namespace tpio::bench {

using Clock = std::chrono::steady_clock;

/// One simulated job of a workload, fully specified (derived seed included).
struct Cell {
  xp::RunSpec spec;
  /// Write, then read the file back through collective_read and compare
  /// every rank's bytes (materialized payloads, Integrity::Store).
  bool restart = false;
};

/// How a workload's end-to-end pass drives the program.
enum class Entry {
  Sweep,    // one xp::run_overlap_sweep call (the quick Table I grid)
  Execute,  // one xp::execute per cell
  Restart,  // write + read-back per cell, composed from the public layers
};

struct Workload {
  std::string name;
  Entry entry = Entry::Execute;
  std::uint64_t seed = 0;   // the --seed every cell's RunSpec::seed derives from
  std::vector<Cell> cells;  // every run of one pass, in pass order
};

/// The four workload names, in run order.
const std::vector<std::string>& workload_names();

/// Workload `name` with every run seed derived from `seed`. `smoke` shrinks
/// it to a reduced grid for the self-test. Throws std::invalid_argument on
/// an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

/// The cell with the largest cluster (most ranks, then most bytes per
/// rank): the one setup_s builds.
const Cell& largest_cell(const Workload& w);

/// Host-time spans recorded around calls into the program's layers. Kept in
/// memory; a span never straddles a fiber switch, so one stack of open
/// spans serves every rank of a run.
class Tracer {
 public:
  struct Span {
    const char* name = "";  // "<layer>.<what>", or "pass" / "cell"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span, -1 for a root
    int cell = -1;    // index of the workload cell the span belongs to
  };

  /// Records one span for its lifetime; a null tracer records nothing and
  /// reads no clock.
  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  int cell = -1;  // stamped on spans opened from now on
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What a child sends back over its pipe: text lines `<key> <value>` and
/// `span <name> <start_ns> <end_ns> <parent> <cell>`.
class Report {
 public:
  void put(const std::string& key, double v);
  void put(const std::string& key, const std::string& v);
  void put_spans(const Tracer& t);
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

// ---- passes, each run in its own fresh child --------------------------------
// Every pass records a root span "pass" around its work; its duration is
// the pass's host wall time.

/// Build the cluster of `c` again and again for `seconds` (at least five
/// times), each build as before any rank runs: Topology::fit, Fabric,
/// Machine, StorageSystem + create, Conductor(P) and P x Spec::view.
/// Reports `setup_s`, the median build time (upper median).
void setup_pass(const Cell& c, double seconds, Report& out);

/// The end-to-end pass, untraced. Reports `runs`, `failed`, `fingerprint`
/// (FNV-1a over every result field), `ms.<i>` (each cell's makespan), and
/// the plan-cache and buffer-pool counters of the pass.
void e2e_pass(const Workload& w, Report& out);

/// Restart workloads only: each cell's write through xp::execute, the
/// reference the composed makespans are checked against (`ms.<i>`).
void reference_pass(const Workload& w, Report& out);

/// An empty program run by Conductor(P) per cell: spans `sched.run`.
void spawn_pass(const Workload& w, Report& out);

/// The metadata phase of collective_write replicated from public calls per
/// cell: summarize -> Mpi::allgather -> get_or_build_skeleton ->
/// Mpi::sparse_allgatherv -> Plan. Spans `sched.run`, `workloads.view` and
/// `core.plan`; `meta_ns.<i>`, the replica's virtual time summed over ranks.
void meta_pass(const Workload& w, Report& out);

/// Every cell composed from the public constructors exactly as xp::execute
/// does. With `traced`, spans at each layer boundary, the counters of the
/// run and `meta_ns.<i>` (the writes' timings.meta summed over ranks);
/// `ms.<i>` either way.
void composed_pass(const Workload& w, bool traced, Report& out);

}  // namespace tpio::bench
