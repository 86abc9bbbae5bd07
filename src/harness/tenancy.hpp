#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "pfs/qos.hpp"

namespace tpio::xp {

/// When each tenant's job enters the shared system (virtual time).
enum class ArrivalModel {
  /// Tenant i arrives at i * gap.
  Fixed,
  /// Exponential inter-arrival gaps with mean `gap`, drawn deterministically
  /// from the multi-run seed (tenant 0 arrives at 0).
  Poisson,
  /// Explicit per-tenant arrival instants from `trace`.
  Trace,
};

const char* to_string(ArrivalModel m);

struct ArrivalSpec {
  ArrivalModel model = ArrivalModel::Fixed;
  /// Fixed: exact inter-arrival offset. Poisson: mean inter-arrival gap.
  sim::Duration gap = 0;
  /// Trace: arrival instant per tenant (size must match the tenant count).
  std::vector<sim::Time> trace;
};

/// Deterministic arrival instants for `n` tenants: a pure function of the
/// spec and `seed` (Poisson draws an independent derived stream), never of
/// worker count or host scheduling.
std::vector<sim::Time> arrival_times(const ArrivalSpec& spec, int n,
                                     std::uint64_t seed);

/// N concurrent jobs on one shared PFS + fabric. The shared system is
/// built from `tenants[0].platform` (every tenant must run the same
/// platform — they share the machine) sized to the union of the tenants'
/// node blocks, with noise streams derived from `seed`. execute(spec) is
/// the single tenant `spec` with seed == spec.seed.
struct MultiRunSpec {
  std::vector<RunSpec> tenants;
  ArrivalSpec arrival;
  /// Queuing discipline of the shared storage targets.
  pfs::QosPolicy qos = pfs::QosPolicy::Fifo;
  /// Priority class per tenant (higher wins); empty = all 0.
  std::vector<int> priorities;
  /// Master seed of the *shared* system's noise/aio streams (per-tenant
  /// RunSpec::seed is ignored — tenants share one machine).
  std::uint64_t seed = 1;
};

/// One tenant's outcome plus its interference accounting.
struct TenantResult {
  RunResult run;       // arrival/completion filled; makespan = turnaround
  pfs::QosStats qos;   // per-OST queue/interference rollup for this tenant
  /// Turnaround relative to the same spec alone on an idle system
  /// (computed only by execute_multi(..., with_baselines=true); 0 = not
  /// computed). >= 1 up to noise; fair-share bounds it by the tenant count.
  double slowdown = 0.0;
};

struct MultiRunResult {
  std::vector<TenantResult> tenants;
  /// Completion of the last tenant (virtual time).
  sim::Time makespan = 0;
};

/// Run every tenant concurrently on the shared system. Deterministic:
/// bit-identical at any executor worker count. With `with_baselines`, each
/// tenant's spec is also executed solo (same seed) to fill
/// TenantResult::slowdown.
MultiRunResult execute_multi(const MultiRunSpec& spec,
                             bool with_baselines = false);

/// The background load a measured job shares the system with.
struct ContentionConfig {
  /// Background tenants sharing the system with the measured job.
  int neighbors = 1;
  /// Arrival schedule of all tenants (measured job is tenant 0).
  ArrivalSpec arrival;
  pfs::QosPolicy qos = pfs::QosPolicy::Fifo;
};

/// The one tenancy rule of tpio_sim --tenants, the contended sweep and
/// fig_contention: `measured` runs as tenant 0 and each neighbor clones it
/// with the NoOverlap scheduler (a same-shape background writer hammering
/// the same storage targets). Under QosPolicy::Priority tenant 0 rides
/// the top class and the neighbors are best-effort. The caller sets the
/// seed.
MultiRunSpec contended(const RunSpec& measured,
                       const ContentionConfig& tenancy);

/// Contiguous partition of `nprocs` ranks into `k` sub-communicators:
/// subgroup g gets (base, count) with counts nprocs/k rounded up for the
/// first nprocs%k groups — the block split MPI_Comm_split would produce
/// for color = rank * k / nprocs. Requires 1 <= k <= nprocs.
std::vector<std::pair<int, int>> sub_comm_partition(int nprocs, int k);

}  // namespace tpio::xp
