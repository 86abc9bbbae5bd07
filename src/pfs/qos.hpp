#pragma once

#include <map>
#include <string>
#include <vector>

#include "sched/timeline.hpp"
#include "simbase/time.hpp"

namespace tpio::pfs {

/// Queuing discipline of a shared storage resource serving several tenants
/// (concurrent jobs). All three disciplines degenerate to plain FIFO — and
/// are bit-identical to a bare sim::Timeline — when only one tenant ever
/// uses the queue, which is the lone-tenant isolation guarantee
/// tests/qos_test.cpp pins.
enum class QosPolicy {
  /// First-come-first-served in virtual-time (baton) order; exactly the
  /// historical single-job Timeline semantics.
  Fifo,
  /// Weighted fair sharing: each tenant queues behind its own lane only,
  /// and service is stretched by (sum of active tenant weights / own
  /// weight) — a generalized-processor-sharing approximation. With equal
  /// weights a tenant's service is never stretched by more than the number
  /// of simultaneously active tenants.
  FairShare,
  /// Strict priority: a request waits behind the committed horizon of
  /// every class at its own priority or higher, and is never delayed by
  /// lower-priority work. The top-priority tenant is never slower than it
  /// would be under FIFO.
  Priority,
};

const char* to_string(QosPolicy p);
/// Parse "fifo" | "fair" | "priority"; throws tpio::Error otherwise.
QosPolicy parse_qos(const std::string& s);

/// Identity of the job a storage request is billed to. Solo runs use the
/// default (tenant 0, weight 1, priority 0), which makes every QoS
/// discipline collapse to FIFO.
struct TenantClass {
  int id = 0;           // dense tenant index, 0-based
  double weight = 1.0;  // FairShare share (> 0)
  int priority = 0;     // Priority class; higher wins
};

/// Per-tenant interference accounting of one ServiceQueue (or the rollup
/// across a storage system's targets).
struct QosStats {
  /// Requests this tenant issued.
  std::uint64_t requests = 0;
  /// Service time the resource spent on this tenant (after noise and any
  /// fair-share stretch).
  sim::Duration busy = 0;
  /// Start delay beyond what this tenant's own previous request explains —
  /// queueing attributable to *other* tenants. Zero in any solo run.
  sim::Duration cross_wait = 0;
  /// Max number of tenants simultaneously backlogged at this tenant's
  /// request commit times (>= 1 once the tenant issued anything) — the
  /// per-target queue-depth/interference counter.
  int peak_active = 0;

  QosStats& operator+=(const QosStats& o) {
    requests += o.requests;
    busy += o.busy;
    cross_wait += o.cross_wait;
    peak_active = peak_active > o.peak_active ? peak_active : o.peak_active;
    return *this;
  }
};

/// A serially-reusable storage resource shared by tenants under a QoS
/// policy. Replaces the bare sim::Timeline for PFS targets: reserve() is
/// called under the simulation baton (so commit order equals virtual-time
/// order, the same determinism argument as Timeline), takes the requesting
/// tenant, and returns the service interval.
///
/// Single-tenant bit-identity: with one tenant, every policy computes
/// start = max(earliest, previous end) and applies exactly Timeline's
/// noise inflation — byte-for-byte the historical schedule.
class ServiceQueue {
 public:
  explicit ServiceQueue(std::string name, QosPolicy policy = QosPolicy::Fifo)
      : name_(std::move(name)), policy_(policy) {}

  /// Attach (or detach with nullptr) a noise source; not owned.
  void set_noise(sim::NoiseModel* noise) { noise_ = noise; }

  /// Commit `who`'s request of `duration` starting no earlier than
  /// `earliest`. Must be called while holding the simulation baton.
  sim::Timeline::Interval reserve(sim::Time earliest, sim::Duration duration,
                                  const TenantClass& who);

  /// Earliest instant a new FIFO arrival could start (max over all lanes).
  sim::Time next_free() const;
  sim::Duration busy_time() const { return busy_; }
  const std::string& name() const { return name_; }
  QosPolicy policy() const { return policy_; }

  /// Accounting for `tenant` (zeroes if it never issued here).
  QosStats stats(int tenant) const;

 private:
  struct Lane {
    sim::Time next_free = 0;
    double weight = 1.0;
    QosStats stats;
    bool used = false;
  };

  Lane& lane(const TenantClass& who);

  std::string name_;
  QosPolicy policy_;
  sim::NoiseModel* noise_ = nullptr;
  sim::Time fifo_next_free_ = 0;         // Fifo: the single shared lane
  std::vector<Lane> lanes_;              // by tenant id
  std::map<int, sim::Time> class_free_;  // Priority: horizon per class
  sim::Duration busy_ = 0;
};

}  // namespace tpio::pfs
