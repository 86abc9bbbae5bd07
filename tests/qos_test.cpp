// Property/fuzz tests of the storage QoS layer: FIFO service queues are
// bit-identical to the historical bare Timeline, fair-share stretch is
// bounded by the active tenant count, strict priority never hurts the top
// class, and randomized end-to-end tenant mixes conserve every tenant's
// bytes with no cross-tenant content bleed under Integrity::Store.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"
#include "pfs/qos.hpp"
#include "sched/timeline.hpp"
#include "simbase/rng.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

namespace {

struct Request {
  int tenant = 0;
  sim::Time earliest = 0;
  sim::Duration duration = 0;
};

/// Random request stream in nondecreasing `earliest` order — the only
/// order reserve() is ever called in (the baton serializes commits in
/// virtual-time order).
std::vector<Request> random_stream(std::uint64_t seed, int tenants, int n) {
  sim::Rng rng(seed);
  std::vector<Request> out;
  sim::Time t = 0;
  for (int i = 0; i < n; ++i) {
    t += static_cast<sim::Time>(rng.next_u64() % 500);
    Request r;
    r.tenant = static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(tenants));
    r.earliest = t;
    r.duration = 1 + static_cast<sim::Duration>(rng.next_u64() % 1000);
    out.push_back(r);
  }
  return out;
}

TEST(ServiceQueue, FifoBitIdenticalToTimelineUnderNoise) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    // Same noise seed on both sides: the queue must consume the stream in
    // exactly the Timeline's draw order and rounding.
    sim::NoiseModel na(0.2, seed);
    sim::NoiseModel nb(0.2, seed);
    sim::Timeline tl("t");
    tl.set_noise(&na);
    pfs::ServiceQueue q("q", pfs::QosPolicy::Fifo);
    q.set_noise(&nb);
    const pfs::TenantClass solo;
    for (const Request& r : random_stream(seed, /*tenants=*/1, 200)) {
      const auto a = tl.reserve(r.earliest, r.duration);
      const auto b = q.reserve(r.earliest, r.duration, solo);
      ASSERT_EQ(a.start, b.start);
      ASSERT_EQ(a.end, b.end);
    }
    EXPECT_EQ(tl.next_free(), q.next_free());
    EXPECT_EQ(tl.busy_time(), q.busy_time());
  }
}

TEST(ServiceQueue, SoloFairShareAndPriorityCollapseToFifo) {
  for (pfs::QosPolicy p :
       {pfs::QosPolicy::FairShare, pfs::QosPolicy::Priority}) {
    sim::Timeline tl("t");
    pfs::ServiceQueue q("q", p);
    const pfs::TenantClass solo;
    for (const Request& r : random_stream(3, /*tenants=*/1, 200)) {
      const auto a = tl.reserve(r.earliest, r.duration);
      const auto b = q.reserve(r.earliest, r.duration, solo);
      ASSERT_EQ(a.start, b.start) << pfs::to_string(p);
      ASSERT_EQ(a.end, b.end) << pfs::to_string(p);
    }
    EXPECT_EQ(q.stats(0).cross_wait, 0) << pfs::to_string(p);
  }
}

TEST(ServiceQueue, FairShareStretchBoundedByTenantCount) {
  // However the requests interleave, no request's service may stretch
  // beyond (active tenants) x its nominal duration, and the
  // per-tenant rollup must stay internally consistent.
  for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    const int tenants = 2 + static_cast<int>(seed % 3);
    pfs::ServiceQueue q("q", pfs::QosPolicy::FairShare);
    for (const Request& r : random_stream(seed, tenants, 400)) {
      pfs::TenantClass cls;
      cls.id = r.tenant;
      const auto iv = q.reserve(r.earliest, r.duration, cls);
      const sim::Duration served = iv.end - iv.start;
      ASSERT_GE(served, r.duration);
      ASSERT_LE(served, r.duration * tenants);
    }
    for (int t = 0; t < tenants; ++t) {
      const pfs::QosStats st = q.stats(t);
      EXPECT_LE(st.peak_active, tenants);
      EXPECT_GE(st.busy, 0);
    }
  }
}

TEST(ServiceQueue, FairShareNeverDelaysStartBehindOtherTenants) {
  // A fair-share lane starts at max(earliest, own previous end): another
  // tenant's backlog stretches service but never blocks admission.
  pfs::ServiceQueue q("q", pfs::QosPolicy::FairShare);
  pfs::TenantClass heavy;  // tenant 0 builds a deep backlog
  heavy.id = 0;
  q.reserve(0, 1'000'000, heavy);
  pfs::TenantClass light;
  light.id = 1;
  const auto iv = q.reserve(100, 10, light);
  EXPECT_EQ(iv.start, 100);
  EXPECT_EQ(iv.end, 120);  // stretched 2x by the active heavy tenant
}

TEST(ServiceQueue, PriorityTopClassNeverSlowerThanFifo) {
  // Same request stream through a strict-priority queue and a FIFO queue:
  // the top-priority tenant's completions under priority are <= its FIFO
  // completions, request by request (zero noise).
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    const int tenants = 3;
    pfs::ServiceQueue prio("p", pfs::QosPolicy::Priority);
    pfs::ServiceQueue fifo("f", pfs::QosPolicy::Fifo);
    for (const Request& r : random_stream(seed, tenants, 400)) {
      pfs::TenantClass cls;
      cls.id = r.tenant;
      cls.priority = (r.tenant == 0) ? 1 : 0;  // tenant 0 is the top class
      const auto a = prio.reserve(r.earliest, r.duration, cls);
      const auto b = fifo.reserve(r.earliest, r.duration, cls);
      if (r.tenant == 0) {
        ASSERT_LE(a.end, b.end);
      }
    }
  }
}

TEST(ServiceQueue, PriorityLowClassWaitsBehindHigh) {
  pfs::ServiceQueue q("q", pfs::QosPolicy::Priority);
  pfs::TenantClass hi;
  hi.id = 0;
  hi.priority = 2;
  pfs::TenantClass lo;
  lo.id = 1;
  lo.priority = 0;
  q.reserve(0, 1000, hi);
  const auto iv = q.reserve(0, 10, lo);
  EXPECT_EQ(iv.start, 1000);  // waits out the whole high-priority horizon
  const auto hi2 = q.reserve(0, 10, hi);
  EXPECT_EQ(hi2.start, 1000);  // unaffected by the low-priority commit
}

TEST(ServiceQueue, RejectsMalformedTenants) {
  pfs::ServiceQueue q("q", pfs::QosPolicy::FairShare);
  pfs::TenantClass bad;
  bad.id = -1;
  EXPECT_THROW(q.reserve(0, 1, bad), tpio::Error);
}

// ---------------------------------------------------------------------------
// End-to-end randomized tenant mixes.
// ---------------------------------------------------------------------------

xp::RunSpec tenant_spec(std::uint64_t pick, int procs) {
  xp::RunSpec s;
  s.platform = xp::scaled(xp::ibex());
  s.nprocs = procs;
  s.options.cb_size = 4ull << 20;
  s.verify = true;
  switch (pick % 3) {
    case 0:
      s.workload = wl::make_ior(1u << 19);
      s.options.overlap = coll::OverlapMode::WriteComm2;
      break;
    case 1:
      s.workload = wl::make_tile256(2, 256);
      s.options.overlap = coll::OverlapMode::None;
      break;
    default:
      s.workload = wl::make_flash(8, 2, 16 * 1024);
      s.options.overlap = coll::OverlapMode::Write;
      break;
  }
  return s;
}

TEST(QosFuzz, RandomMixesConserveBytesPerTenant) {
  // Randomized tenant mixes (count, shapes, arrivals, QoS policy): every
  // tenant's file must verify byte-exactly against its own workload —
  // byte conservation and no cross-tenant content bleed under
  // Integrity::Store — and the result geometry must be internally
  // consistent.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Rng rng(sim::Rng::derive_seed(0xC0, seed));
    xp::MultiRunSpec m;
    const int nt = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int t = 0; t < nt; ++t) {
      const int procs = (rng.next_u64() % 2) ? 8 : 16;
      m.tenants.push_back(tenant_spec(rng.next_u64(), procs));
    }
    const std::uint64_t qpick = rng.next_u64() % 3;
    m.qos = qpick == 0 ? pfs::QosPolicy::Fifo
                       : (qpick == 1 ? pfs::QosPolicy::FairShare
                                     : pfs::QosPolicy::Priority);
    if (m.qos == pfs::QosPolicy::Priority) {
      for (int t = 0; t < nt; ++t) {
        m.priorities.push_back(static_cast<int>(rng.next_u64() % 3));
      }
    }
    m.arrival.model =
        (rng.next_u64() % 2) ? xp::ArrivalModel::Poisson : xp::ArrivalModel::Fixed;
    m.arrival.gap = sim::microseconds(200);
    m.seed = seed;
    m.store_content = true;

    const xp::MultiRunResult r = xp::execute_multi(m);
    ASSERT_EQ(r.tenants.size(), static_cast<std::size_t>(nt));
    sim::Time last_completion = 0;
    for (int t = 0; t < nt; ++t) {
      const xp::RunResult& run = r.tenants[static_cast<std::size_t>(t)].run;
      EXPECT_EQ(run.verify_error, "") << "seed " << seed << " tenant " << t;
      EXPECT_EQ(run.io_error, "") << "seed " << seed << " tenant " << t;
      EXPECT_GT(run.bytes, 0u);
      EXPECT_GE(run.completion, run.arrival);
      EXPECT_EQ(run.makespan, run.completion - run.arrival);
      last_completion = std::max(last_completion, run.completion);
      EXPECT_GT(r.tenants[static_cast<std::size_t>(t)].qos.requests, 0u);
    }
    EXPECT_EQ(r.makespan, last_completion);
  }
}

TEST(QosFuzz, FairShareSlowdownBoundedByTenantCount) {
  // N identical tenants arriving together under fair share: tenants only
  // interact through the storage queues (disjoint node blocks), where the
  // per-request stretch is bounded by N — so the end-to-end slowdown is
  // bounded by N (small tolerance for schedule-composition effects).
  const int nt = 3;
  xp::MultiRunSpec m;
  for (int t = 0; t < nt; ++t) m.tenants.push_back(tenant_spec(0, 16));
  m.qos = pfs::QosPolicy::FairShare;
  m.seed = 31;
  const xp::MultiRunResult r = xp::execute_multi(m, /*with_baselines=*/true);
  for (int t = 0; t < nt; ++t) {
    const double sd = r.tenants[static_cast<std::size_t>(t)].slowdown;
    EXPECT_GE(sd, 1.0) << "tenant " << t;
    EXPECT_LE(sd, static_cast<double>(nt) * 1.05) << "tenant " << t;
  }
}

TEST(QosFuzz, StrictPriorityTopTenantNeverSlowerThanFifo) {
  // Same 3-tenant mix under FIFO and under strict priority with tenant 0
  // on top (zero noise, fixed schedulers): the top tenant's turnaround
  // under priority must not exceed its FIFO turnaround.
  xp::MultiRunSpec fifo;
  fifo.tenants = {tenant_spec(0, 16), tenant_spec(1, 16), tenant_spec(2, 16)};
  fifo.seed = 37;
  fifo.qos = pfs::QosPolicy::Fifo;

  xp::MultiRunSpec prio = fifo;
  prio.qos = pfs::QosPolicy::Priority;
  prio.priorities = {2, 0, 0};

  const xp::MultiRunResult a = xp::execute_multi(fifo);
  const xp::MultiRunResult b = xp::execute_multi(prio);
  EXPECT_LE(b.tenants[0].run.makespan, a.tenants[0].run.makespan);
  // And the interference accounting must see it: the top tenant's
  // cross-tenant wait under priority is bounded by its FIFO wait.
  EXPECT_LE(b.tenants[0].qos.cross_wait, a.tenants[0].qos.cross_wait);
}

}  // namespace
