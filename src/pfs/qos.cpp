#include "pfs/qos.hpp"

#include <algorithm>
#include <cmath>

#include "simbase/error.hpp"

namespace tpio::pfs {

const char* to_string(QosPolicy p) {
  switch (p) {
    case QosPolicy::Fifo:
      return "fifo";
    case QosPolicy::FairShare:
      return "fair";
    case QosPolicy::Priority:
      return "priority";
  }
  tpio::fail("unknown QosPolicy");
}

QosPolicy parse_qos(const std::string& s) {
  if (s == "fifo") return QosPolicy::Fifo;
  if (s == "fair" || s == "fairshare" || s == "fair-share") {
    return QosPolicy::FairShare;
  }
  if (s == "priority" || s == "prio") return QosPolicy::Priority;
  tpio::fail("unknown QoS policy '" + s + "' (expected fifo|fair|priority)");
}

ServiceQueue::Lane& ServiceQueue::lane(const TenantClass& who) {
  TPIO_CHECK(who.id >= 0, "tenant id must be >= 0");
  if (static_cast<std::size_t>(who.id) >= lanes_.size()) {
    lanes_.resize(static_cast<std::size_t>(who.id) + 1);
  }
  Lane& ln = lanes_[static_cast<std::size_t>(who.id)];
  ln.used = true;
  return ln;
}

sim::Timeline::Interval ServiceQueue::reserve(sim::Time earliest,
                                              sim::Duration duration,
                                              const TenantClass& who) {
  TPIO_CHECK(earliest >= 0, "reserve with negative start");
  TPIO_CHECK(duration >= 0, "reserve with negative duration");
  // Noise inflation exactly as sim::Timeline applies it — one draw per
  // nonzero reservation, same rounding — so a FIFO queue with one tenant
  // replays the historical Timeline schedule bit-for-bit.
  sim::Duration d = duration;
  if (noise_ != nullptr && duration > 0) {
    d = static_cast<sim::Duration>(
        std::llround(static_cast<double>(duration) * noise_->factor()));
    d = std::max<sim::Duration>(d, 1);
  }

  Lane& ln = lane(who);
  // Every discipline queues a request behind its tenant's earlier ones;
  // FIFO queues it behind everyone's, and Priority behind the committed
  // horizon of every class at its priority or higher (lower-priority work
  // never delays it).
  const sim::Time own_start = std::max(earliest, ln.next_free);
  sim::Time start = own_start;
  if (policy_ == QosPolicy::Fifo) start = std::max(earliest, fifo_next_free_);
  if (policy_ == QosPolicy::Priority) {
    for (const auto& [prio, free_at] : class_free_) {
      if (prio >= who.priority) start = std::max(start, free_at);
    }
  }
  // Tenants backlogged at the start, this one included.
  int active = 1;
  for (std::size_t t = 0; t < lanes_.size(); ++t) {
    if (static_cast<int>(t) == who.id) continue;
    if (lanes_[t].used && lanes_[t].next_free > start) ++active;
  }

  sim::Duration served = d;
  switch (policy_) {
    case QosPolicy::Fifo:
      fifo_next_free_ = start + served;
      break;
    case QosPolicy::FairShare:
      // A lane never queues behind the others; contention stretches its
      // service by the backlogged tenant count instead.
      served = static_cast<sim::Duration>(
          std::llround(static_cast<double>(d) * static_cast<double>(active)));
      break;
    case QosPolicy::Priority: {
      sim::Time& horizon = class_free_[who.priority];
      horizon = std::max(horizon, start + served);
      break;
    }
  }
  // Waiting behind the tenant's own earlier requests is not interference;
  // waiting behind others and the fair-share stretch are.
  ln.stats.cross_wait += (start - own_start) + (served - d);

  const sim::Time end = start + served;
  ln.next_free = std::max(ln.next_free, end);
  busy_ += served;
  ln.stats.requests += 1;
  ln.stats.busy += served;
  ln.stats.peak_active = std::max(ln.stats.peak_active, active);
  return {start, end};
}

sim::Time ServiceQueue::next_free() const {
  sim::Time t = fifo_next_free_;
  for (const Lane& ln : lanes_) t = std::max(t, ln.next_free);
  for (const auto& [prio, free_at] : class_free_) t = std::max(t, free_at);
  return t;
}

QosStats ServiceQueue::stats(int tenant) const {
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= lanes_.size()) {
    return {};
  }
  return lanes_[static_cast<std::size_t>(tenant)].stats;
}

}  // namespace tpio::pfs
