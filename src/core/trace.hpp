#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sched/conductor.hpp"
#include "simbase/time.hpp"

namespace tpio::coll {

/// One engine phase execution on one rank.
struct TraceEvent {
  const char* name;   // "shuffle_init", "write_wait", ...
  int cycle;          // internal cycle, -1 if not applicable
  sim::Time begin;
  sim::Time end;
};

/// Per-rank recording of collective-I/O phases, exportable in the Chrome
/// tracing JSON format (chrome://tracing, Perfetto): ranks appear as
/// threads, phases as duration events on the virtual timeline. Attach one
/// Trace per rank via Options::trace to see exactly how a scheduler
/// pipelines shuffles against file accesses.
class Trace {
 public:
  void add(const char* name, int cycle, sim::Time begin, sim::Time end) {
    events_.push_back(TraceEvent{name, cycle, begin, end});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// A complete chrome://tracing document for a set of ranks' traces.
  static std::string chrome_document(std::span<const Trace> per_rank);

 private:
  std::vector<TraceEvent> events_;
};

/// RAII recorder used by the engines: one event spanning the rank's virtual
/// clock from construction to destruction; no-op when trace == nullptr. A
/// temporary records an instant.
class ScopedTraceEvent {
 public:
  ScopedTraceEvent(Trace* t, const char* name, int cycle,
                   const sim::RankCtx& ctx)
      : trace_(t), name_(name), cycle_(cycle), ctx_(ctx), begin_(ctx.now()) {}
  ~ScopedTraceEvent() {
    if (trace_ != nullptr) trace_->add(name_, cycle_, begin_, ctx_.now());
  }
  ScopedTraceEvent(const ScopedTraceEvent&) = delete;
  ScopedTraceEvent& operator=(const ScopedTraceEvent&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  int cycle_;
  const sim::RankCtx& ctx_;
  sim::Time begin_;
};

}  // namespace tpio::coll
