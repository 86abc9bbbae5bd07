#include "sched/conductor.hpp"

#include <algorithm>

#include "simbase/bufpool.hpp"
#include "simbase/error.hpp"

namespace tpio::sim {

Conductor::Conductor(int nranks) : Conductor(std::vector<int>{nranks}) {}

Conductor::Conductor(const std::vector<int>& group_sizes) {
  TPIO_CHECK(!group_sizes.empty(), "conductor needs at least one group");
  int total = 0;
  group_size_.reserve(group_sizes.size());
  group_base_.reserve(group_sizes.size());
  for (int n : group_sizes) {
    TPIO_CHECK(n > 0, "conductor group needs at least one rank");
    group_base_.push_back(total);
    group_size_.push_back(n);
    total += n;
  }
  states_.reserve(static_cast<std::size_t>(total));
  for (int r = 0; r < total; ++r) {
    states_.push_back(std::make_unique<RankState>());
    runnable_.insert({0, r});
  }
  alive_ = total;
}

Conductor::~Conductor() = default;

int Conductor::group_of(int gid) const {
  // Groups are small in number (tenants); a linear scan from the back
  // finds the containing block.
  for (int g = groups() - 1; g >= 0; --g) {
    if (gid >= group_base_[static_cast<std::size_t>(g)]) return g;
  }
  tpio::fail("group_of: global id outside every group");
}

int Conductor::group_size(int g) const {
  TPIO_CHECK(g >= 0 && g < groups(), "group index out of range");
  return group_size_[static_cast<std::size_t>(g)];
}

int Conductor::group_base(int g) const {
  TPIO_CHECK(g >= 0 && g < groups(), "group index out of range");
  return group_base_[static_cast<std::size_t>(g)];
}

RankCtx::RankCtx(Conductor* c, int gid)
    : conductor_(c),
      gid_(gid),
      rank_(gid - c->group_base(c->group_of(gid))),
      group_(c->group_of(gid)) {}

int RankCtx::size() const { return conductor_->group_size(group_); }

void RankCtx::advance(Duration d) {
  TPIO_CHECK(d >= 0, "cannot advance by a negative duration");
  clock_ += d;
}

void RankCtx::advance_to(Time t) { clock_ = std::max(clock_, t); }

bool Conductor::is_min(int rank) const {
  TPIO_CHECK(!runnable_.empty(), "is_min with empty runnable set");
  return runnable_.begin()->second == rank;
}

void Conductor::update_entry(int rank, Time clock) {
  RankState& st = *states_[static_cast<std::size_t>(rank)];
  TPIO_CHECK(st.status == Status::Runnable, "update_entry on non-runnable rank");
  if (st.registered_clock == clock) return;
  runnable_.erase({st.registered_clock, rank});
  st.registered_clock = clock;
  runnable_.insert({clock, rank});
}

void Conductor::throw_aborted() {
  throw Error("simulation aborted (another rank raised an error)");
}

void Conductor::abort_with(std::exception_ptr e) {
  if (!first_error_) first_error_ = std::move(e);
  if (aborted_) return;
  aborted_ = true;
  // Release every blocked fiber exactly once (aborted_ is now set, so this
  // loop never runs again); the scheduler resumes each in (clock, rank)
  // order and it unwinds through throw_aborted().
  for (std::size_t r = 0; r < states_.size(); ++r) {
    RankState& st = *states_[r];
    if (st.status != Status::Blocked) continue;
    st.status = Status::Runnable;
    runnable_.insert({st.registered_clock, static_cast<int>(r)});
  }
}

void RankCtx::baton_acquire() {
  Conductor& c = *conductor_;
  if (c.aborted_) c.throw_aborted();
  c.update_entry(gid_, clock_);
  while (!c.aborted_ && !c.is_min(gid_)) Fiber::suspend();
  if (c.aborted_) c.throw_aborted();
  ++c.actions_;
}

void RankCtx::baton_release() { conductor_->update_entry(gid_, clock_); }

void RankCtx::complete(Event& ev, Time t) {
  // Caller holds the baton (asserted indirectly: completing without the
  // baton would race; we at least enforce causality).
  Conductor& c = *conductor_;
  TPIO_CHECK(!ev.done_, "event completed twice");
  TPIO_CHECK(t >= clock_, "event completion time precedes the actor's clock");
  c.complete_event(ev, t);
}

void Conductor::complete_event(Event& ev, Time t) {
  ev.done_ = true;
  ev.time_ = t;
  for (int w : ev.waiters_) {
    RankState& st = *states_[static_cast<std::size_t>(w)];
    TPIO_CHECK(st.status == Status::Blocked, "event waiter not blocked");
    st.status = Status::Runnable;
    st.registered_clock = std::max(st.registered_clock, t);
    runnable_.insert({st.registered_clock, w});
  }
  ev.waiters_.clear();
}

void Conductor::block_current(RankCtx& ctx, const char* site) {
  RankState& st = *states_[static_cast<std::size_t>(ctx.gid_)];
  TPIO_CHECK(st.status == Status::Runnable, "blocking a non-runnable rank");
  runnable_.erase({st.registered_clock, ctx.gid_});
  st.status = Status::Blocked;
  st.block_site = site;
  Fiber::suspend();
  // Resumed: either our event completed (complete_event re-queued us and
  // the scheduler picked us as min) or the run aborted.
  if (aborted_) throw_aborted();
  TPIO_CHECK(st.status == Status::Runnable, "fiber resumed while still blocked");
  st.block_site = "";
}

void RankCtx::wait_event(Event& ev, const char* site) {
  Conductor& c = *conductor_;
  if (c.aborted_) c.throw_aborted();
  if (!ev.done_) {
    c.update_entry(gid_, clock_);
    ev.waiters_.push_back(gid_);
    c.block_current(*this, site);
    TPIO_CHECK(ev.done_, "woken from wait_event but event not done");
  }
  clock_ = std::max(clock_, ev.time_);
  c.update_entry(gid_, clock_);
}

void RankCtx::wait_all_events(std::span<const EventPtr> evs,
                              const char* site) {
  for (const EventPtr& e : evs) {
    TPIO_CHECK(e != nullptr, "null event in wait_all_events");
    wait_event(*e, site);
  }
}

bool RankCtx::test_event(Event& ev, Duration poll_cost) {
  advance(poll_cost);
  // Determinism requires all potentially-earlier actions to have committed,
  // i.e. this rank must hold the baton when it peeks.
  return act([&] { return ev.done_ && ev.time_ <= clock_; });
}

std::string Conductor::deadlock_message() const {
  // Bounded report: at 8192 ranks an exhaustive listing would build a
  // megabyte string; the first few blockers with their wait sites and
  // registered clocks are what a human needs to find the cycle.
  constexpr std::size_t kMaxListed = 16;
  std::size_t blocked = 0;
  std::string msg = "simulation deadlock: all live ranks blocked (";
  for (std::size_t r = 0; r < states_.size(); ++r) {
    const RankState& st = *states_[r];
    if (st.status != Status::Blocked) continue;
    ++blocked;
    if (blocked > kMaxListed) continue;
    if (blocked > 1) msg += ", ";
    msg += "rank " + std::to_string(r) + ": " + st.block_site + " @" +
           std::to_string(st.registered_clock) + "ns";
  }
  if (blocked > kMaxListed) {
    msg += ", +" + std::to_string(blocked - kMaxListed) + " more";
  }
  msg += ")";
  return msg;
}

bool Conductor::detect_deadlock() {
  if (!runnable_.empty() || alive_ == 0 || aborted_) return false;
  abort_with(std::make_exception_ptr(Error(deadlock_message())));
  return true;
}

void Conductor::run(const std::function<void(RankCtx&)>& program) {
  // Every group runs the same program (each rank still sees group-local
  // rank()/size()); single-group conductors hit the historical path.
  run(std::vector<std::function<void(RankCtx&)>>(
      static_cast<std::size_t>(groups()), program));
}

void Conductor::run(const std::vector<std::function<void(RankCtx&)>>& programs) {
  TPIO_CHECK(static_cast<int>(programs.size()) == groups(),
             "conductor run: one program required per group");
  for (const auto& p : programs) {
    TPIO_CHECK(static_cast<bool>(p), "conductor run: empty program");
  }
  const std::size_t stack_bytes = Fiber::default_stack_bytes();
  for (int r = 0; r < size(); ++r) {
    RankState& st = *states_[static_cast<std::size_t>(r)];
    st.job = FiberJob{this, r,
                      &programs[static_cast<std::size_t>(group_of(r))]};
    st.fiber = std::make_unique<Fiber>(
        stack_bytes,
        [](void* p) {
          auto* job = static_cast<FiberJob*>(p);
          job->conductor->fiber_body(job->rank, *job->program);
        },
        &st.job);
  }
  // Cooperative scheduling loop: always resume the runnable rank with the
  // smallest (registered clock, rank) pair. A resumed fiber runs — local
  // advances, baton actions while it stays minimal — until it must wait
  // (baton order or an event), then control returns here.
  for (;;) {
    if (runnable_.empty()) {
      if (alive_ == 0) break;
      TPIO_CHECK(detect_deadlock(),
                 "scheduler stalled without a deadlock verdict");
      continue;  // woken fibers unwind on the next iterations
    }
    const int r = runnable_.begin()->second;
    states_[static_cast<std::size_t>(r)]->fiber->resume();
  }
  for (auto& st : states_) {
    TPIO_CHECK(!st->fiber || st->fiber->finished(),
               "conductor finished with a live fiber");
    st->fiber.reset();
  }
  // The host thread outlives the run, so free the buffers the run parked
  // in its pool: the next run may ask for other size classes, and reuses
  // the pages through malloc either way (see BufferPool::trim_local).
  BufferPool::trim_local();
  if (first_error_) std::rethrow_exception(first_error_);
}

void Conductor::fiber_body(int rank, const std::function<void(RankCtx&)>& program) {
  RankCtx ctx(this, rank);
  try {
    program(ctx);
  } catch (...) {
    abort_with(std::current_exception());
  }
  RankState& st = *states_[static_cast<std::size_t>(rank)];
  TPIO_CHECK(st.status != Status::Blocked, "rank finished while blocked");
  if (st.status == Status::Runnable) {
    runnable_.erase({st.registered_clock, rank});
  }
  st.status = Status::Done;
  st.finish_time = ctx.clock_;
  --alive_;
  // A finish can starve blocked ranks of their only waker; the scheduler
  // loop delivers the deadlock verdict once it sees the empty runnable set.
}

Time Conductor::finish_time(int rank) const {
  TPIO_CHECK(rank >= 0 && rank < size(), "finish_time: rank out of range");
  const RankState& st = *states_[static_cast<std::size_t>(rank)];
  TPIO_CHECK(st.status == Status::Done, "finish_time before rank finished");
  return st.finish_time;
}

Time Conductor::makespan() const {
  Time m = 0;
  for (int r = 0; r < size(); ++r) m = std::max(m, finish_time(r));
  return m;
}

Time Conductor::group_makespan(int g) const {
  const int base = group_base(g);
  const int n = group_size(g);
  Time m = 0;
  for (int r = base; r < base + n; ++r) m = std::max(m, finish_time(r));
  return m;
}

}  // namespace tpio::sim
