#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "sched/fiber.hpp"
#include "simbase/time.hpp"

namespace tpio::sim {

class Conductor;
class RankCtx;

/// One-shot completion notice carrying a virtual completion time.
///
/// Events are the only way simulated ranks wait for each other or for
/// modelled hardware (network transfers, storage requests). An event is
/// completed exactly once, by a rank acting under the baton, with a time
/// that must not precede that rank's own clock; waiters resume at
/// max(own clock, event time).
class Event {
 public:
  bool done() const { return done_; }
  Time time() const { return time_; }

 private:
  friend class Conductor;
  friend class RankCtx;
  bool done_ = false;
  Time time_ = 0;
  std::vector<int> waiters_;
};

using EventPtr = std::shared_ptr<Event>;

/// Per-rank handle passed to the rank's program.
///
/// All methods must be called from the owning rank's fiber. `act()` runs a
/// critical section under the global simulation baton: the section
/// executes only when this rank holds the minimal (clock, rank) pair
/// among runnable ranks, which serializes every mutation of shared
/// simulation state in virtual-time order and makes whole-program
/// schedules deterministic.
///
/// Multi-group (multi-tenant) runs: `rank()`/`size()` are *group-local* —
/// each tenant's program sees MPI-style ranks 0..n_t-1 — while the
/// scheduler orders the baton by a conductor-global id (tenant blocks in
/// registration order). A single-group conductor has global == local, so
/// solo runs are bit-identical to the pre-group code path.
class RankCtx {
 public:
  int rank() const { return rank_; }
  int size() const;
  Time now() const { return clock_; }

  /// Local computation: advance only this rank's clock. No synchronization.
  void advance(Duration d);

  /// Jump this rank's clock forward to `t` (no-op if already past it).
  void advance_to(Time t);

  /// Execute `fn()` while holding the simulation baton.
  /// `fn` may touch shared simulation state and complete events.
  template <class F>
  auto act(F&& fn) {
    baton_acquire();
    struct Releaser {
      RankCtx* c;
      ~Releaser() { c->baton_release(); }
    } rel{this};
    return fn();
  }

  /// Complete `ev` at time `t` (must be >= now()). Call under act().
  void complete(Event& ev, Time t);

  /// Block until `ev` completes; clock advances to max(now, ev.time()).
  /// `site` labels the wait in deadlock reports (static string only, e.g.
  /// "mpi.recv") — pass the most specific tag the caller knows.
  void wait_event(Event& ev, const char* site = "wait_event");

  /// Block until all events complete; clock ends at the max completion time
  /// (but never moves backwards).
  void wait_all_events(std::span<const EventPtr> evs,
                       const char* site = "wait_event");

  Conductor& conductor() { return *conductor_; }

 private:
  friend class Conductor;
  RankCtx(Conductor* c, int gid);

  void baton_acquire();
  void baton_release();

  Conductor* conductor_;
  int gid_;    // conductor-global scheduling id (baton order)
  int rank_;   // group-local rank (what the program sees)
  int group_;  // owning group index
  Time clock_ = 0;
};

/// Deterministic discrete-event conductor.
///
/// Runs N rank programs as cooperatively scheduled stackful fibers on the
/// calling host thread, granting the right to mutate shared simulation
/// state ("the baton") to the runnable rank with the smallest (virtual
/// clock, rank id). Baton handoffs and event waits are user-space context
/// switches, so rank counts are bounded by memory (a small stack per rank),
/// not by OS threads; 576-rank paper cells and 8192-rank smokes run on one
/// thread.
///
/// Determinism: only one fiber runs at a time, and the scheduler always
/// resumes the minimal (registered clock, rank) pair; a rank's registered
/// clock changes only through its own actions or an event completion made
/// under the baton. Every decision is therefore a function of the programs
/// and their seeds, never of the host: the same inputs yield the same
/// virtual schedule on any machine and at any sweep worker count. The
/// committed golden fingerprints (tests/golden/) pin the schedules.
class Conductor {
 public:
  explicit Conductor(int nranks);
  /// Multi-group conductor: one block of ranks per group (tenant), all
  /// multiplexed on the same baton/fiber scheduler. Group g's ranks get
  /// global ids [base_g, base_g + sizes[g]) and see group-local
  /// rank()/size(); the baton still grants strictly by (clock, global id),
  /// so cross-tenant interleaving is a deterministic function of virtual
  /// time alone.
  explicit Conductor(const std::vector<int>& group_sizes);
  ~Conductor();

  /// Execute `program(ctx)` for every rank; returns when all rank
  /// programs have finished. Rethrows the first exception raised by any
  /// rank. Everything runs on the calling thread.
  /// Multi-group conductors run the same program for every group (each
  /// rank still sees its group-local rank()/size()).
  void run(const std::function<void(RankCtx&)>& program);

  /// Execute `programs[g](ctx)` for every rank of every group g (one
  /// program per group; programs.size() must equal groups()). The
  /// per-group programs are multiplexed on one scheduler — the
  /// multi-tenant execution primitive.
  void run(const std::vector<std::function<void(RankCtx&)>>& programs);

  int size() const { return static_cast<int>(states_.size()); }

  int groups() const { return static_cast<int>(group_size_.size()); }
  int group_size(int g) const;
  /// Global id of group `g`'s rank 0.
  int group_base(int g) const;

  /// Virtual time at which global rank `rank` finished its program (valid
  /// after run()).
  Time finish_time(int rank) const;

  /// max over ranks of finish_time — the simulated wall-clock of the job.
  Time makespan() const;

  /// max over group `g`'s ranks of finish_time — the group's completion.
  Time group_makespan(int g) const;

  /// Total number of baton acquisitions (diagnostic / perf counter).
  std::uint64_t actions() const { return actions_; }

 private:
  friend class RankCtx;

  enum class Status { Runnable, Blocked, Done };

  struct FiberJob {
    Conductor* conductor = nullptr;
    int rank = 0;
    const std::function<void(RankCtx&)>* program = nullptr;
  };

  struct RankState {
    Time registered_clock = 0;
    Status status = Status::Runnable;
    const char* block_site = "";
    Time finish_time = 0;
    std::unique_ptr<Fiber> fiber;
    FiberJob job;
  };

  bool is_min(int rank) const;
  void update_entry(int rank, Time clock);
  void complete_event(Event& ev, Time t);
  void block_current(RankCtx& ctx, const char* site);

  /// All live ranks blocked? Records the verdict in first_error_ and
  /// aborts the run (waking every blocked rank exactly once). Never
  /// throws — callers act on aborted_.
  bool detect_deadlock();
  std::string deadlock_message() const;

  /// Record `e` as the run's error (first writer wins) and wake every
  /// blocked rank exactly once so it can unwind. Idempotent.
  void abort_with(std::exception_ptr e);
  [[noreturn]] void throw_aborted();

  void fiber_body(int gid, const std::function<void(RankCtx&)>& program);
  int group_of(int gid) const;

  std::vector<int> group_size_;  // ranks per group
  std::vector<int> group_base_;  // first global id per group
  std::vector<std::unique_ptr<RankState>> states_;
  std::set<std::pair<Time, int>> runnable_;
  int alive_ = 0;
  bool aborted_ = false;
  std::exception_ptr first_error_;
  std::uint64_t actions_ = 0;
};

}  // namespace tpio::sim
