#pragma once

// Random interaction graph for the deterministic conductor: random local
// advances, cross-rank event completions and waits on earlier steps, with a
// barrier per step. Shared by the conductor fuzz suite and the golden suite
// (which pins the resulting action logs).

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "sched/conductor.hpp"
#include "sched/sync.hpp"
#include "simbase/rng.hpp"

namespace tpio::test {

struct ActionLog {
  std::vector<std::tuple<int, int, sim::Time>> entries;  // (rank, step, t)
};

/// Each rank alternates local work, completing "its" event of the step and
/// waiting on a pseudo-random other rank's event of an earlier step.
inline ActionLog run_random_program(std::uint64_t seed, int P, int steps) {
  sim::Conductor c(P);
  // events[r][s]: completed by rank r at its step s.
  std::vector<std::vector<sim::EventPtr>> events(
      static_cast<std::size_t>(P));
  for (auto& v : events) {
    for (int s = 0; s < steps; ++s) v.push_back(std::make_shared<sim::Event>());
  }
  sim::SyncPoint barrier(P);
  ActionLog log;
  c.run([&](sim::RankCtx& ctx) {
    const int r = ctx.rank();
    sim::Rng rng(sim::Rng::derive_seed(seed, static_cast<std::uint64_t>(r)));
    for (int s = 0; s < steps; ++s) {
      ctx.advance(static_cast<sim::Duration>(1 + rng.next_below(997)));
      // Complete my event for this step.
      ctx.act([&] {
        ctx.complete(*events[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)],
                     ctx.now() + static_cast<sim::Time>(rng.next_below(500)));
      });
      // Wait on a random earlier-step event of a random rank. Earlier steps
      // only, so the dependency graph is acyclic across the barrier below.
      if (s > 0) {
        const int peer = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
        const int dep = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s)));
        sim::Event& ev =
            *events[static_cast<std::size_t>(peer)][static_cast<std::size_t>(dep)];
        ctx.wait_event(ev);
        EXPECT_GE(ctx.now(), ev.time());  // causality
      }
      // Periodic barrier keeps all ranks within one step of each other, so
      // every waited-on event is eventually completed (no deadlock).
      barrier.arrive(ctx);
      ctx.act([&] { log.entries.emplace_back(r, s, ctx.now()); });
    }
  });
  return log;
}

}  // namespace tpio::test
