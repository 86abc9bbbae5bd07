#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/conductor.hpp"
#include "simbase/error.hpp"

namespace sim = tpio::sim;
using sim::Conductor;
using sim::Event;
using sim::EventPtr;
using sim::RankCtx;
using sim::Time;

TEST(Conductor, SingleRankAdvances) {
  Conductor c(1);
  c.run([](RankCtx& ctx) {
    EXPECT_EQ(ctx.now(), 0);
    ctx.advance(100);
    EXPECT_EQ(ctx.now(), 100);
    ctx.advance_to(50);  // no-op backwards
    EXPECT_EQ(ctx.now(), 100);
    ctx.advance_to(200);
    EXPECT_EQ(ctx.now(), 200);
  });
  EXPECT_EQ(c.finish_time(0), 200);
  EXPECT_EQ(c.makespan(), 200);
}

TEST(Conductor, NegativeAdvanceThrows) {
  Conductor c(1);
  EXPECT_THROW(c.run([](RankCtx& ctx) { ctx.advance(-1); }), tpio::Error);
}

TEST(Conductor, ActionsExecuteInVirtualTimeOrder) {
  // Ranks act at staggered clocks; the shared log must observe ascending
  // virtual times regardless of host scheduling.
  const int n = 16;
  Conductor c(n);
  std::vector<std::pair<Time, int>> log;
  c.run([&](RankCtx& ctx) {
    // Rank r performs 10 actions at clocks r, r+n, r+2n, ...
    for (int i = 0; i < 10; ++i) {
      ctx.advance_to(static_cast<Time>(ctx.rank() + i * n));
      ctx.act([&] { log.emplace_back(ctx.now(), ctx.rank()); });
    }
  });
  ASSERT_EQ(log.size(), 160u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].first, log[i].first)
        << "action " << i << " committed out of order";
  }
}

TEST(Conductor, TieBreakByRankId) {
  const int n = 8;
  Conductor c(n);
  std::vector<int> order;
  c.run([&](RankCtx& ctx) {
    ctx.act([&] { order.push_back(ctx.rank()); });
  });
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Conductor, EventWaitAdvancesToCompletionTime) {
  Conductor c(2);
  auto ev = std::make_shared<Event>();
  c.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.advance(1000);
      ctx.act([&] { ctx.complete(*ev, 1500); });
    } else {
      ctx.wait_event(*ev);
      EXPECT_EQ(ctx.now(), 1500);
    }
  });
  EXPECT_EQ(c.finish_time(1), 1500);
}

TEST(Conductor, WaitOnAlreadyDoneEventJumpsForward) {
  Conductor c(2);
  auto ev = std::make_shared<Event>();
  c.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.act([&] { ctx.complete(*ev, 700); });
    } else {
      ctx.advance(10'000);  // waiter is already past the completion time
      ctx.wait_event(*ev);
      EXPECT_EQ(ctx.now(), 10'000);  // clock never moves backwards
    }
  });
}

TEST(Conductor, CompleteBeforeActorClockThrows) {
  Conductor c(1);
  auto ev = std::make_shared<Event>();
  EXPECT_THROW(c.run([&](RankCtx& ctx) {
                 ctx.advance(100);
                 ctx.act([&] { ctx.complete(*ev, 50); });
               }),
               tpio::Error);
}

TEST(Conductor, DoubleCompleteThrows) {
  Conductor c(1);
  auto ev = std::make_shared<Event>();
  EXPECT_THROW(c.run([&](RankCtx& ctx) {
                 ctx.act([&] { ctx.complete(*ev, 1); });
                 ctx.act([&] { ctx.complete(*ev, 2); });
               }),
               tpio::Error);
}

TEST(Conductor, WaitAllEventsEndsAtMax) {
  Conductor c(2);
  auto e1 = std::make_shared<Event>();
  auto e2 = std::make_shared<Event>();
  auto e3 = std::make_shared<Event>();
  c.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.act([&] {
        ctx.complete(*e1, 300);
        ctx.complete(*e2, 900);
        ctx.complete(*e3, 600);
      });
    } else {
      std::vector<EventPtr> evs{e1, e2, e3};
      ctx.wait_all_events(evs);
      EXPECT_EQ(ctx.now(), 900);
    }
  });
}

TEST(Conductor, TestEventSeesOnlyPastCompletions) {
  Conductor c(2);
  auto ev = std::make_shared<Event>();
  c.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      // Completes the event with a *future* timestamp.
      ctx.act([&] { ctx.complete(*ev, 5000); });
    } else {
      ctx.advance(1000);
      EXPECT_FALSE(ctx.test_event(*ev));  // done, but at t=5000 > 1000
      ctx.advance_to(6000);
      EXPECT_TRUE(ctx.test_event(*ev));
    }
  });
}

TEST(Conductor, TestEventChargesPollCost) {
  Conductor c(1);
  auto ev = std::make_shared<Event>();
  c.run([&](RankCtx& ctx) {
    ctx.act([&] { ctx.complete(*ev, 0); });
    ctx.test_event(*ev, 25);
    EXPECT_EQ(ctx.now(), 25);
  });
}

TEST(Conductor, DeadlockDetected) {
  Conductor c(2);
  auto ev = std::make_shared<Event>();  // nobody completes it
  try {
    c.run([&](RankCtx& ctx) {
      if (ctx.rank() == 1) ctx.wait_event(*ev);
    });
    FAIL() << "expected deadlock error";
  } catch (const tpio::Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(Conductor, AllRanksBlockedDeadlockDetected) {
  Conductor c(3);
  auto ev = std::make_shared<Event>();
  EXPECT_THROW(c.run([&](RankCtx& ctx) { ctx.wait_event(*ev); }), tpio::Error);
}

TEST(Conductor, DeadlockReportNamesSiteAndClock) {
  Conductor c(2);
  auto ev = std::make_shared<Event>();
  try {
    c.run([&](RankCtx& ctx) {
      if (ctx.rank() == 1) {
        ctx.advance(420);
        ctx.wait_event(*ev, "test.rendezvous");
      }
    });
    FAIL() << "expected deadlock error";
  } catch (const tpio::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1: test.rendezvous @420ns"), std::string::npos)
        << msg;
  }
}

TEST(Conductor, DeadlockReportTruncatesToSixteenRanks) {
  const int n = 24;  // 16 listed + 8 elided
  Conductor c(n);
  auto ev = std::make_shared<Event>();
  try {
    c.run([&](RankCtx& ctx) { ctx.wait_event(*ev, "test.hang"); });
    FAIL() << "expected deadlock error";
  } catch (const tpio::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 15: test.hang"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("rank 16:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("+8 more"), std::string::npos) << msg;
  }
}

TEST(Conductor, FinishingRankRecordsDeadlockVerdict) {
  // The last runnable rank finishing (not blocking) is what exposes the
  // deadlock; the verdict must be recorded in first_error_ and rethrown
  // from run() — the historical bug swallowed the throw on this path.
  Conductor c(3);
  auto ev = std::make_shared<Event>();
  try {
    c.run([&](RankCtx& ctx) {
      if (ctx.rank() != 0) ctx.wait_event(*ev, "test.orphaned");
      // Rank 0 finishes without completing ev.
    });
    FAIL() << "expected deadlock error";
  } catch (const tpio::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("test.orphaned"), std::string::npos) << msg;
  }
}

TEST(Conductor, ExceptionInOneRankPropagates) {
  Conductor c(4);
  auto ev = std::make_shared<Event>();
  try {
    c.run([&](RankCtx& ctx) {
      if (ctx.rank() == 2) throw std::runtime_error("boom");
      ctx.wait_event(*ev);  // would otherwise deadlock
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    // Either the original error or the deadlock/abort notice, depending on
    // which rank records first; the original must win when rank 2 is
    // first to fail.
    SUCCEED();
  }
}

TEST(Conductor, AbortWakesEveryBlockedRankExactlyOnce) {
  // Many ranks block; one throws. Every blocked rank must be released by
  // the abort protocol exactly once and run() must rethrow the original
  // error.
  const int n = 32;
  Conductor c(n);
  auto ev = std::make_shared<Event>();
  int unwound = 0;
  try {
    c.run([&](RankCtx& ctx) {
      if (ctx.rank() == n - 1) {
        ctx.advance(1'000'000);  // throw strictly after everyone blocked
        ctx.act([] {});
        throw std::runtime_error("late failure");
      }
      try {
        ctx.wait_event(*ev, "test.abort_wake");
      } catch (...) {
        ++unwound;
        throw;
      }
    });
    FAIL() << "expected exception";
  } catch (const std::exception&) {
    SUCCEED();
  }
  EXPECT_EQ(unwound, n - 1);
}

TEST(Conductor, DeterministicScheduleAcrossRuns) {
  // The exact interleaving (and thus the shared log) must be identical on
  // every execution with identical programs.
  auto run_once = [&] {
    Conductor c(8);
    std::vector<std::pair<Time, int>> log;
    auto ev = std::make_shared<Event>();
    c.run([&](RankCtx& ctx) {
      const int r = ctx.rank();
      ctx.advance(static_cast<sim::Duration>((r * 37) % 11));
      ctx.act([&] { log.emplace_back(ctx.now(), r); });
      if (r == 0) {
        ctx.advance(100);
        ctx.act([&] { ctx.complete(*ev, ctx.now() + 5); });
      } else {
        ctx.wait_event(*ev);
      }
      ctx.act([&] { log.emplace_back(ctx.now(), r); });
    });
    return log;
  };
  const auto a = run_once();
  const auto b = run_once();
  const auto d = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, d);
}

TEST(Conductor, FibersScaleToThousandsOfRanks) {
  // Rank counts far past host thread limits must fit as user-space stacks.
  const int n = 2048;
  Conductor c(n);
  std::vector<EventPtr> evs;
  for (int i = 0; i < n; ++i) evs.push_back(std::make_shared<Event>());
  c.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    if (r > 0) ctx.wait_event(*evs[static_cast<std::size_t>(r - 1)]);
    ctx.advance(1);
    ctx.act([&] { ctx.complete(*evs[static_cast<std::size_t>(r)], ctx.now()); });
  });
  EXPECT_EQ(c.makespan(), n);
}

TEST(Conductor, ActionCounterCounts) {
  Conductor c(2);
  c.run([](RankCtx& ctx) {
    ctx.act([] {});
    ctx.act([] {});
  });
  EXPECT_GE(c.actions(), 4u);
}

TEST(Conductor, FinishTimeBeforeDoneThrows) {
  Conductor c(1);
  EXPECT_THROW((void)c.finish_time(0), tpio::Error);
  EXPECT_THROW((void)c.finish_time(5), tpio::Error);
}
