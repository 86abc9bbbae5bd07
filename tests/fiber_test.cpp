#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sched/fiber.hpp"
#include "simbase/sanitizers.hpp"

namespace sim = tpio::sim;
using sim::Fiber;

namespace {

constexpr std::size_t kStack = 64 * 1024;

}  // namespace

TEST(Fiber, RunsToCompletionOnFirstResume) {
  int hits = 0;
  Fiber f(kStack, [](void* p) { ++*static_cast<int*>(p); }, &hits);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(hits, 1);
}

TEST(Fiber, SuspendReturnsControlToResumer) {
  struct State {
    std::vector<int> log;
  } st;
  Fiber f(
      kStack,
      [](void* p) {
        auto* s = static_cast<State*>(p);
        s->log.push_back(1);
        Fiber::suspend();
        s->log.push_back(3);
        Fiber::suspend();
        s->log.push_back(5);
      },
      &st);
  f.resume();
  st.log.push_back(2);
  f.resume();
  st.log.push_back(4);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(st.log, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksTheRunningFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f(kStack, [](void* p) { *static_cast<Fiber**>(p) = Fiber::current(); },
          &seen);
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, StacksAreIndependent) {
  // Two fibers interleave deep-ish call chains; each must keep its own
  // locals intact across the other's execution.
  struct State {
    int id;
    long sum = 0;
  };
  auto body = [](void* p) {
    auto* s = static_cast<State*>(p);
    long local[64];
    for (int i = 0; i < 64; ++i) local[i] = s->id * 1000 + i;
    Fiber::suspend();
    for (int i = 0; i < 64; ++i) s->sum += local[i];
  };
  State a{1}, b{2};
  Fiber fa(kStack, body, &a);
  Fiber fb(kStack, body, &b);
  fa.resume();
  fb.resume();
  fa.resume();
  fb.resume();
  long expect_a = 0, expect_b = 0;
  for (int i = 0; i < 64; ++i) {
    expect_a += 1000 + i;
    expect_b += 2000 + i;
  }
  EXPECT_EQ(a.sum, expect_a);
  EXPECT_EQ(b.sum, expect_b);
}

TEST(Fiber, ThousandsOfFibersFitInMemory) {
  // MAP_NORESERVE + guard-page stacks: creating a paper-scale fiber count
  // must neither exhaust memory nor descriptors. Each runs a shallow body.
  // TSan keeps per-fiber shadow state in its own fixed-size allocator,
  // which 8192 fibers exhaust; scale down there (the interleaving
  // coverage is unchanged — memory-fit is a non-sanitized property).
#ifdef TPIO_TSAN
  const int n = 512;
#else
  const int n = 8192;
#endif
  long sum = 0;
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(n);
  for (int i = 0; i < n; ++i) {
    fibers.push_back(std::make_unique<Fiber>(
        Fiber::default_stack_bytes(),
        [](void* p) {
          ++*static_cast<long*>(p);
          Fiber::suspend();
          ++*static_cast<long*>(p);
        },
        &sum));
  }
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(sum, n);
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(sum, 2L * n);
  for (auto& f : fibers) EXPECT_TRUE(f->finished());
}

TEST(Fiber, DefaultStackRespectsEnvOverride) {
  // Save/restore around the probe; default_stack_bytes re-reads the env on
  // every call.
  const char* old = std::getenv("TPIO_FIBER_STACK_KB");
  const std::string saved = old ? old : "";
  ::setenv("TPIO_FIBER_STACK_KB", "512", 1);
  EXPECT_EQ(Fiber::default_stack_bytes(), 512u * 1024u);
  if (old) {
    ::setenv("TPIO_FIBER_STACK_KB", saved.c_str(), 1);
  } else {
    ::unsetenv("TPIO_FIBER_STACK_KB");
  }
}
