#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
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

std::uintptr_t page_bytes() {
  return static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
}

/// Top of the running fiber's stack, from a frame of its entry function:
/// stacks end page aligned, and a shallow entry's frame lies in the top
/// page.
std::uintptr_t stack_top(const void* frame) {
  const auto f = reinterpret_cast<std::uintptr_t>(frame);
  return (f + page_bytes() - 1) / page_bytes() * page_bytes();
}

/// Fiber entry: stores the top of its stack through `arg`.
void record_top(void* arg) {
  *static_cast<std::uintptr_t*>(arg) = stack_top(__builtin_frame_address(0));
}

/// Recurses, writing to every frame, until a frame lies below `floor`.
[[gnu::noinline]] void dig(std::uintptr_t floor) {
  volatile char pad[512];
  pad[0] = 1;
  if (reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)) > floor) {
    dig(floor);
  }
  pad[1] = pad[0];  // keeps the recursive call out of tail position
}

struct Overflow {
  std::size_t stack_bytes = 0;
  std::uintptr_t want_top = 0;  // nonzero: overflow only a stack with this top
};

/// Fiber entry that overflows its stack: it digs until a frame reaches the
/// middle of the page below the stack. With a guard page there the fiber
/// faults; without one it returns.
void overflow(void* arg) {
  const auto& o = *static_cast<const Overflow*>(arg);
  const std::uintptr_t top = stack_top(__builtin_frame_address(0));
  if (o.want_top != 0 && top != o.want_top) return;  // not the stack meant
  dig(top - o.stack_bytes - page_bytes() / 2);
}

void run_overflow(Overflow o) {
  Fiber f(o.stack_bytes, &overflow, &o);
  f.resume();
}

/// The fault kills the child with SIGSEGV; a sanitizer's own handler may
/// report it and exit non-zero instead.
bool died_of_segv(int status) {
#if defined(TPIO_ASAN) || defined(TPIO_TSAN)
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) return true;
#endif
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV;
}

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

TEST(Fiber, RecycledStackIsReused) {
  // A stack size no other test uses, so nothing of it is parked yet.
  constexpr std::size_t kSize = 72 * 1024;
  std::uintptr_t first = 0;
  { Fiber f(kSize, &record_top, &first); f.resume(); }
  // Were the first stack unmapped, this same-size mapping would most
  // likely take its address range; parked, it stays the next fiber's.
  const std::size_t map_bytes = kSize + page_bytes();
  void* squatter = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(squatter, MAP_FAILED);
  std::uintptr_t second = 0;
  { Fiber f(kSize, &record_top, &second); f.resume(); }
  ::munmap(squatter, map_bytes);
  EXPECT_NE(first, 0u);
  EXPECT_EQ(second, first);
}

TEST(Fiber, GuardPageStopsOverflow) {
  // An overflow faults in the guard page below a freshly mapped stack and
  // below a recycled one. The body stops digging halfway into that page,
  // so a stack that lost its guard would let the child exit cleanly.
  constexpr std::size_t kSize = 80 * 1024;  // no other test uses it
  EXPECT_EXIT(run_overflow(Overflow{kSize, 0}), died_of_segv, "");
  std::uintptr_t parked = 0;
  { Fiber f(kSize, &record_top, &parked); f.resume(); }
  EXPECT_EXIT(run_overflow(Overflow{kSize, parked}), died_of_segv, "");
}
