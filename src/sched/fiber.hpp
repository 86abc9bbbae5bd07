#pragma once

#include <cstddef>

namespace tpio::sim {

extern "C" void tpio_fiber_main(void* f);

/// Minimal stackful coroutine ("fiber") for the conductor's cooperative
/// rank scheduler.
///
/// A fiber runs on a private mmap'd stack (guard page below, MAP_NORESERVE
/// so untouched pages cost no RSS) with a saved register context. Stacks
/// are recycled: a fiber takes a stack of its size that a destroyed fiber
/// parked in a process-wide pool before it maps a new one, and parks its
/// own when destroyed (up to a constant cap, else unmaps it). A recycled
/// stack keeps its guard page and the pages its last fiber touched, so a
/// run's fibers neither map, guard nor fault in again what the previous
/// run's used.
///
/// `resume()` switches the calling host thread onto the fiber's stack until
/// the fiber either calls `suspend()` or returns from its entry function;
/// control then returns to the `resume()` caller. Switches are plain
/// user-space register swaps — no futex, no scheduler handoff, no syscall —
/// which is what lets one host thread multiplex thousands of simulated
/// ranks.
///
/// Threading: a fiber must always be resumed from the same host thread
/// (the conductor drives all of a run's fibers from one thread; distinct
/// conductors on distinct threads are fine). `suspend()` must only be
/// called from inside a running fiber. Exceptions thrown inside a fiber
/// must be caught before the entry function returns — they cannot
/// propagate across the context switch.
///
/// Sanitizers: switches carry the ASan fake-stack and TSan fiber
/// annotations, so fiber-backed simulations stay clean under
/// -DTPIO_SANITIZE=address|thread.
class Fiber {
 public:
  using Entry = void (*)(void*);

  /// Create a suspended fiber that will run `entry(arg)` when first
  /// resumed. `stack_bytes` is rounded up to whole pages.
  Fiber(std::size_t stack_bytes, Entry entry, void* arg);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it suspends or finishes. Must not be called on a
  /// finished fiber or from inside any fiber of the same thread's
  /// currently-running chain.
  void resume();

  /// Yield from the running fiber back to its resume() caller. The next
  /// resume() returns control right here.
  static void suspend();

  /// True once the entry function has returned; the fiber can no longer
  /// be resumed (its stack is retained until destruction).
  bool finished() const { return finished_; }

  /// The fiber currently running on this thread (nullptr on the host
  /// stack). Lets blocking primitives assert they are on a fiber.
  static Fiber* current();

  /// Stack size used by Conductor-created fibers: TPIO_FIBER_STACK_KB
  /// env override, else 256 KiB (1 MiB under ASan/TSan, whose
  /// instrumented frames and redzones are several times larger).
  static std::size_t default_stack_bytes();

 private:
  friend void tpio_fiber_main(void* f);
  static void run_entry(Fiber* f);

  void* map_base_ = nullptr;    // mmap region including the guard page
  std::size_t map_bytes_ = 0;   // total mapping size
  void* stack_lo_ = nullptr;    // usable stack bottom (above the guard)
  std::size_t stack_bytes_ = 0; // usable stack size
  void* fiber_sp_ = nullptr;    // saved context of the suspended fiber
  void* host_sp_ = nullptr;     // saved context of the host while running
  Entry entry_;
  void* arg_;
  bool finished_ = false;

  // Sanitizer bookkeeping (unused members cost nothing when disabled).
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
  void* asan_host_fake_ = nullptr;   // host's fake stack while fiber runs
  void* asan_fiber_fake_ = nullptr;  // fiber's fake stack while suspended
  const void* asan_host_bottom_ = nullptr;
  std::size_t asan_host_size_ = 0;
};

}  // namespace tpio::sim
