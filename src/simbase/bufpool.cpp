#include "simbase/bufpool.hpp"

#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>

#include "simbase/sanitizers.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace tpio::sim {

namespace {

std::atomic<std::uint64_t> g_acquires{0};
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_reservoir_hits{0};
std::atomic<std::uint64_t> g_fresh{0};

int class_of(std::size_t n) {
  if (n <= 1) return 0;
  return static_cast<int>(std::bit_width(n - 1));
}

/// Process-wide parking lot for buffers that spill past a thread's caps or
/// outlive their thread (a sweep worker's pool donates its free lists when
/// the worker exits; the conductor's host thread trims into it after every
/// run). Leaked on purpose: the reservoir must outlive every thread_local
/// pool destructor, and a static pointer keeps it reachable so leak
/// checkers stay quiet.
struct Reservoir {
  std::mutex mu;
  struct Node {
    std::unique_ptr<std::byte[]> mem;
    std::size_t cap = 0;
  };
  std::vector<Node> free_[48];
  std::size_t bytes = 0;
  // Cap the parked memory; beyond it donated buffers are simply freed.
  static constexpr std::size_t kCapBytes = std::size_t{1} << 30;  // 1 GiB
};

Reservoir& reservoir() {
  static Reservoir* r = new Reservoir;
  return *r;
}

/// Pin glibc's allocator policy, once per process. By default glibc
/// raises its mmap threshold to the largest block freed so far and trims
/// the heap top as soon as twice that much is free there. A sweep frees
/// and re-allocates the same sub-buffers run after run, so whether the
/// next run reuses their pages or faults them in afresh would turn on
/// incidental heap layout (a few long-lived small allocations above them
/// block the trim); on the 576-rank paper cell that swings page faults and
/// wall time by about a fifth. Blocks below 32 MiB come from the heap, and
/// up to 1 GiB of free heap top is kept for reuse.
void pin_malloc_policy() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
  });
#endif
}

}  // namespace

BufferPool::BufferPool() { pin_malloc_policy(); }

void BufferPool::Buffer::reset() {
  if (!mem_) return;
  BufferPool::local().release(std::move(mem_), cap_);
  cap_ = size_ = 0;
}

BufferPool& BufferPool::local() {
  thread_local BufferPool pool;
  return pool;
}

BufferPool::~BufferPool() {
  // Thread exit: park the free lists in the reservoir so other threads
  // inherit the memory instead of re-allocating it.
  donate_all();
}

void BufferPool::donate_all() {
  Reservoir& r = reservoir();
  std::lock_guard<std::mutex> lk(r.mu);
  for (int k = 0; k < kClasses; ++k) {
    for (Node& n : free_[k]) {
      if (r.bytes + n.cap > Reservoir::kCapBytes) continue;  // overflow: free
      r.bytes += n.cap;
      r.free_[k].push_back(Reservoir::Node{std::move(n.mem), n.cap});
    }
    free_[k].clear();
  }
  retained_bytes_ = 0;
}

BufferPool::Buffer BufferPool::acquire(std::size_t n, bool zeroed) {
  Buffer b;
  if (n == 0) return b;
  g_acquires.fetch_add(1, std::memory_order_relaxed);
  const int k = class_of(n);
  const std::size_t cap = std::size_t{1} << k;

  auto& list = free_[k];
  if (!list.empty()) {
    b.mem_ = std::move(list.back().mem);
    b.cap_ = list.back().cap;
    list.pop_back();
    retained_bytes_ -= b.cap_;
    g_hits.fetch_add(1, std::memory_order_relaxed);
#ifdef TPIO_ASAN
    ASAN_UNPOISON_MEMORY_REGION(b.mem_.get(), b.cap_);
#endif
    if (zeroed) std::memset(b.mem_.get(), 0, n);
    b.size_ = n;
    return b;
  }
  {
    Reservoir& r = reservoir();
    std::lock_guard<std::mutex> lk(r.mu);
    if (!r.free_[k].empty()) {
      b.mem_ = std::move(r.free_[k].back().mem);
      b.cap_ = r.free_[k].back().cap;
      r.free_[k].pop_back();
      r.bytes -= b.cap_;
      g_reservoir_hits.fetch_add(1, std::memory_order_relaxed);
#ifdef TPIO_ASAN
      ASAN_UNPOISON_MEMORY_REGION(b.mem_.get(), b.cap_);
#endif
      if (zeroed) std::memset(b.mem_.get(), 0, n);
      b.size_ = n;
      return b;
    }
  }

  // Fresh allocation. new std::byte[cap] default-initializes — no memset
  // unless the caller asked for zeroed contents.
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  b.mem_ = std::unique_ptr<std::byte[]>(new std::byte[cap]);
  b.cap_ = cap;
  if (zeroed) std::memset(b.mem_.get(), 0, n);
  b.size_ = n;
  return b;
}

void BufferPool::release(std::unique_ptr<std::byte[]> mem, std::size_t cap) {
  const int k = class_of(cap);
#ifdef TPIO_ASAN
  // Parked storage stays allocated, so ASan would not report a use after
  // Buffer::reset(); poisoned until acquire() hands it out again, it does.
  ASAN_POISON_MEMORY_REGION(mem.get(), cap);
#endif
  auto& list = free_[k];
  if (list.size() >= kMaxPerClass || retained_bytes_ + cap > cap_bytes_) {
    // Local list full or thread over its retained-byte cap: park in the
    // reservoir instead of keeping (or leaking growth into) local lists.
    Reservoir& r = reservoir();
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.bytes + cap <= Reservoir::kCapBytes) {
      r.bytes += cap;
      r.free_[k].push_back(Reservoir::Node{std::move(mem), cap});
    }
    return;  // over cap: unique_ptr frees on scope exit
  }
  retained_bytes_ += cap;
  list.push_back(Node{std::move(mem), cap});
}

std::size_t BufferPool::local_retained_bytes() {
  return local().retained_bytes_;
}

std::size_t BufferPool::set_local_cap_bytes(std::size_t cap) {
  BufferPool& p = local();
  const std::size_t prev = p.cap_bytes_;
  p.cap_bytes_ = cap;
  return prev;
}

void BufferPool::trim_local() { local().donate_all(); }

BufferPool::Stats BufferPool::stats() {
  Stats s;
  s.acquires = g_acquires.load(std::memory_order_relaxed);
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.reservoir_hits = g_reservoir_hits.load(std::memory_order_relaxed);
  s.fresh = g_fresh.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::reset_stats() {
  g_acquires.store(0, std::memory_order_relaxed);
  g_hits.store(0, std::memory_order_relaxed);
  g_reservoir_hits.store(0, std::memory_order_relaxed);
  g_fresh.store(0, std::memory_order_relaxed);
}

void BufferPool::drain_reservoir() {
  Reservoir& r = reservoir();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& list : r.free_) list.clear();
  r.bytes = 0;
}

}  // namespace tpio::sim
