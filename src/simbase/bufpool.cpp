#include "simbase/bufpool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>

#include <sys/mman.h>

#include "simbase/error.hpp"
#include "simbase/sanitizers.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace tpio::sim {

namespace {

std::atomic<std::uint64_t> g_acquires{0};
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_fresh{0};

int class_of(std::size_t n) {
  if (n <= 1) return 0;
  return static_cast<int>(std::bit_width(n - 1));
}

/// The address range every unread checkout points into: PROT_NONE, so a
/// touch faults, and MAP_NORESERVE, so it holds address space and no
/// memory. A request larger than the current reservation maps a new one
/// of the next power of two; the old one stays mapped, because unread
/// handles may still point into it. Leaked on purpose: a static pointer
/// keeps it reachable, so leak checkers stay quiet.
struct UnreadReservation {
  std::mutex mu;
  std::byte* base = nullptr;
  std::size_t bytes = 0;
  static constexpr std::size_t kMinBytes = std::size_t{1} << 20;  // 1 MiB
};

std::byte* unread_span(std::size_t n) {
  static UnreadReservation* r = new UnreadReservation;
  std::lock_guard<std::mutex> lk(r->mu);
  if (n > r->bytes) {
    const std::size_t bytes =
        std::bit_ceil(std::max(n, UnreadReservation::kMinBytes));
    void* m = ::mmap(nullptr, bytes, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    TPIO_CHECK(m != MAP_FAILED, "unread buffer reservation mmap failed");
    r->base = static_cast<std::byte*>(m);
    r->bytes = bytes;
  }
  return r->base;
}

/// Pin glibc's allocator policy, once per process. By default glibc maps
/// every block of 128 KiB or more on its own, raises that threshold to the
/// largest block freed so far, and trims the heap top as soon as twice
/// that much is free there. A sweep frees and re-allocates the same
/// buffers run after run, so whether the next run reuses their pages or
/// faults them in afresh would turn on incidental heap layout (a few
/// long-lived small allocations above them block the trim); on the
/// 576-rank paper cell that swings page faults and wall time by about a
/// fifth. So no block is mapped on its own, whatever its size, and up to
/// 1 GiB of free heap top is kept: this is how a run's pool storage,
/// freed at teardown, reaches the next run, 32 MiB buffers and larger
/// included. (The mmap threshold cannot be raised past 32 MiB; with no
/// mapped blocks allowed, glibc maps only what its heap cannot hold.) A
/// worker thread's arena keeps freed memory alike, except that glibc may
/// unmap one of its 64 MiB heaps once all of it is free (DESIGN.md §5b).
void pin_malloc_policy() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
  });
#endif
}

}  // namespace

BufferPool::BufferPool() { pin_malloc_policy(); }

void BufferPool::Buffer::reset() {
  if (cap_ > 0) {
    BufferPool::local().release(std::unique_ptr<std::byte[]>(data_), cap_);
  }
  data_ = nullptr;
  cap_ = size_ = 0;
}

BufferPool& BufferPool::local() {
  thread_local BufferPool pool;
  return pool;
}

BufferPool::Buffer BufferPool::acquire(std::size_t n, Contents contents) {
  Buffer b;
  if (n == 0) return b;
  g_acquires.fetch_add(1, std::memory_order_relaxed);
  b.size_ = n;
  if (contents == Contents::unread) {
    b.data_ = unread_span(n);
    return b;
  }
  const int k = class_of(n);
  auto& list = free_[k];
  if (!list.empty()) {
    b.data_ = list.back().mem.release();
    b.cap_ = list.back().cap;
    list.pop_back();
    retained_bytes_ -= b.cap_;
    g_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Fresh allocation. new std::byte[cap] default-initializes — no
    // memset unless the caller asked for zeroed contents.
    g_fresh.fetch_add(1, std::memory_order_relaxed);
    b.cap_ = std::size_t{1} << k;
    b.data_ = new std::byte[b.cap_];
  }
#ifdef TPIO_ASAN
  // Parked storage was poisoned at release (fresh storage never was).
  ASAN_UNPOISON_MEMORY_REGION(b.data_, b.cap_);
#endif
  if (contents == Contents::zeroed) std::memset(b.data_, 0, n);
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
  // Class list full or thread over its retained-byte cap: the unique_ptr
  // frees the storage on return.
  if (list.size() >= kMaxPerClass || retained_bytes_ + cap > cap_bytes_) return;
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

void BufferPool::trim_local() {
  BufferPool& p = local();
  for (auto& list : p.free_) list.clear();
  p.retained_bytes_ = 0;
}

BufferPool::Stats BufferPool::stats() {
  Stats s;
  s.acquires = g_acquires.load(std::memory_order_relaxed);
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.fresh = g_fresh.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::reset_stats() {
  g_acquires.store(0, std::memory_order_relaxed);
  g_hits.store(0, std::memory_order_relaxed);
  g_fresh.store(0, std::memory_order_relaxed);
}

}  // namespace tpio::sim
