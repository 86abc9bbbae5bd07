#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace tpio::sim {

/// Size-classed recycling allocator for the simulation's transient byte
/// buffers (collective sub-buffers, shuffle staging, per-rank payloads,
/// RMA window memory), and the one unbacked span for such buffers that a
/// run never touches.
///
/// The hot path of a simulated collective write allocates the same buffer
/// shapes every cycle and every run; a sweep re-pays malloc + page-fault +
/// memset for gigabytes of memory whose *contents* the virtual timeline
/// never depends on. The pool checks buffers out of per-thread free lists
/// (power-of-two size classes, no lock on the common path) and takes them
/// back when the RAII handle dies.
///
/// Lifecycle: `local()` returns this thread's pool. Its free lists serve
/// reuse within a run; no buffer is parked across runs. Rank programs run
/// as fibers on the conductor's one host thread, which outlives the run,
/// so the conductor calls `trim_local()` at run teardown and the lists'
/// storage goes back to malloc, as a dying thread's does. A release past a
/// class's count or the thread's retained-byte cap frees the storage too.
/// Buffers may be acquired on one thread and released on another — the
/// release simply lands in the releasing thread's pool.
///
/// Why the free lists stay, though nothing is parked across runs: with
/// every heap checkout a plain exact-size `new std::byte[n]` (no lists, no
/// trim_local), 6 alternating full-benchmark pairs (seeds 3101-3106,
/// default budget) of bench/e2e's restart_verified read wall_s 1.584 s
/// against 1.387 s (+14.2%, worse in 5 of 6 pairs; `run.py --compare`
/// judged it unresolved), cpu_s 13.6% higher and peak RSS 430.0 against
/// 443.3 MiB. SIGPROF leaf-PC samples put all of the added time in the
/// benchmark's own std::equal read-back compare (0.53 ns/B became about
/// 0.9 ns/B). Rounding sizes to powers of two without the lists did not
/// recover it, so the lists' LIFO reuse is what matters. Cache residency
/// is the likely reason (a 300 MiB last-level cache, about 430 MiB touched
/// per pass); that is unverified, as the 4-vCPU VM measured exposes no
/// hardware performance counters.
///
/// Memory carries from one run to the next through malloc: the first pool
/// of the process pins glibc's allocator policy so that freed blocks of
/// any size stay in the heap, where the next run on the thread reuses
/// their pages whatever size class it asks for (see bufpool.cpp). A run
/// on another thread does not: glibc gives threads arenas of their own.
///
/// Under ASan, storage parked in a free list is poisoned until the next
/// acquire() hands it out, so a use after Buffer::reset() is reported even
/// though the storage stays allocated.
///
/// Bit-identity: recycling changes *where* a buffer's storage comes from,
/// never what the simulation computes. `Contents::zeroed` reproduces the
/// all-zero contents of a fresh std::vector for buffers whose bytes may be
/// read before being fully written; `overwritten` skips the memset for
/// buffers that are completely written before any read. A buffer whose
/// bytes nothing reads or writes (a timing-only run's payload) is checked
/// out `unread`: a span into one process-wide PROT_NONE address
/// reservation, so it costs no memory and any touch of it faults.
class BufferPool {
 public:
  /// What the caller does with a checked-out buffer's bytes.
  enum class Contents {
    zeroed,       // may read bytes it never wrote: all zero, as if fresh
    overwritten,  // writes every byte before reading it: left as found
    unread,       // never reads or writes one: unbacked, faults on touch
  };

  /// RAII handle of one checked-out buffer. Movable, not copyable; the
  /// destructor returns the storage to the destroying thread's pool.
  class Buffer {
   public:
    Buffer() = default;
    Buffer(Buffer&& o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          cap_(std::exchange(o.cap_, 0)),
          size_(std::exchange(o.size_, 0)) {}
    Buffer& operator=(Buffer&& o) noexcept {
      if (this != &o) {
        reset();
        data_ = std::exchange(o.data_, nullptr);
        cap_ = std::exchange(o.cap_, 0);
        size_ = std::exchange(o.size_, 0);
      }
      return *this;
    }
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    ~Buffer() { reset(); }

    /// Return the storage to the pool now (no-op on an empty handle; an
    /// unread handle owns none and just lets go of its span).
    void reset();

    std::byte* data() { return data_; }
    const std::byte* data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::span<std::byte> span() { return {data_, size_}; }
    std::span<const std::byte> span() const { return {data_, size_}; }

   private:
    friend class BufferPool;
    // Pooled storage this handle owns, of class-rounded capacity cap_; or,
    // with cap_ == 0, a span of the unread reservation, which it does not.
    std::byte* data_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t size_ = 0;  // requested size
  };

  /// The calling thread's pool. Never throws; constructed on first use.
  static BufferPool& local();

  /// Check out a buffer of exactly `n` bytes (n == 0 yields an empty
  /// handle) for the use `contents` names. A `zeroed` or `overwritten`
  /// buffer is pooled storage. An `unread` one is a span of the one
  /// process-wide reservation: every unread handle of a size it covers
  /// aliases the same addresses, a larger request maps a larger
  /// reservation, and no reservation is ever unmapped, so a live span
  /// stays valid (and still faults on touch).
  Buffer acquire(std::size_t n, Contents contents);
  /// The two heap-backed uses as a flag: `zeroed` or `overwritten`.
  Buffer acquire(std::size_t n, bool zeroed) {
    return acquire(n, zeroed ? Contents::zeroed : Contents::overwritten);
  }

  /// Process-wide counters (relaxed atomics; approximate under races).
  /// `acquires` counts every non-empty checkout, unread ones included;
  /// those alone are neither hits nor fresh.
  struct Stats {
    std::uint64_t acquires = 0;   // non-empty acquisitions
    std::uint64_t hits = 0;       // served from a local free list
    std::uint64_t fresh = 0;      // heap allocations
  };
  static Stats stats();
  static void reset_stats();

  /// Bytes currently retained by the calling thread's free lists.
  static std::size_t local_retained_bytes();

  /// Cap the calling thread's retained bytes; a release that would exceed
  /// the cap frees the storage instead of keeping it. Returns the previous
  /// cap. Default kDefaultLocalCapBytes.
  static std::size_t set_local_cap_bytes(std::size_t cap);

  /// Free the calling thread's free lists now — what a dying thread's pool
  /// does implicitly. The conductor calls this at run teardown.
  static void trim_local();

  /// Default per-thread retained-byte cap (64 MiB): generous enough that
  /// a run's per-cycle working set stays local, small enough that the
  /// buffers one run frees early cannot pile up until its teardown.
  static constexpr std::size_t kDefaultLocalCapBytes = std::size_t{64} << 20;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  BufferPool();

  friend class Buffer;
  void release(std::unique_ptr<std::byte[]> mem, std::size_t cap);

  // Size classes are powers of two: class k holds buffers of capacity
  // 2^k. 48 classes cover anything a simulation can ask for.
  static constexpr int kClasses = 48;
  // Bound the per-thread cache: a class keeps at most this many buffers;
  // a release past it frees the storage.
  static constexpr std::size_t kMaxPerClass = 16;

  struct Node {
    std::unique_ptr<std::byte[]> mem;
    std::size_t cap = 0;
  };
  std::vector<Node> free_[kClasses];
  std::size_t retained_bytes_ = 0;  // sum of caps across free_
  std::size_t cap_bytes_ = kDefaultLocalCapBytes;
};

}  // namespace tpio::sim
