#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace tpio::sim {

/// Size-classed recycling allocator for the simulation's transient byte
/// buffers (collective sub-buffers, shuffle staging, per-rank payloads).
///
/// The hot path of a simulated collective write allocates the same buffer
/// shapes every cycle and every run; a sweep re-pays malloc + page-fault +
/// memset for gigabytes of memory whose *contents* the virtual timeline
/// never depends on. The pool checks buffers out of per-thread free lists
/// (power-of-two size classes, no lock on the common path) and takes them
/// back when the RAII handle dies.
///
/// Lifecycle: `local()` returns this thread's pool. A dying thread's pool
/// donates its free lists to a process-wide reservoir (mutex-protected,
/// byte-capped) from which other threads' pools repopulate their local
/// lists. Rank programs run as fibers on the conductor's one host thread,
/// which never dies mid-process — so the conductor calls `trim_local()` at
/// run teardown, and long-lived threads are additionally bounded by a
/// per-thread retained-byte cap enforced on every release (overflow spills
/// straight to the reservoir). Buffers may be acquired on one thread and
/// released on another — the release simply lands in the releasing
/// thread's pool.
///
/// Under ASan, storage parked in a free list or the reservoir is poisoned
/// until the next acquire() hands it out, so a use after Buffer::reset()
/// is reported even though the storage stays allocated.
///
/// Memory past the pool's caps goes back to malloc. The first pool of the
/// process pins glibc's allocator policy so that such memory stays in the
/// heap for the next run instead of being returned to the OS and faulted
/// in again (see bufpool.cpp).
///
/// Bit-identity: recycling changes *where* a buffer's storage comes from,
/// never what the simulation computes. `zeroed` acquisition reproduces the
/// all-zero contents of a fresh std::vector for buffers whose bytes may be
/// read before being fully written; non-zeroed acquisition is reserved for
/// buffers that are completely overwritten (or never read at all —
/// Options::materialize == false).
class BufferPool {
 public:
  /// RAII handle of one checked-out buffer. Movable, not copyable; the
  /// destructor returns the storage to the destroying thread's pool.
  class Buffer {
   public:
    Buffer() = default;
    Buffer(Buffer&& o) noexcept
        : mem_(std::move(o.mem_)), cap_(o.cap_), size_(o.size_) {
      o.cap_ = o.size_ = 0;
    }
    Buffer& operator=(Buffer&& o) noexcept {
      if (this != &o) {
        reset();
        mem_ = std::move(o.mem_);
        cap_ = o.cap_;
        size_ = o.size_;
        o.cap_ = o.size_ = 0;
      }
      return *this;
    }
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    ~Buffer() { reset(); }

    /// Return the storage to the pool now (no-op on an empty handle).
    void reset();

    std::byte* data() { return mem_.get(); }
    const std::byte* data() const { return mem_.get(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::span<std::byte> span() { return {mem_.get(), size_}; }
    std::span<const std::byte> span() const { return {mem_.get(), size_}; }

   private:
    friend class BufferPool;
    std::unique_ptr<std::byte[]> mem_;
    std::size_t cap_ = 0;   // class-rounded capacity
    std::size_t size_ = 0;  // requested size
  };

  /// The calling thread's pool. Never throws; constructed on first use.
  static BufferPool& local();

  /// Check out a buffer of exactly `n` bytes (n == 0 yields an empty
  /// handle). `zeroed` guarantees all-zero contents like a fresh
  /// std::vector — required whenever any byte might be read before being
  /// written; pass false for buffers that are fully overwritten or whose
  /// contents are never consumed.
  Buffer acquire(std::size_t n, bool zeroed);

  /// Process-wide counters (relaxed atomics; approximate under races).
  struct Stats {
    std::uint64_t acquires = 0;   // non-empty acquisitions
    std::uint64_t hits = 0;       // served from a local free list
    std::uint64_t reservoir_hits = 0;  // served from the global reservoir
    std::uint64_t fresh = 0;      // heap allocations
  };
  static Stats stats();
  static void reset_stats();

  /// Drop every buffer parked in the global reservoir (local lists are
  /// unreachable from other threads and simply age out). For tests.
  static void drain_reservoir();

  /// Bytes currently retained by the calling thread's free lists.
  static std::size_t local_retained_bytes();

  /// Cap the calling thread's retained bytes; releases that would exceed
  /// the cap spill to the global reservoir instead of being kept locally.
  /// Returns the previous cap. Default kDefaultLocalCapBytes.
  static std::size_t set_local_cap_bytes(std::size_t cap);

  /// Donate the calling thread's free lists to the global reservoir now —
  /// what a dying thread's pool does implicitly. The conductor calls this
  /// at run teardown.
  static void trim_local();

  /// Default per-thread retained-byte cap (64 MiB): generous enough that
  /// the steady-state working set of a sweep worker stays fully local,
  /// small enough that a long-lived host thread cannot hoard unbounded
  /// freed buffers across heterogeneous runs.
  static constexpr std::size_t kDefaultLocalCapBytes = std::size_t{64} << 20;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  BufferPool();
  ~BufferPool();  // donates remaining free lists to the global reservoir

  friend class Buffer;
  void release(std::unique_ptr<std::byte[]> mem, std::size_t cap);
  void donate_all();  // move every local free list into the reservoir

  // Size classes are powers of two: class k holds buffers of capacity
  // 2^k. 48 classes cover anything a simulation can ask for.
  static constexpr int kClasses = 48;
  // Bound the per-thread cache: a class keeps at most this many buffers;
  // overflow goes to the reservoir (which enforces a byte cap).
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
