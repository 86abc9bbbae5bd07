#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "sched/conductor.hpp"
#include "sched/sync.hpp"
#include "sched/timeline.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/time.hpp"

namespace tpio::smpi {

/// Matches any source rank in recv/irecv.
inline constexpr int kAnySource = -1;

using Tag = std::int64_t;

/// Tunables of the simulated MPI library (UCX-on-InfiniBand flavoured).
struct MpiParams {
  /// Messages strictly larger than this use the rendezvous protocol
  /// (the paper's Open MPI + UCX setup switches at 512 KB).
  std::uint64_t eager_limit = 512 * 1024;

  /// Per-message CPU overhead at the sender (descriptor + injection).
  sim::Duration send_overhead = sim::microseconds(0.5);
  /// Per-message CPU overhead at the receiver when a match completes.
  sim::Duration recv_overhead = sim::microseconds(0.5);
  /// Cost of scanning one entry of the unexpected-message queue. Aggregator
  /// processes with deep queues pay this on every posted receive — one of
  /// the two-sided costs the paper contrasts with one-sided transfers.
  sim::Duration match_cost = sim::nanoseconds(60);

  /// Per-put CPU overhead at the origin (no matching, no target CPU).
  sim::Duration put_overhead = sim::microseconds(1.5);
  /// One-way cost of passive-target lock protocol steps (lock request,
  /// release notification). Substantially above the wire latency: Open MPI
  /// implements passive-target locking with remote atomic compare-and-swap
  /// loops and agent processing, ~10-20 us per acquisition on InfiniBand.
  sim::Duration rma_control_latency = sim::microseconds(10.0);
  /// Memory-registration (pinning) cost per 4 KiB page when allocating an
  /// RMA window. Collective-I/O implementations allocate windows per
  /// operation, so this is a fixed per-call price of the one-sided shuffle
  /// variants.
  sim::Duration win_register_per_page = sim::microseconds(0.7);
  /// Service time of the target-side lock manager per lock/unlock request.
  /// Passive-target locks from many origins serialize here — the paper's
  /// reason why MPI_LOCK_EXCLUSIVE (and lock traffic in general) scales
  /// poorly with the origin count.
  sim::Duration lock_service = sim::microseconds(3.0);

  /// Per-hop cost of synchronizing collectives (barrier, fence):
  /// cost = ceil(log2 P) * collective_hop.
  sim::Duration collective_hop = sim::microseconds(2.5);
  /// Per-hop cost of node-local synchronizing collectives (lane_barrier):
  /// shared-memory flag propagation, far below the fabric's collective_hop.
  sim::Duration node_collective_hop = sim::microseconds(0.4);
  /// Win_fence costs fence_cost_factor * barrier: closing an exposure
  /// epoch is a barrier plus a remote-completion flush of every pending
  /// RMA operation — "MPI_Win_fence is known to be an expensive
  /// operation" (paper, section III-B2a).
  double fence_cost_factor = 2.0;

  /// When true, rendezvous handshakes are serviced immediately regardless
  /// of what the target rank is doing (models an MPI progress thread).
  /// When false — the Open MPI default the paper measured — a rendezvous
  /// RTS that arrives while the target is inside a blocking file-system
  /// call waits for the target's next MPI activity.
  bool progress_thread = false;
};

class Machine;
class Window;

/// A non-blocking operation handle. Cheap to copy; wait through Mpi.
class Request {
 public:
  Request() = default;
  bool valid() const { return ev_ != nullptr; }

 private:
  friend class Mpi;
  explicit Request(sim::EventPtr ev) : ev_(std::move(ev)) {}
  sim::EventPtr ev_;
};

/// Per-rank MPI facade; construct on the rank's own fiber, one per rank.
///
/// All `Mpi` objects of a run share one `Machine`. The interface mirrors
/// the MPI subset the two-phase collective-write engine needs: point-to-
/// point with eager/rendezvous protocols, small data-carrying collectives,
/// and one-sided windows with active- and passive-target synchronization.
class Mpi {
 public:
  Mpi(Machine& machine, sim::RankCtx& ctx);

  int rank() const { return ctx_->rank(); }
  int size() const;
  sim::RankCtx& ctx() { return *ctx_; }
  Machine& machine() { return *machine_; }

  // ----- point-to-point ---------------------------------------------------
  /// Post a non-blocking send; the payload is captured immediately, so the
  /// caller may reuse `data` as soon as the call returns.
  Request isend(int dst, Tag tag, std::span<const std::byte> data);
  /// Post a non-blocking receive into `buf` (matched by (src, tag); src may
  /// be kAnySource). `buf` must stay alive until the request completes.
  Request irecv(int src, Tag tag, std::span<std::byte> buf);

  void send(int dst, Tag tag, std::span<const std::byte> data);
  void recv(int src, Tag tag, std::span<std::byte> buf);

  void wait(Request& req);
  void waitall(std::span<Request> reqs);

  // ----- progress accounting ----------------------------------------------
  /// Declare that this rank is about to block outside MPI until time `t`
  /// (e.g. a blocking file write): rendezvous handshakes targeting it are
  /// deferred until `t` unless a progress thread is configured.
  void set_unavailable_until(sim::Time t);

  // ----- collectives --------------------------------------------------------
  void barrier();
  /// Barrier over the ranks [first, last) of this rank's node — one lane
  /// of the two-level shuffle: collective among those ranks only, at
  /// shared-memory cost ceil(log2(last - first)) * node_collective_hop.
  /// The caller must lie inside the interval (checked).
  /// One sync point per interval is created lazily under the baton on
  /// first arrival (the Machine predates the plan that defines lanes), so
  /// writes with different lane layouts on one Machine never share one.
  void lane_barrier(int first, int last);
  /// One collective generation's contributions, indexed by rank.
  using BlobTable = std::vector<std::vector<std::byte>>;

  /// Fixed-size allgather: every rank contributes the same number of
  /// bytes (checked once per contribution, at deposit).
  /// The vehicle of compact per-rank summary exchanges — one cheap
  /// dissemination round trip instead of shipping full metadata blobs.
  /// Returns the generation's table itself: every rank of the generation
  /// receives the same immutable object, so a P-rank exchange holds one
  /// P-entry table on the host rather than P copies of it.
  std::shared_ptr<const BlobTable> allgather_shared(
      std::span<const std::byte> mine);
  /// allgather_shared, copied into a table this rank owns (O(P) host bytes
  /// per rank; the metadata phase uses the shared form).
  std::vector<std::vector<std::byte>> allgather(std::span<const std::byte> mine);
  /// Targeted metadata delivery (sparse allgatherv): every rank contributes
  /// `mine` and names the half-open source interval [want_begin, want_end)
  /// whose blobs it needs; the virtual cost derives from the want topology
  /// all ranks declared. Returns the generation's table itself, as
  /// allgather_shared does: every rank receives the same immutable object,
  /// so a P-rank exchange holds one P-entry table on the host. A rank may
  /// read only the entries it was delivered, [want_begin, want_end) and
  /// its own (see held_sources); the rest are other ranks' traffic.
  std::shared_ptr<const BlobTable> sparse_allgatherv_shared(
      std::span<const std::byte> mine, int want_begin, int want_end);
  /// sparse_allgatherv_shared, with the delivered entries copied out: the
  /// (source rank, blob) pairs of held_sources, ascending by rank (O(wanted)
  /// host bytes per rank; the metadata phase uses the shared form).
  std::vector<std::pair<int, std::vector<std::byte>>> sparse_allgatherv(
      std::span<const std::byte> mine, int want_begin, int want_end);
  /// The sources a sparse exchange delivers to `rank` with want interval
  /// [want_begin, want_end), ascending: the interval plus `rank` itself,
  /// which goes before, inside or after it. Calls `visit(source)` once
  /// each; never visits all P sources.
  template <class Visit>
  static void held_sources(int rank, int want_begin, int want_end,
                           Visit&& visit) {
    if (rank < want_begin) visit(rank);
    for (int r = want_begin; r < want_end; ++r) visit(r);
    if (rank >= want_end) visit(rank);
  }

  /// Butterfly allreduce (maximum) of one scalar: recursive halving then
  /// its mirror allgather (Jocksch et al.). The data plane folds every
  /// contribution into the generation's one shared accumulator; O(1) host
  /// memory per rank.
  std::uint64_t allreduce_max(std::uint64_t v);
  /// Root's buffer is broadcast into every rank's `data` (same size everywhere).
  void bcast(std::span<std::byte> data, int root);

  // ----- one-sided ----------------------------------------------------------
  /// Collective window allocation; every rank passes its local exposure size
  /// (zero for ranks that only originate puts).
  std::shared_ptr<Window> win_allocate(std::size_t local_bytes);
  /// Active-target epoch boundary; collective over all ranks.
  void win_fence(Window& win);
  /// One-sided put into `target`'s window at byte offset `target_offset`.
  /// Completion/visibility is only guaranteed by the enclosing sync
  /// (fence or unlock).
  void put(Window& win, int target, std::size_t target_offset,
           std::span<const std::byte> data);
  enum class LockType { Shared, Exclusive };
  void win_lock(Window& win, int target, LockType type);
  /// Releases the lock; returns only after this origin's puts to `target`
  /// have landed (MPI passive-target completion semantics).
  void win_unlock(Window& win, int target);

 private:
  friend class Machine;

  /// One generation of the shared exchange slot: deposit `mine`, wait for
  /// the collective's closed-form cost, return the full blob table. `kind`
  /// selects the cost shape (see collectives.cpp); `root` and `want` feed
  /// the broadcast and the sparse exchange.
  std::shared_ptr<const BlobTable> exchange(std::span<const std::byte> mine,
                                            int kind, int root,
                                            std::pair<int, int> want);

  Machine* machine_;
  sim::RankCtx* ctx_;
};

/// Shared state of the simulated MPI job: message queues, collective
/// staging, window registry. Create once per simulation, before the
/// conductor runs; thereafter all mutation happens under the baton.
///
/// `payloads` says whether the job's point-to-point and one-sided traffic
/// carries bytes. A size-only Machine (false) serves timing-only jobs: it
/// never reads a send or put buffer, never writes a receive buffer, copies
/// no unexpected eager message and leaves window memory unzeroed and
/// unwritten. Every size check, tag match, NIC reservation and completion
/// time is the same in both modes. The data-carrying collectives
/// (allgather, bcast, ...) move their bytes either way: they carry the
/// metadata plans are built from.
class Machine {
 public:
  Machine(net::Fabric& fabric, const MpiParams& params, bool payloads = true);

  int size() const { return fabric_->topology().nprocs(); }
  const MpiParams& params() const { return params_; }
  net::Fabric& fabric() { return *fabric_; }
  /// Whether messages and puts carry bytes (see the class comment).
  bool payloads() const { return payloads_; }

  /// ceil(log2 P) * collective_hop, the synchronizing-collective cost model.
  sim::Duration sync_collective_cost(int parties) const;

 private:
  friend class Mpi;
  friend class Window;

  struct Message {
    int src = 0;
    Tag tag = 0;
    bool rendezvous = false;
    std::uint64_t bytes = 0;          // message size, either protocol
    std::vector<std::byte> payload;   // eager with payloads: captured at send
    sim::Time arrival = 0;            // eager: payload arrival; rndv: RTS arrival
    // Rendezvous bookkeeping (valid when rendezvous == true):
    const std::byte* rndv_data = nullptr;  // sender buffer (valid until matched)
    sim::Time sender_post = 0;             // when the sender posted
    sim::EventPtr send_done;               // sender's request event
  };

  struct PostedRecv {
    int src = 0;  // kAnySource allowed
    Tag tag = 0;
    std::span<std::byte> buf;
    sim::EventPtr done;
  };

  /// Both queues are FIFO: matching scans from the front and erases in
  /// place, keeping order, because the scan order sets virtual time. They
  /// are vectors because an empty vector allocates nothing, where a deque
  /// allocates a map and a node up front, for every endpoint of the job.
  struct Endpoint {
    std::vector<Message> unexpected;
    std::vector<PostedRecv> posted;
    sim::Time unavailable_until = 0;
  };

  /// Earliest instant >= t at which `rank`'s MPI engine can service a
  /// rendezvous handshake (paper's progress discussion, section III-A1).
  sim::Time progress_at(int rank, sim::Time t) const;

  /// Completes the rendezvous protocol for a matched (msg, recv) pair and
  /// returns the receive completion time. Called under the baton.
  sim::Time finish_rendezvous(const Message& msg, int dst,
                              std::span<std::byte> buf, sim::Time match_time);

  static bool matches(const PostedRecv& r, int src, Tag tag) {
    return (r.src == kAnySource || r.src == src) && r.tag == tag;
  }

  net::Fabric* fabric_;
  MpiParams params_;
  bool payloads_;
  std::vector<Endpoint> endpoints_;

  // Collective machinery (single job-wide communicator).
  sim::SyncPoint barrier_sync_;
  // Lane sub-batons, keyed by the lane's rank interval [first, last);
  // created lazily under the baton because lane geometry is a plan
  // property the Machine predates.
  std::map<std::pair<int, int>, std::unique_ptr<sim::SyncPoint>> lane_sync_;
  struct ExchangeSlot {
    int arrived = 0;
    int kind = -1;  // collective kind of this generation (first arrival sets)
    int root = -1;
    std::size_t first_size = 0;  // first arrival's contribution size
    sim::Time max_clock = 0;
    std::shared_ptr<Mpi::BlobTable> blobs;
    // Sparse exchanges only: per-rank want interval [first, second), the
    // input of the want-topology cost model.
    std::vector<std::pair<int, int>> wants;
    sim::EventPtr release = std::make_shared<sim::Event>();
  };
  ExchangeSlot exchange_;
  struct ReduceSlot {
    int arrived = 0;
    sim::Time max_clock = 0;
    std::shared_ptr<std::uint64_t> accum;
    sim::EventPtr release = std::make_shared<sim::Event>();
  };
  ReduceSlot reduce_;

  // Window registry for collective win_allocate.
  struct WinCreateSlot {
    int arrived = 0;
    std::shared_ptr<Window> win;
  };
  WinCreateSlot win_create_;
  sim::SyncPoint win_sync_;
};

/// One-sided communication window (see Mpi::win_allocate).
///
/// Exposure memory lives per rank inside the window, checked out of
/// sim::BufferPool and recycled when the window dies. With payloads it is
/// zero-filled at allocation, and puts copy bytes immediately (host side)
/// while virtual visibility is deferred to the synchronization call,
/// matching the access pattern of the two-phase shuffle where targets only
/// read after fence/barrier. On a size-only Machine the memory is neither
/// zeroed nor written: puts check their bounds and cost their time, and
/// copy nothing.
class Window {
 public:
  /// This rank's exposed memory.
  std::span<std::byte> local(int rank);
  std::size_t local_size(int rank) const;

 private:
  friend class Mpi;
  friend class Machine;
  explicit Window(Machine& m);

  struct LockWaiter {
    int origin;
    Mpi::LockType type;
    sim::EventPtr granted;
  };
  struct TargetState {
    sim::BufferPool::Buffer mem;
    sim::Timeline lock_agent;  // serializes lock/unlock request handling
    // Active-target epoch tracking: latest put arrival this epoch.
    sim::Time epoch_last_arrival = 0;
    // Passive-target lock state.
    int shared_holders = 0;
    bool exclusive_held = false;
    std::deque<LockWaiter> queue;
    sim::Time last_release = 0;
  };
  // Per (origin) tracking of puts to each target in the current passive
  // epoch, for unlock completion semantics. Indexed [origin][target].
  std::vector<std::vector<sim::Time>> origin_put_arrival_;

  Machine* machine_;
  std::vector<TargetState> targets_;
  sim::SyncPoint fence_sync_;
};

}  // namespace tpio::smpi
