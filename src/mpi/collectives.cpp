#include <algorithm>
#include <cstring>
#include <utility>

#include "mpi/internal.hpp"
#include "mpi/mpi.hpp"
#include "simbase/error.hpp"

namespace tpio::smpi {

using detail::ceil_log2;

// Collectives use a coarse cost model (one baton action per rank plus a
// closed-form duration) rather than a full point-to-point decomposition:
// the two-phase engine's data plane is p2p/RMA and is modelled in detail,
// while its collectives only move small metadata. The coarse model keeps
// large-rank simulations affordable without changing the cost ordering the
// paper's analysis depends on.
//
// The closed forms follow the optimized collectives of Jocksch et al.
// (arXiv:2006.13112): dissemination (Bruck-style) allgatherv in
// ceil(log2 P) latency rounds with the volume bottleneck at the rank that
// contributed least; binomial trees for the rooted collectives with the
// volume charged at the root's NIC; recursive halving/doubling for
// reduce_scatter and the butterfly allreduce built on it. Degenerate
// exchanges are free: P == 1 pays nothing, and empty contributions never
// pay a volume term (transfer_time(0) == 0 by construction).

void Mpi::barrier() {
  machine_->barrier_sync_.arrive(*ctx_, machine_->sync_collective_cost(size()),
                                 /*floor=*/0, "mpi.barrier");
}

std::vector<int> Mpi::node_ranks() const {
  const net::Topology& topo = machine_->fabric_->topology();
  const int node = topo.node_of(rank());
  const int first = topo.node_first(node);
  const int last = topo.node_last(node);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(last - first));
  for (int r = first; r < last; ++r) out.push_back(r);
  return out;
}

void Mpi::node_barrier() {
  Machine& m = *machine_;
  const int node = m.fabric_->topology().node_of(rank());
  sim::SyncPoint& sp = *m.node_sync_[static_cast<std::size_t>(node)];
  const sim::Duration cost =
      static_cast<sim::Duration>(ceil_log2(std::max(sp.parties(), 1))) *
      m.params_.node_collective_hop;
  sp.arrive(*ctx_, cost, /*floor=*/0, "mpi.node_barrier");
}

void Mpi::leader_barrier() {
  Machine& m = *machine_;
  m.leader_sync_.arrive(*ctx_,
                        m.sync_collective_cost(m.fabric_->topology().nodes),
                        /*floor=*/0, "mpi.leader_barrier");
}

void Mpi::lane_barrier(int lane, int parties) {
  Machine& m = *machine_;
  TPIO_CHECK(parties >= 1, "lane_barrier requires at least one party");
  const int node = m.fabric_->topology().node_of(rank());
  sim::SyncPoint* sp = nullptr;
  ctx_->act([&] {
    auto& slot = m.lane_sync_[{node, lane}];
    if (!slot) slot = std::make_unique<sim::SyncPoint>(parties);
    sp = slot.get();
  });
  TPIO_CHECK(sp->parties() == parties,
             "lane_barrier called with mismatched party counts");
  const sim::Duration cost =
      static_cast<sim::Duration>(ceil_log2(std::max(parties, 1))) *
      m.params_.node_collective_hop;
  sp->arrive(*ctx_, cost, /*floor=*/0, "mpi.lane_barrier");
}

namespace {

/// Which collective a generation of the shared exchange slot carries.
/// Collectives are called in the same order on every rank, so a generation
/// is always homogeneous (checked at deposit time).
enum CollKind : int {
  kAllgatherv = 0,
  kAllgather,
  kGatherv,
  kScatterv,
  kBcast,
  kSparse,
};

std::uint64_t blob_total(const std::vector<std::vector<std::byte>>& blobs) {
  std::uint64_t total = 0;
  for (const auto& b : blobs) total += b.size();
  return total;
}

std::uint64_t blob_min(const std::vector<std::vector<std::byte>>& blobs) {
  std::uint64_t m = UINT64_MAX;
  for (const auto& b : blobs) m = std::min<std::uint64_t>(m, b.size());
  return m;
}

/// Closed-form duration of one exchange generation, computed by the last
/// arrival from the full blob table (and, for sparse exchanges, the want
/// topology).
sim::Duration exchange_cost(Machine& m, int kind, int root,
                            const std::vector<std::vector<std::byte>>& blobs,
                            const std::vector<std::pair<int, int>>& wants) {
  const int P = static_cast<int>(blobs.size());
  if (P <= 1) return 0;  // a single rank has nobody to exchange with
  const sim::Duration lat = m.fabric().params().inter_latency;
  const double bw = m.fabric().params().inter_bw;
  const auto log_p = static_cast<sim::Duration>(ceil_log2(P));
  const sim::Duration sync = m.sync_collective_cost(P);

  switch (kind) {
    case kAllgatherv:
    case kAllgather: {
      // Dissemination allgatherv: ceil(log2 P) rounds; the volume
      // bottleneck is the rank that contributed least — it receives
      // total - min_blob bytes. Using the true minimum (not the average
      // total/P of the old ring formula) keeps uneven blob mixes from
      // undercharging the exchange.
      const std::uint64_t total = blob_total(blobs);
      return log_p * lat +
             sim::transfer_time(total - blob_min(blobs),
                                m.fabric().params().inter_bw) +
             sync;
    }
    case kGatherv: {
      // Binomial gather: tree latency, volume bound by the root's inbound
      // NIC (everything except the root's own contribution). Non-roots
      // forward strictly less, so charging everyone the allgatherv volume
      // (the old model) overstated the cost of every gather.
      const std::uint64_t total = blob_total(blobs);
      const auto& root_blob = blobs[static_cast<std::size_t>(root)];
      return log_p * lat +
             sim::transfer_time(total - root_blob.size(), bw) + sync;
    }
    case kScatterv: {
      // Binomial scatter: the root injects the whole packed payload down
      // the tree.
      const auto& packed = blobs[static_cast<std::size_t>(root)];
      return log_p * lat + sim::transfer_time(packed.size(), bw) + sync;
    }
    case kBcast: {
      // Binomial broadcast: every tree level forwards the full payload.
      const auto& src = blobs[static_cast<std::size_t>(root)];
      return log_p * (lat + sim::transfer_time(src.size(), bw)) + sync;
    }
    case kSparse: {
      // Targeted delivery: rank r pulls the blobs of its want interval
      // [b_r, e_r); source s pushes its blob to every rank wanting it.
      // The bottleneck rank's in/out traffic (bytes and message count)
      // prices the exchange; self-delivery is free.
      std::vector<std::uint64_t> prefix(static_cast<std::size_t>(P) + 1, 0);
      for (int i = 0; i < P; ++i) {
        prefix[static_cast<std::size_t>(i) + 1] =
            prefix[static_cast<std::size_t>(i)] +
            blobs[static_cast<std::size_t>(i)].size();
      }
      std::vector<std::int64_t> want_count(static_cast<std::size_t>(P) + 1,
                                           0);
      std::uint64_t max_bytes = 0, max_msgs = 0;
      for (int r = 0; r < P; ++r) {
        const auto [b, e] = wants[static_cast<std::size_t>(r)];
        want_count[static_cast<std::size_t>(b)] += 1;
        want_count[static_cast<std::size_t>(e)] -= 1;
        std::uint64_t in_bytes = prefix[static_cast<std::size_t>(e)] -
                                 prefix[static_cast<std::size_t>(b)];
        auto in_msgs = static_cast<std::uint64_t>(e - b);
        if (b <= r && r < e) {
          in_bytes -= blobs[static_cast<std::size_t>(r)].size();
          in_msgs -= 1;
        }
        max_bytes = std::max(max_bytes, in_bytes);
        max_msgs = std::max(max_msgs, in_msgs);
      }
      std::int64_t wanting = 0;
      for (int s = 0; s < P; ++s) {
        wanting += want_count[static_cast<std::size_t>(s)];
        const auto [b, e] = wants[static_cast<std::size_t>(s)];
        const auto out_msgs = static_cast<std::uint64_t>(
            wanting - ((b <= s && s < e) ? 1 : 0));
        max_msgs = std::max(max_msgs, out_msgs);
        max_bytes = std::max(
            max_bytes,
            out_msgs * blobs[static_cast<std::size_t>(s)].size());
      }
      sim::Duration cost = sync;
      if (max_msgs > 0) cost += log_p * lat;  // delivery handshake rounds
      // Per-message matching at the bottleneck rank (an aggregator pulling
      // P blobs pays queue processing per source, like its shuffle does).
      cost += static_cast<sim::Duration>(max_msgs) * m.params().match_cost;
      cost += sim::transfer_time(max_bytes, bw);
      return cost;
    }
    default:
      tpio::fail("exchange_cost: unknown collective kind");
  }
  return 0;
}

}  // namespace

std::shared_ptr<const Mpi::BlobTable> Mpi::exchange(
    std::span<const std::byte> mine, int kind, int root,
    std::pair<int, int> want) {
  Machine& m = *machine_;
  const int P = size();

  struct Captured {
    std::shared_ptr<BlobTable> blobs;
    sim::EventPtr release;
  };
  Captured cap = ctx_->act([&]() -> Captured {
    Machine::ExchangeSlot& slot = m.exchange_;
    if (!slot.blobs) {
      slot.blobs = std::make_shared<BlobTable>(static_cast<std::size_t>(P));
      slot.kind = kind;
      slot.root = root;
      slot.first_size = mine.size();
      if (kind == kSparse) {
        slot.wants.assign(static_cast<std::size_t>(P), {0, 0});
      }
    }
    TPIO_CHECK(slot.kind == kind && slot.root == root,
               "mismatched collective calls across ranks");
    TPIO_CHECK(kind != kAllgather || mine.size() == slot.first_size,
               "allgather: contribution sizes differ across ranks");
    auto& blob = (*slot.blobs)[static_cast<std::size_t>(rank())];
    blob.assign(mine.begin(), mine.end());
    if (kind == kSparse) slot.wants[static_cast<std::size_t>(rank())] = want;
    slot.arrived += 1;
    slot.max_clock = std::max(slot.max_clock, ctx_->now());
    Captured c{slot.blobs, slot.release};
    if (slot.arrived == P) {
      ctx_->complete(*slot.release,
                     slot.max_clock + exchange_cost(m, kind, root,
                                                    *slot.blobs, slot.wants));
      slot = Machine::ExchangeSlot{};  // open next generation
    }
    return c;
  });
  ctx_->wait_event(*cap.release, "mpi.exchange");
  return cap.blobs;
}

std::vector<std::vector<std::byte>> Mpi::allgatherv(
    std::span<const std::byte> mine) {
  return *exchange(mine, kAllgatherv, /*root=*/-1, {0, 0});
}

std::shared_ptr<const Mpi::BlobTable> Mpi::allgather_shared(
    std::span<const std::byte> mine) {
  return exchange(mine, kAllgather, /*root=*/-1, {0, 0});
}

std::vector<std::vector<std::byte>> Mpi::allgather(
    std::span<const std::byte> mine) {
  return *allgather_shared(mine);
}

std::vector<std::pair<int, std::vector<std::byte>>> Mpi::sparse_allgatherv(
    std::span<const std::byte> mine, int want_begin, int want_end) {
  const int P = size();
  TPIO_CHECK(0 <= want_begin && want_begin <= want_end && want_end <= P,
             "sparse_allgatherv: want interval out of range");
  auto table = exchange(mine, kSparse, /*root=*/-1, {want_begin, want_end});
  std::vector<std::pair<int, std::vector<std::byte>>> out;
  out.reserve(static_cast<std::size_t>(want_end - want_begin) + 1);
  const auto take = [&](int r) {
    out.emplace_back(r, (*table)[static_cast<std::size_t>(r)]);
  };
  // Ascending by source: this rank's own blob goes before, inside or after
  // the wanted interval.
  const int me = rank();
  if (me < want_begin) take(me);
  for (int r = want_begin; r < want_end; ++r) take(r);
  if (me >= want_end) take(me);
  return out;
}

namespace {

std::uint64_t reduce_identity(Mpi::ReduceOp op) {
  switch (op) {
    case Mpi::ReduceOp::Max: return 0;
    case Mpi::ReduceOp::Min: return UINT64_MAX;
    case Mpi::ReduceOp::Sum: return 0;
  }
  return 0;
}

std::uint64_t reduce_fold(std::uint64_t a, std::uint64_t b,
                          Mpi::ReduceOp op) {
  switch (op) {
    case Mpi::ReduceOp::Max: return std::max(a, b);
    case Mpi::ReduceOp::Min: return std::min(a, b);
    case Mpi::ReduceOp::Sum: return a + b;
  }
  return a;
}

}  // namespace

std::shared_ptr<const std::vector<std::uint64_t>> Mpi::reduce(
    std::span<const std::uint64_t> elems, bool scatter, ReduceOp op) {
  Machine& m = *machine_;
  const int P = size();

  struct Captured {
    std::shared_ptr<std::vector<std::uint64_t>> accum;
    sim::EventPtr release;
  };
  Captured cap = ctx_->act([&]() -> Captured {
    Machine::ReduceSlot& slot = m.reduce_;
    if (!slot.accum) {
      slot.accum = std::make_shared<std::vector<std::uint64_t>>(
          elems.size(), reduce_identity(op));
      slot.op = static_cast<int>(op);
      slot.scatter = scatter;
    }
    TPIO_CHECK(slot.accum->size() == elems.size() &&
                   slot.op == static_cast<int>(op) &&
                   slot.scatter == scatter,
               "mismatched reduce calls across ranks");
    for (std::size_t i = 0; i < elems.size(); ++i) {
      (*slot.accum)[i] = reduce_fold((*slot.accum)[i], elems[i], op);
    }
    slot.arrived += 1;
    slot.max_clock = std::max(slot.max_clock, ctx_->now());
    Captured c{slot.accum, slot.release};
    if (slot.arrived == P) {
      sim::Duration cost = 0;
      if (P > 1) {
        const auto n = static_cast<std::uint64_t>(elems.size()) *
                       sizeof(std::uint64_t);
        const sim::Duration lat = m.fabric().params().inter_latency;
        const double bw = m.fabric().params().inter_bw;
        const auto log_p = static_cast<sim::Duration>(ceil_log2(P));
        // Recursive halving moves (P-1)/P of the vector per rank in
        // ceil(log2 P) rounds; the butterfly allreduce is a reduce_scatter
        // followed by its mirror allgather — both terms doubled.
        const auto rounds = scatter ? log_p : 2 * log_p;
        const std::uint64_t vol = scatter ? n - n / static_cast<std::uint64_t>(P)
                                          : 2 * (n - n / static_cast<std::uint64_t>(P));
        cost = rounds * lat + sim::transfer_time(vol, bw) +
               m.sync_collective_cost(P);
      }
      ctx_->complete(*slot.release, slot.max_clock + cost);
      slot = Machine::ReduceSlot{};  // open next generation
    }
    return c;
  });
  ctx_->wait_event(*cap.release, "mpi.reduce");
  return cap.accum;
}

std::uint64_t Mpi::reduce_scatter(std::span<const std::uint64_t> elems,
                                  ReduceOp op) {
  TPIO_CHECK(elems.size() == static_cast<std::size_t>(size()),
             "reduce_scatter: one element per rank required");
  return (*reduce(elems, /*scatter=*/true, op))[static_cast<std::size_t>(
      rank())];
}

std::uint64_t Mpi::allreduce(std::uint64_t v, ReduceOp op) {
  return (*reduce({&v, 1}, /*scatter=*/false, op))[0];
}

std::uint64_t Mpi::allreduce_max(std::uint64_t v) {
  return allreduce(v, ReduceOp::Max);
}

std::uint64_t Mpi::allreduce_min(std::uint64_t v) {
  return allreduce(v, ReduceOp::Min);
}

std::uint64_t Mpi::allreduce_sum(std::uint64_t v) {
  return allreduce(v, ReduceOp::Sum);
}

std::vector<std::vector<std::byte>> Mpi::gatherv(
    std::span<const std::byte> mine, int root) {
  TPIO_CHECK(root >= 0 && root < size(), "gatherv: root out of range");
  auto table = exchange(mine, kGatherv, root, {0, 0});
  if (rank() != root) {
    // Non-roots never see the gathered set (and never pay for holding it).
    return std::vector<std::vector<std::byte>>(table->size());
  }
  return *table;
}

std::vector<std::byte> detail::scatterv_unpack(
    std::span<const std::byte> packed, int nprocs, int rank) {
  const auto P = static_cast<std::size_t>(nprocs);
  TPIO_CHECK(packed.size() >= P * sizeof(std::uint64_t),
             "scatterv: malformed root payload");
  std::vector<std::uint64_t> sizes(P);
  std::memcpy(sizes.data(), packed.data(), P * sizeof(std::uint64_t));
  std::size_t pos = P * sizeof(std::uint64_t);
  for (std::size_t r = 0; r < P; ++r) {
    TPIO_CHECK(sizes[r] <= packed.size() - pos,
               "scatterv: size table overruns the root payload");
    pos += sizes[r];
  }
  pos = P * sizeof(std::uint64_t);
  for (std::size_t r = 0; r < static_cast<std::size_t>(rank); ++r) {
    pos += sizes[r];
  }
  std::vector<std::byte> out(sizes[static_cast<std::size_t>(rank)]);
  if (!out.empty()) std::memcpy(out.data(), packed.data() + pos, out.size());
  return out;
}

std::vector<std::byte> Mpi::scatterv(
    const std::vector<std::vector<std::byte>>& blobs, int root) {
  TPIO_CHECK(root >= 0 && root < size(), "scatterv: root out of range");
  TPIO_CHECK(rank() != root ||
                 blobs.size() == static_cast<std::size_t>(size()),
             "scatterv: root must supply one blob per rank");
  // Root contributes the concatenation; per-rank sizes ride in a header.
  std::vector<std::byte> mine;
  if (rank() == root) {
    std::vector<std::uint64_t> sizes;
    sizes.reserve(blobs.size());
    std::size_t total = 0;
    for (const auto& b : blobs) {
      sizes.push_back(b.size());
      total += b.size();
    }
    mine.resize(sizes.size() * sizeof(std::uint64_t) + total);
    std::memcpy(mine.data(), sizes.data(), sizes.size() * sizeof(std::uint64_t));
    std::size_t pos = sizes.size() * sizeof(std::uint64_t);
    for (const auto& b : blobs) {
      if (!b.empty()) std::memcpy(mine.data() + pos, b.data(), b.size());
      pos += b.size();
    }
  }
  auto table = exchange(mine, kScatterv, root, {0, 0});
  return detail::scatterv_unpack((*table)[static_cast<std::size_t>(root)],
                                 size(), rank());
}

void Mpi::bcast(std::span<std::byte> data, int root) {
  TPIO_CHECK(root >= 0 && root < size(), "bcast: root out of range");
  auto table =
      exchange(rank() == root
                   ? std::span<const std::byte>(data.data(), data.size())
                   : std::span<const std::byte>{},
               kBcast, root, {0, 0});
  const auto& src = (*table)[static_cast<std::size_t>(root)];
  TPIO_CHECK(src.size() == data.size(), "bcast size mismatch across ranks");
  if (rank() != root) std::memcpy(data.data(), src.data(), src.size());
}

}  // namespace tpio::smpi
