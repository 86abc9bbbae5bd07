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
// volume charged at the root's NIC; recursive halving then its mirror
// allgather for the butterfly allreduce. Degenerate
// exchanges are free: P == 1 pays nothing, and empty contributions never
// pay a volume term (transfer_time(0) == 0 by construction).

void Mpi::barrier() {
  machine_->barrier_sync_.arrive(*ctx_, machine_->sync_collective_cost(size()),
                                 /*floor=*/0, "mpi.barrier");
}

void Mpi::lane_barrier(int first, int last) {
  Machine& m = *machine_;
  TPIO_CHECK(first <= rank() && rank() < last,
             "lane_barrier caller outside the named rank interval");
  sim::SyncPoint* sp = nullptr;
  ctx_->act([&] {
    auto& slot = m.lane_sync_[{first, last}];
    if (!slot) slot = std::make_unique<sim::SyncPoint>(last - first);
    sp = slot.get();
  });
  const sim::Duration cost =
      static_cast<sim::Duration>(ceil_log2(last - first)) *
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

std::shared_ptr<const Mpi::BlobTable> Mpi::sparse_allgatherv_shared(
    std::span<const std::byte> mine, int want_begin, int want_end) {
  TPIO_CHECK(0 <= want_begin && want_begin <= want_end && want_end <= size(),
             "sparse_allgatherv: want interval out of range");
  return exchange(mine, kSparse, /*root=*/-1, {want_begin, want_end});
}

std::vector<std::pair<int, std::vector<std::byte>>> Mpi::sparse_allgatherv(
    std::span<const std::byte> mine, int want_begin, int want_end) {
  const auto table = sparse_allgatherv_shared(mine, want_begin, want_end);
  std::vector<std::pair<int, std::vector<std::byte>>> out;
  out.reserve(static_cast<std::size_t>(want_end - want_begin) + 1);
  held_sources(rank(), want_begin, want_end, [&](int r) {
    out.emplace_back(r, (*table)[static_cast<std::size_t>(r)]);
  });
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

std::uint64_t Mpi::allreduce(std::uint64_t v, ReduceOp op) {
  Machine& m = *machine_;
  const int P = size();

  struct Captured {
    std::shared_ptr<std::uint64_t> accum;
    sim::EventPtr release;
  };
  Captured cap = ctx_->act([&]() -> Captured {
    Machine::ReduceSlot& slot = m.reduce_;
    if (!slot.accum) {
      slot.accum = std::make_shared<std::uint64_t>(reduce_identity(op));
      slot.op = static_cast<int>(op);
    }
    TPIO_CHECK(slot.op == static_cast<int>(op),
               "mismatched reduce calls across ranks");
    *slot.accum = reduce_fold(*slot.accum, v, op);
    slot.arrived += 1;
    slot.max_clock = std::max(slot.max_clock, ctx_->now());
    Captured c{slot.accum, slot.release};
    if (slot.arrived == P) {
      sim::Duration cost = 0;
      if (P > 1) {
        const std::uint64_t n = sizeof(std::uint64_t);
        const sim::Duration lat = m.fabric().params().inter_latency;
        const double bw = m.fabric().params().inter_bw;
        const auto log_p = static_cast<sim::Duration>(ceil_log2(P));
        // Recursive halving moves (P-1)/P of the n-byte value per rank in
        // ceil(log2 P) rounds, and its mirror allgather as much again.
        cost = 2 * log_p * lat +
               sim::transfer_time(2 * (n - n / static_cast<std::uint64_t>(P)),
                                  bw) +
               m.sync_collective_cost(P);
      }
      ctx_->complete(*slot.release, slot.max_clock + cost);
      slot = Machine::ReduceSlot{};  // open next generation
    }
    return c;
  });
  ctx_->wait_event(*cap.release, "mpi.reduce");
  return *cap.accum;
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
