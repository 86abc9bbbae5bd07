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
// (arXiv:2006.13112): dissemination (Bruck-style) allgather in
// ceil(log2 P) latency rounds, each rank receiving the P - 1 blobs it did
// not contribute; a binomial tree for the broadcast; recursive halving
// then its mirror allgather for the butterfly allreduce. Degenerate
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
  kAllgather,
  kBcast,
  kSparse,
};

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
    case kAllgather: {
      // Dissemination allgather: ceil(log2 P) rounds; every rank receives
      // the P - 1 equal-size blobs it did not contribute.
      const std::uint64_t remote =
          static_cast<std::uint64_t>(P - 1) * blobs[0].size();
      return log_p * lat + sim::transfer_time(remote, bw) + sync;
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

std::uint64_t Mpi::allreduce_max(std::uint64_t v) {
  Machine& m = *machine_;
  const int P = size();

  struct Captured {
    std::shared_ptr<std::uint64_t> accum;
    sim::EventPtr release;
  };
  Captured cap = ctx_->act([&]() -> Captured {
    Machine::ReduceSlot& slot = m.reduce_;
    if (!slot.accum) slot.accum = std::make_shared<std::uint64_t>(0);
    *slot.accum = std::max(*slot.accum, v);
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
