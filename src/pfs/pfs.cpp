#include "pfs/pfs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "simbase/error.hpp"

namespace tpio::pfs {

// ---------------------------------------------------------------------------
// Fault model
// ---------------------------------------------------------------------------

std::uint64_t FaultModel::op_key(int node, std::uint64_t offset,
                                 std::uint64_t length) {
  // SplitMix64-style fold of the operation's stable identity. Must not
  // depend on issue time or call order: two runs that issue the same
  // logical ops in different interleavings get the same keys.
  std::uint64_t z = static_cast<std::uint64_t>(node) * 0x9e3779b97f4a7c15ULL;
  z ^= offset + 0xbf58476d1ce4e5b9ULL + (z << 6) + (z >> 2);
  z ^= length + 0x94d049bb133111ebULL + (z << 6) + (z >> 2);
  return z;
}

bool FaultModel::fails(double rate, std::uint64_t key, std::uint64_t salt,
                       int attempt) const {
  if (attempt < p_.fail_until_attempt) return true;
  if (rate <= 0.0) return false;
  // Pure function of (seed, key, salt, attempt): a private two-level
  // derived stream per (op, attempt), independent of every other draw in
  // the simulation.
  sim::Rng rng(sim::Rng::derive_seed(
      sim::Rng::derive_seed(p_.seed, key ^ (salt << 56)),
      static_cast<std::uint64_t>(attempt)));
  return rng.next_double() < rate;
}

std::string fault_tag(const FaultParams& p) {
  FaultModel m(p);
  if (!m.enabled()) return {};
  std::string tag = "|faults=1|wrate=" + std::to_string(p.write_fail_rate) +
                    "|rrate=" + std::to_string(p.read_fail_rate) +
                    "|fseed=" + std::to_string(p.seed);
  if (p.fail_until_attempt > 1) {
    tag += "|until=" + std::to_string(p.fail_until_attempt);
  }
  if (p.straggler_targets > 0 && p.straggler_factor > 1.0) {
    tag += "|strag=" + std::to_string(p.straggler_factor) + "x" +
           std::to_string(p.straggler_targets) + "@" +
           std::to_string(p.straggler_after);
  }
  return tag;
}

StorageSystem::StorageSystem(const PfsParams& params, net::Fabric* fabric)
    : params_(params), fabric_(fabric), faults_(params.faults) {
  TPIO_CHECK(params.num_targets > 0, "storage system needs targets");
  TPIO_CHECK(params.stripe_size > 0, "stripe size must be positive");
  TPIO_CHECK(params.target_bw > 0 && params.client_bw > 0,
             "storage bandwidths must be positive");
  TPIO_CHECK(params.aio_penalty >= 1.0, "aio penalty must be >= 1");
  TPIO_CHECK(!params.share_compute_nic || fabric != nullptr,
             "share_compute_nic requires a fabric");
  const FaultParams& f = params.faults;
  TPIO_CHECK(f.write_fail_rate >= 0.0 && f.write_fail_rate <= 1.0,
             "write_fail_rate must be in [0, 1]");
  TPIO_CHECK(f.read_fail_rate >= 0.0 && f.read_fail_rate <= 1.0,
             "read_fail_rate must be in [0, 1]");
  TPIO_CHECK(f.fail_until_attempt >= 0, "fail_until_attempt must be >= 0");
  TPIO_CHECK(f.straggler_factor >= 1.0, "straggler factor must be >= 1");
  TPIO_CHECK(f.straggler_targets >= 0 &&
                 f.straggler_targets <= params.num_targets,
             "straggler_targets must be in [0, num_targets]");
  TPIO_CHECK(f.straggler_after >= 0, "straggler_after must be >= 0");
  targets_.reserve(static_cast<std::size_t>(params.num_targets));
  for (int t = 0; t < params.num_targets; ++t) {
    targets_.emplace_back("ost[" + std::to_string(t) + "]", params.qos);
    if (params.noise_sigma > 0.0) {
      noise_.push_back(std::make_unique<sim::NoiseModel>(
          params.noise_sigma,
          sim::Rng::derive_seed(params.noise_seed,
                                static_cast<std::uint64_t>(t))));
      targets_.back().set_noise(noise_.back().get());
    }
  }
}

QosStats StorageSystem::tenant_stats(int tenant) const {
  QosStats out;
  for (const ServiceQueue& q : targets_) out += q.stats(tenant);
  return out;
}

const ServiceQueue& StorageSystem::target(int t) const {
  TPIO_CHECK(t >= 0 && t < static_cast<int>(targets_.size()),
             "target index out of range");
  return targets_[static_cast<std::size_t>(t)];
}

sim::Timeline& StorageSystem::client_channel(int node) {
  TPIO_CHECK(node >= 0, "negative node id");
  while (client_tx_.size() <= static_cast<std::size_t>(node)) {
    client_tx_.emplace_back("stor_tx[" + std::to_string(client_tx_.size()) +
                            "]");
  }
  return client_tx_[static_cast<std::size_t>(node)];
}

std::shared_ptr<File> StorageSystem::create(std::string name,
                                            Integrity integrity) {
  return create(std::move(name), integrity, TenantClass{}, 0, FileStriping{});
}

std::shared_ptr<File> StorageSystem::create(std::string name,
                                            Integrity integrity,
                                            const TenantClass& tenant,
                                            int node_offset,
                                            const FileStriping& striping) {
  TPIO_CHECK(tenant.id >= 0, "tenant id must be >= 0");
  TPIO_CHECK(tenant.weight > 0.0, "tenant weight must be positive");
  TPIO_CHECK(node_offset >= 0, "node offset must be >= 0");
  TPIO_CHECK(striping.stripe_factor >= 0 &&
                 striping.stripe_factor <= params_.num_targets,
             "stripe factor must be in [0, num_targets]");
  TPIO_CHECK(striping.target_offset >= 0 &&
                 striping.target_offset < params_.num_targets,
             "target offset must be in [0, num_targets)");
  return std::shared_ptr<File>(new File(*this, std::move(name), integrity,
                                        tenant, node_offset, striping));
}

// ---------------------------------------------------------------------------
// Content recording / verification
// ---------------------------------------------------------------------------

namespace {

/// Bytes of expected content verify() generates per call to the content
/// function. A multiple of 32, so a piece hashed in blocks of it gets the
/// same hash as when hashed at once.
constexpr std::uint64_t kVerifyBlock = 64 * 1024;

/// The hash of one Digest piece: four lanes over 8-byte words. Each step,
/// h = (h ^ w) * K then h ^= h >> 32, is a bijection of the lane for a fixed
/// word and of the word for a fixed lane, and the lanes are folded the same
/// way, so changing any one byte always changes the hash. Every update()
/// but the last must pass a multiple of 32 bytes.
class PieceHash {
 public:
  void update(std::span<const std::byte> b) {
    std::size_t i = 0;
    for (; i + 32 <= b.size(); i += 32) step(b.data() + i);
    if (i < b.size()) {
      std::byte tail[32] = {};
      std::memcpy(tail, b.data() + i, b.size() - i);
      step(tail);
    }
    len_ += b.size();
  }

  std::uint64_t finish() const {
    std::uint64_t h = round(len_, 0);
    for (std::uint64_t l : lane_) h = round(h, l);
    // SplitMix64 finalizer.
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

 private:
  static std::uint64_t round(std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
  }

  void step(const std::byte* p) {
    for (std::size_t j = 0; j < 4; ++j) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + 8 * j, sizeof w);
      lane_[j] = round(lane_[j], w);
    }
  }

  std::uint64_t lane_[4] = {1, 2, 3, 4};
  std::uint64_t len_ = 0;
};

}  // namespace

std::uint64_t File::stripe_size() const {
  return striping_.stripe_unit > 0 ? striping_.stripe_unit
                                   : sys_->params_.stripe_size;
}

int File::target_of(std::uint64_t stripe_idx) const {
  const auto nt = static_cast<std::uint64_t>(sys_->params_.num_targets);
  const auto factor = striping_.stripe_factor > 0
                          ? static_cast<std::uint64_t>(striping_.stripe_factor)
                          : nt;
  return static_cast<int>(
      (static_cast<std::uint64_t>(striping_.target_offset) +
       stripe_idx % factor) %
      nt);
}

void File::record(std::uint64_t offset, std::span<const std::byte> data,
                  sim::Time visible_at) {
  // Submission accounting is immediate — the storage system has accepted
  // the bytes — but Store content only becomes observable once the write
  // completes on the virtual timeline.
  size_ = std::max(size_, offset + data.size());
  if (!data.empty()) min_offset_ = std::min(min_offset_, offset);
  bytes_accepted_ += data.size();
  sys_->bytes_written_ += data.size();
  if (integrity_ == Integrity::None || data.empty()) return;

  if (integrity_ == Integrity::Store) {
    pending_.push_back(
        PendingWrite{visible_at, offset, {data.begin(), data.end()}});
    return;
  }
  // Digest mode: hash each piece now (the caller may overwrite its buffer
  // after submission) and keep only the hash.
  const std::uint64_t ss = stripe_size();
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::uint64_t pos = offset + consumed;
    const std::uint64_t n =
        std::min<std::uint64_t>(ss - pos % ss, data.size() - consumed);
    PieceHash h;
    h.update(data.subspan(consumed, n));
    chunks_[pos / ss].pieces.push_back(Piece{pos, n, h.finish()});
    consumed += n;
  }
}

void File::apply_content(const PendingWrite& w) {
  const std::uint64_t ss = stripe_size();
  std::size_t consumed = 0;
  while (consumed < w.bytes.size()) {
    const std::uint64_t pos = w.offset + consumed;
    const std::uint64_t in_chunk = pos % ss;
    const std::uint64_t n =
        std::min<std::uint64_t>(ss - in_chunk, w.bytes.size() - consumed);
    Chunk& c = chunks_[pos / ss];
    if (c.bytes.empty()) c.bytes.resize(ss);
    std::memcpy(c.bytes.data() + in_chunk, w.bytes.data() + consumed, n);
    c.written += n;
    consumed += n;
  }
}

void File::flush_content(sim::Time upto) {
  if (pending_.empty()) return;
  std::vector<PendingWrite> keep;
  for (PendingWrite& w : pending_) {
    if (w.visible_at <= upto) {
      apply_content(w);
    } else {
      keep.push_back(std::move(w));
    }
  }
  pending_.swap(keep);
}

std::vector<std::byte> File::read_back(std::uint64_t offset,
                                       std::uint64_t len) const {
  TPIO_CHECK(integrity_ == Integrity::Store,
             "read_back requires Integrity::Store");
  // Post-run inspection: every scheduled write has logically completed.
  const_cast<File*>(this)->flush_content(std::numeric_limits<sim::Time>::max());
  std::vector<std::byte> out(len, std::byte{0});
  const std::uint64_t ss = stripe_size();
  std::uint64_t pos = offset;
  std::uint64_t copied = 0;
  while (copied < len) {
    const std::uint64_t chunk_idx = pos / ss;
    const std::uint64_t in_chunk = pos % ss;
    const std::uint64_t n = std::min(ss - in_chunk, len - copied);
    auto it = chunks_.find(chunk_idx);
    if (it != chunks_.end() && !it->second.bytes.empty()) {
      std::memcpy(out.data() + copied, it->second.bytes.data() + in_chunk, n);
    }
    pos += n;
    copied += n;
  }
  return out;
}

std::string File::verify(
    const std::function<void(std::uint64_t, std::span<std::byte>)>& expected)
    const {
  TPIO_CHECK(integrity_ != Integrity::None,
             "verify requires Store or Digest integrity");
  // Post-run inspection: every scheduled write has logically completed.
  const_cast<File*>(this)->flush_content(std::numeric_limits<sim::Time>::max());
  // Subfiles keep their members' global offsets, so the written extent is
  // [base_offset, size) — a shared file (base 0) reduces to the historical
  // whole-file check.
  const std::uint64_t base = base_offset();
  if (bytes_accepted_ != size_ - base) {
    return "bytes written (" + std::to_string(bytes_accepted_) +
           ") != written extent (" + std::to_string(size_ - base) +
           " bytes at [" + std::to_string(base) + ", " +
           std::to_string(size_) + ")): holes or overlapping writes";
  }
  const std::uint64_t ss = stripe_size();
  const std::uint64_t nchunks = (size_ + ss - 1) / ss;
  // Expected content is generated kVerifyBlock bytes at a time, so the
  // scratch stays small and in cache whatever the stripe unit.
  std::vector<std::byte> want(kVerifyBlock);
  auto block = [&](std::uint64_t o, std::uint64_t end) {
    const auto w = std::span(want).first(
        static_cast<std::size_t>(std::min<std::uint64_t>(kVerifyBlock, end - o)));
    expected(o, w);
    return w;
  };
  auto range = [](std::uint64_t a, std::uint64_t b) {
    return "bytes [" + std::to_string(a) + ", " + std::to_string(b) + ")";
  };
  for (std::uint64_t ci = base / ss; ci < nchunks; ++ci) {
    auto it = chunks_.find(ci);
    const std::uint64_t lo = std::max(base, ci * ss);
    const std::uint64_t hi = std::min(size_, ci * ss + ss);
    if (it == chunks_.end()) {
      return "chunk " + std::to_string(ci) + " never written";
    }
    const Chunk& c = it->second;
    if (integrity_ == Integrity::Store) {
      if (c.written != hi - lo) {
        return "chunk " + std::to_string(ci) + " has " +
               std::to_string(c.written) + " bytes, expected " +
               std::to_string(hi - lo);
      }
      for (std::uint64_t o = lo; o < hi; o += kVerifyBlock) {
        const auto w = block(o, hi);
        const std::byte* got = c.bytes.data() + (o - ci * ss);
        if (std::memcmp(got, w.data(), w.size()) != 0) {
          const auto at = std::mismatch(w.begin(), w.end(), got).first;
          return "byte mismatch at offset " +
                 std::to_string(o + static_cast<std::uint64_t>(at - w.begin()));
        }
      }
      continue;
    }
    // Digest: sorted by offset, the pieces must tile [lo, hi) exactly once;
    // then each piece's hash must match that of its expected bytes.
    std::vector<Piece> pieces = c.pieces;
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& a, const Piece& b) { return a.offset < b.offset; });
    std::uint64_t at = lo;
    for (const Piece& p : pieces) {
      if (p.offset > at) {
        return "chunk " + std::to_string(ci) + ": " + range(at, p.offset) +
               " never written";
      }
      if (p.offset < at) {
        return "chunk " + std::to_string(ci) + ": " +
               range(p.offset, std::min(at, p.offset + p.length)) +
               " written more than once";
      }
      at += p.length;
    }
    if (at != hi) {
      return "chunk " + std::to_string(ci) + ": " + range(at, hi) +
             " never written";
    }
    for (const Piece& p : pieces) {
      const std::uint64_t end = p.offset + p.length;
      PieceHash h;
      for (std::uint64_t o = p.offset; o < end; o += kVerifyBlock) {
        h.update(block(o, end));
      }
      if (h.finish() != p.hash) {
        return "digest mismatch in chunk " + std::to_string(ci) + " at " +
               range(p.offset, end);
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

sim::Time File::schedule_write(sim::RankCtx& ctx, int node,
                               std::uint64_t offset,
                               std::span<const std::byte> data, bool async,
                               int attempt, IoStatus& status) {
  const PfsParams& p = sys_->params_;
  const FaultModel& faults = sys_->faults_;
  // Tenant files address the shared system's node space: client channels,
  // NIC sharing and fault-oracle keys all see the global node, so two
  // tenants' same-shaped ops stay distinct. Solo files have offset 0.
  const int gnode = node + node_offset_;

  // Fault verdict for this attempt, decided at submission (the storage
  // system knows the request will bounce) but observable to the program
  // only through wait()/the blocking return. When the fault layer is
  // disabled this draws no RNG at all.
  status = IoStatus::Ok;
  if (faults.enabled() &&
      faults.write_fails(FaultModel::op_key(gnode, offset, data.size()),
                         attempt)) {
    status = IoStatus::TransientError;
  }

  // The client streams stripe chunks: each chunk is pushed through the
  // node's storage channel (and, on co-located storage, the compute NIC),
  // then serviced by its target. Injection of chunk k+1 overlaps the
  // service of chunk k — one write call keeps client and servers busy
  // concurrently, as a real striping client does.
  sim::Timeline& client = sys_->client_channel(gnode);
  const double penalty = async ? p.aio_penalty : 1.0;
  const std::uint64_t ss = stripe_size();
  sim::Time done = ctx.now();
  sim::Time cursor = ctx.now() + p.op_overhead;  // per-call dispatch cost
  std::uint64_t pos = offset;
  std::uint64_t left = data.size();
  while (left > 0) {
    const std::uint64_t stripe_idx = pos / ss;
    const std::uint64_t in_chunk = pos % ss;
    const std::uint64_t n = std::min(ss - in_chunk, left);
    // The aio penalty applies to the whole async path: kernel aio threads
    // also stream the data through the client stack.
    const auto inject_time = static_cast<sim::Duration>(std::llround(
        static_cast<double>(sim::transfer_time(n, p.client_bw)) * penalty));
    sim::Time injected = client.reserve(cursor, inject_time).end;
    if (p.share_compute_nic) {
      injected =
          std::max(injected, sys_->fabric_->reserve_tx(gnode, n, cursor));
    }
    const auto tid = static_cast<std::size_t>(target_of(stripe_idx));
    // Straggler targets service slowly (asymmetrically so for aio; see
    // FaultParams::straggler_factor). The onset check uses the earliest
    // possible service time — a deterministic function of the request, not
    // of the target's queue depth.
    const sim::Time earliest = injected + p.storage_latency;
    const double slow =
        faults.service_factor(static_cast<int>(tid), async, earliest);
    const auto service = static_cast<sim::Duration>(
        std::llround(static_cast<double>(p.request_overhead +
                                         sim::transfer_time(n, p.target_bw)) *
                     penalty * slow));
    const auto iv = sys_->targets_[tid].reserve(earliest, service, tenant_);
    done = std::max(done, iv.end);
    pos += n;
    left -= n;
  }
  // Content is snapshotted now (submission semantics) but becomes
  // observable only at `done`, when the last chunk is durable. A faulted
  // attempt consumed its service but nothing became durable — it must not
  // be recorded, or verify() would double-count the retried region.
  if (status == IoStatus::Ok) record(offset, data, done);
  return done;
}

WriteOp File::start_read(sim::RankCtx& ctx, int node, std::uint64_t offset,
                         std::span<std::byte> out, bool async, int attempt) {
  auto ev = std::make_shared<sim::Event>();
  IoStatus status = IoStatus::Ok;
  ctx.act([&] {
    // Reads observe exactly the writes that completed by issue time.
    // Baton actions execute in nondecreasing virtual time, so flushing up
    // to now() here is deterministic across schedules and worker counts.
    flush_content(ctx.now());
    // Timing mirrors the write path: per-chunk target service, then the
    // client pulls the bytes through its storage channel.
    const PfsParams& p = sys_->params_;
    const FaultModel& faults = sys_->faults_;
    const int gnode = node + node_offset_;
    if (faults.enabled() &&
        faults.read_fails(FaultModel::op_key(gnode, offset, out.size()),
                          attempt)) {
      status = IoStatus::TransientError;
    }
    const double penalty = async ? p.aio_penalty : 1.0;
    sim::Timeline& client = sys_->client_channel(gnode);
    const std::uint64_t ss = stripe_size();
    sim::Time done = ctx.now();
    sim::Time cursor = ctx.now() + p.op_overhead;
    std::uint64_t pos = offset;
    std::uint64_t left = out.size();
    std::size_t into = 0;
    // Content: stored bytes or zero. A faulted read still fills `out` —
    // like a failed pread, the buffer contents are not to be trusted and
    // the caller learns that through wait(). One fill for the whole span
    // instead of one per stripe chunk; stored chunks are overlaid below.
    std::fill(out.begin(), out.end(), std::byte{0});
    while (left > 0) {
      const std::uint64_t stripe_idx = pos / ss;
      const std::uint64_t in_chunk = pos % ss;
      const std::uint64_t n = std::min(ss - in_chunk, left);
      const auto tid = static_cast<std::size_t>(target_of(stripe_idx));
      const sim::Time earliest = cursor + p.storage_latency;
      const double slow =
          faults.service_factor(static_cast<int>(tid), async, earliest);
      const auto service = static_cast<sim::Duration>(
          std::llround(static_cast<double>(
                           p.request_overhead + sim::transfer_time(n, p.target_bw)) *
                       penalty * slow));
      const auto iv = sys_->targets_[tid].reserve(earliest, service, tenant_);
      const auto pull =
          client.reserve(iv.end, sim::transfer_time(n, p.client_bw));
      done = std::max(done, pull.end);

      auto it = chunks_.find(stripe_idx);
      if (integrity_ == Integrity::Store && it != chunks_.end() &&
          !it->second.bytes.empty()) {
        std::memcpy(out.data() + into, it->second.bytes.data() + in_chunk, n);
      }
      pos += n;
      left -= n;
      into += static_cast<std::size_t>(n);
    }
    ctx.complete(*ev, done);
  });
  return WriteOp(std::move(ev), status);
}

IoStatus File::read_at(sim::RankCtx& ctx, int node, std::uint64_t offset,
                       std::span<std::byte> out, int attempt) {
  WriteOp op = start_read(ctx, node, offset, out, false, attempt);
  return wait(ctx, op);
}

WriteOp File::start_write(sim::RankCtx& ctx, int node, std::uint64_t offset,
                          std::span<const std::byte> data, bool async,
                          int attempt) {
  auto ev = std::make_shared<sim::Event>();
  IoStatus status = IoStatus::Ok;
  ctx.act([&] {
    const sim::Time done =
        schedule_write(ctx, node, offset, data, async, attempt, status);
    ctx.complete(*ev, done);
  });
  return WriteOp(std::move(ev), status);
}

WriteOp File::iwrite_at(sim::RankCtx& ctx, int node, std::uint64_t offset,
                        std::span<const std::byte> data, int attempt) {
  return start_write(ctx, node, offset, data, true, attempt);
}

IoStatus File::write_at(sim::RankCtx& ctx, int node, std::uint64_t offset,
                        std::span<const std::byte> data, int attempt) {
  sim::Time done = 0;
  IoStatus status = IoStatus::Ok;
  ctx.act([&] {
    done = schedule_write(ctx, node, offset, data, false, attempt, status);
  });
  ctx.advance_to(done);
  return status;
}

IoStatus File::wait(sim::RankCtx& ctx, WriteOp& op) {
  TPIO_CHECK(op.valid(), "wait on an empty write operation");
  ctx.wait_event(*op.ev_, "pfs.write_wait");
  op.ev_.reset();
  return op.status_;
}

}  // namespace tpio::pfs
