#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "pfs/pfs.hpp"
#include "sched/conductor.hpp"
#include "simbase/error.hpp"

namespace pfs = tpio::pfs;
namespace sim = tpio::sim;

namespace {

pfs::PfsParams fast_params() {
  pfs::PfsParams p;
  p.num_targets = 4;
  p.stripe_size = 1024;
  p.target_bw = 1e9;
  p.client_bw = 4e9;
  p.request_overhead = 100;
  p.storage_latency = 10;
  p.op_overhead = 0;
  return p;
}

/// Content of [off, off + out.size()), the run form verify() takes.
void pat(std::uint64_t off, std::span<std::byte> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t o = off + i;
    out[i] = static_cast<std::byte>((o * 29 + o / 700 + 3) & 0xFF);
  }
}

std::vector<std::byte> region(std::uint64_t off, std::uint64_t len) {
  std::vector<std::byte> v(len);
  pat(off, v);
  return v;
}

void solo(const std::function<void(sim::RankCtx&)>& fn) {
  sim::Conductor c(1);
  c.run(fn);
}

/// The second write of crossed_writes: [0, 1 KiB) of 0xBB.
std::vector<std::byte> second_write() {
  return std::vector<std::byte>(1024, std::byte{0xBB});
}

/// Two overlapping asynchronous writes that complete out of submission
/// order: the first covers [0, 12 KiB) through a client channel slower
/// than the targets, the second covers [0, 1 KiB) from another node and is
/// durable first. `between` runs at the second's completion, while the
/// first is still in flight.
std::shared_ptr<pfs::File> crossed_writes(
    pfs::StorageSystem& sys,
    const std::function<void(sim::RankCtx&, pfs::File&)>& between) {
  auto f = sys.create("t", pfs::Integrity::Store);
  solo([&](sim::RankCtx& ctx) {
    pfs::WriteOp first = f->iwrite_at(ctx, 0, 0, region(0, 12 * 1024));
    pfs::WriteOp second = f->iwrite_at(ctx, 1, 0, second_write());
    const sim::Time first_done = first.completion();
    ASSERT_LT(second.completion(), first_done);
    f->wait(ctx, second);
    ASSERT_LT(ctx.now(), first_done);
    between(ctx, *f);
    f->wait(ctx, first);
  });
  return f;
}

pfs::PfsParams slow_client_params() {
  pfs::PfsParams p = fast_params();
  p.client_bw = 0.25e9;  // 4 us per 1 KiB chunk, against 1.1 us of service
  return p;
}

}  // namespace

TEST(PfsRead, RoundTripAfterWrite) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Store);
  solo([&](sim::RankCtx& ctx) {
    const auto data = region(0, 10'000);
    f->write_at(ctx, 0, 0, data);
    std::vector<std::byte> out(10'000);
    f->read_at(ctx, 0, 0, out);
    EXPECT_EQ(out, data);
  });
}

TEST(PfsRead, UnalignedWindow) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Store);
  solo([&](sim::RankCtx& ctx) {
    f->write_at(ctx, 0, 0, region(0, 8192));
    std::vector<std::byte> out(3000);
    f->read_at(ctx, 0, 700, out);  // crosses chunk boundaries unaligned
    EXPECT_EQ(out, region(700, 3000));
  });
}

TEST(PfsRead, HolesAndDigestModeReadZero) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto st = sys.create("s", pfs::Integrity::Store);
  auto dg = sys.create("d", pfs::Integrity::Digest);
  solo([&](sim::RankCtx& ctx) {
    st->write_at(ctx, 0, 2048, region(2048, 1024));
    std::vector<std::byte> out(1024, std::byte{0x7F});
    st->read_at(ctx, 0, 0, out);  // unwritten hole
    for (std::byte b : out) EXPECT_EQ(b, std::byte{0});

    dg->write_at(ctx, 0, 0, region(0, 1024));
    std::vector<std::byte> out2(1024, std::byte{0x7F});
    dg->read_at(ctx, 0, 0, out2);  // digest mode keeps no bytes
    for (std::byte b : out2) EXPECT_EQ(b, std::byte{0});
  });
}

TEST(PfsRead, TimingChargesTargetsAndClient) {
  auto p = fast_params();
  p.request_overhead = 0;
  p.storage_latency = 0;
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("t", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    std::vector<std::byte> out(1024);
    f->read_at(ctx, 0, 0, out);
    // target 1024ns (1 B/ns) then client pull 256ns (4 B/ns).
    EXPECT_EQ(ctx.now(), 1024 + 256);
  });
}

TEST(PfsRead, AsyncReadOverlapsCompute) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Store);
  solo([&](sim::RankCtx& ctx) {
    const auto data = region(0, 50'000);
    f->write_at(ctx, 0, 0, data);
    const sim::Time before = ctx.now();
    std::vector<std::byte> out(50'000);
    pfs::WriteOp op = f->start_read(ctx, 0, 0, out, true);
    EXPECT_EQ(ctx.now(), before);  // returns without advancing
    const sim::Time completion = op.completion();
    EXPECT_GT(completion, before);
    f->wait(ctx, op);
    EXPECT_EQ(ctx.now(), completion);
    EXPECT_EQ(out, data);
  });
}

TEST(PfsRead, AioPenaltyAppliesToAsyncReads) {
  auto p = fast_params();
  p.aio_penalty = 3.0;
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("t", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    std::vector<std::byte> out(10'000);
    f->read_at(ctx, 0, 0, out);
    const sim::Time blocking = ctx.now();
    pfs::WriteOp op = f->start_read(ctx, 0, 0, out, true);
    f->wait(ctx, op);
    EXPECT_GT(ctx.now() - blocking, blocking);  // 3x slower async path
  });
}

TEST(PfsRead, StripedReadParallelizes) {
  auto p = fast_params();
  p.request_overhead = 0;
  p.storage_latency = 0;
  p.client_bw = 1e12;
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("t", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    std::vector<std::byte> out(4096);  // 4 chunks -> 4 targets
    f->read_at(ctx, 0, 0, out);
    EXPECT_LE(ctx.now(), 1100);
  });
}

TEST(PfsRead, ReadBeforeAsyncWriteCompletionSeesOldContents) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Store);
  solo([&](sim::RankCtx& ctx) {
    const auto data = region(0, 10'000);
    pfs::WriteOp wr = f->iwrite_at(ctx, 0, 0, data);
    const sim::Time completion = wr.completion();
    ASSERT_GT(completion, ctx.now());

    // Content visibility follows the virtual timeline: a read issued while
    // the asynchronous write is still in flight observes the previous
    // contents (unwritten = zero), not the submitted bytes.
    std::vector<std::byte> early(10'000, std::byte{0x7F});
    pfs::WriteOp rd = f->start_read(ctx, 0, 0, early, false);
    f->wait(ctx, rd);
    for (std::byte b : early) ASSERT_EQ(b, std::byte{0});

    // Once the clock passes the write's completion, the data is there.
    f->wait(ctx, wr);
    EXPECT_GE(ctx.now(), completion);
    std::vector<std::byte> late(10'000);
    f->read_at(ctx, 0, 0, late);
    EXPECT_EQ(late, data);
  });
}

TEST(PfsRead, AsyncWriteSnapshotsContentAtSubmission) {
  // aio submission semantics: the file keeps the bytes as they were when
  // the write was issued, even if the caller reuses its buffer right away
  // (exactly what the double-buffered overlap schedulers do).
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Store);
  solo([&](sim::RankCtx& ctx) {
    auto data = region(0, 4096);
    pfs::WriteOp wr = f->iwrite_at(ctx, 0, 0, data);
    std::fill(data.begin(), data.end(), std::byte{0xEE});  // reuse buffer
    f->wait(ctx, wr);
    std::vector<std::byte> out(4096);
    f->read_at(ctx, 0, 0, out);
    EXPECT_EQ(out, region(0, 4096));
  });
}

TEST(PfsRead, VerifyAndReadBackFlushInFlightWrites) {
  // Post-run inspection treats every scheduled write as complete, in both
  // content-retaining integrity modes — even if no rank ever waited.
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto st = sys.create("s", pfs::Integrity::Store);
  auto dg = sys.create("d", pfs::Integrity::Digest);
  solo([&](sim::RankCtx& ctx) {
    (void)st->iwrite_at(ctx, 0, 0, region(0, 6000));
    (void)dg->iwrite_at(ctx, 0, 0, region(0, 6000));
  });
  EXPECT_EQ(st->read_back(0, 6000), region(0, 6000));
  EXPECT_EQ(st->verify(pat), "");
  EXPECT_EQ(dg->verify(pat), "");
}

TEST(PfsRead, ConcurrentReadersShareTargets) {
  auto p = fast_params();
  p.num_targets = 1;
  p.request_overhead = 0;
  p.storage_latency = 0;
  p.client_bw = 1e12;
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("t", pfs::Integrity::None);
  sim::Conductor c(2);
  std::vector<sim::Time> done(2);
  c.run([&](sim::RankCtx& ctx) {
    std::vector<std::byte> out(4096);
    f->read_at(ctx, ctx.rank(), static_cast<std::uint64_t>(ctx.rank()) * 4096,
               out);
    done[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  EXPECT_GE(std::max(done[0], done[1]), 8192);
}

// Content order of writes whose completions cross: a Store file applies
// pending writes in submission order, each batch at the first read that
// finds it durable (or at read_back). These three cases pin that order.
TEST(PfsRead, CrossedWritesWithoutAReadKeepTheLaterSubmitted) {
  pfs::StorageSystem sys(slow_client_params(), nullptr);
  auto f = crossed_writes(sys, [](sim::RankCtx&, pfs::File&) {});
  EXPECT_EQ(f->read_back(0, 1024), second_write());
  EXPECT_EQ(f->read_back(1024, 11 * 1024), region(1024, 11 * 1024));
}

TEST(PfsRead, CrossedWritesReadBetweenCompletionsKeepsTheLaterCompleted) {
  pfs::StorageSystem sys(slow_client_params(), nullptr);
  auto f = crossed_writes(sys, [](sim::RankCtx& ctx, pfs::File& file) {
    std::vector<std::byte> out(1024);
    file.read_at(ctx, 2, 0, out);
    EXPECT_EQ(out, second_write());  // the first is still in flight
  });
  // The read applied the second write; the first landed over it later.
  EXPECT_EQ(f->read_back(0, 12 * 1024), region(0, 12 * 1024));
}

TEST(PfsRead, CrossedWritesUnmovedByADisjointWriteBetweenCompletions) {
  // A write submitted while the first is in flight applies no durable
  // write queued behind it: that would land the second before the first.
  pfs::StorageSystem sys(slow_client_params(), nullptr);
  auto f = crossed_writes(sys, [](sim::RankCtx& ctx, pfs::File& file) {
    (void)file.iwrite_at(ctx, 2, 20 * 1024, region(20 * 1024, 1024));
  });
  EXPECT_EQ(f->read_back(0, 1024), second_write());
  EXPECT_EQ(f->read_back(1024, 11 * 1024), region(1024, 11 * 1024));
  EXPECT_EQ(f->read_back(20 * 1024, 1024), region(20 * 1024, 1024));
}
