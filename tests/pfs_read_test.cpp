#include <gtest/gtest.h>

#include <functional>
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
