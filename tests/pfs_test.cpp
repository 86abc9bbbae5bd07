#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <utility>
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
  p.target_bw = 1e9;   // 1 B/ns
  p.client_bw = 4e9;   // 4 B/ns
  p.request_overhead = 100;
  p.storage_latency = 10;
  p.op_overhead = 0;  // timing tests assert exact service times
  return p;
}

/// Expected content of [off, off + out.size()), the run form verify()
/// takes. Non-periodic in the offset (the o/1000 term breaks any
/// power-of-two period), so misplaced blocks can never alias to the right
/// content.
void content(std::uint64_t off, std::span<std::byte> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t o = off + i;
    out[i] = static_cast<std::byte>((o * 31 + o / 1000 + 7) & 0xFF);
  }
}

std::vector<std::byte> make_region(std::uint64_t off, std::uint64_t len) {
  std::vector<std::byte> v(len);
  content(off, v);
  return v;
}

/// The integrity modes that keep content: verify() must catch the same
/// faults in both.
constexpr pfs::Integrity kContentModes[] = {pfs::Integrity::Store,
                                            pfs::Integrity::Digest};

const char* name(pfs::Integrity mode) {
  return mode == pfs::Integrity::Store ? "store" : "digest";
}

/// True when a verify() message locates byte `at`: by its offset (Store's
/// "byte mismatch at offset N") or by a byte range "[a, b)" holding it
/// (Digest's piece).
bool locates(const std::string& err, std::uint64_t at) {
  if (const auto p = err.find("offset "); p != std::string::npos) {
    return std::stoull(err.substr(p + 7)) == at;
  }
  unsigned long long a = 0;
  unsigned long long b = 0;
  const auto p = err.find('[');
  return p != std::string::npos &&
         std::sscanf(err.c_str() + p, "[%llu, %llu)", &a, &b) == 2 &&
         a <= at && at < b;
}

/// Run `fn(ctx)` on a single simulated rank.
void solo(const std::function<void(sim::RankCtx&)>& fn) {
  sim::Conductor c(1);
  c.run(fn);
}

}  // namespace

TEST(Pfs, StoreModeRoundTrip) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Store);
  solo([&](sim::RankCtx& ctx) {
    auto data = make_region(0, 5000);
    f->write_at(ctx, 0, 0, data);
    EXPECT_EQ(f->read_back(0, 5000), data);
    EXPECT_EQ(f->size(), 5000u);
  });
}

TEST(Pfs, StoreModeScatteredWrites) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Store);
  solo([&](sim::RankCtx& ctx) {
    // Write out of order, unaligned, spanning chunk boundaries.
    f->write_at(ctx, 0, 3000, make_region(3000, 2000));
    f->write_at(ctx, 0, 0, make_region(0, 3000));
    EXPECT_EQ(f->verify(content), "");
  });
}

TEST(Pfs, DigestModeVerifiesWithoutStoringBytes) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Digest);
  solo([&](sim::RankCtx& ctx) {
    f->write_at(ctx, 0, 4096, make_region(4096, 4096));
    f->write_at(ctx, 0, 0, make_region(0, 4096));
    EXPECT_EQ(f->verify(content), "");
  });
}

TEST(Pfs, DigestModeDetectsCorruption) {
  for (pfs::Integrity mode : kContentModes) {
    pfs::StorageSystem sys(fast_params(), nullptr);
    auto f = sys.create("t", mode);
    solo([&](sim::RankCtx& ctx) {
      auto data = make_region(0, 2048);
      data[777] ^= std::byte{0x1};
      f->write_at(ctx, 0, 0, data);
      const std::string err = f->verify(content);
      EXPECT_NE(err, "") << name(mode);
      EXPECT_TRUE(locates(err, 777)) << name(mode) << ": " << err;
    });
  }
}

TEST(Pfs, DigestModeDetectsMisplacedBytes) {
  for (pfs::Integrity mode : kContentModes) {
    pfs::StorageSystem sys(fast_params(), nullptr);
    auto f = sys.create("t", mode);
    solo([&](sim::RankCtx& ctx) {
      // Swap two regions: same bytes, wrong offsets.
      f->write_at(ctx, 0, 0, make_region(1024, 1024));
      f->write_at(ctx, 0, 1024, make_region(0, 1024));
      EXPECT_NE(f->verify(content), "") << name(mode);
    });
  }
}

TEST(Pfs, VerifyDetectsHoles) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Digest);
  solo([&](sim::RankCtx& ctx) {
    f->write_at(ctx, 0, 0, make_region(0, 1000));
    f->write_at(ctx, 0, 2000, make_region(2000, 1000));  // gap [1000,2000)
    EXPECT_NE(f->verify(content), "");
  });
}

TEST(Pfs, VerifyDetectsDoubleWrites) {
  // Each case is a list of (offset, length) writes. The second writes
  // [0, 256) twice and [256, 512) never, inside the 1 KiB chunk 0: every
  // byte count (file, chunk, extent) is right, so only the content or the
  // piece bookkeeping can tell.
  using Writes = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const Writes cases[] = {{{0, 1000}, {0, 1000}},
                          {{0, 256}, {0, 256}, {512, 512}}};
  for (const Writes& writes : cases) {
    for (pfs::Integrity mode : kContentModes) {
      pfs::StorageSystem sys(fast_params(), nullptr);
      auto f = sys.create("t", mode);
      solo([&](sim::RankCtx& ctx) {
        for (const auto& [off, len] : writes) {
          f->write_at(ctx, 0, off, make_region(off, len));
        }
        EXPECT_NE(f->verify(content), "")
            << name(mode) << ", " << writes.size() << " writes";
      });
    }
  }
}

TEST(Pfs, NoneModeRejectsVerification) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    f->write_at(ctx, 0, 0, make_region(0, 512));
    EXPECT_EQ(f->size(), 512u);
    EXPECT_THROW((void)f->verify(content), tpio::Error);
    EXPECT_THROW((void)f->read_back(0, 1), tpio::Error);
  });
}

TEST(Pfs, BlockingWriteAdvancesClockByServiceTime) {
  auto p = fast_params();
  p.request_overhead = 0;
  p.storage_latency = 0;
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("t", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    // 1024 B: injection 256ns (4B/ns), then target 1024ns (1B/ns).
    f->write_at(ctx, 0, 0, make_region(0, 1024));
    EXPECT_EQ(ctx.now(), 256 + 1024);
  });
}

TEST(Pfs, StripingParallelizesAcrossTargets) {
  auto p = fast_params();
  p.request_overhead = 0;
  p.storage_latency = 0;
  p.client_bw = 1e12;  // make injection negligible
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("t", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    // 4 chunks of 1024 land on 4 distinct targets: ~1024ns total, not 4096.
    f->write_at(ctx, 0, 0, make_region(0, 4096));
    EXPECT_LE(ctx.now(), 1100);
  });
}

TEST(Pfs, SameTargetChunksSerialize) {
  auto p = fast_params();
  p.num_targets = 1;
  p.request_overhead = 0;
  p.storage_latency = 0;
  p.client_bw = 1e12;
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("t", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    f->write_at(ctx, 0, 0, make_region(0, 4096));
    EXPECT_GE(ctx.now(), 4096);
  });
}

TEST(Pfs, AsyncWriteReturnsImmediatelyCompletesLater) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto f = sys.create("t", pfs::Integrity::Digest);
  solo([&](sim::RankCtx& ctx) {
    auto data = make_region(0, 100'000);
    pfs::WriteOp op = f->iwrite_at(ctx, 0, 0, data);
    const sim::Time issued = ctx.now();
    EXPECT_LT(issued, 1000);  // issue cost is just the baton action
    const sim::Time scheduled = op.completion();
    EXPECT_GT(scheduled, issued + 20'000);
    ctx.advance(5'000);  // overlap with "computation"
    f->wait(ctx, op);
    EXPECT_EQ(ctx.now(), scheduled);
    EXPECT_EQ(f->verify(content), "");
  });
}

TEST(Pfs, AsyncOverlapBeatsTwoBlockingWrites) {
  auto run = [](bool async) {
    pfs::StorageSystem sys(fast_params(), nullptr);
    auto f = sys.create("t", pfs::Integrity::None);
    sim::Time finish = 0;
    solo([&](sim::RankCtx& ctx) {
      auto a = make_region(0, 50'000);
      auto b = make_region(50'000, 50'000);
      if (async) {
        auto o1 = f->iwrite_at(ctx, 0, 0, a);
        auto o2 = f->iwrite_at(ctx, 0, 50'000, b);
        f->wait(ctx, o1);
        f->wait(ctx, o2);
      } else {
        f->write_at(ctx, 0, 0, a);
        f->write_at(ctx, 0, 50'000, b);
      }
      finish = ctx.now();
    });
    return finish;
  };
  // With 4 targets and 1 KiB stripes both patterns keep targets busy, but
  // blocking serializes injection+service rounds; async pipelines them.
  EXPECT_LT(run(true), run(false));
}

TEST(Pfs, AioPenaltySlowsOnlyAsync) {
  auto p = fast_params();
  p.aio_penalty = 4.0;
  pfs::StorageSystem sys(p, nullptr);
  auto fa = sys.create("a", pfs::Integrity::None);
  auto fb = sys.create("b", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    auto data = make_region(0, 10'000);
    fa->write_at(ctx, 0, 0, data);
    const sim::Time blocking = ctx.now();
    auto op = fb->iwrite_at(ctx, 0, 0, data);
    fb->wait(ctx, op);
    const sim::Time async = ctx.now() - blocking;
    // The async service path carries the 4x penalty; the blocking one not.
    EXPECT_GT(async, 2 * blocking);
  });
}

TEST(Pfs, ConcurrentAggregatorsShareTargets) {
  auto p = fast_params();
  p.client_bw = 1e12;
  p.request_overhead = 0;
  p.storage_latency = 0;
  p.num_targets = 1;
  pfs::StorageSystem sys(p, nullptr);
  auto f = sys.create("t", pfs::Integrity::Digest);
  sim::Conductor c(2);
  std::vector<sim::Time> done(2);
  c.run([&](sim::RankCtx& ctx) {
    const std::uint64_t off = static_cast<std::uint64_t>(ctx.rank()) * 8192;
    f->write_at(ctx, ctx.rank(), off, make_region(off, 8192));
    done[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  // One target serves 16 KiB total: the later finisher sees ~16384ns.
  EXPECT_GE(std::max(done[0], done[1]), 16'000);
  EXPECT_EQ(f->verify(content), "");
}

TEST(Pfs, NoiseDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    auto p = fast_params();
    p.noise_sigma = 0.1;
    p.noise_seed = seed;
    pfs::StorageSystem sys(p, nullptr);
    auto f = sys.create("t", pfs::Integrity::None);
    sim::Time t = 0;
    solo([&](sim::RankCtx& ctx) {
      f->write_at(ctx, 0, 0, make_region(0, 50'000));
      t = ctx.now();
    });
    return t;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Pfs, SystemBytesCounter) {
  pfs::StorageSystem sys(fast_params(), nullptr);
  auto a = sys.create("a", pfs::Integrity::None);
  auto b = sys.create("b", pfs::Integrity::None);
  solo([&](sim::RankCtx& ctx) {
    a->write_at(ctx, 0, 0, make_region(0, 1000));
    b->write_at(ctx, 0, 0, make_region(0, 500));
  });
  EXPECT_EQ(sys.bytes_written(), 1500u);
}

TEST(Pfs, StripeUnitEqualToSystemStripeIsTheDefaultStriping) {
  // A per-file stripe unit equal to the system stripe size changes
  // nothing: the file reports the same stripe size as one without the
  // override, and each stripe lands on the same target.
  const pfs::PfsParams p = fast_params();
  const int stripes = 3 * p.num_targets;
  auto layout = [&](const pfs::FileStriping& striping) {
    std::uint64_t stripe_size = 0;
    std::vector<int> target_of_stripe;
    for (int s = 0; s < stripes; ++s) {
      pfs::StorageSystem sys(p, nullptr);
      auto f = sys.create("t", pfs::Integrity::None, {}, 0, striping);
      stripe_size = f->stripe_size();
      const std::uint64_t off = static_cast<std::uint64_t>(s) * p.stripe_size;
      solo([&](sim::RankCtx& ctx) {
        f->write_at(ctx, 0, off, make_region(off, p.stripe_size));
      });
      for (int t = 0; t < p.num_targets; ++t) {
        if (sys.target(t).stats(0).requests > 0) target_of_stripe.push_back(t);
      }
    }
    return std::make_pair(stripe_size, target_of_stripe);
  };
  pfs::FileStriping same;
  same.stripe_unit = p.stripe_size;
  const auto plain = layout(pfs::FileStriping{});
  ASSERT_EQ(plain.second.size(), static_cast<std::size_t>(stripes));
  EXPECT_EQ(layout(same), plain);
}
