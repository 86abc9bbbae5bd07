#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "workloads/workloads.hpp"

namespace wl = tpio::wl;
namespace coll = tpio::coll;

namespace {

/// A job-wide coverage check: all ranks' extents must tile [0, total)
/// exactly once.
void expect_full_coverage(const wl::Spec& spec, int P) {
  std::map<std::uint64_t, std::uint64_t> regions;  // offset -> end
  std::uint64_t total = 0;
  for (int r = 0; r < P; ++r) {
    const coll::FileView v = spec.view(r, P);
    v.validate();
    EXPECT_EQ(v.total_bytes(), spec.bytes_per_proc());
    for (const coll::Extent& e : v.extents) {
      auto [it, inserted] = regions.emplace(e.offset, e.end());
      ASSERT_TRUE(inserted) << "duplicate extent offset " << e.offset;
      total += e.length;
    }
  }
  // Contiguity: sorted regions chain without gaps or overlaps.
  std::uint64_t pos = 0;
  for (const auto& [off, end] : regions) {
    ASSERT_EQ(off, pos) << "gap or overlap at offset " << off;
    pos = end;
  }
  EXPECT_EQ(pos, total);
  EXPECT_EQ(total, spec.bytes_per_proc() * static_cast<std::uint64_t>(P));
}

}  // namespace

TEST(GridDims, SquaresAndRectangles) {
  EXPECT_EQ(wl::grid_dims(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(wl::grid_dims(64), (std::pair<int, int>{8, 8}));
  EXPECT_EQ(wl::grid_dims(729), (std::pair<int, int>{27, 27}));
  EXPECT_EQ(wl::grid_dims(8), (std::pair<int, int>{2, 4}));
  EXPECT_EQ(wl::grid_dims(12), (std::pair<int, int>{3, 4}));
  EXPECT_EQ(wl::grid_dims(7), (std::pair<int, int>{1, 7}));  // prime
  EXPECT_EQ(wl::grid_dims(1), (std::pair<int, int>{1, 1}));
}

TEST(Ior, OneContiguousBlockPerRank) {
  const auto spec = wl::make_ior(1 << 20);
  const auto v = spec.view(3, 8);
  ASSERT_EQ(v.extents.size(), 1u);
  EXPECT_EQ(v.extents[0].offset, 3u << 20);
  EXPECT_EQ(v.extents[0].length, 1u << 20);
  expect_full_coverage(spec, 8);
}

TEST(Tile, SegmentStructureMatchesGeometry) {
  // 4 ranks in a 2x2 grid, 3x2 elements of 256 B each.
  const auto spec = wl::make_tile256(3, 2);
  EXPECT_EQ(spec.bytes_per_proc(), 256u * 6);
  const auto v = spec.view(0, 4);
  ASSERT_EQ(v.extents.size(), 2u);  // one extent per element row
  EXPECT_EQ(v.extents[0].offset, 0u);
  EXPECT_EQ(v.extents[0].length, 3u * 256);
  // Row stride: gx * elems_x * elem = 2*3*256.
  EXPECT_EQ(v.extents[1].offset, 2u * 3 * 256);

  // Rank 1 = tile (1, 0): shifted by one tile width.
  const auto v1 = spec.view(1, 4);
  EXPECT_EQ(v1.extents[0].offset, 3u * 256);
}

TEST(Tile, FullCoverageSquare) {
  expect_full_coverage(wl::make_tile256(4, 4), 16);
  expect_full_coverage(wl::make_tile1m(2, 2), 9);
}

TEST(Tile, FullCoverageRectangularGrid) {
  expect_full_coverage(wl::make_tile256(5, 3), 12);  // 3x4 grid
  expect_full_coverage(wl::make_tile256(3, 2), 7);   // 1x7 degenerate
}

TEST(Tile, ElementSizesDiffer) {
  EXPECT_EQ(wl::make_tile256(4, 4).elem_bytes, 256u);
  EXPECT_EQ(wl::make_tile1m(4, 4).elem_bytes, 1u << 20);
}

TEST(Flash, VariableMajorLayout) {
  const auto spec = wl::make_flash(3, 2, 4096);
  const int P = 4;
  const auto v = spec.view(1, P);
  ASSERT_EQ(v.extents.size(), 3u);  // one per variable
  const std::uint64_t slab = 2 * 4096;
  const std::uint64_t var_bytes = slab * P;
  EXPECT_EQ(v.extents[0].offset, slab);              // var 0, rank 1
  EXPECT_EQ(v.extents[1].offset, var_bytes + slab);  // var 1, rank 1
  EXPECT_EQ(v.extents[0].length, slab);
  expect_full_coverage(spec, P);
}

TEST(Flash, CoverageWithManyVars) {
  expect_full_coverage(wl::make_flash(24, 5, 512), 6);
}

TEST(FillLocal, MatchesExpectedBytes) {
  const auto spec = wl::make_tile256(3, 2);
  const auto v = spec.view(2, 4);
  const auto data = wl::fill_local(v);
  ASSERT_EQ(data.size(), v.total_bytes());
  std::size_t pos = 0;
  for (const auto& e : v.extents) {
    for (std::uint64_t i = 0; i < e.length; ++i) {
      ASSERT_EQ(data[pos++], wl::expected_byte(e.offset + i));
    }
  }
}

TEST(Content, RunFormMatchesPerByteForm) {
  // Starts across two whole 977-byte segments and then some, and around
  // 2^40; lengths around 32 bytes and around one segment, and one that
  // spans three segments.
  std::vector<std::uint64_t> starts;
  for (std::uint64_t o = 0; o < 2 * 977 + 64; ++o) starts.push_back(o);
  const std::uint64_t far = std::uint64_t{1} << 40;
  for (std::uint64_t o = far - 977; o < far + 977 + 64; ++o) {
    starts.push_back(o);
  }
  const std::size_t lengths[] = {0, 1, 31, 32, 33, 976, 977, 978, 2000};
  std::vector<std::byte> run(2000);
  std::vector<std::byte> ref(2000);
  for (const std::uint64_t start : starts) {
    for (const std::size_t len : lengths) {
      const std::span<std::byte> out(run.data(), len);
      wl::expected_byte(start, out);
      for (std::size_t i = 0; i < len; ++i) {
        ref[i] = wl::expected_byte(start + i);
      }
      const auto bad = std::mismatch(out.begin(), out.end(), ref.begin());
      ASSERT_EQ(bad.first, out.end())
          << "start " << start << " length " << len << ": byte "
          << (bad.first - out.begin()) << " differs";
    }
  }
}

TEST(Describe, MentionsGeometry) {
  EXPECT_NE(wl::make_ior(1 << 20).describe().find("IOR"), std::string::npos);
  EXPECT_NE(wl::make_tile256(4, 4).describe().find("256"), std::string::npos);
  EXPECT_NE(wl::make_flash(24, 8, 4096).describe().find("vars=24"),
            std::string::npos);
}
