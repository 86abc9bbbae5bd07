#include "workloads/workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "simbase/error.hpp"
#include "simbase/units.hpp"

namespace tpio::wl {

const char* to_string(Kind k) {
  switch (k) {
    case Kind::Ior: return "IOR";
    case Kind::Tile256: return "Tile I/O 256";
    case Kind::Tile1M: return "Tile I/O 1M";
    case Kind::Flash: return "Flash I/O";
  }
  return "?";
}

std::pair<int, int> grid_dims(int P) {
  TPIO_CHECK(P > 0, "grid_dims of non-positive process count");
  int gx = static_cast<int>(std::sqrt(static_cast<double>(P)));
  while (gx > 1 && P % gx != 0) --gx;
  return {gx, P / gx};
}

namespace {

/// Ramp[i] = 131·i mod 256, long enough for any start in [0, 256) plus one
/// whole segment. 131 is odd, hence invertible mod 256 (131·43 = 1 mod 256):
/// the progression b, b + 131, b + 2·131, ... is the ramp read from
/// k = 43·b mod 256 on, so each segment of content is one memcpy.
constexpr auto kRamp = [] {
  std::array<std::uint8_t, 255 + Content::kSegment> r{};
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = static_cast<std::uint8_t>(131 * i);
  }
  return r;
}();

}  // namespace

void Content::operator()(std::uint64_t offset,
                         std::span<std::byte> out) const {
  std::uint64_t seg = offset / kSegment;
  std::uint64_t o = offset;
  std::size_t done = 0;
  while (done < out.size()) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        out.size() - done, (seg + 1) * kSegment - o));
    const auto base = static_cast<std::uint8_t>(o * 131 + seg + 5);
    const auto k = static_cast<std::uint8_t>(base * 43);
    std::memcpy(out.data() + done, kRamp.data() + k, n);
    done += n;
    o += n;
    ++seg;
  }
}

void fill_into(const coll::FileView& view, std::span<std::byte> data) {
  TPIO_CHECK(data.size() == view.total_bytes(),
             "fill_into buffer size does not match the view");
  std::size_t pos = 0;
  for (const coll::Extent& e : view.extents) {
    expected_byte(e.offset, data.subspan(pos, e.length));
    pos += e.length;
  }
}

std::vector<std::byte> fill_local(const coll::FileView& view) {
  std::vector<std::byte> data(view.total_bytes());
  fill_into(view, data);
  return data;
}

std::uint64_t Spec::bytes_per_proc() const {
  switch (kind) {
    case Kind::Ior:
      return ior_block;
    case Kind::Tile256:
    case Kind::Tile1M:
      return elem_bytes * static_cast<std::uint64_t>(elems_x) *
             static_cast<std::uint64_t>(elems_y);
    case Kind::Flash:
      return static_cast<std::uint64_t>(nvars) *
             static_cast<std::uint64_t>(blocks_per_proc) * block_bytes;
  }
  return 0;
}

coll::FileView Spec::view(int rank, int P) const {
  TPIO_CHECK(rank >= 0 && rank < P, "workload rank out of range");
  coll::FileView v;
  switch (kind) {
    case Kind::Ior: {
      // transfer size == block size, segment count 1 (paper IV-1): each
      // process owns one contiguous block.
      v.extents.push_back(coll::Extent{
          static_cast<std::uint64_t>(rank) * ior_block, ior_block});
      break;
    }
    case Kind::Tile256:
    case Kind::Tile1M: {
      // gx*gy tile grid over a row-major global element array. The tile of
      // `rank` starts at tile coordinates (tx, ty); each of its elems_y
      // rows is one contiguous extent of elems_x elements.
      const auto [gx, gy] = grid_dims(P);
      (void)gy;
      const int tx = rank % gx;
      const int ty = rank / gx;
      const std::uint64_t row_bytes =
          static_cast<std::uint64_t>(gx) * static_cast<std::uint64_t>(elems_x) *
          elem_bytes;
      for (int iy = 0; iy < elems_y; ++iy) {
        const std::uint64_t global_row =
            static_cast<std::uint64_t>(ty) * static_cast<std::uint64_t>(elems_y) +
            static_cast<std::uint64_t>(iy);
        const std::uint64_t off =
            global_row * row_bytes +
            static_cast<std::uint64_t>(tx) *
                static_cast<std::uint64_t>(elems_x) * elem_bytes;
        v.extents.push_back(coll::Extent{
            off, static_cast<std::uint64_t>(elems_x) * elem_bytes});
      }
      break;
    }
    case Kind::Flash: {
      // Checkpoint layout: variable-major; within a variable, processes'
      // block slabs are laid out by rank. One extent per variable.
      const std::uint64_t slab =
          static_cast<std::uint64_t>(blocks_per_proc) * block_bytes;
      const std::uint64_t var_bytes = slab * static_cast<std::uint64_t>(P);
      for (int var = 0; var < nvars; ++var) {
        v.extents.push_back(coll::Extent{
            static_cast<std::uint64_t>(var) * var_bytes +
                static_cast<std::uint64_t>(rank) * slab,
            slab});
      }
      break;
    }
  }
  return v;
}

std::string Spec::describe() const {
  std::string s = to_string(kind);
  switch (kind) {
    case Kind::Ior:
      s += " block=" + sim::format_bytes(ior_block);
      break;
    case Kind::Tile256:
    case Kind::Tile1M:
      s += " elem=" + sim::format_bytes(elem_bytes) + " " +
           std::to_string(elems_x) + "x" + std::to_string(elems_y) +
           "/proc";
      break;
    case Kind::Flash:
      s += " vars=" + std::to_string(nvars) +
           " blocks=" + std::to_string(blocks_per_proc) + "x" +
           sim::format_bytes(block_bytes);
      break;
  }
  s += " (" + sim::format_bytes(bytes_per_proc()) + "/proc)";
  return s;
}

Spec make_ior(std::uint64_t block_bytes) {
  Spec s;
  s.kind = Kind::Ior;
  s.ior_block = block_bytes;
  return s;
}

Spec make_tile256(int elems_x, int elems_y) {
  Spec s;
  s.kind = Kind::Tile256;
  s.elem_bytes = 256;
  s.elems_x = elems_x;
  s.elems_y = elems_y;
  return s;
}

Spec make_tile1m(int elems_x, int elems_y) {
  Spec s;
  s.kind = Kind::Tile1M;
  s.elem_bytes = sim::MiB;
  s.elems_x = elems_x;
  s.elems_y = elems_y;
  return s;
}

Spec make_flash(int nvars, int blocks_per_proc, std::uint64_t block_bytes) {
  Spec s;
  s.kind = Kind::Flash;
  s.nvars = nvars;
  s.blocks_per_proc = blocks_per_proc;
  s.block_bytes = block_bytes;
  return s;
}

}  // namespace tpio::wl
