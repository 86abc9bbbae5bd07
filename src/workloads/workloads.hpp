#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace tpio::wl {

/// The benchmark family a workload mimics (section IV of the paper).
enum class Kind {
  Ior,      // 1-D contiguous block per process (transfer = block size)
  Tile256,  // 2-D dense tiles, 256-byte elements (many tiny segments)
  Tile1M,   // 2-D dense tiles, 1 MiB elements (large segments)
  Flash,    // FLASH checkpoint: variable-major blocked layout
};

const char* to_string(Kind k);

/// A scalable description of one benchmark workload. Geometry parameters
/// are scaled-down versions of the paper's (absolute sizes shrink, access
/// *pattern* — segment counts, interleaving, stride structure — is kept).
struct Spec {
  Kind kind = Kind::Ior;

  // IOR: one contiguous block of `ior_block` bytes per process.
  std::uint64_t ior_block = 0;

  // Tile I/O: gx*gy process grid (derived from P), each process owns a
  // tile of elems_x * elems_y elements of elem_bytes each; the global
  // array is row-major over elements.
  std::uint64_t elem_bytes = 0;
  int elems_x = 0;
  int elems_y = 0;

  // FLASH: nvars variables; per variable each process contributes
  // blocks_per_proc * block_bytes contiguously (variable-major file).
  int nvars = 0;
  int blocks_per_proc = 0;
  std::uint64_t block_bytes = 0;

  /// This rank's file view for a P-process job.
  coll::FileView view(int rank, int P) const;

  /// Bytes contributed by one process.
  std::uint64_t bytes_per_proc() const;

  std::string describe() const;
};

/// Paper-shaped presets, scaled by `scale` in (0, 1] relative to the
/// published geometry (scale 1 reproduces the paper's sizes; benches use
/// ~1/64 to keep simulation memory and time in check).
Spec make_ior(std::uint64_t block_bytes);
Spec make_tile256(int elems_x, int elems_y);
Spec make_tile1m(int elems_x, int elems_y);
Spec make_flash(int nvars, int blocks_per_proc, std::uint64_t block_bytes);

/// Process-grid factorization for tile workloads: the most square gx*gy
/// with gx*gy == P (gx <= gy). Perfect squares give gx == gy == sqrt(P),
/// matching the paper's setup.
std::pair<int, int> grid_dims(int P);

/// Deterministic expected content of the output file — the global ground
/// truth every workload's data is generated from, so any shuffle/placement
/// error is detectable at verification. Byte o is
/// (131·o + floor(o / 977) + 5) mod 256: non-periodic in o, and within one
/// 977-byte segment an arithmetic progression of step 131.
struct Content {
  static constexpr std::uint64_t kSegment = 977;

  /// The byte at `offset` — the reference formula.
  constexpr std::byte operator()(std::uint64_t offset) const {
    return static_cast<std::byte>((offset * 131 + offset / kSegment + 5) &
                                  0xFF);
  }
  /// Run form: the bytes of [offset, offset + out.size()) into `out`, equal
  /// byte for byte to the per-byte form, with one division per call and one
  /// memcpy per segment instead of a division per byte.
  void operator()(std::uint64_t offset, std::span<std::byte> out) const;
};

/// The workload content; passes as is to pfs::File::verify.
inline constexpr Content expected_byte{};

/// Materialize the local send buffer for `view` (extent bytes in order).
std::vector<std::byte> fill_local(const coll::FileView& view);

/// Same pattern written into caller-provided storage of exactly
/// view.total_bytes() — lets the harness reuse pooled buffers instead of
/// allocating a fresh vector per (rank, run).
void fill_into(const coll::FileView& view, std::span<std::byte> data);

}  // namespace tpio::wl
