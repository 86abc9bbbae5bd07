#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tpio::sim {

/// CRC-64 (ECMA-182 polynomial, reflected), table-driven.
///
/// A checksum of bytes read back from a file, so that tests can compare
/// the contents of two runs without keeping both copies. (Digest files do
/// not use it: they keep their own per-piece hash, see pfs.cpp.)
std::uint64_t crc64(std::uint64_t seed, std::span<const std::byte> data);

inline std::uint64_t crc64(std::span<const std::byte> data) {
  return crc64(0, data);
}

}  // namespace tpio::sim
