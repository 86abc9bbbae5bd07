#pragma once

#include <bit>
#include <cstdint>

#include "simbase/error.hpp"

namespace tpio::smpi::detail {

/// ceil(log2(n)) for n >= 1 — tree depth of synchronizing collectives.
inline int ceil_log2(int n) {
  TPIO_CHECK(n >= 1, "ceil_log2 of non-positive value");
  return std::bit_width(static_cast<unsigned>(n - 1));
}

/// Wire size of protocol control messages (RTS/CTS, lock traffic).
inline constexpr std::uint64_t kControlBytes = 64;

}  // namespace tpio::smpi::detail
