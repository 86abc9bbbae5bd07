#pragma once

// Sanitizer feature detection (GCC defines __SANITIZE_*, Clang exposes
// __has_feature): TPIO_ASAN / TPIO_TSAN are defined in builds with
// -DTPIO_SANITIZE=address / thread, and the matching interface header is
// included.

#if defined(__SANITIZE_ADDRESS__)
#define TPIO_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define TPIO_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(TPIO_ASAN)
#define TPIO_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(TPIO_TSAN)
#define TPIO_TSAN 1
#endif
#endif

#ifdef TPIO_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef TPIO_TSAN
#include <sanitizer/tsan_interface.h>
#endif
