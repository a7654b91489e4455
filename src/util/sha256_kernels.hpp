// SHA-256 compression kernels behind util::Sha256 (internal).
//
// Sha256 picks one kernel per process at first use: the SHA-NI kernel when
// the CPU has the x86 SHA extensions, the portable one otherwise. Both are
// declared here only so tests/util/sha256_test.cpp can run each directly and
// check they agree; nothing else should call them, and there is no way to
// choose one at run time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace libspector::util::detail {

/// Compress `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// FIPS 180-4 compression in plain C++: the fallback on every CPU.
void sha256CompressPortable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) noexcept;

/// True when this CPU can run sha256CompressShaNi.
[[nodiscard]] bool sha256HasShaNi() noexcept;

#if defined(__x86_64__)
/// The same compression on the x86 SHA extensions (SHA-NI). Only call it
/// when sha256HasShaNi() is true.
void sha256CompressShaNi(std::uint32_t* state, const std::uint8_t* data,
                         std::size_t blocks) noexcept;
#endif

/// The kernel Sha256 uses in this process.
[[nodiscard]] Sha256Kernel sha256Kernel() noexcept;

}  // namespace libspector::util::detail
