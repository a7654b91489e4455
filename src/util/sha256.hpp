// Standalone SHA-256 implementation (FIPS 180-4).
//
// The Socket Supervisor tags every UDP report with the sha256 checksum of
// the apk under test (paper §II-B2a); the result database keys artifacts by
// the same digest.  No external crypto dependency is available offline, so
// the digest is implemented here and validated against FIPS test vectors in
// tests/util/sha256_test.cpp.
//
// Every apk of a study is hashed once on the generator thread, so the
// compression function is on the study's critical path. Sha256 runs it on
// the x86 SHA extensions (SHA-NI) when the CPU has them and on a portable
// C++ kernel otherwise; the choice is made once per process, by CPU
// detection alone (util/sha256_kernels.hpp, DESIGN.md §9). update() hands
// all the full blocks of one call to the kernel at once, and Sha256Writer
// appends its fields straight into the open 64-byte block, so the
// per-field cost of a serialization walk is a few stores.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace libspector::util {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalize and return the digest. The hasher must not be reused afterwards.
  [[nodiscard]] Sha256Digest finish() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static Sha256Digest hash(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Sha256Digest hash(std::string_view data) noexcept;

 private:
  friend class Sha256Writer;

  /// update() for short appends: bytes that leave the open block short of
  /// full are copied into it without a call.
  void append(const std::uint8_t* data, std::size_t n) noexcept {
    if (bufferLen_ + n < buffer_.size()) {
      if (n != 0) std::memcpy(buffer_.data() + bufferLen_, data, n);
      bufferLen_ += n;
      totalBytes_ += n;
      return;
    }
    update(std::span(data, n));
  }

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t bufferLen_ = 0;
  std::uint64_t totalBytes_ = 0;
};

/// Lowercase hex rendering of a digest.
[[nodiscard]] std::string toHex(const Sha256Digest& digest);

/// ByteWriter-compatible encoder that hashes instead of materializing.
///
/// Fields stream straight into an incremental Sha256 in the exact wire
/// encoding util::ByteWriter produces (little-endian integers, u32
/// length-prefixed strings), so `Sha256::hash(serialize(x))` collapses to a
/// single serialization walk with O(1) memory. Each field is encoded in
/// place into the hasher's open block. dex::ApkFile::sha256() runs every apk
/// of a study through this; tests/util/sha256_test.cpp pins the encoding
/// equivalence against ByteWriter, including fields that straddle a block
/// edge.
class Sha256Writer {
 public:
  void u8(std::uint8_t v) noexcept { hash_.append(&v, 1); }
  void u16(std::uint16_t v) noexcept { littleEndian<2>(v); }
  void u32(std::uint32_t v) noexcept { littleEndian<4>(v); }
  void u64(std::uint64_t v) noexcept { littleEndian<8>(v); }
  /// Length-prefixed (u32) byte string; throws std::length_error past 4 GiB
  /// exactly like ByteWriter::str.
  void str(std::string_view s);
  void raw(std::span<const std::uint8_t> data) noexcept { hash_.update(data); }

  /// Finalize; the writer must not be reused afterwards.
  [[nodiscard]] Sha256Digest finish() noexcept { return hash_.finish(); }

 private:
  template <std::size_t N>
  void littleEndian(std::uint64_t v) noexcept {
    std::array<std::uint8_t, N> bytes;
    for (std::size_t i = 0; i < N; ++i)
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    hash_.append(bytes.data(), N);
  }

  Sha256 hash_;
};

}  // namespace libspector::util
