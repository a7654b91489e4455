#include "util/sha256.hpp"

#include <cstring>

#include "util/bytes.hpp"
#include "util/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace libspector::util {

namespace {
constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)
// SHA-NI keeps the state as two registers, ABEF and CDGH; every
// sha256rnds2 runs two rounds, so four message words take two of them.
#define LIBSPECTOR_SHA_NI __attribute__((target("sha,sse4.1")))

/// Four big-endian message words from `data`.
LIBSPECTOR_SHA_NI inline __attribute__((always_inline)) __m128i shaNiLoad(
    const std::uint8_t* data) noexcept {
  const __m128i byteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), byteSwap);
}

LIBSPECTOR_SHA_NI inline __attribute__((always_inline)) void shaNiRounds4(
    __m128i& abef, __m128i& cdgh, __m128i words, std::size_t quad) noexcept {
  const __m128i msg = _mm_add_epi32(
      words, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * quad])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
}

/// Message words W[t..t+3] from W[t-16..t-1], given as four quads.
LIBSPECTOR_SHA_NI inline __attribute__((always_inline)) __m128i shaNiSchedule(
    __m128i w0, __m128i w1, __m128i w2, __m128i w3) noexcept {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}
#endif

}  // namespace

namespace detail {

void sha256CompressPortable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[4 * i]} << 24) |
             (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) |
             std::uint32_t{data[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool sha256HasShaNi() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

LIBSPECTOR_SHA_NI void sha256CompressShaNi(std::uint32_t* state,
                                           const std::uint8_t* data,
                                           std::size_t blocks) noexcept {
  // (A B C D), (E F G H) -> (A B E F), (C D G H), lanes high to low.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abefSaved = abef;
    const __m128i cdghSaved = cdgh;
    __m128i w0 = shaNiLoad(data);
    __m128i w1 = shaNiLoad(data + 16);
    __m128i w2 = shaNiLoad(data + 32);
    __m128i w3 = shaNiLoad(data + 48);
    shaNiRounds4(abef, cdgh, w0, 0);
    shaNiRounds4(abef, cdgh, w1, 1);
    shaNiRounds4(abef, cdgh, w2, 2);
    shaNiRounds4(abef, cdgh, w3, 3);
    for (std::size_t quad = 4; quad < 16; quad += 4) {
      w0 = shaNiSchedule(w0, w1, w2, w3);
      shaNiRounds4(abef, cdgh, w0, quad);
      w1 = shaNiSchedule(w1, w2, w3, w0);
      shaNiRounds4(abef, cdgh, w1, quad + 1);
      w2 = shaNiSchedule(w2, w3, w0, w1);
      shaNiRounds4(abef, cdgh, w2, quad + 2);
      w3 = shaNiSchedule(w3, w0, w1, w2);
      shaNiRounds4(abef, cdgh, w3, quad + 3);
    }
    abef = _mm_add_epi32(abef, abefSaved);
    cdgh = _mm_add_epi32(cdgh, cdghSaved);
  }

  // Back to (A B C D), (E F G H).
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

#undef LIBSPECTOR_SHA_NI

Sha256Kernel sha256Kernel() noexcept {
  static const Sha256Kernel kernel =
      sha256HasShaNi() ? sha256CompressShaNi : sha256CompressPortable;
  return kernel;
}

#else

bool sha256HasShaNi() noexcept { return false; }

Sha256Kernel sha256Kernel() noexcept { return sha256CompressPortable; }

#endif

}  // namespace detail

Sha256::Sha256() noexcept
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) return;
  totalBytes_ += data.size();
  const std::uint8_t* next = data.data();
  std::size_t left = data.size();
  const auto compress = detail::sha256Kernel();
  if (bufferLen_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - bufferLen_);
    std::memcpy(buffer_.data() + bufferLen_, next, take);
    bufferLen_ += take;
    next += take;
    left -= take;
    if (bufferLen_ < buffer_.size()) return;
    compress(state_.data(), buffer_.data(), 1);
    bufferLen_ = 0;
  }
  if (const std::size_t blocks = left / 64; blocks > 0) {
    compress(state_.data(), next, blocks);
    next += blocks * 64;
    left -= blocks * 64;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), next, left);
    bufferLen_ = left;
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()));
}

Sha256Digest Sha256::finish() noexcept {
  const std::uint64_t bitLen = totalBytes_ * 8;
  const auto compress = detail::sha256Kernel();
  buffer_[bufferLen_++] = 0x80;
  if (bufferLen_ > 56) {
    std::memset(buffer_.data() + bufferLen_, 0, buffer_.size() - bufferLen_);
    compress(state_.data(), buffer_.data(), 1);
    bufferLen_ = 0;
  }
  std::memset(buffer_.data() + bufferLen_, 0, 56 - bufferLen_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bitLen >> (56 - 8 * i));
  compress(state_.data(), buffer_.data(), 1);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

void Sha256Writer::str(std::string_view s) {
  u32(checkedU32(s.size(), "Sha256Writer::str"));
  hash_.append(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::string toHex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

}  // namespace libspector::util
