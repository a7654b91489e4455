#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/sha256_kernels.hpp"

namespace libspector::util {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(toHex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(toHex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(toHex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, EightNinetySixBitMessage) {
  // The 896-bit FIPS 180-4 long-message vector ("abcdefgh..." x 112 chars).
  EXPECT_EQ(
      toHex(Sha256::hash("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghi"
                         "jklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrs"
                         "tnopqrstu")),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(toHex(Sha256::hash(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes: padding must spill into a second block.
  std::string input(64, 'x');
  const auto digest = Sha256::hash(input);
  Sha256 h;
  h.update(input);
  EXPECT_EQ(h.finish(), digest);
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly and at length, "
      "to exercise multi-block hashing paths.";
  const auto oneShot = Sha256::hash(data);
  // Feed in awkward chunk sizes.
  for (const std::size_t chunk : {1UL, 3UL, 7UL, 63UL, 64UL, 65UL}) {
    Sha256 h;
    for (std::size_t pos = 0; pos < data.size(); pos += chunk)
      h.update(std::string_view(data).substr(pos, chunk));
    EXPECT_EQ(h.finish(), oneShot) << "chunk size " << chunk;
  }
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash("hello"), Sha256::hash("hellp"));
  EXPECT_NE(Sha256::hash(std::string("a")), Sha256::hash(std::string("a\0", 2)));
}

TEST(Sha256Test, ToHexFormatsAllBytes) {
  const auto digest = Sha256::hash("abc");
  const std::string hex = toHex(digest);
  EXPECT_EQ(hex.size(), 64u);
  for (const char c : hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
}

// Property: hashing N bytes of a repeating pattern is stable across chunk
// decomposition, for lengths around block boundaries.
class Sha256LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256LengthSweep, ChunkingInvariance) {
  const std::size_t length = GetParam();
  std::string data(length, '\0');
  for (std::size_t i = 0; i < length; ++i)
    data[i] = static_cast<char>('A' + (i % 23));
  const auto expected = Sha256::hash(data);
  Sha256 h;
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < data.size()) {
    const std::size_t take = std::min(step, data.size() - pos);
    h.update(std::string_view(data).substr(pos, take));
    pos += take;
    step = step * 2 + 1;
  }
  EXPECT_EQ(h.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256LengthSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 127,
                                           128, 129, 1000, 4096));

// Equivalence property: for 1,000 random buffers, chunked update() at
// random split points matches the one-shot digest. This is the contract
// the streaming apk-serialization walk rides on — any buffering bug at a
// block boundary would silently change every apk identity in a study.
TEST(Sha256Test, RandomSplitPointsMatchOneShotFor1000Buffers) {
  Rng rng(0x5eed5a256ULL);  // deterministic
  for (int round = 0; round < 1000; ++round) {
    const auto length = static_cast<std::size_t>(rng.uniform(0, 300));
    std::string data(length, '\0');
    for (auto& c : data)
      c = static_cast<char>(rng.uniform(0, 255));
    const auto oneShot = Sha256::hash(data);

    Sha256 chunked;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const auto take = static_cast<std::size_t>(
          rng.uniform(1, static_cast<std::uint64_t>(data.size() - pos)));
      chunked.update(std::string_view(data).substr(pos, take));
      pos += take;
    }
    ASSERT_EQ(chunked.finish(), oneShot) << "round " << round
                                         << " length " << length;
  }
}

// Sha256Writer must produce the digest of exactly the byte stream
// ByteWriter materializes — field for field, including the u32 length
// prefixes on strings. ApkFile::sha256() depends on this equivalence to
// hash in one serialization walk.
TEST(Sha256WriterTest, MatchesByteWriterEncoding) {
  ByteWriter materialized;
  Sha256Writer streamed;
  const auto both = [&](auto&& op) {
    op(materialized);
    op(streamed);
  };
  both([](auto& w) { w.u8(0x42); });
  both([](auto& w) { w.u16(0xBEEF); });
  both([](auto& w) { w.u32(0xDEADBEEF); });
  both([](auto& w) { w.u64(0x0123456789ABCDEFULL); });
  both([](auto& w) { w.str(""); });
  both([](auto& w) { w.str("com.example.app"); });
  both([](auto& w) { w.str(std::string_view("\x00\xff\x7f", 3)); });
  const std::vector<std::uint8_t> blob{1, 2, 3, 250, 251, 252};
  both([&blob](auto& w) { w.raw(std::span(blob.data(), blob.size())); });

  const auto bytes = materialized.take();
  EXPECT_EQ(streamed.finish(),
            Sha256::hash(std::span(bytes.data(), bytes.size())));
}

TEST(Sha256WriterTest, RandomFieldSequencesMatchByteWriter) {
  Rng rng(20260805);
  for (int round = 0; round < 200; ++round) {
    ByteWriter materialized;
    Sha256Writer streamed;
    const auto fields = rng.uniform(0, 40);
    for (std::uint64_t f = 0; f < fields; ++f) {
      switch (rng.uniform(0, 4)) {
        case 0: {
          const auto v = static_cast<std::uint8_t>(rng.next());
          materialized.u8(v);
          streamed.u8(v);
          break;
        }
        case 1: {
          const auto v = static_cast<std::uint16_t>(rng.next());
          materialized.u16(v);
          streamed.u16(v);
          break;
        }
        case 2: {
          const auto v = static_cast<std::uint32_t>(rng.next());
          materialized.u32(v);
          streamed.u32(v);
          break;
        }
        case 3: {
          const std::uint64_t v = rng.next();
          materialized.u64(v);
          streamed.u64(v);
          break;
        }
        default: {
          std::string s(static_cast<std::size_t>(rng.uniform(0, 90)), '\0');
          for (auto& c : s) c = static_cast<char>(rng.uniform(0, 255));
          materialized.str(s);
          streamed.str(s);
          break;
        }
      }
    }
    const auto bytes = materialized.take();
    ASSERT_EQ(streamed.finish(),
              Sha256::hash(std::span(bytes.data(), bytes.size())))
        << "round " << round;
  }
}

// Fields that straddle the 64-byte block edge: after a prefix of every
// length 0..63, each integer width and a short string land across the
// boundary of the writer's open block.
TEST(Sha256WriterTest, FieldsStraddlingTheBlockEdgeMatchByteWriter) {
  for (std::size_t prefix = 0; prefix < 64; ++prefix) {
    for (int field = 0; field < 5; ++field) {
      ByteWriter materialized;
      Sha256Writer streamed;
      const auto both = [&](auto&& op) {
        op(materialized);
        op(streamed);
      };
      for (std::size_t i = 0; i < prefix; ++i)
        both([i](auto& w) { w.u8(static_cast<std::uint8_t>(i * 7)); });
      switch (field) {
        case 0: both([](auto& w) { w.u16(0xA1B2); }); break;
        case 1: both([](auto& w) { w.u32(0xC3D4E5F6); }); break;
        case 2: both([](auto& w) { w.u64(0x0102030405060708ULL); }); break;
        case 3: both([](auto& w) { w.str("Lcom/x/Y;->m(I)I"); }); break;
        default: both([](auto& w) { w.str(std::string(130, 'q')); }); break;
      }
      both([](auto& w) { w.u32(0x01020304); });
      const auto bytes = materialized.take();
      ASSERT_EQ(streamed.finish(),
                Sha256::hash(std::span(bytes.data(), bytes.size())))
          << "prefix " << prefix << " field " << field;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel differential: the SHA-NI kernel must compute exactly what the
// portable kernel computes. Sha256 itself uses whichever kernel the CPU
// allows, so the FIPS tests above cover only one of them on any machine.
// ---------------------------------------------------------------------------

/// FIPS 180-4 padding of `message`, for driving a kernel directly.
std::vector<std::uint8_t> padded(std::string_view message) {
  std::vector<std::uint8_t> out(message.begin(), message.end());
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  return out;
}

using State = std::array<std::uint32_t, 8>;
constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};

State digestWith(detail::Sha256Kernel kernel, std::string_view message) {
  const auto blocks = padded(message);
  State state = kInitialState;
  kernel(state.data(), blocks.data(), blocks.size() / 64);
  return state;
}

std::string hexState(const State& state) {
  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t b = 0; b < 4; ++b)
      digest[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  return toHex(digest);
}

std::string randomBytes(Rng& rng, std::size_t length) {
  std::string data(length, '\0');
  for (auto& c : data) c = static_cast<char>(rng.uniform(0, 255));
  return data;
}

TEST(Sha256KernelTest, PortableKernelMatchesFipsVectors) {
  EXPECT_EQ(hexState(digestWith(detail::sha256CompressPortable, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hexState(digestWith(
                detail::sha256CompressPortable,
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256KernelTest, ProcessKernelIsShaNiExactlyWhenTheCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(detail::sha256Kernel(), detail::sha256HasShaNi()
                                        ? detail::sha256CompressShaNi
                                        : detail::sha256CompressPortable);
#else
  EXPECT_EQ(detail::sha256Kernel(), detail::sha256CompressPortable);
#endif
}

TEST(Sha256KernelTest, ShaNiMatchesPortable) {
#if defined(__x86_64__)
  if (!detail::sha256HasShaNi())
    GTEST_SKIP() << "this CPU has no SHA-NI; only the portable kernel can run";
  const auto agree = [](std::string_view message) {
    return digestWith(detail::sha256CompressShaNi, message) ==
           digestWith(detail::sha256CompressPortable, message);
  };

  // FIPS 180-4 vectors (their published digests are pinned above).
  for (const std::string_view vector :
       {std::string_view(""), std::string_view("abc"),
        std::string_view(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        std::string_view("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghi"
                         "jklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrs"
                         "tnopqrstu")})
    EXPECT_TRUE(agree(vector)) << vector;
  EXPECT_EQ(hexState(digestWith(detail::sha256CompressShaNi,
                                std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");

  Rng rng(0x5a256d1ffULL);
  // Every length 0..257: one to five blocks after padding.
  for (std::size_t length = 0; length <= 257; ++length)
    ASSERT_TRUE(agree(randomBytes(rng, length))) << "length " << length;
  // The 1000 random buffers of the split-point property above.
  for (int round = 0; round < 1000; ++round) {
    const auto length = static_cast<std::size_t>(rng.uniform(0, 300));
    ASSERT_TRUE(agree(randomBytes(rng, length))) << "round " << round;
  }
  // Multi-block calls continuing from a non-initial state: the state must
  // carry across blocks inside one call and across calls.
  for (const std::size_t blocks : {1UL, 2UL, 3UL, 7UL, 64UL}) {
    const std::string data = randomBytes(rng, 64 * blocks);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
    State portable = kInitialState;
    State shaNi = kInitialState;
    detail::sha256CompressPortable(portable.data(), bytes, blocks);
    detail::sha256CompressShaNi(shaNi.data(), bytes, blocks);
    detail::sha256CompressPortable(portable.data(), bytes, blocks);
    detail::sha256CompressShaNi(shaNi.data(), bytes, blocks);
    ASSERT_EQ(shaNi, portable) << blocks << " blocks";
  }
#else
  GTEST_SKIP() << "SHA-NI is an x86-64 extension; this target has only the "
                  "portable kernel";
#endif
}

// update() with several full blocks in one call hands them to the kernel
// in one batch; the digest must equal a block-at-a-time feed.
TEST(Sha256Test, MultiBlockUpdatesMatchBlockAtATime) {
  Rng rng(0xb10c5ULL);
  for (const std::size_t length : {128UL, 129UL, 200UL, 640UL, 4097UL}) {
    const std::string data = randomBytes(rng, length);
    for (const std::size_t lead : {0UL, 1UL, 63UL}) {
      Sha256 batched;
      batched.update(std::string_view(data).substr(0, lead));
      batched.update(std::string_view(data).substr(lead));
      Sha256 single;
      for (std::size_t pos = 0; pos < data.size(); pos += 64)
        single.update(std::string_view(data).substr(pos, 64));
      ASSERT_EQ(batched.finish(), single.finish())
          << "length " << length << " lead " << lead;
    }
  }
}

}  // namespace
}  // namespace libspector::util
