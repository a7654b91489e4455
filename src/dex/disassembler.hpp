// Dex disassembly (the dexlib2 role, paper §III-B).
//
// The Method Monitor needs the full set of method type signatures contained
// in an apk to compute coverage; the Socket Supervisor needs a map from
// stack-frame names to type signatures to translate traces.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dex/apk.hpp"
#include "dex/type_signature.hpp"

namespace libspector::dex {

/// All method type signatures in the apk, in dex order, as views into its
/// dex files' arenas (valid while `apk` lives unmodified).
[[nodiscard]] std::vector<std::string_view> allMethodSignatures(
    const ApkFile& apk);
std::vector<std::string_view> allMethodSignatures(ApkFile&&) = delete;

/// Index from frame name ("com.foo.Bar.baz") to the type signatures of its
/// overloads, as a Java stack frame does not carry parameter types.
///
/// The table owns no strings. For each method with a well-formed signature
/// it holds a 32-bit hash of the method's dotted frame name and the
/// method's position in the apk (its ordinal in dex order), 8 bytes sorted
/// by (hash, dex order), plus 4 bytes per dex file to map an ordinal back
/// to its dex file. A lookup binary-searches the hash and re-derives every
/// candidate's frame name from the apk's own signature, so a hash collision
/// can never return another method's signature. Lookups therefore take the
/// apk: one with the same layout (the same bytes) as the apk the table was
/// built from.
class FrameTranslationTable {
 public:
  explicit FrameTranslationTable(const ApkFile& apk);

  /// Signatures of all overloads behind a frame name, in dex order, as
  /// views into `apk`; empty when the frame does not belong to the apk
  /// (e.g. a framework method).
  [[nodiscard]] std::vector<std::string_view> lookup(
      std::string_view frameName, const ApkFile& apk) const;

  /// The first signature lookup() would return, without allocating; an
  /// empty view when there is none.
  [[nodiscard]] std::string_view firstOverload(std::string_view frameName,
                                               const ApkFile& apk) const;

  /// Methods indexed (malformed signatures are skipped, like real dex tools).
  [[nodiscard]] std::size_t size() const noexcept { return hashes_.size(); }

  /// The 32-bit hash the table indexes a dotted frame name under.
  [[nodiscard]] static std::uint32_t hashFrameName(
      std::string_view frameName) noexcept;

 private:
  /// Calls `visit(signature)` for each overload of `frameName` in dex order
  /// until it returns false.
  template <typename Visit>
  void forEachOverload(std::string_view frameName, const ApkFile& apk,
                       Visit&& visit) const;

  // Parallel arrays rather than one array of (hash, ordinal) pairs: each is
  // half the size, so the table of an apk with up to 32k methods is built
  // from blocks below glibc's 128 KiB mmap threshold (freeing a larger,
  // mmapped block raises that threshold for the rest of the process).
  std::vector<std::uint32_t> hashes_;     // sorted
  std::vector<std::uint32_t> ordinals_;   // method ordinal behind hashes_[i]
  /// Ordinal of each dex file's first method.
  std::vector<std::uint32_t> dexBegin_;
};

/// Thread-safe LRU cache of FrameTranslationTables keyed on apk digest.
///
/// Building the table is a full walk of the apk's class tables (tens of
/// thousands of signature parses for a paper-scale apk); the Socket
/// Supervisor used to rebuild it on every app load. The dispatcher owns
/// one cache for the whole fleet, so repeated runs of the same apk —
/// resume re-runs, retries, benches, policy re-checks — parse the dex
/// once. Keying on the content digest (not package/version) makes a stale
/// hit impossible: same digest, same bytes, same layout, same table. A
/// table refers to no apk object, so it stays valid after the apk it was
/// built from is destroyed and serves any later copy of the same bytes.
class FrameTableCache {
 public:
  explicit FrameTableCache(std::size_t capacity = 256);

  /// The table for `apk`, built on miss. `apkSha256` is the hex digest of
  /// the apk's serialized bytes (the caller already has it — computing it
  /// here would defeat the digest memoization this cache rides on).
  [[nodiscard]] std::shared_ptr<const FrameTranslationTable> tableFor(
      const std::string& apkSha256, const ApkFile& apk);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const FrameTranslationTable> table;
    std::list<std::string>::iterator lruPosition;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<std::string> lru_;  // front = most recently used digest
  std::unordered_map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace libspector::dex
