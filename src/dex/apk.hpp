// Apk / dex object model (paper §III-A, §III-B).
//
// An ApkFile bundles package metadata (Play category, version, dex
// timestamp, VirusTotal scan date, supported ABIs) with one or more DexFile
// class tables.  The binary serialization stands in for the real apk bytes:
// it is what the Socket Supervisor hashes (sha256) to tag UDP reports and
// what the AndroZoo-style corpus stores.
//
// String table. A real dex file stores each string once (`string_ids`) and
// names methods through `method_ids`; a DexFile does the same:
//   - it owns one character arena (util::StringArena) holding every class
//     name and method signature, plus two flat tables: one record per class
//     (name, first method) and one per method (its signature), both in dex
//     order. A dex file is three heap blocks however many methods it has;
//   - it is built only through append calls (addClass, addMethod), which
//     copy the characters into the arena;
//   - the records hold offsets, so a DexFile (and an ApkFile) may be copied
//     or moved freely. The string_views its accessors hand out point into
//     the arena: they stay valid while the DexFile lives unmodified — they
//     follow neither a move (the arena's small-buffer may move) nor an
//     append, and die with it.
// operator== compares content, not arena layout (a generated dex and its
// deserialized copy are equal). DESIGN.md §9 covers the rest of the model:
// why the generator's view-keyed class map keeps the dex class order, the
// flat coverage index, and the prefetch window.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/sha256.hpp"
#include "util/string_arena.hpp"

namespace libspector::dex {

/// Default dex timestamp found in apks whose toolchain zeroed it:
/// 1980-01-01T00:00:00Z as seconds since the Unix epoch (paper §III-A).
inline constexpr std::uint64_t kDefaultDexTimestamp = 315532800;

/// The methods of one class: ordinals [begin, end) in its dex file.
struct MethodRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

class DexFile {
 public:
  /// Starts a class (dotted name including inner classes, e.g.
  /// "com.foo.Bar$1") holding `signatures`; addMethod appends more to it
  /// until the next addClass.
  void addClass(std::string_view dottedName,
                std::initializer_list<std::string_view> signatures = {});
  /// Appends a method (full smali type signature, e.g.
  /// "Lcom/foo/Bar;->baz(I)V") to the last class added; throws
  /// std::logic_error when there is none.
  void addMethod(std::string_view signature);
  /// Capacity for `classes` classes, `methods` methods and `chars`
  /// characters of names and signatures, so a caller that knows its sizes
  /// appends without regrowing.
  void reserve(std::size_t classes, std::size_t methods, std::size_t chars);

  [[nodiscard]] std::size_t classCount() const noexcept {
    return classes_.size();
  }
  [[nodiscard]] std::size_t methodCount() const noexcept {
    return methods_.size();
  }
  [[nodiscard]] std::string_view className(std::size_t cls) const {
    return chars_.view(classes_.at(cls).name);
  }
  [[nodiscard]] MethodRange classMethods(std::size_t cls) const;
  /// Signature of the method at `ordinal` in dex order.
  [[nodiscard]] std::string_view signature(std::size_t ordinal) const {
    return chars_.view(methods_.at(ordinal));
  }

  [[nodiscard]] bool operator==(const DexFile& other) const;

 private:
  struct Class {
    util::StringArena::Ref name;
    std::uint32_t firstMethod = 0;
  };

  util::StringArena chars_;
  std::vector<Class> classes_;
  std::vector<util::StringArena::Ref> methods_;
};

class ApkFile {
 public:
  std::string packageName;            // e.g. "com.example.game"
  std::string appCategory;            // Play category, e.g. "GAME_ACTION"
  std::uint32_t versionCode = 1;
  std::uint64_t dexTimestamp = kDefaultDexTimestamp;  // seconds since epoch
  std::uint64_t vtScanDate = 0;       // 0 = never scanned by VirusTotal
  std::vector<std::string> abis;      // e.g. {"x86", "armeabi-v7a"}
  std::vector<DexFile> dexFiles;

  /// Total methods across all dex files (denominator of method coverage).
  [[nodiscard]] std::size_t totalMethodCount() const noexcept;

  /// True when the apk ships at least one x86-compatible ABI or is
  /// pure-Java (no native libraries at all). Libspector filters out
  /// ARM-only apps (paper §III-A).
  [[nodiscard]] bool isX86Compatible() const noexcept;

  /// Deterministic binary serialization (the stand-in for apk bytes).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Inverse of serialize(). Each dex file's arena is sized by one scan of
  /// its section and then filled in one pass, so the arenas together never
  /// hold more than `bytes.size()` characters.
  [[nodiscard]] static ApkFile deserialize(std::span<const std::uint8_t> bytes);

  /// sha256 over the serialized bytes; the identity used everywhere else.
  /// Computed in one streaming serialization walk (util::Sha256Writer), so
  /// the full byte buffer is never materialized just to hash it.
  [[nodiscard]] util::Sha256Digest sha256() const;

  [[nodiscard]] bool operator==(const ApkFile&) const = default;
};

}  // namespace libspector::dex
