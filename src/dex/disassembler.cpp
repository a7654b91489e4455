#include "dex/disassembler.hpp"

#include <algorithm>
#include <array>

namespace libspector::dex {

namespace {

// 32-bit FNV-1a: the table stores only this hash of each frame name, and a
// lookup confirms every hash match against the apk's signature.
constexpr std::uint32_t kFnvOffset = 2166136261u;
constexpr std::uint32_t kFnvPrime = 16777619u;

constexpr std::uint32_t fnvStep(std::uint32_t hash, char c) noexcept {
  return (hash ^ static_cast<unsigned char>(c)) * kFnvPrime;
}

/// hashFrameName of a signature's dotted frame name, computed from its
/// slashed class ("com/foo/Bar" + "baz" hashes as "com.foo.Bar.baz")
/// without building the name.
std::uint32_t hashSignatureFrame(const SignatureView& signature) noexcept {
  std::uint32_t hash = kFnvOffset;
  for (const char c : signature.slashedClass)
    hash = fnvStep(hash, c == '/' ? '.' : c);
  hash = fnvStep(hash, '.');
  for (const char c : signature.methodName) hash = fnvStep(hash, c);
  return hash;
}

/// True when `frameName` is the dotted frame name of `signature`.
bool isFrameOf(std::string_view frameName,
               const SignatureView& signature) noexcept {
  const std::string_view cls = signature.slashedClass;
  if (frameName.size() != cls.size() + 1 + signature.methodName.size())
    return false;
  for (std::size_t i = 0; i < cls.size(); ++i)
    if (frameName[i] != (cls[i] == '/' ? '.' : cls[i])) return false;
  return frameName[cls.size()] == '.' &&
         frameName.substr(cls.size() + 1) == signature.methodName;
}

/// Stable LSD radix sort of `keys`, 8 bits a pass, carrying `values` along:
/// values appended in dex order come out sorted by (key, dex order).
/// Linear, where a comparison sort of a paper-scale apk's entries costs as
/// much as parsing it.
void sortByKey(std::vector<std::uint32_t>& keys,
               std::vector<std::uint32_t>& values) {
  std::vector<std::uint32_t> keyBuffer(keys.size());
  std::vector<std::uint32_t> valueBuffer(values.size());
  for (unsigned shift = 0; shift < 32; shift += 8) {
    std::array<std::size_t, 257> next{};
    for (const std::uint32_t key : keys) ++next[((key >> shift) & 0xff) + 1];
    for (std::size_t digit = 1; digit < next.size(); ++digit)
      next[digit] += next[digit - 1];
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t to = next[(keys[i] >> shift) & 0xff]++;
      keyBuffer[to] = keys[i];
      valueBuffer[to] = values[i];
    }
    keys.swap(keyBuffer);
    values.swap(valueBuffer);
  }
}

/// The range holding `at`, given ascending range starts: the last start at
/// or before it. An empty range starts where the next one does, so the last
/// of equal starts is the one that holds anything.
std::size_t rangeOf(const std::vector<std::uint32_t>& starts,
                    std::uint32_t at) {
  return static_cast<std::size_t>(
             std::upper_bound(starts.begin(), starts.end(), at) -
             starts.begin()) -
         1;
}

}  // namespace

std::vector<std::string_view> allMethodSignatures(const ApkFile& apk) {
  std::vector<std::string_view> out;
  out.reserve(apk.totalMethodCount());
  for (const auto& dex : apk.dexFiles)
    for (std::size_t m = 0; m < dex.methodCount(); ++m)
      out.push_back(dex.signature(m));
  return out;
}

FrameTranslationTable::FrameTranslationTable(const ApkFile& apk) {
  hashes_.reserve(apk.totalMethodCount());
  ordinals_.reserve(apk.totalMethodCount());
  dexBegin_.reserve(apk.dexFiles.size());
  std::uint32_t ordinal = 0;
  for (const auto& dex : apk.dexFiles) {
    dexBegin_.push_back(ordinal);
    for (std::size_t m = 0; m < dex.methodCount(); ++m, ++ordinal) {
      const auto signature = parseSignatureView(dex.signature(m));
      // Tolerate malformed entries like real dex tools.
      if (signature) {
        hashes_.push_back(hashSignatureFrame(*signature));
        ordinals_.push_back(ordinal);
      }
    }
  }
  sortByKey(hashes_, ordinals_);
}

std::uint32_t FrameTranslationTable::hashFrameName(
    std::string_view frameName) noexcept {
  std::uint32_t hash = kFnvOffset;
  for (const char c : frameName) hash = fnvStep(hash, c);
  return hash;
}

template <typename Visit>
void FrameTranslationTable::forEachOverload(std::string_view frameName,
                                            const ApkFile& apk,
                                            Visit&& visit) const {
  const std::uint32_t hash = hashFrameName(frameName);
  const auto first = std::lower_bound(hashes_.begin(), hashes_.end(), hash);
  for (auto i = static_cast<std::size_t>(first - hashes_.begin());
       i < hashes_.size() && hashes_[i] == hash; ++i) {
    const std::uint32_t ordinal = ordinals_[i];
    const std::size_t dex = rangeOf(dexBegin_, ordinal);
    const std::string_view signature =
        apk.dexFiles[dex].signature(ordinal - dexBegin_[dex]);
    const auto parts = parseSignatureView(signature);
    if (parts && isFrameOf(frameName, *parts) && !visit(signature)) return;
  }
}

std::vector<std::string_view> FrameTranslationTable::lookup(
    std::string_view frameName, const ApkFile& apk) const {
  std::vector<std::string_view> out;
  forEachOverload(frameName, apk, [&out](std::string_view signature) {
    out.push_back(signature);
    return true;
  });
  return out;
}

std::string_view FrameTranslationTable::firstOverload(
    std::string_view frameName, const ApkFile& apk) const {
  std::string_view first;
  forEachOverload(frameName, apk, [&first](std::string_view signature) {
    first = signature;
    return false;
  });
  return first;
}

FrameTableCache::FrameTableCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const FrameTranslationTable> FrameTableCache::tableFor(
    const std::string& apkSha256, const ApkFile& apk) {
  {
    const std::scoped_lock lock(mutex_);
    const auto it = entries_.find(apkSha256);
    if (it != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lruPosition);
      return it->second.table;
    }
    ++stats_.misses;
  }

  // Build outside the lock: a paper-scale apk is tens of thousands of
  // signature parses, and serializing the whole fleet through one mutex
  // would undo the dispatcher's parallelism. Two workers racing on the
  // same digest build twice and the loser's copy is dropped — cheap and
  // rare next to blocking every other worker on every miss.
  auto table = std::make_shared<const FrameTranslationTable>(apk);

  const std::scoped_lock lock(mutex_);
  const auto it = entries_.find(apkSha256);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lruPosition);
    return it->second.table;
  }
  lru_.push_front(apkSha256);
  entries_.emplace(apkSha256, Entry{table, lru_.begin()});
  if (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  return table;
}

FrameTableCache::Stats FrameTableCache::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

std::size_t FrameTableCache::size() const {
  const std::scoped_lock lock(mutex_);
  return entries_.size();
}

}  // namespace libspector::dex
