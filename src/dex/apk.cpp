#include "dex/apk.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/bytes.hpp"

namespace libspector::dex {

namespace {
constexpr std::uint32_t kMagic = 0x4b504153;  // "SAPK"
constexpr std::uint16_t kVersion = 1;

/// The single serialization walk, shared by serialize() (Writer =
/// ByteWriter, materializes the bytes) and sha256() (Writer =
/// Sha256Writer, streams the same encoding straight into the digest with
/// no buffer). Keeping one walk is what guarantees the two stay the same
/// byte stream.
template <class Writer>
void writeApk(const ApkFile& apk, Writer& w) {
  w.u32(kMagic);
  w.u16(kVersion);
  w.str(apk.packageName);
  w.str(apk.appCategory);
  w.u32(apk.versionCode);
  w.u64(apk.dexTimestamp);
  w.u64(apk.vtScanDate);
  w.u32(static_cast<std::uint32_t>(apk.abis.size()));
  for (const auto& abi : apk.abis) w.str(abi);
  w.u32(static_cast<std::uint32_t>(apk.dexFiles.size()));
  for (const auto& dex : apk.dexFiles) {
    w.u32(static_cast<std::uint32_t>(dex.classCount()));
    for (std::size_t cls = 0; cls < dex.classCount(); ++cls) {
      w.str(dex.className(cls));
      const MethodRange methods = dex.classMethods(cls);
      w.u32(static_cast<std::uint32_t>(methods.size()));
      for (std::size_t m = methods.begin; m < methods.end; ++m)
        w.str(dex.signature(m));
    }
  }
}

std::string_view readStr(util::ByteReader& r) {
  const auto bytes = r.view(r.u32());
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// One dex section: sized by a scan over a copy of the reader, then read
/// into an exactly reserved DexFile.
DexFile readDex(util::ByteReader& r) {
  util::ByteReader scan = r;
  const std::uint32_t classCount = scan.countCheck(scan.u32(), 8);
  std::size_t methodCount = 0;
  std::size_t chars = 0;
  for (std::uint32_t c = 0; c < classCount; ++c) {
    chars += readStr(scan).size();
    const std::uint32_t methods = scan.countCheck(scan.u32(), 4);
    methodCount += methods;
    for (std::uint32_t m = 0; m < methods; ++m) chars += readStr(scan).size();
  }

  DexFile dex;
  dex.reserve(classCount, methodCount, chars);
  (void)r.u32();  // the class count, already checked by the scan
  for (std::uint32_t c = 0; c < classCount; ++c) {
    dex.addClass(readStr(r));
    const std::uint32_t methods = r.u32();
    for (std::uint32_t m = 0; m < methods; ++m) dex.addMethod(readStr(r));
  }
  return dex;
}
}  // namespace

void DexFile::addClass(std::string_view dottedName,
                       std::initializer_list<std::string_view> signatures) {
  classes_.push_back(
      {chars_.append(dottedName), static_cast<std::uint32_t>(methods_.size())});
  for (const std::string_view signature : signatures) addMethod(signature);
}

void DexFile::addMethod(std::string_view signature) {
  if (classes_.empty())
    throw std::logic_error("DexFile::addMethod: no class to add to");
  if (methods_.size() == UINT32_MAX)
    throw std::length_error("DexFile: too many methods");
  methods_.push_back(chars_.append(signature));
}

void DexFile::reserve(std::size_t classes, std::size_t methods,
                      std::size_t chars) {
  classes_.reserve(classes);
  methods_.reserve(methods);
  chars_.reserve(chars);
}

MethodRange DexFile::classMethods(std::size_t cls) const {
  return {classes_.at(cls).firstMethod,
          cls + 1 < classes_.size() ? classes_[cls + 1].firstMethod
                                    : methods_.size()};
}

bool DexFile::operator==(const DexFile& other) const {
  if (classes_.size() != other.classes_.size() ||
      methods_.size() != other.methods_.size())
    return false;
  for (std::size_t c = 0; c < classes_.size(); ++c)
    if (classes_[c].firstMethod != other.classes_[c].firstMethod ||
        className(c) != other.className(c))
      return false;
  for (std::size_t m = 0; m < methods_.size(); ++m)
    if (signature(m) != other.signature(m)) return false;
  return true;
}

std::size_t ApkFile::totalMethodCount() const noexcept {
  std::size_t n = 0;
  for (const auto& dex : dexFiles) n += dex.methodCount();
  return n;
}

bool ApkFile::isX86Compatible() const noexcept {
  if (abis.empty()) return true;  // pure-Java apk runs everywhere
  return std::any_of(abis.begin(), abis.end(), [](const std::string& abi) {
    return abi == "x86" || abi == "x86_64";
  });
}

std::vector<std::uint8_t> ApkFile::serialize() const {
  util::ByteWriter w;
  writeApk(*this, w);
  return w.take();
}

ApkFile ApkFile::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.u32() != kMagic) throw util::DecodeError("ApkFile: bad magic");
  if (r.u16() != kVersion) throw util::DecodeError("ApkFile: unsupported version");
  ApkFile apk;
  apk.packageName = r.str();
  apk.appCategory = r.str();
  apk.versionCode = r.u32();
  apk.dexTimestamp = r.u64();
  apk.vtScanDate = r.u64();
  const std::uint32_t abiCount = r.countCheck(r.u32(), 4);
  apk.abis.reserve(abiCount);
  for (std::uint32_t i = 0; i < abiCount; ++i) apk.abis.push_back(r.str());
  const std::uint32_t dexCount = r.countCheck(r.u32(), 4);
  apk.dexFiles.reserve(dexCount);
  for (std::uint32_t i = 0; i < dexCount; ++i) apk.dexFiles.push_back(readDex(r));
  if (!r.atEnd()) throw util::DecodeError("ApkFile: trailing bytes");
  return apk;
}

util::Sha256Digest ApkFile::sha256() const {
  util::Sha256Writer w;
  writeApk(*this, w);
  return w.finish();
}

}  // namespace libspector::dex
