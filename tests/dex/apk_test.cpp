#include "dex/apk.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace libspector::dex {
namespace {

ApkFile sampleApk() {
  ApkFile apk;
  apk.packageName = "com.example.game";
  apk.appCategory = "GAME_ACTION";
  apk.versionCode = 42;
  apk.dexTimestamp = 1555555555;
  apk.vtScanDate = 1560000000;
  apk.abis = {"x86", "armeabi-v7a"};
  DexFile dex;
  dex.addClass("com.example.game.Main",
               {"Lcom/example/game/Main;->onCreate(Landroid/os/Bundle;)V",
                "Lcom/example/game/Main;->onClick(Landroid/view/View;)V"});
  apk.dexFiles.push_back(std::move(dex));
  return apk;
}

TEST(ApkTest, SerializeDeserializeRoundTrip) {
  const ApkFile apk = sampleApk();
  const auto bytes = apk.serialize();
  const ApkFile decoded = ApkFile::deserialize(bytes);
  EXPECT_EQ(decoded, apk);
}

TEST(ApkTest, Sha256IsStable) {
  const ApkFile apk = sampleApk();
  EXPECT_EQ(util::toHex(apk.sha256()), util::toHex(sampleApk().sha256()));
}

TEST(ApkTest, Sha256ChangesWithContent) {
  ApkFile a = sampleApk();
  ApkFile b = sampleApk();
  b.versionCode = 43;
  EXPECT_NE(util::toHex(a.sha256()), util::toHex(b.sha256()));
  ApkFile c = sampleApk();
  c.dexFiles[0].addMethod("Lcom/example/game/Main;->extra()V");
  EXPECT_NE(util::toHex(a.sha256()), util::toHex(c.sha256()));
}

TEST(ApkTest, MethodCounting) {
  const ApkFile apk = sampleApk();
  EXPECT_EQ(apk.totalMethodCount(), 2u);
  EXPECT_EQ(apk.dexFiles[0].methodCount(), 2u);
  EXPECT_EQ(ApkFile{}.totalMethodCount(), 0u);
}

TEST(ApkTest, EqualityComparesClassBoundariesAndContent) {
  DexFile a;
  a.addClass("a", {"La;->m()V", "La;->n()V"});
  a.addClass("b");
  DexFile b;
  b.addClass("a", {"La;->m()V"});
  b.addClass("b", {"La;->n()V"});
  EXPECT_NE(a, b);  // same names and signatures, grouped differently
  DexFile c;
  c.reserve(2, 2, 64);
  c.addClass("a");
  c.addMethod("La;->m()V");
  c.addMethod("La;->n()V");
  c.addClass("b");
  EXPECT_EQ(a, c);  // same content, other capacity
  EXPECT_EQ(a.classMethods(0).size(), 2u);
  EXPECT_EQ(a.classMethods(1).size(), 0u);
  EXPECT_EQ(a.signature(1), "La;->n()V");
}

TEST(ApkTest, AddMethodNeedsAClass) {
  DexFile dex;
  EXPECT_THROW(dex.addMethod("La;->m()V"), std::logic_error);
}

TEST(ApkTest, X86Compatibility) {
  ApkFile apk = sampleApk();
  EXPECT_TRUE(apk.isX86Compatible());
  apk.abis = {"armeabi-v7a", "arm64-v8a"};
  EXPECT_FALSE(apk.isX86Compatible());
  apk.abis = {"x86_64"};
  EXPECT_TRUE(apk.isX86Compatible());
  apk.abis.clear();  // pure Java
  EXPECT_TRUE(apk.isX86Compatible());
}

TEST(ApkTest, DeserializeRejectsBadMagic) {
  auto bytes = sampleApk().serialize();
  bytes[0] ^= 0xff;
  EXPECT_THROW((void)ApkFile::deserialize(bytes), util::DecodeError);
}

TEST(ApkTest, DeserializeRejectsTruncation) {
  const auto bytes = sampleApk().serialize();
  const std::span<const std::uint8_t> truncated(bytes.data(), bytes.size() - 5);
  EXPECT_THROW((void)ApkFile::deserialize(truncated), util::DecodeError);
}

TEST(ApkTest, DeserializeRejectsTrailingBytes) {
  auto bytes = sampleApk().serialize();
  bytes.push_back(0);
  EXPECT_THROW((void)ApkFile::deserialize(bytes), util::DecodeError);
}

TEST(ApkTest, DefaultDexTimestampConstant) {
  // 1980-01-01T00:00:00Z
  EXPECT_EQ(kDefaultDexTimestamp, 315532800u);
}

TEST(ApkTest, EmptyApkRoundTrips) {
  const ApkFile apk;
  EXPECT_EQ(ApkFile::deserialize(apk.serialize()), apk);
}

}  // namespace
}  // namespace libspector::dex
