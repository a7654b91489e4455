#include "dex/disassembler.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace libspector::dex {
namespace {

ApkFile apkWithOverloads() {
  ApkFile apk;
  apk.packageName = "com.example";
  DexFile dex;
  dex.addClass("com.example.Bar",
               {"Lcom/example/Bar;->m(I)V", "Lcom/example/Bar;->m(J)V",
                "Lcom/example/Bar;->other()V", "not a signature"});
  dex.addClass("com.example.net.Client",
               {"Lcom/example/net/Client;->connect()Z"});
  apk.dexFiles.push_back(std::move(dex));
  return apk;
}

TEST(DisassemblerTest, AllMethodSignaturesInDexOrder) {
  const ApkFile apk = apkWithOverloads();
  const auto signatures = allMethodSignatures(apk);
  ASSERT_EQ(signatures.size(), 5u);
  EXPECT_EQ(signatures[0], "Lcom/example/Bar;->m(I)V");
  EXPECT_EQ(signatures[4], "Lcom/example/net/Client;->connect()Z");
}

TEST(DisassemblerTest, TranslationTableResolvesFrames) {
  const ApkFile apk = apkWithOverloads();
  const FrameTranslationTable table(apk);
  const auto overloads = table.lookup("com.example.Bar.m", apk);
  ASSERT_EQ(overloads.size(), 2u);
  EXPECT_EQ(overloads[0], "Lcom/example/Bar;->m(I)V");
  EXPECT_EQ(overloads[1], "Lcom/example/Bar;->m(J)V");
  EXPECT_EQ(table.firstOverload("com.example.Bar.m", apk),
            "Lcom/example/Bar;->m(I)V");
}

TEST(DisassemblerTest, TranslationTableSingleOverload) {
  const ApkFile apk = apkWithOverloads();
  const FrameTranslationTable table(apk);
  const auto found = table.lookup("com.example.net.Client.connect", apk);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], "Lcom/example/net/Client;->connect()Z");
}

TEST(DisassemblerTest, UnknownFrameIsEmpty) {
  const ApkFile apk = apkWithOverloads();
  const FrameTranslationTable table(apk);
  EXPECT_TRUE(table.lookup("java.net.Socket.connect", apk).empty());
  EXPECT_TRUE(table.firstOverload("java.net.Socket.connect", apk).empty());
  // Near misses of an indexed name: slashed class, class only, prefix.
  EXPECT_TRUE(table.lookup("com/example/Bar.m", apk).empty());
  EXPECT_TRUE(table.lookup("com.example.Bar", apk).empty());
  EXPECT_TRUE(table.lookup("com.example.Bar.", apk).empty());
  EXPECT_TRUE(table.lookup("", apk).empty());
}

TEST(DisassemblerTest, MalformedEntriesAreTolerated) {
  // One of the five methods is unparseable; the table indexes the other
  // four, under three frame names.
  const ApkFile apk = apkWithOverloads();
  const FrameTranslationTable table(apk);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.lookup("com.example.Bar.m", apk).size(), 2u);
  EXPECT_EQ(table.lookup("com.example.Bar.other", apk).size(), 1u);
  EXPECT_EQ(table.lookup("com.example.net.Client.connect", apk).size(), 1u);
}

TEST(DisassemblerTest, EmptyApk) {
  const ApkFile apk;
  EXPECT_TRUE(allMethodSignatures(apk).empty());
  const FrameTranslationTable table(apk);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.lookup("com.example.Bar.m", apk).empty());
}

TEST(DisassemblerTest, OverloadsAcrossDexFilesKeepDexOrder) {
  // Three dex files, the middle one empty, with one frame name's overloads
  // spread over the first and last, and empty classes in between.
  ApkFile apk;
  DexFile first;
  first.addClass("a.B", {"La/B;->m()V", "La/B;->n()V"});
  first.addClass("a.Empty");
  first.addClass("a.C", {"La/C;->m()V"});
  first.addClass("a.Empty2");
  DexFile last;
  last.addClass("a.D", {"La/D;->m()V"});
  last.addClass("a.B", {"La/B;->m(I)V"});
  apk.dexFiles = {first, DexFile{}, last};
  const FrameTranslationTable table(apk);
  const auto overloads = table.lookup("a.B.m", apk);
  ASSERT_EQ(overloads.size(), 2u);
  EXPECT_EQ(overloads[0], "La/B;->m()V");
  EXPECT_EQ(overloads[1], "La/B;->m(I)V");
  EXPECT_EQ(table.firstOverload("a.D.m", apk), "La/D;->m()V");
  EXPECT_EQ(table.firstOverload("a.C.m", apk), "La/C;->m()V");
}

TEST(DisassemblerTest, TableServesACopyOfTheApkItWasBuiltFrom) {
  // The table holds positions, not strings: it answers for any apk with the
  // same bytes, after the original is gone.
  auto original = std::make_unique<ApkFile>(apkWithOverloads());
  const FrameTranslationTable table(*original);
  const ApkFile copy = ApkFile::deserialize(original->serialize());
  original.reset();
  const auto overloads = table.lookup("com.example.Bar.m", copy);
  ASSERT_EQ(overloads.size(), 2u);
  EXPECT_EQ(overloads[1], "Lcom/example/Bar;->m(J)V");
}

}  // namespace
}  // namespace libspector::dex
