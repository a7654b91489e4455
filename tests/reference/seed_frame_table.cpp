#include "reference/seed_frame_table.hpp"

#include "dex/type_signature.hpp"

namespace libspector::reference {

SeedFrameTable::SeedFrameTable(const dex::ApkFile& apk) {
  for (const auto& dex : apk.dexFiles) {
    for (std::size_t m = 0; m < dex.methodCount(); ++m) {
      const std::string_view signature = dex.signature(m);
      auto sig = dex::TypeSignature::parse(signature);
      if (!sig) continue;  // tolerate malformed entries like real dex tools
      table_[sig->frameName()].emplace_back(signature);
    }
  }
}

const std::vector<std::string>& SeedFrameTable::lookup(
    const std::string& frameName) const {
  static const std::vector<std::string> kEmpty;
  const auto it = table_.find(frameName);
  return it == table_.end() ? kEmpty : it->second;
}

}  // namespace libspector::reference
