// The seed frame-translation table: the string-owning map the Socket
// Supervisor used before dex::FrameTranslationTable became an index into
// the apk, frozen as a reference oracle for the differential test.
//
// Moved verbatim: one TypeSignature::parse per method, every frame name
// and signature copied into the map. Nothing under src/ links this
// library; only tests do.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "dex/apk.hpp"

namespace libspector::reference {

/// Map from frame name ("com.foo.Bar.baz") to the type signatures of its
/// overloads, as a Java stack frame does not carry parameter types.
/// Signatures for one frame name keep dex order.
class SeedFrameTable {
 public:
  explicit SeedFrameTable(const dex::ApkFile& apk);

  /// Signatures of all overloads behind a frame name; empty when the frame
  /// does not belong to the apk (e.g. a framework method).
  [[nodiscard]] const std::vector<std::string>& lookup(
      const std::string& frameName) const;

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

 private:
  std::unordered_map<std::string, std::vector<std::string>> table_;
};

}  // namespace libspector::reference
