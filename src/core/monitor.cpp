#include "core/monitor.hpp"

#include <bit>
#include <functional>
#include <string_view>

namespace libspector::core {

CoverageResult MethodMonitor::computeCoverage(
    const std::vector<std::string>& traceFile, const dex::ApkFile& apk) {
  // The distinct trace entries, each with how often the trace lists it:
  // linear probing over a power-of-two table at most half full. An empty
  // view (null data) marks a free slot.
  struct Slot {
    std::string_view entry;
    std::size_t count = 0;
  };
  std::vector<Slot> slots(std::bit_ceil(2 * traceFile.size() + 1));
  const std::size_t mask = slots.size() - 1;
  const auto find = [&](std::string_view key) -> Slot& {
    std::size_t i = std::hash<std::string_view>{}(key) & mask;
    while (slots[i].entry.data() != nullptr && slots[i].entry != key)
      i = (i + 1) & mask;
    return slots[i];
  };
  for (const std::string& entry : traceFile) {
    Slot& slot = find(entry);
    slot.entry = entry;  // a std::string's data() is never null
    ++slot.count;
  }

  CoverageResult result;
  result.totalMethods = apk.totalMethodCount();
  result.traceEntries = traceFile.size();
  for (const auto& dex : apk.dexFiles) {
    for (std::size_t m = 0; m < dex.methodCount(); ++m) {
      Slot& slot = find(dex.signature(m));
      // Credit each trace entry once, however many dex methods share it.
      result.coveredMethods += slot.count;
      slot.count = 0;
    }
  }
  return result;
}

}  // namespace libspector::core
