// Process-wide heap allocation counter for the traced pass.
//
// alloc_counter.cpp replaces the global operator new/delete (the same hook
// bench/wire_and_memory uses); while counting is enabled every allocation
// in the process, on any thread, bumps one relaxed atomic. Counting is off
// during the timed phases, so they pay one relaxed load per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

void setAllocCounting(bool enabled) noexcept;
[[nodiscard]] std::uint64_t allocCount() noexcept;

}  // namespace perfbench
