#pragma once

// Allocation counting is linked into the traced binary only
// (alloc_on.cpp replaces the global operator new through
// perf/alloc_probe.h); the end-to-end binary links alloc_off.cpp.

#include <cstdint>
#include <optional>

namespace perfbench {

/// Process-wide operator-new calls so far; nullopt in a binary that does
/// not count allocations.
std::optional<std::uint64_t> alloc_calls();

}  // namespace perfbench
