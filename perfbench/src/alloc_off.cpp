#include "alloc.h"

namespace perfbench {

std::optional<std::uint64_t> alloc_calls() { return std::nullopt; }

}  // namespace perfbench
