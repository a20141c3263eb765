#include "perf/alloc_probe.h"  // the one TU that replaces operator new

#include "alloc.h"

namespace perfbench {

std::optional<std::uint64_t> alloc_calls() {
  return astro::perf::alloc_calls();
}

}  // namespace perfbench
