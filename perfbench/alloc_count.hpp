// Per-thread heap-allocation counter fed by the benchmark's replacement of
// the global operator new (alloc_count.cpp).
#pragma once

namespace perfbench {

/// Allocations made so far by the calling thread.
[[nodiscard]] long long thread_allocs();

}  // namespace perfbench
