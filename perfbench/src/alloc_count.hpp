#pragma once

#include <cstdint>

namespace perfbench {

/// Global operator new calls (every form) since the process started. The
/// replacement operators live in alloc_count.cpp, so the count covers the
/// library and the benchmark alike without touching either.
[[nodiscard]] std::uint64_t allocations() noexcept;

/// Checks that the counter sees a known number of allocations; false when
/// the replacement operators are not the ones linked in.
[[nodiscard]] bool alloc_selftest();

}  // namespace perfbench
