// Allocation counting for the allocation-hygiene tests.
//
// tests/alloc_counter.cpp replaces global operator new/delete with counting
// versions. It is linked into test_comb_kernels only, and kept in its own
// translation unit so the compiler never inlines the malloc-backed
// operator new into code that frees through operator delete.
#pragma once

#include <cstddef>

namespace semilocal::testing {

/// Global operator new calls made so far by this process.
std::size_t allocation_count();

}  // namespace semilocal::testing
