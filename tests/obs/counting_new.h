/**
 * @file
 * Allocation counter for the zero-allocation contract tests.
 *
 * counting_new.cc replaces the global operator new and delete for the
 * whole test binary. Counting (not forbidding) keeps that safe for the
 * binary's other tests, which allocate freely. The replacements live
 * in their own source file so the compiler never inlines them into a
 * test's new-expressions, where GCC would pair the `operator new` call
 * with the replacement's `std::free` and warn
 * (-Wmismatched-new-delete).
 */

#ifndef CONFSIM_TESTS_OBS_COUNTING_NEW_H
#define CONFSIM_TESTS_OBS_COUNTING_NEW_H

#include <cstdint>

namespace confsim {

/** @return global operator new calls so far in this process. */
std::uint64_t allocationCount();

} // namespace confsim

#endif // CONFSIM_TESTS_OBS_COUNTING_NEW_H
