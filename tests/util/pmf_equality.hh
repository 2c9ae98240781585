/**
 * @file
 * Exact-equality assertion on Pmf results, shared by the tests that
 * pin bit-identity across threads, caches, services and faults.
 */

#ifndef VARSAW_TESTS_UTIL_PMF_EQUALITY_HH
#define VARSAW_TESTS_UTIL_PMF_EQUALITY_HH

#include <gtest/gtest.h>

#include "util/pmf.hh"

namespace varsaw {

/**
 * Assert @p a and @p b are identical: same width and the same
 * outcome-ordered support, value for value. Exact double equality
 * on purpose: these paths promise bit-identical results.
 */
inline void
expectBitIdentical(const Pmf &a, const Pmf &b)
{
    ASSERT_EQ(a.numBits(), b.numBits());
    ASSERT_EQ(a.raw(), b.raw());
}

} // namespace varsaw

#endif // VARSAW_TESTS_UTIL_PMF_EQUALITY_HH
