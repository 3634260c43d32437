/**
 * @file
 * The global operator new of vgiw_alloc_tests counts its calls. The
 * replacement lives in alloc_counter.cc, which is why these tests are an
 * executable of their own.
 */

#ifndef VGIW_TESTS_ALLOC_ALLOC_COUNTER_HH
#define VGIW_TESTS_ALLOC_ALLOC_COUNTER_HH

#include <cstdint>

namespace vgiw::testing
{

/** operator new calls made so far by the whole process. */
uint64_t allocCount();

} // namespace vgiw::testing

#endif // VGIW_TESTS_ALLOC_ALLOC_COUNTER_HH
