#ifndef CATMARK_TESTS_TEST_UTIL_H_
#define CATMARK_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "core/keys.h"
#include "crypto/siphash_simd.h"
#include "gen/sales_gen.h"
#include "relation/relation.h"

namespace catmark {
namespace testutil {

/// Column names of the fixture relation returned by SmallKeyedRelation().
inline constexpr char kKeyAttr[] = "K";
inline constexpr char kTargetAttr[] = "A";

/// Deterministic (K INT64 PRIMARY KEY, A STRING CATEGORICAL) fixture.
Relation SmallKeyedRelation(std::size_t num_tuples = 2000,
                            std::size_t domain_size = 40,
                            std::uint64_t seed = 42);

/// Deterministic key set shared by suites that embed + detect.
WatermarkKeySet TestKeys(std::uint64_t seed = 7);

/// Deterministic pseudo-random watermark of `bits` bits.
BitVector TestWatermark(std::size_t bits, std::uint64_t seed = 99);

/// RAII dispatch override (ForceSimdLevel); restores the
/// environment/hardware default.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { ForceSimdLevel(level); }
  ~ScopedSimdLevel() { ForceSimdLevel(std::nullopt); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;
};

/// Every SIMD level this machine can run (always includes kScalar).
std::vector<SimdLevel> RunnableLevels();

}  // namespace testutil
}  // namespace catmark

#endif  // CATMARK_TESTS_TEST_UTIL_H_
