// The multi-lane SipHash-2-4 backend: lane-by-lane pins against the
// published reference vectors, SIMD-vs-scalar bit-identity across random
// message lengths (including the fixed-width serialized-key shapes), the
// bounds-edge cases of the batch entry points, the key-lane kernels (many
// keys, one message) at every width this CPU has, and end-to-end detect
// parity across forced dispatch levels x thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "core/detect_engine.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "crypto/siphash.h"
#include "crypto/siphash_simd.h"
#include "crypto/siphash_simd_internal.h"
#include "relation/value.h"
#include "test_util.h"

namespace catmark {
namespace {

// The reference-vector key 00 01 .. 0f split little-endian.
constexpr std::uint64_t kVecK0 = 0x0706050403020100ULL;
constexpr std::uint64_t kVecK1 = 0x0f0e0d0c0b0a0908ULL;

using testutil::RunnableLevels;
using testutil::ScopedSimdLevel;

struct ArenaBatch {
  std::vector<std::uint8_t> arena;
  std::vector<std::size_t> bounds{0};
  std::vector<std::string_view> views;  // valid once the arena stops growing

  void Add(const std::vector<std::uint8_t>& msg) {
    arena.insert(arena.end(), msg.begin(), msg.end());
    bounds.push_back(arena.size());
  }
  std::size_t size() const { return bounds.size() - 1; }
  void BuildViews() {
    views.clear();
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      views.emplace_back(
          reinterpret_cast<const char*>(arena.data()) + bounds[i],
          bounds[i + 1] - bounds[i]);
    }
  }
};

// ------------------------------------------------------- reference vectors

// Each of the 16 published vectors (key 00..0f, message bytes 00..i-1) must
// come out of every lane position, at every dispatch level: the batch holds
// the 16 messages plus rotations, so every (length, lane) pairing occurs.
TEST(SimdSipHashTest, ReferenceVectorsLaneByLane) {
  const std::uint64_t kExpected[16] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
      0x9e0082df0ba9e4b0ULL, 0x7a5dbbc594ddb9f3ULL, 0xf4b32f46226bada7ULL,
      0x751e8fbc860ee5fbULL, 0x14ea5627c0843d90ULL, 0xf723ca908e7af2eeULL,
      0xa129ca6149be45e5ULL,
  };
  std::vector<std::uint8_t> message(16);
  for (int i = 0; i < 16; ++i) message[i] = static_cast<std::uint8_t>(i);

  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    // rot shifts which lane each length lands in, so a lane-crossing bug
    // (swapped set_epi64x order, wrong tail lane) cannot hide.
    for (std::size_t rot = 0; rot < 16; ++rot) {
      ArenaBatch batch;
      std::vector<std::size_t> lens;
      for (std::size_t i = 0; i < 16; ++i) {
        const std::size_t len = (i + rot) % 16;
        batch.Add(std::vector<std::uint8_t>(message.begin(),
                                            message.begin() + len));
        lens.push_back(len);
      }
      std::vector<std::uint64_t> out(batch.size());
      SipHash24Batch(kVecK0, kVecK1, batch.arena.data(),
                     std::span<const std::size_t>(batch.bounds),
                     std::span<std::uint64_t>(out));
      for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(out[i], kExpected[lens[i]])
            << "level=" << SimdLevelName(level) << " rot=" << rot
            << " slot=" << i << " len=" << lens[i];
      }
    }
  }
}

// --------------------------------------------------- SIMD-vs-scalar parity

// Random message lengths 0..128 — covering the 4-byte dict-code shape, the
// 9-byte serialized-int64 shape, and both sides of every 8-byte block
// boundary — must hash bit-identically to the scalar reference at every
// dispatch level, through all three batch entry points.
TEST(SimdSipHashTest, RandomLengthBatchesMatchScalar) {
  std::mt19937_64 rng(2024);
  ArenaBatch batch;
  // Deterministic coverage first (every length 0..128 twice, so each
  // bucket also exercises a partial flush), then random fill.
  std::vector<std::size_t> lengths;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t len = 0; len <= 128; ++len) lengths.push_back(len);
  }
  for (int i = 0; i < 1500; ++i) {
    lengths.push_back(rng() % 129);
  }
  for (const std::size_t len : lengths) {
    std::vector<std::uint8_t> msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
    batch.Add(msg);
  }
  batch.BuildViews();

  std::vector<std::uint64_t> expected(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expected[i] = SipHash24(kVecK0, kVecK1, batch.arena.data() + batch.bounds[i],
                            lengths[i]);
  }

  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    std::vector<std::uint64_t> out(batch.size());
    SipHash24Batch(kVecK0, kVecK1, batch.arena.data(),
                   std::span<const std::size_t>(batch.bounds),
                   std::span<std::uint64_t>(out));
    EXPECT_EQ(out, expected) << "arena form, level=" << SimdLevelName(level);

    std::fill(out.begin(), out.end(), 0);
    SipHash24Views(kVecK0, kVecK1,
                   std::span<const std::string_view>(batch.views),
                   std::span<std::uint64_t>(out));
    EXPECT_EQ(out, expected) << "views form, level=" << SimdLevelName(level);
  }
}

TEST(SimdSipHashTest, FixedStrideMatchesScalar) {
  std::mt19937_64 rng(77);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                                std::size_t{8}, std::size_t{9}, std::size_t{16},
                                std::size_t{33}, std::size_t{128}}) {
    // stride == len is the packed arena; the padded stride covers layouts
    // with per-message slack.
    for (const std::size_t stride : {len, len + 3}) {
      const std::size_t count = 101;
      std::vector<std::uint8_t> buf(count * stride + 16);
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
      std::vector<std::uint64_t> expected(count);
      for (std::size_t i = 0; i < count; ++i) {
        expected[i] = SipHash24(kVecK0, kVecK1, buf.data() + i * stride, len);
      }
      for (const SimdLevel level : RunnableLevels()) {
        ScopedSimdLevel forced(level);
        std::vector<std::uint64_t> out(count);
        SipHash24Fixed(kVecK0, kVecK1, buf.data(), len, stride,
                       std::span<std::uint64_t>(out));
        EXPECT_EQ(out, expected) << "level=" << SimdLevelName(level)
                                 << " len=" << len << " stride=" << stride;
      }
    }
  }
}

// The typed int64-key entry point never materializes the 9-byte record, so
// pin it against serialize + scalar SipHash for every level, every lane
// position (counts straddling the 8/4/scalar group boundaries), and the
// sign/extreme values where a byte-order bug would hide.
TEST(SimdSipHashTest, Int64KeysMatchSerializedScalar) {
  std::mt19937_64 rng(99);
  std::vector<std::int64_t> vals = {0,
                                    1,
                                    -1,
                                    std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    42,
                                    -42,
                                    0x0102030405060708LL};
  for (int i = 0; i < 500; ++i) {
    vals.push_back(static_cast<std::int64_t>(rng()));
  }
  std::vector<std::uint64_t> expected(vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    std::vector<std::uint8_t> bytes;
    Value(vals[i]).SerializeForHash(bytes);
    ASSERT_EQ(bytes.size(), 9u);
    expected[i] = SipHash24(kVecK0, kVecK1, bytes.data(), bytes.size());
  }
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
          std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{13},
          std::size_t{64}, vals.size()}) {
      std::vector<std::uint64_t> out(count, 1);
      SipHash24Int64Keys(kVecK0, kVecK1, vals.data(), count,
                         std::span<std::uint64_t>(out));
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i], expected[i])
            << "level=" << SimdLevelName(level) << " count=" << count
            << " i=" << i << " val=" << vals[i];
      }
    }
  }
}

// The packed fitness bitset must agree bit-for-bit with the scalar
// DivisibilityCheck at every level, for even/odd/power-of-two divisors and
// counts straddling the 64-hash word boundary; trailing bits of a partial
// last word must be zero.
TEST(SimdSipHashTest, DivisibilityMaskMatchesScalar) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> h(1000);
  for (auto& x : h) x = rng();
  // Plant guaranteed multiples so small divisors see plenty of set bits.
  for (std::size_t i = 0; i < h.size(); i += 3) h[i] = (rng() % 1000) * 60;
  for (const std::uint64_t d :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{4},
        std::uint64_t{6}, std::uint64_t{7}, std::uint64_t{12},
        std::uint64_t{60}, std::uint64_t{64}, std::uint64_t{97},
        std::uint64_t{255}, std::uint64_t{1} << 20}) {
    const DivisibilityCheck check(d);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{128}, std::size_t{200}, h.size()}) {
      std::vector<std::uint64_t> expected((count + 63) / 64, 0);
      for (std::size_t i = 0; i < count; ++i) {
        if (check(h[i])) expected[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      for (const SimdLevel level : RunnableLevels()) {
        ScopedSimdLevel forced(level);
        std::vector<std::uint64_t> words((count + 63) / 64,
                                         ~std::uint64_t{0});
        DivisibilityMask64(check, h.data(), count, words.data());
        EXPECT_EQ(words, expected) << "level=" << SimdLevelName(level)
                                   << " d=" << d << " count=" << count;
      }
    }
  }
}

// Uniform-length arena batches take the fixed-stride shortcut inside
// SipHash24Batch; pin that path against the scalar loop explicitly.
TEST(SimdSipHashTest, UniformArenaMatchesScalar) {
  std::mt19937_64 rng(31);
  for (const std::size_t len : {std::size_t{4}, std::size_t{9}}) {
    ArenaBatch batch;
    for (int i = 0; i < 257; ++i) {
      std::vector<std::uint8_t> msg(len);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
      batch.Add(msg);
    }
    std::vector<std::uint64_t> expected(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expected[i] = SipHash24(kVecK0, kVecK1,
                              batch.arena.data() + batch.bounds[i], len);
    }
    for (const SimdLevel level : RunnableLevels()) {
      ScopedSimdLevel forced(level);
      std::vector<std::uint64_t> out(batch.size());
      SipHash24Batch(kVecK0, kVecK1, batch.arena.data(),
                     std::span<const std::size_t>(batch.bounds),
                     std::span<std::uint64_t>(out));
      EXPECT_EQ(out, expected) << "level=" << SimdLevelName(level)
                               << " len=" << len;
    }
  }
}

// ------------------------------------------------------------- bounds edges

// The zero-message batch is the single bound {0} (the seed every arena
// producer starts from) and must be a no-op at every level, even with a
// null arena pointer — nothing may dereference it.
TEST(SimdSipHashTest, EmptyBatchEveryLevel) {
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    const std::vector<std::size_t> bounds = {0};
    SipHash24Batch(kVecK0, kVecK1, nullptr,
                   std::span<const std::size_t>(bounds),
                   std::span<std::uint64_t>());
    SipHash24Fixed(kVecK0, kVecK1, nullptr, 0, 0, std::span<std::uint64_t>());
    SipHash24Views(kVecK0, kVecK1, std::span<const std::string_view>(),
                   std::span<std::uint64_t>());
  }
}

// Empty messages (bounds {0, 0, ...}) are legal inputs with a defined
// SipHash value; a full lane group of them must flush through the kernels.
TEST(SimdSipHashTest, EmptyMessagesEveryLevel) {
  const std::uint64_t expected = SipHash24(kVecK0, kVecK1, nullptr, 0);
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (const std::size_t count : {std::size_t{1}, std::size_t{8},
                                    std::size_t{11}}) {
      const std::vector<std::size_t> bounds(count + 1, 0);
      const std::vector<std::uint8_t> arena;  // nothing to read
      std::vector<std::uint64_t> out(count, 1);
      SipHash24Batch(kVecK0, kVecK1, arena.data(),
                     std::span<const std::size_t>(bounds),
                     std::span<std::uint64_t>(out));
      for (const std::uint64_t h : out) EXPECT_EQ(h, expected);
    }
  }
}

// ------------------------------------------------------------- key lanes

/// A key-lane kernel this CPU can run, called directly (not through the
/// dispatcher), with the number of keys it computes per message. The
/// scalar loop has no width; 16 covers every key count the others take.
struct KeyLaneKernelCase {
  const char* name;
  siphash_internal::KeyLaneKernel kernel;
  std::size_t lanes;
};

std::vector<KeyLaneKernelCase> RunnableKeyLaneKernels() {
  std::vector<KeyLaneKernelCase> kernels = {
      {"scalar", siphash_internal::SipHash24KeyLanesScalar, kMaxKeyLanes}};
#if defined(__x86_64__) || defined(_M_X64)
  kernels.push_back({"sse2", siphash_internal::SipHash24KeyLanesSse2, 4});
  if (HardwareSimdLevel() >= SimdLevel::kAvx2) {
    kernels.push_back({"avx2", siphash_internal::SipHash24KeyLanesAvx2, 8});
  }
  if (siphash_internal::Avx512KeyLanesSupported()) {
    kernels.push_back(
        {"avx512", siphash_internal::SipHash24KeyLanesAvx512, 16});
  }
#endif
  return kernels;
}

std::vector<SipHashKey> RandomKeys(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<SipHashKey> keys(count);
  for (SipHashKey& key : keys) {
    key.k0 = rng();
    key.k1 = rng();
  }
  return keys;
}

/// Messages of every length 0..40 — every tail case 0..7 at block counts
/// 0..5 — then a second pass in shuffled order so no length sits at a fixed
/// message index.
ArenaBatch EveryTailLength(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 40; ++len) lengths.push_back(len);
  std::vector<std::size_t> shuffled = lengths;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  lengths.insert(lengths.end(), shuffled.begin(), shuffled.end());
  ArenaBatch batch;
  for (const std::size_t len : lengths) {
    std::vector<std::uint8_t> msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
    batch.Add(msg);
  }
  return batch;
}

/// Expects column l of `out` (stride `stride`) to be every message hashed
/// under keys[l] by the scalar reference.
void ExpectKeyLaneColumns(const std::vector<SipHashKey>& keys,
                          const ArenaBatch& batch,
                          const std::vector<std::uint64_t>& out,
                          std::size_t stride, const std::string& what) {
  for (std::size_t l = 0; l < keys.size(); ++l) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t len = batch.bounds[i + 1] - batch.bounds[i];
      ASSERT_EQ(out[l * stride + i],
                SipHash24(keys[l].k0, keys[l].k1,
                          batch.arena.data() + batch.bounds[i], len))
          << what << " key=" << l << " msg=" << i << " len=" << len;
    }
  }
}

// Each kernel this CPU has, called directly, against the scalar SipHash24:
// every message length 0..40, every key count 1..lanes (the lanes past the
// count padded with copies, as the dispatcher pads them), and blocks whose
// keys repeat or are all the same. Columns past the key count and slots
// past the message count must be left untouched.
TEST(KeyLaneSipHashTest, KernelsMatchScalarEveryWidth) {
  const ArenaBatch batch = EveryTailLength(5);
  const std::size_t count = batch.size();
  const std::size_t stride = count + 3;
  constexpr std::uint64_t kSentinel = 0x5e5e5e5e5e5e5e5eULL;
  const std::vector<SipHashKey> distinct = RandomKeys(kMaxKeyLanes, 17);
  std::vector<SipHashKey> repeated(kMaxKeyLanes);
  for (std::size_t l = 0; l < kMaxKeyLanes; ++l) repeated[l] = distinct[l % 3];
  const std::vector<SipHashKey> identical(kMaxKeyLanes, distinct[4]);

  const std::vector<SipHashKey>* const key_sets[] = {&distinct, &repeated,
                                                     &identical};
  for (const KeyLaneKernelCase& k : RunnableKeyLaneKernels()) {
    for (const std::vector<SipHashKey>* key_set : key_sets) {
      for (std::size_t n = 1; n <= k.lanes; ++n) {
        const std::vector<SipHashKey> keys(key_set->begin(),
                                           key_set->begin() + n);
        std::uint64_t k0[kMaxKeyLanes];
        std::uint64_t k1[kMaxKeyLanes];
        for (std::size_t l = 0; l < k.lanes; ++l) {
          k0[l] = keys[std::min(l, n - 1)].k0;
          k1[l] = keys[std::min(l, n - 1)].k1;
        }
        std::vector<std::uint64_t> out((n + 1) * stride, kSentinel);
        k.kernel(k0, k1, n, batch.arena.data(), batch.bounds.data(), count,
                 out.data(), stride);
        ExpectKeyLaneColumns(keys, batch, out, stride,
                             std::string(k.name) + " n=" + std::to_string(n));
        for (std::size_t l = 0; l < n; ++l) {
          for (std::size_t i = count; i < stride; ++i) {
            EXPECT_EQ(out[l * stride + i], kSentinel) << k.name;
          }
        }
        for (std::size_t i = 0; i < stride; ++i) {
          EXPECT_EQ(out[n * stride + i], kSentinel)
              << k.name << ": column " << n << " past the key count written";
        }
      }
    }
  }
}

// The dispatcher at every level: key counts 0..33 (several kernel groups
// and a short last one) over mixed-length messages, equal to the scalar
// loop; a zero-message batch (bounds {0}) and zero keys are no-ops.
TEST(KeyLaneSipHashTest, DispatchMatchesScalarEveryLevelAndKeyCount) {
  const ArenaBatch batch = EveryTailLength(9);
  const std::size_t count = batch.size();
  const std::vector<SipHashKey> all_keys = RandomKeys(33, 23);
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (std::size_t n = 0; n <= all_keys.size(); ++n) {
      const std::vector<SipHashKey> keys(all_keys.begin(),
                                         all_keys.begin() + n);
      std::vector<std::uint64_t> out(n * count);
      SipHash24KeyLanes(keys, batch.arena.data(),
                        std::span<const std::size_t>(batch.bounds), out.data(),
                        count);
      ExpectKeyLaneColumns(keys, batch, out, count,
                           std::string(SimdLevelName(level)) +
                               " n=" + std::to_string(n));
    }
    const std::vector<std::size_t> empty_bounds = {0};
    SipHash24KeyLanes(all_keys, nullptr,
                      std::span<const std::size_t>(empty_bounds), nullptr, 0);
  }
}

// The published vectors through the key lanes: with every lane holding the
// reference key, message bytes 00..i-1 must hash to vector i in every lane.
TEST(KeyLaneSipHashTest, ReferenceVectorsEveryLane) {
  const std::uint64_t kFirst = 0x726fdb47dd0e0e31ULL;    // empty message
  const std::uint64_t kFifteen = 0xa129ca6149be45e5ULL;  // 00..0e
  ArenaBatch batch;
  batch.Add({});
  std::vector<std::uint8_t> msg(15);
  for (int i = 0; i < 15; ++i) msg[i] = static_cast<std::uint8_t>(i);
  batch.Add(msg);
  const std::vector<SipHashKey> keys(kMaxKeyLanes, SipHashKey{kVecK0, kVecK1});
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    std::vector<std::uint64_t> out(keys.size() * 2);
    SipHash24KeyLanes(keys, batch.arena.data(),
                      std::span<const std::size_t>(batch.bounds), out.data(),
                      2);
    for (std::size_t l = 0; l < keys.size(); ++l) {
      EXPECT_EQ(out[2 * l], kFirst) << SimdLevelName(level) << " lane " << l;
      EXPECT_EQ(out[2 * l + 1], kFifteen)
          << SimdLevelName(level) << " lane " << l;
    }
  }
}

// The key-lane width follows the level (AVX-512 only under avx2), and the
// log names the hardware level and the key-lane kernel the ambient level
// (CATMARK_SIMD) runs, so a CI leg on a host without AVX-512 shows which
// path it checked.
TEST(KeyLaneDispatchTest, WidthFollowsLevelAndIsReported) {
  const std::size_t ambient = KeyLaneWidth();
  std::cout << "[ simd     ] hardware level " << SimdLevelName(HardwareSimdLevel())
            << ", active level " << SimdLevelName(ActiveSimdLevel())
            << ", AVX-512 key-lane kernel "
            << (ambient == 16 ? "ran" : "not run") << " (key-lane width "
            << ambient << ")\n";
  {
    ScopedSimdLevel forced(SimdLevel::kScalar);
    EXPECT_EQ(KeyLaneWidth(), 8u);
  }
  if (HardwareSimdLevel() >= SimdLevel::kSse2) {
    ScopedSimdLevel forced(SimdLevel::kSse2);
    EXPECT_EQ(KeyLaneWidth(), 4u);
  }
  if (HardwareSimdLevel() >= SimdLevel::kAvx2) {
    ScopedSimdLevel forced(SimdLevel::kAvx2);
    EXPECT_EQ(KeyLaneWidth(),
              siphash_internal::Avx512KeyLanesSupported() ? 16u : 8u);
  }
}

// ------------------------------------------------------- dispatch controls

TEST(SimdDispatchTest, LevelNamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSse2,
                                SimdLevel::kAvx2}) {
    const auto back = SimdLevelFromName(SimdLevelName(level));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, level);
  }
  EXPECT_EQ(SimdLevelFromName("scalar"), SimdLevel::kScalar);
  EXPECT_FALSE(SimdLevelFromName("avx512").has_value());
  EXPECT_FALSE(SimdLevelFromName("").has_value());
  EXPECT_FALSE(SimdLevelFromName("AVX2").has_value());  // case-sensitive
}

TEST(SimdDispatchTest, ForceClampsToHardwareAndRestores) {
  const SimdLevel ambient = ActiveSimdLevel();
  ForceSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(ActiveSimdLevel(), HardwareSimdLevel());
  ForceSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  ForceSimdLevel(std::nullopt);
  EXPECT_EQ(ActiveSimdLevel(), ambient);
}

// --------------------------------------------- end-to-end detection parity

// A full embed -> detect cycle must produce the identical DetectionResult
// at every dispatch level x thread count, through both the one-shot
// detector and the multi-candidate engine. This is the bit-identity the
// siphash24 golden/attack suites rely on when CI runs them under
// CATMARK_SIMD=off|sse2|avx2.
TEST(SimdDetectParityTest, LevelsAndThreadsBitIdentical) {
  Relation rel = testutil::SmallKeyedRelation(1500, 30, 5);
  WatermarkParams params;
  params.e = 4;
  params.prf = PrfKind::kSipHash24;
  params.payload_length = 24;
  const WatermarkKeySet keys = testutil::TestKeys();
  const BitVector wm = testutil::TestWatermark(24);
  EmbedOptions embed_options;
  embed_options.key_attr = testutil::kKeyAttr;
  embed_options.target_attr = testutil::kTargetAttr;
  const Embedder embedder(keys, params);
  const EmbedReport report = embedder.Embed(rel, embed_options, wm).value();

  KeyCandidate candidate;
  candidate.keys = keys;
  candidate.params = params;
  candidate.wm_len = wm.size();

  std::optional<DetectionResult> baseline;
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      WatermarkParams detect_params = params;
      detect_params.num_threads = threads;
      const Detector detector(keys, detect_params);
      DetectOptions options;
      options.key_attr = testutil::kKeyAttr;
      options.target_attr = testutil::kTargetAttr;
      options.domain = report.domain;
      const DetectionResult one_shot =
          detector.Detect(rel, options, wm.size()).value();
      EXPECT_EQ(one_shot.wm, wm) << "level=" << SimdLevelName(level);

      DetectEngineOptions engine_options;
      engine_options.key_attr = testutil::kKeyAttr;
      engine_options.target_attr = testutil::kTargetAttr;
      engine_options.domain = report.domain;
      engine_options.num_threads = threads;
      const DetectEngine engine =
          DetectEngine::Create(rel, engine_options).value();
      const DetectionResult engine_result = engine.Detect(candidate).value();

      for (const DetectionResult* r : {&one_shot, &engine_result}) {
        if (!baseline.has_value()) {
          baseline = *r;
          continue;
        }
        EXPECT_EQ(r->wm, baseline->wm);
        EXPECT_EQ(r->fit_tuples, baseline->fit_tuples);
        EXPECT_EQ(r->usable_votes, baseline->usable_votes);
        EXPECT_EQ(r->positions_present, baseline->positions_present);
        EXPECT_EQ(r->bit_confidence, baseline->bit_confidence)
            << "level=" << SimdLevelName(level) << " threads=" << threads;
      }
    }
  }
}

// NULL keys break the one-shot fast path's dense-chunk assumption mid-chunk
// (row indices must be backfilled the moment the first NULL appears), so
// pin a relation with scattered NULL keys to identical results across
// dispatch levels, thread counts, and against the plan-based engine path,
// which never had the dense shortcut.
TEST(SimdDetectParityTest, NullKeysBitIdenticalAcrossLevels) {
  const Relation base = testutil::SmallKeyedRelation(1200, 25, 9);
  Relation rel(base.schema());
  for (std::size_t j = 0; j < base.NumRows(); ++j) {
    Row row = {base.Get(j, 0), base.Get(j, 1)};
    if (j % 97 == 0) row[0] = Value();  // NULL key
    ASSERT_TRUE(rel.AppendRow(std::move(row)).ok());
  }

  WatermarkParams params;
  params.e = 4;
  params.prf = PrfKind::kSipHash24;
  params.payload_length = 16;
  const WatermarkKeySet keys = testutil::TestKeys();
  const BitVector wm = testutil::TestWatermark(16);
  EmbedOptions embed_options;
  embed_options.key_attr = testutil::kKeyAttr;
  embed_options.target_attr = testutil::kTargetAttr;
  const Embedder embedder(keys, params);
  const EmbedReport report = embedder.Embed(rel, embed_options, wm).value();

  KeyCandidate candidate;
  candidate.keys = keys;
  candidate.params = params;
  candidate.wm_len = wm.size();

  std::optional<DetectionResult> baseline;
  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      DetectEngineOptions options;
      options.key_attr = testutil::kKeyAttr;
      options.target_attr = testutil::kTargetAttr;
      options.domain = report.domain;
      options.num_threads = threads;
      const DetectionResult one_shot =
          DetectEngine::DetectOneShot(rel, options, candidate).value();
      const DetectEngine engine = DetectEngine::Create(rel, options).value();
      const DetectionResult planned = engine.Detect(candidate).value();
      for (const DetectionResult* r : {&one_shot, &planned}) {
        if (!baseline.has_value()) {
          baseline = *r;
          continue;
        }
        EXPECT_EQ(r->wm, baseline->wm)
            << "level=" << SimdLevelName(level) << " threads=" << threads;
        EXPECT_EQ(r->fit_tuples, baseline->fit_tuples);
        EXPECT_EQ(r->usable_votes, baseline->usable_votes);
        EXPECT_EQ(r->bit_confidence, baseline->bit_confidence);
      }
      EXPECT_EQ(one_shot.wm, wm) << "level=" << SimdLevelName(level);
    }
  }
}

}  // namespace
}  // namespace catmark
