#include "crypto/siphash_simd.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "crypto/siphash.h"
#include "crypto/siphash_simd_internal.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace catmark {

namespace {

using siphash_internal::KeyLaneKernel;
using siphash_internal::LaneKernel;

#if defined(__x86_64__) || defined(_M_X64)

SimdLevel DetectHardwareLevel() {
#if defined(__GNUC__) || defined(__clang__)
  if (siphash_internal::Avx2KernelsCompiled() &&
      __builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kSse2;  // baseline on x86-64
}

#else

SimdLevel DetectHardwareLevel() { return SimdLevel::kScalar; }

#endif

SimdLevel EnvSimdLevel() {
  const SimdLevel hw = HardwareSimdLevel();
  const char* text = std::getenv("CATMARK_SIMD");
  if (text == nullptr || *text == '\0') return hw;
  const std::optional<SimdLevel> parsed = SimdLevelFromName(text);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "catmark: ignoring unknown CATMARK_SIMD value '%s' "
                 "(expected avx2, sse2 or off)\n",
                 text);
    return hw;
  }
  return *parsed < hw ? *parsed : hw;
}

// ForceSimdLevel state: -1 = no override. Relaxed atomics suffice — the
// override only ever changes which (bit-identical) kernel runs.
std::atomic<int> g_forced_level{-1};

// Messages longer than this skip the length buckets and hash scalar; the
// watermarking channel's serialized keys are tens of bytes, so in practice
// everything vectorizes. Bounds the per-call bucket table at
// (kMaxBucketedLen + 1) * kMaxLanes u32 slots of stack.
constexpr std::size_t kMaxBucketedLen = 256;
constexpr std::size_t kMaxLanes = 8;

struct Dispatch {
  LaneKernel kernel = nullptr;  // nullptr = scalar
  std::size_t lanes = 1;
};

Dispatch CurrentDispatch() {
#if defined(__x86_64__) || defined(_M_X64)
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx2:
      return {siphash_internal::SipHash24x8Avx2, 8};
    case SimdLevel::kSse2:
      return {siphash_internal::SipHash24x4Sse2, 4};
    case SimdLevel::kScalar:
      break;
  }
#endif
  return {};
}

struct KeyLaneDispatch {
  KeyLaneKernel kernel = siphash_internal::SipHash24KeyLanesScalar;
  std::size_t lanes = 8;
};

// AVX-512 is no level of its own: under kAvx2 it widens only the key-lane
// kernel, where the CPU has it.
KeyLaneDispatch CurrentKeyLaneDispatch() {
#if defined(__x86_64__) || defined(_M_X64)
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx2:
      if (siphash_internal::Avx512KeyLanesSupported()) {
        return {siphash_internal::SipHash24KeyLanesAvx512, 16};
      }
      return {siphash_internal::SipHash24KeyLanesAvx2, 8};
    case SimdLevel::kSse2:
      return {siphash_internal::SipHash24KeyLanesSse2, 4};
    case SimdLevel::kScalar:
      break;
  }
#endif
  return {};
}

/// The shared mixed-length driver: messages are bucketed by length, each
/// bucket flushing through the lane kernel whenever it fills, and every
/// leftover (partial buckets, overlong messages) hashes scalar. ptr_at(i) /
/// len_at(i) describe message i; results land in out[i] regardless of the
/// order buckets flush in, so the output is identical to the scalar loop.
template <typename PtrAt, typename LenAt>
void BucketedBatch(const Dispatch& d, std::uint64_t k0, std::uint64_t k1,
                   std::size_t count, std::uint64_t* out, PtrAt ptr_at,
                   LenAt len_at) {
  std::uint32_t pending[kMaxBucketedLen + 1][kMaxLanes];
  std::uint8_t fill[kMaxBucketedLen + 1] = {};
  const std::uint8_t* lane_ptrs[kMaxLanes];
  std::uint64_t lane_out[kMaxLanes];
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = len_at(i);
    if (len > kMaxBucketedLen) {
      out[i] = SipHash24(k0, k1, ptr_at(i), len);
      continue;
    }
    pending[len][fill[len]++] = static_cast<std::uint32_t>(i);
    if (fill[len] == d.lanes) {
      for (std::size_t l = 0; l < d.lanes; ++l) {
        lane_ptrs[l] = ptr_at(pending[len][l]);
      }
      d.kernel(k0, k1, lane_ptrs, len, lane_out);
      for (std::size_t l = 0; l < d.lanes; ++l) {
        out[pending[len][l]] = lane_out[l];
      }
      fill[len] = 0;
    }
  }
  for (std::size_t len = 0; len <= kMaxBucketedLen; ++len) {
    for (std::size_t j = 0; j < fill[len]; ++j) {
      const std::uint32_t i = pending[len][j];
      out[i] = SipHash24(k0, k1, ptr_at(i), len);
    }
  }
}

void FixedBatch(const Dispatch& d, std::uint64_t k0, std::uint64_t k1,
                const std::uint8_t* base, std::size_t len, std::size_t stride,
                std::span<std::uint64_t> out) {
  const std::size_t count = out.size();
  const std::uint8_t* lane_ptrs[kMaxLanes];
  std::size_t i = 0;
  if (d.kernel != nullptr) {
    for (; i + d.lanes <= count; i += d.lanes) {
      for (std::size_t l = 0; l < d.lanes; ++l) {
        lane_ptrs[l] = base + (i + l) * stride;
      }
      d.kernel(k0, k1, lane_ptrs, len, out.data() + i);
    }
  }
  for (; i < count; ++i) {
    out[i] = SipHash24(k0, k1, base + i * stride, len);
  }
}

}  // namespace

std::string_view SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "off";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<SimdLevel> SimdLevelFromName(std::string_view name) {
  if (name == "off" || name == "scalar") return SimdLevel::kScalar;
  if (name == "sse2") return SimdLevel::kSse2;
  if (name == "avx2") return SimdLevel::kAvx2;
  return std::nullopt;
}

SimdLevel HardwareSimdLevel() {
  static const SimdLevel level = DetectHardwareLevel();
  return level;
}

SimdLevel ActiveSimdLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  static const SimdLevel level = EnvSimdLevel();
  return level;
}

void ForceSimdLevel(std::optional<SimdLevel> level) {
  if (!level.has_value()) {
    g_forced_level.store(-1, std::memory_order_relaxed);
    return;
  }
  const SimdLevel hw = HardwareSimdLevel();
  const SimdLevel clamped = *level < hw ? *level : hw;
  g_forced_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

void SipHash24Batch(std::uint64_t k0, std::uint64_t k1,
                    const std::uint8_t* arena,
                    std::span<const std::size_t> bounds,
                    std::span<std::uint64_t> out) {
  CATMARK_CHECK_EQ(bounds.size(), out.size() + 1);
  const std::size_t count = out.size();
  const Dispatch d = CurrentDispatch();
  if (d.kernel == nullptr || count < d.lanes) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = SipHash24(k0, k1, arena + bounds[i], bounds[i + 1] - bounds[i]);
    }
    return;
  }
  // Equal-length batches — the dominant shape: fixed-width serialized keys
  // produce messages of one size, back to back in the arena — skip the
  // bucket table entirely and stream lane groups at a constant stride.
  const std::size_t len0 = bounds[1] - bounds[0];
  bool uniform = true;
  for (std::size_t i = 1; i < count; ++i) {
    if (bounds[i + 1] - bounds[i] != len0) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    FixedBatch(d, k0, k1, arena + bounds[0], len0, len0, out);
    return;
  }
  BucketedBatch(
      d, k0, k1, count, out.data(),
      [&](std::size_t i) { return arena + bounds[i]; },
      [&](std::size_t i) { return bounds[i + 1] - bounds[i]; });
}

void SipHash24Fixed(std::uint64_t k0, std::uint64_t k1,
                    const std::uint8_t* base, std::size_t len,
                    std::size_t stride, std::span<std::uint64_t> out) {
  CATMARK_CHECK_GE(stride, len);
  FixedBatch(CurrentDispatch(), k0, k1, base, len, stride, out);
}

void SipHash24Int64Keys(std::uint64_t k0, std::uint64_t k1,
                        const std::int64_t* vals, std::size_t count,
                        std::span<std::uint64_t> out) {
  CATMARK_CHECK_EQ(count, out.size());
  std::size_t i = 0;
#if defined(__x86_64__) || defined(_M_X64)
  const SimdLevel level = ActiveSimdLevel();
  if (level == SimdLevel::kAvx2) {
    const std::size_t n8 = count & ~std::size_t{7};
    siphash_internal::SipHash24Int64BatchAvx2(k0, k1, vals, n8, out.data());
    i = n8;
  }
  if (level >= SimdLevel::kSse2) {
    const std::size_t n4 = (count - i) & ~std::size_t{3};
    siphash_internal::SipHash24Int64BatchSse2(k0, k1, vals + i, n4,
                                              out.data() + i);
    i += n4;
  }
#endif
  // Scalar tail (and the whole batch at the off level): materialize the
  // canonical record and run the reference — the bit-identity anchor the
  // vector paths are pinned against.
  std::uint8_t buf[9];
  buf[0] = 1;
  for (; i < count; ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(vals[i]);
    for (int b = 0; b < 8; ++b) {
      buf[1 + b] = static_cast<std::uint8_t>(v >> (8 * (7 - b)));
    }
    out[i] = SipHash24(k0, k1, buf, sizeof(buf));
  }
}

std::size_t KeyLaneWidth() { return CurrentKeyLaneDispatch().lanes; }

void SipHash24KeyLanes(std::span<const SipHashKey> keys,
                       const std::uint8_t* arena,
                       std::span<const std::size_t> bounds, std::uint64_t* out,
                       std::size_t out_stride) {
  CATMARK_CHECK(!bounds.empty());
  const std::size_t count = bounds.size() - 1;
  CATMARK_CHECK_GE(out_stride, count);
  const KeyLaneDispatch d = CurrentKeyLaneDispatch();
  std::uint64_t k0[kMaxKeyLanes];
  std::uint64_t k1[kMaxKeyLanes];
  for (std::size_t g = 0; g < keys.size(); g += d.lanes) {
    const std::size_t n = std::min(d.lanes, keys.size() - g);
    for (std::size_t l = 0; l < d.lanes; ++l) {
      const SipHashKey& key = keys[g + std::min(l, n - 1)];
      k0[l] = key.k0;
      k1[l] = key.k1;
    }
    d.kernel(k0, k1, n, arena, bounds.data(), count, out + g * out_stride,
             out_stride);
  }
}

void DivisibilityMask64(const DivisibilityCheck& check, const std::uint64_t* h,
                        std::size_t count, std::uint64_t* words) {
  std::size_t i = 0;
  std::uint64_t* w = words;
#if defined(__x86_64__) || defined(_M_X64)
  // Only AVX2 has a 64-bit vector compare; SSE2 runs the scalar loop.
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    for (; i + 64 <= count; i += 64) {
      *w++ = siphash_internal::DivisibilityMaskWordAvx2(
          check.odd_inv(), check.odd_limit(), check.pow2_mask(), h + i);
    }
  }
#endif
  std::uint64_t word = 0;
  int bit = 0;
  for (; i < count; ++i) {
    word |= static_cast<std::uint64_t>(check(h[i])) << bit;
    if (++bit == 64) {
      *w++ = word;
      word = 0;
      bit = 0;
    }
  }
  if (bit != 0) *w = word;
}

void SipHash24Views(std::uint64_t k0, std::uint64_t k1,
                    std::span<const std::string_view> inputs,
                    std::span<std::uint64_t> out) {
  CATMARK_CHECK_EQ(inputs.size(), out.size());
  const std::size_t count = out.size();
  const Dispatch d = CurrentDispatch();
  if (d.kernel == nullptr || count < d.lanes) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = SipHash24(
          k0, k1, reinterpret_cast<const std::uint8_t*>(inputs[i].data()),
          inputs[i].size());
    }
    return;
  }
  BucketedBatch(
      d, k0, k1, count, out.data(),
      [&](std::size_t i) {
        return reinterpret_cast<const std::uint8_t*>(inputs[i].data());
      },
      [&](std::size_t i) { return inputs[i].size(); });
}

namespace siphash_internal {

void SipHash24KeyLanesScalar(const std::uint64_t* k0, const std::uint64_t* k1,
                             std::size_t num_keys, const std::uint8_t* arena,
                             const std::size_t* bounds, std::size_t count,
                             std::uint64_t* out, std::size_t out_stride) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* msg = arena + bounds[i];
    const std::size_t len = bounds[i + 1] - bounds[i];
    for (std::size_t l = 0; l < num_keys; ++l) {
      out[l * out_stride + i] = SipHash24(k0[l], k1[l], msg, len);
    }
  }
}

bool Avx512KeyLanesSupported() {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool supported = Avx512KernelsCompiled() &&
                                __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512vl");
  return supported;
#else
  return false;
#endif
}

}  // namespace siphash_internal

#if defined(__x86_64__) || defined(_M_X64)

namespace siphash_internal {

namespace {

inline __m128i VAdd(__m128i a, __m128i b) { return _mm_add_epi64(a, b); }
inline __m128i VXor(__m128i a, __m128i b) { return _mm_xor_si128(a, b); }
inline __m128i VRotl(__m128i x, int b) {
  return _mm_or_si128(_mm_slli_epi64(x, b), _mm_srli_epi64(x, 64 - b));
}
// rotl64 by 32 == swap the 32-bit halves of each 64-bit lane.
inline __m128i VRotl32(__m128i x) {
  return _mm_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1));
}

}  // namespace

void SipHash24x4Sse2(std::uint64_t k0, std::uint64_t k1,
                     const std::uint8_t* const* ptrs, std::size_t len,
                     std::uint64_t* out) {
  const __m128i i0 =
      _mm_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL ^ k0));
  const __m128i i1 =
      _mm_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL ^ k1));
  const __m128i i2 =
      _mm_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL ^ k0));
  const __m128i i3 =
      _mm_set1_epi64x(static_cast<long long>(0x7465646279746573ULL ^ k1));
  // Two 2-lane state sets: lanes {0,1} in a*, lanes {2,3} in b*. Both
  // advance in lockstep so the four dependency chains interleave.
  __m128i a0 = i0, a1 = i1, a2 = i2, a3 = i3;
  __m128i b0 = i0, b1 = i1, b2 = i2, b3 = i3;
  const std::uint8_t* p0 = ptrs[0];
  const std::uint8_t* p1 = ptrs[1];
  const std::uint8_t* p2 = ptrs[2];
  const std::uint8_t* p3 = ptrs[3];

  const std::size_t tail_at = len - (len % 8);
  for (std::size_t off = 0; off != tail_at; off += 8) {
    const __m128i ma =
        _mm_set_epi64x(static_cast<long long>(LoadLe64(p1 + off)),
                       static_cast<long long>(LoadLe64(p0 + off)));
    const __m128i mb =
        _mm_set_epi64x(static_cast<long long>(LoadLe64(p3 + off)),
                       static_cast<long long>(LoadLe64(p2 + off)));
    a3 = VXor(a3, ma);
    b3 = VXor(b3, mb);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    a0 = VXor(a0, ma);
    b0 = VXor(b0, mb);
  }

  const __m128i fa =
      _mm_set_epi64x(static_cast<long long>(SipTailBlock(p1 + tail_at, len)),
                     static_cast<long long>(SipTailBlock(p0 + tail_at, len)));
  const __m128i fb =
      _mm_set_epi64x(static_cast<long long>(SipTailBlock(p3 + tail_at, len)),
                     static_cast<long long>(SipTailBlock(p2 + tail_at, len)));
  a3 = VXor(a3, fa);
  b3 = VXor(b3, fb);
  CATMARK_SIP_VROUND(a0, a1, a2, a3);
  CATMARK_SIP_VROUND(b0, b1, b2, b3);
  CATMARK_SIP_VROUND(a0, a1, a2, a3);
  CATMARK_SIP_VROUND(b0, b1, b2, b3);
  a0 = VXor(a0, fa);
  b0 = VXor(b0, fb);

  const __m128i ff = _mm_set1_epi64x(0xff);
  a2 = VXor(a2, ff);
  b2 = VXor(b2, ff);
  for (int r = 0; r < 4; ++r) {
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
  }

  const __m128i ra = VXor(VXor(a0, a1), VXor(a2, a3));
  const __m128i rb = VXor(VXor(b0, b1), VXor(b2, b3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), ra);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2), rb);
}

void SipHash24KeyLanesSse2(const std::uint64_t* k0, const std::uint64_t* k1,
                           std::size_t num_keys, const std::uint8_t* arena,
                           const std::size_t* bounds, std::size_t count,
                           std::uint64_t* out, std::size_t out_stride) {
  // Keys {0,1} in the a* state set, {2,3} in b*; per message both sets
  // start from their keys' initial state and absorb the same broadcast
  // message words.
  const __m128i ka0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(k0));
  const __m128i kb0 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(k0 + 2));
  const __m128i ka1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(k1));
  const __m128i kb1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(k1 + 2));
  const __m128i c0 =
      _mm_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL));
  const __m128i c1 =
      _mm_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL));
  const __m128i c2 =
      _mm_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL));
  const __m128i c3 =
      _mm_set1_epi64x(static_cast<long long>(0x7465646279746573ULL));
  const __m128i ia0 = VXor(c0, ka0), ia1 = VXor(c1, ka1);
  const __m128i ia2 = VXor(c2, ka0), ia3 = VXor(c3, ka1);
  const __m128i ib0 = VXor(c0, kb0), ib1 = VXor(c1, kb1);
  const __m128i ib2 = VXor(c2, kb0), ib3 = VXor(c3, kb1);
  const __m128i ff = _mm_set1_epi64x(0xff);
  alignas(16) std::uint64_t lane_out[4];

  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* p = arena + bounds[i];
    const std::size_t len = bounds[i + 1] - bounds[i];
    __m128i a0 = ia0, a1 = ia1, a2 = ia2, a3 = ia3;
    __m128i b0 = ib0, b1 = ib1, b2 = ib2, b3 = ib3;
    const std::size_t tail_at = len - (len % 8);
    for (std::size_t off = 0; off != tail_at; off += 8) {
      const __m128i m =
          _mm_set1_epi64x(static_cast<long long>(LoadLe64(p + off)));
      a3 = VXor(a3, m);
      b3 = VXor(b3, m);
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
      a0 = VXor(a0, m);
      b0 = VXor(b0, m);
    }
    const __m128i f =
        _mm_set1_epi64x(static_cast<long long>(SipTailBlock(p + tail_at, len)));
    a3 = VXor(a3, f);
    b3 = VXor(b3, f);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    a0 = VXor(a0, f);
    b0 = VXor(b0, f);
    a2 = VXor(a2, ff);
    b2 = VXor(b2, ff);
    for (int r = 0; r < 4; ++r) {
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
    }
    _mm_store_si128(reinterpret_cast<__m128i*>(lane_out),
                    VXor(VXor(a0, a1), VXor(a2, a3)));
    _mm_store_si128(reinterpret_cast<__m128i*>(lane_out + 2),
                    VXor(VXor(b0, b1), VXor(b2, b3)));
    for (std::size_t l = 0; l < num_keys; ++l) {
      out[l * out_stride + i] = lane_out[l];
    }
  }
}

namespace {

inline std::uint64_t BswapU64(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  std::uint64_t r = 0;
  for (int b = 0; b < 8; ++b) {
    r = (r << 8) | ((v >> (8 * b)) & 0xff);
  }
  return r;
#endif
}

}  // namespace

void SipHash24Int64BatchSse2(std::uint64_t k0, std::uint64_t k1,
                             const std::int64_t* vals, std::size_t count,
                             std::uint64_t* out) {
  const __m128i i0 =
      _mm_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL ^ k0));
  const __m128i i1 =
      _mm_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL ^ k1));
  const __m128i i2 =
      _mm_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL ^ k0));
  const __m128i i3 =
      _mm_set1_epi64x(static_cast<long long>(0x7465646279746573ULL ^ k1));
  const __m128i ff = _mm_set1_epi64x(0xff);

  for (std::size_t i = 0; i < count; i += 4) {
    // The 9-byte record [0x01][BE payload] as two little-endian SipHash
    // blocks, computed scalar per lane: block0 = 0x01 | bswap(v) << 8,
    // tail = 9 << 56 | bswap(v) >> 56.
    std::uint64_t m0[4];
    std::uint64_t m1[4];
    for (int l = 0; l < 4; ++l) {
      const std::uint64_t b =
          BswapU64(static_cast<std::uint64_t>(vals[i + l]));
      m0[l] = 1ULL | (b << 8);
      m1[l] = (9ULL << 56) | (b >> 56);
    }
    const __m128i m0a = _mm_set_epi64x(static_cast<long long>(m0[1]),
                                       static_cast<long long>(m0[0]));
    const __m128i m0b = _mm_set_epi64x(static_cast<long long>(m0[3]),
                                       static_cast<long long>(m0[2]));
    const __m128i m1a = _mm_set_epi64x(static_cast<long long>(m1[1]),
                                       static_cast<long long>(m1[0]));
    const __m128i m1b = _mm_set_epi64x(static_cast<long long>(m1[3]),
                                       static_cast<long long>(m1[2]));

    __m128i a0 = i0, a1 = i1, a2 = i2, a3 = i3;
    __m128i b0 = i0, b1 = i1, b2 = i2, b3 = i3;

    a3 = VXor(a3, m0a);
    b3 = VXor(b3, m0b);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    a0 = VXor(a0, m0a);
    b0 = VXor(b0, m0b);

    a3 = VXor(a3, m1a);
    b3 = VXor(b3, m1b);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    a0 = VXor(a0, m1a);
    b0 = VXor(b0, m1b);

    a2 = VXor(a2, ff);
    b2 = VXor(b2, ff);
    for (int r = 0; r < 4; ++r) {
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
    }

    const __m128i ra = VXor(VXor(a0, a1), VXor(a2, a3));
    const __m128i rb = VXor(VXor(b0, b1), VXor(b2, b3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), ra);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 2), rb);
  }
}

}  // namespace siphash_internal

#endif  // x86_64

}  // namespace catmark
