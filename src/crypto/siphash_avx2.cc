// The only translation unit compiled with -mavx2 (see crypto/CMakeLists):
// nothing here runs unless the runtime dispatch in siphash_simd.cc saw both
// Avx2KernelsCompiled() and the AVX2 CPUID bit.

#include "crypto/siphash_simd_internal.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace catmark::siphash_internal {

bool Avx2KernelsCompiled() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

#if defined(__AVX2__)

namespace {

inline __m256i VAdd(__m256i a, __m256i b) { return _mm256_add_epi64(a, b); }
inline __m256i VXor(__m256i a, __m256i b) { return _mm256_xor_si256(a, b); }
inline __m256i VRotl(__m256i x, int b) {
  // rotl by 16 is a byte permutation, so it runs as one shuffle micro-op
  // instead of shift+shift+or — the rounds are port-throughput-bound, and
  // SipRound has one rotl16 per call, so this trims them measurably. `b`
  // is always a literal; the branch folds at compile time.
  if (b == 16) {
    const __m256i k16 =
        _mm256_setr_epi8(6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13,
                         6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13);
    return _mm256_shuffle_epi8(x, k16);
  }
  return _mm256_or_si256(_mm256_slli_epi64(x, b), _mm256_srli_epi64(x, 64 - b));
}
// rotl64 by 32 == swap the 32-bit halves of each 64-bit lane.
inline __m256i VRotl32(__m256i x) {
  return _mm256_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1));
}

inline __m256i Gather4(const std::uint8_t* const* p, std::size_t first,
                       std::size_t off) {
  return _mm256_set_epi64x(
      static_cast<long long>(LoadLe64(p[first + 3] + off)),
      static_cast<long long>(LoadLe64(p[first + 2] + off)),
      static_cast<long long>(LoadLe64(p[first + 1] + off)),
      static_cast<long long>(LoadLe64(p[first + 0] + off)));
}

}  // namespace

void SipHash24x8Avx2(std::uint64_t k0, std::uint64_t k1,
                     const std::uint8_t* const* ptrs, std::size_t len,
                     std::uint64_t* out) {
  const __m256i i0 =
      _mm256_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL ^ k0));
  const __m256i i1 =
      _mm256_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL ^ k1));
  const __m256i i2 =
      _mm256_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL ^ k0));
  const __m256i i3 =
      _mm256_set1_epi64x(static_cast<long long>(0x7465646279746573ULL ^ k1));
  // Two 4-lane state sets: lanes {0..3} in a*, lanes {4..7} in b*, advanced
  // in lockstep so eight dependency chains interleave.
  __m256i a0 = i0, a1 = i1, a2 = i2, a3 = i3;
  __m256i b0 = i0, b1 = i1, b2 = i2, b3 = i3;

  const std::size_t tail_at = len - (len % 8);
  for (std::size_t off = 0; off != tail_at; off += 8) {
    const __m256i ma = Gather4(ptrs, 0, off);
    const __m256i mb = Gather4(ptrs, 4, off);
    a3 = VXor(a3, ma);
    b3 = VXor(b3, mb);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
    a0 = VXor(a0, ma);
    b0 = VXor(b0, mb);
  }

  const __m256i fa = _mm256_set_epi64x(
      static_cast<long long>(SipTailBlock(ptrs[3] + tail_at, len)),
      static_cast<long long>(SipTailBlock(ptrs[2] + tail_at, len)),
      static_cast<long long>(SipTailBlock(ptrs[1] + tail_at, len)),
      static_cast<long long>(SipTailBlock(ptrs[0] + tail_at, len)));
  const __m256i fb = _mm256_set_epi64x(
      static_cast<long long>(SipTailBlock(ptrs[7] + tail_at, len)),
      static_cast<long long>(SipTailBlock(ptrs[6] + tail_at, len)),
      static_cast<long long>(SipTailBlock(ptrs[5] + tail_at, len)),
      static_cast<long long>(SipTailBlock(ptrs[4] + tail_at, len)));
  a3 = VXor(a3, fa);
  b3 = VXor(b3, fb);
  CATMARK_SIP_VROUND(a0, a1, a2, a3);
  CATMARK_SIP_VROUND(b0, b1, b2, b3);
  CATMARK_SIP_VROUND(a0, a1, a2, a3);
  CATMARK_SIP_VROUND(b0, b1, b2, b3);
  a0 = VXor(a0, fa);
  b0 = VXor(b0, fb);

  const __m256i ff = _mm256_set1_epi64x(0xff);
  a2 = VXor(a2, ff);
  b2 = VXor(b2, ff);
  for (int r = 0; r < 4; ++r) {
    CATMARK_SIP_VROUND(a0, a1, a2, a3);
    CATMARK_SIP_VROUND(b0, b1, b2, b3);
  }

  const __m256i ra = VXor(VXor(a0, a1), VXor(a2, a3));
  const __m256i rb = VXor(VXor(b0, b1), VXor(b2, b3));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), ra);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), rb);
}

void SipHash24KeyLanesAvx2(const std::uint64_t* k0, const std::uint64_t* k1,
                           std::size_t num_keys, const std::uint8_t* arena,
                           const std::size_t* bounds, std::size_t count,
                           std::uint64_t* out, std::size_t out_stride) {
  // Keys {0..3} in the a* state set, {4..7} in b*; the initial state is
  // computed once per call and every message word is one broadcast.
  const __m256i ka0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k0));
  const __m256i kb0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k0 + 4));
  const __m256i ka1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k1));
  const __m256i kb1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k1 + 4));
  const __m256i c0 =
      _mm256_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL));
  const __m256i c1 =
      _mm256_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL));
  const __m256i c2 =
      _mm256_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL));
  const __m256i c3 =
      _mm256_set1_epi64x(static_cast<long long>(0x7465646279746573ULL));
  const __m256i ia0 = VXor(c0, ka0), ia1 = VXor(c1, ka1);
  const __m256i ia2 = VXor(c2, ka0), ia3 = VXor(c3, ka1);
  const __m256i ib0 = VXor(c0, kb0), ib1 = VXor(c1, kb1);
  const __m256i ib2 = VXor(c2, kb0), ib3 = VXor(c3, kb1);
  const __m256i ff = _mm256_set1_epi64x(0xff);
  alignas(32) std::uint64_t lane_out[8];

  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* p = arena + bounds[i];
    const std::size_t len = bounds[i + 1] - bounds[i];
    __m256i a0 = ia0, a1 = ia1, a2 = ia2, a3 = ia3;
    __m256i b0 = ib0, b1 = ib1, b2 = ib2, b3 = ib3;
    const std::size_t tail_at = len - (len % 8);
    for (std::size_t off = 0; off != tail_at; off += 8) {
      const __m256i m =
          _mm256_set1_epi64x(static_cast<long long>(LoadLe64(p + off)));
      a3 = VXor(a3, m);
      b3 = VXor(b3, m);
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
      a0 = VXor(a0, m);
      b0 = VXor(b0, m);
    }
    const __m256i f = _mm256_set1_epi64x(
        static_cast<long long>(SipTailBlock(p + tail_at, len)));
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
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_out),
                       VXor(VXor(a0, a1), VXor(a2, a3)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_out + 4),
                       VXor(VXor(b0, b1), VXor(b2, b3)));
    for (std::size_t l = 0; l < num_keys; ++l) {
      out[l * out_stride + i] = lane_out[l];
    }
  }
}

void SipHash24Int64BatchAvx2(std::uint64_t k0, std::uint64_t k1,
                             const std::int64_t* vals, std::size_t count,
                             std::uint64_t* out) {
  // Per-64-bit-lane byteswap: shuffle_epi8 works within each 128-bit half,
  // so one control vector reverses the bytes of every qword.
  const __m256i kBswap64 =
      _mm256_setr_epi8(7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8,
                       7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8);
  const __m256i kTag = _mm256_set1_epi64x(1);  // serialization tag 0x01
  const __m256i kLen =
      _mm256_set1_epi64x(static_cast<long long>(9ULL << 56));  // len mod 256
  const __m256i ff = _mm256_set1_epi64x(0xff);
  const __m256i i0 =
      _mm256_set1_epi64x(static_cast<long long>(0x736f6d6570736575ULL ^ k0));
  const __m256i i1 =
      _mm256_set1_epi64x(static_cast<long long>(0x646f72616e646f6dULL ^ k1));
  const __m256i i2 =
      _mm256_set1_epi64x(static_cast<long long>(0x6c7967656e657261ULL ^ k0));
  const __m256i i3 =
      _mm256_set1_epi64x(static_cast<long long>(0x7465646279746573ULL ^ k1));

  for (std::size_t i = 0; i < count; i += 8) {
    // The 9-byte record [0x01][BE payload] read as two little-endian
    // SipHash blocks: block0 = 0x01 | bswap(v) << 8,
    // tail = 9 << 56 | bswap(v) >> 56.
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i + 4));
    const __m256i sa = _mm256_shuffle_epi8(va, kBswap64);
    const __m256i sb = _mm256_shuffle_epi8(vb, kBswap64);
    const __m256i m0a = _mm256_or_si256(_mm256_slli_epi64(sa, 8), kTag);
    const __m256i m0b = _mm256_or_si256(_mm256_slli_epi64(sb, 8), kTag);
    const __m256i m1a = _mm256_or_si256(_mm256_srli_epi64(sa, 56), kLen);
    const __m256i m1b = _mm256_or_si256(_mm256_srli_epi64(sb, 56), kLen);

    __m256i a0 = i0, a1 = i1, a2 = i2, a3 = i3;
    __m256i b0 = i0, b1 = i1, b2 = i2, b3 = i3;

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

    const __m256i ra = VXor(VXor(a0, a1), VXor(a2, a3));
    const __m256i rb = VXor(VXor(b0, b1), VXor(b2, b3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), ra);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), rb);
  }
}

std::uint64_t DivisibilityMaskWordAvx2(std::uint64_t odd_inv,
                                       std::uint64_t odd_limit,
                                       std::uint64_t pow2_mask,
                                       const std::uint64_t* h) {
  // h * odd_inv mod 2^64 with only 32x32->64 multiplies: split odd_inv into
  // halves; the low product is full width, the two cross products land in
  // the top half (their own overflow falls out of the modulus).
  const __m256i inv_lo =
      _mm256_set1_epi64x(static_cast<long long>(odd_inv & 0xffffffffULL));
  const __m256i inv_hi = _mm256_set1_epi64x(static_cast<long long>(odd_inv >> 32));
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(pow2_mask));
  // cmpgt_epi64 is signed; xor both sides with the sign bit to compare
  // unsigned.
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i limit_b =
      _mm256_set1_epi64x(static_cast<long long>(odd_limit ^
                                                0x8000000000000000ULL));
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t word = 0;
  for (int g = 0; g < 16; ++g) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + 4 * g));
    const __m256i lo = _mm256_mul_epu32(a, inv_lo);
    const __m256i cross = _mm256_add_epi64(
        _mm256_mul_epu32(a, inv_hi),
        _mm256_mul_epu32(_mm256_srli_epi64(a, 32), inv_lo));
    const __m256i prod = _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
    const __m256i over =
        _mm256_cmpgt_epi64(_mm256_xor_si256(prod, bias), limit_b);
    const __m256i mask_ok =
        _mm256_cmpeq_epi64(_mm256_and_si256(a, vmask), zero);
    const __m256i fit = _mm256_andnot_si256(over, mask_ok);
    const unsigned bits = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(fit)));
    word |= static_cast<std::uint64_t>(bits) << (4 * g);
  }
  return word;
}

#elif defined(__x86_64__) || defined(_M_X64)

// Built without -mavx2 (non-GNU toolchain or an explicit opt-out):
// Avx2KernelsCompiled() returns false above, so dispatch never lands here.
void SipHash24x8Avx2(std::uint64_t, std::uint64_t, const std::uint8_t* const*,
                     std::size_t, std::uint64_t*) {}
void SipHash24KeyLanesAvx2(const std::uint64_t*, const std::uint64_t*,
                           std::size_t, const std::uint8_t*,
                           const std::size_t*, std::size_t, std::uint64_t*,
                           std::size_t) {}
void SipHash24Int64BatchAvx2(std::uint64_t, std::uint64_t, const std::int64_t*,
                             std::size_t, std::uint64_t*) {}
std::uint64_t DivisibilityMaskWordAvx2(std::uint64_t, std::uint64_t,
                                       std::uint64_t, const std::uint64_t*) {
  return 0;
}

#endif  // __AVX2__

}  // namespace catmark::siphash_internal
