// The only translation unit compiled with -mavx512f -mavx512vl (see
// crypto/CMakeLists): nothing here runs unless the key-lane dispatch in
// siphash_simd.cc saw Avx512KeyLanesSupported() — the kernels compiled and
// the CPU reports AVX-512F and AVX-512VL.

#include "crypto/siphash_simd_internal.h"

#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#endif

namespace catmark::siphash_internal {

bool Avx512KernelsCompiled() {
#if defined(__AVX512F__) && defined(__AVX512VL__)
  return true;
#else
  return false;
#endif
}

#if defined(__AVX512F__) && defined(__AVX512VL__)

namespace {

inline __m512i VAdd(__m512i a, __m512i b) { return _mm512_add_epi64(a, b); }
inline __m512i VXor(__m512i a, __m512i b) { return _mm512_xor_si512(a, b); }

}  // namespace

// vprolq takes its count as an immediate, which an inline function's
// parameter is not at -O0; as macros the round's literal counts reach the
// instruction directly, and every rotate (32 included) is one micro-op. The
// all-lanes zero-masking form is the same instruction; the unmasked
// intrinsic's undefined source trips GCC 12's -Wmaybe-uninitialized.
#define VRotl(x, b) _mm512_maskz_rol_epi64(0xff, (x), (b))
#define VRotl32(x) VRotl((x), 32)

void SipHash24KeyLanesAvx512(const std::uint64_t* k0, const std::uint64_t* k1,
                             std::size_t num_keys, const std::uint8_t* arena,
                             const std::size_t* bounds, std::size_t count,
                             std::uint64_t* out, std::size_t out_stride) {
  // Keys {0..7} in the a* state set, {8..15} in b*; the initial state is
  // computed once per call and every message word is one broadcast.
  const __m512i ka0 = _mm512_loadu_si512(k0);
  const __m512i kb0 = _mm512_loadu_si512(k0 + 8);
  const __m512i ka1 = _mm512_loadu_si512(k1);
  const __m512i kb1 = _mm512_loadu_si512(k1 + 8);
  const __m512i c0 =
      _mm512_set1_epi64(static_cast<long long>(0x736f6d6570736575ULL));
  const __m512i c1 =
      _mm512_set1_epi64(static_cast<long long>(0x646f72616e646f6dULL));
  const __m512i c2 =
      _mm512_set1_epi64(static_cast<long long>(0x6c7967656e657261ULL));
  const __m512i c3 =
      _mm512_set1_epi64(static_cast<long long>(0x7465646279746573ULL));
  const __m512i ia0 = VXor(c0, ka0), ia1 = VXor(c1, ka1);
  const __m512i ia2 = VXor(c2, ka0), ia3 = VXor(c3, ka1);
  const __m512i ib0 = VXor(c0, kb0), ib1 = VXor(c1, kb1);
  const __m512i ib2 = VXor(c2, kb0), ib3 = VXor(c3, kb1);
  const __m512i ff = _mm512_set1_epi64(0xff);
  alignas(64) std::uint64_t lane_out[16];

  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* p = arena + bounds[i];
    const std::size_t len = bounds[i + 1] - bounds[i];
    __m512i a0 = ia0, a1 = ia1, a2 = ia2, a3 = ia3;
    __m512i b0 = ib0, b1 = ib1, b2 = ib2, b3 = ib3;
    const std::size_t tail_at = len - (len % 8);
    for (std::size_t off = 0; off != tail_at; off += 8) {
      const __m512i m =
          _mm512_set1_epi64(static_cast<long long>(LoadLe64(p + off)));
      a3 = VXor(a3, m);
      b3 = VXor(b3, m);
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
      CATMARK_SIP_VROUND(a0, a1, a2, a3);
      CATMARK_SIP_VROUND(b0, b1, b2, b3);
      a0 = VXor(a0, m);
      b0 = VXor(b0, m);
    }
    const __m512i f = _mm512_set1_epi64(
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
    _mm512_store_si512(lane_out, VXor(VXor(a0, a1), VXor(a2, a3)));
    _mm512_store_si512(lane_out + 8, VXor(VXor(b0, b1), VXor(b2, b3)));
    for (std::size_t l = 0; l < num_keys; ++l) {
      out[l * out_stride + i] = lane_out[l];
    }
  }
}

#undef VRotl
#undef VRotl32

#elif defined(__x86_64__) || defined(_M_X64)

// Built without AVX-512 codegen (non-GNU toolchain or an explicit opt-out):
// Avx512KernelsCompiled() returns false above, so dispatch never lands here.
void SipHash24KeyLanesAvx512(const std::uint64_t*, const std::uint64_t*,
                             std::size_t, const std::uint8_t*,
                             const std::size_t*, std::size_t, std::uint64_t*,
                             std::size_t) {}

#endif  // __AVX512F__ && __AVX512VL__

}  // namespace catmark::siphash_internal
