#ifndef CATMARK_CRYPTO_SIPHASH_SIMD_INTERNAL_H_
#define CATMARK_CRYPTO_SIPHASH_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

// Shared between the SSE2, AVX2 and AVX-512 translation units (the latter
// two are the only files compiled with -mavx2 and -mavx512f -mavx512vl, so
// everything common lives here, not in siphash_simd.cc). Nothing in this
// header is part of the public API; tests call the kernels directly.

namespace catmark::siphash_internal {

/// A multi-lane equal-length kernel: out[l] = SipHash24(k0, k1, ptrs[l],
/// len) for every lane. The lane count is fixed per kernel (4 for SSE2,
/// 8 for AVX2) and every lane must point at `len` readable bytes.
using LaneKernel = void (*)(std::uint64_t k0, std::uint64_t k1,
                            const std::uint8_t* const* ptrs, std::size_t len,
                            std::uint64_t* out);

/// A key-lane kernel: for every message i < count (arena bytes
/// [bounds[i], bounds[i + 1])) and key l < num_keys,
/// out[l * out_stride + i] = SipHash24(k0[l], k1[l], message i). A kernel
/// computes a fixed number of key lanes (4 SSE2, 8 AVX2, 16 AVX-512), so
/// k0/k1 must hold that many keys (the dispatcher pads a short group with
/// copies); only the first num_keys <= lanes columns are stored.
using KeyLaneKernel = void (*)(const std::uint64_t* k0,
                               const std::uint64_t* k1, std::size_t num_keys,
                               const std::uint8_t* arena,
                               const std::size_t* bounds, std::size_t count,
                               std::uint64_t* out, std::size_t out_stride);

/// The scalar key-lane loop: any num_keys, no padding needed. The
/// reference the vector key-lane kernels are pinned against.
void SipHash24KeyLanesScalar(const std::uint64_t* k0, const std::uint64_t* k1,
                             std::size_t num_keys, const std::uint8_t* arena,
                             const std::size_t* bounds, std::size_t count,
                             std::uint64_t* out, std::size_t out_stride);

/// True when the translation unit holding the AVX2 kernels was compiled
/// with AVX2 codegen enabled (dispatch still checks the CPU at runtime).
bool Avx2KernelsCompiled();

/// True when the AVX-512 translation unit was compiled with AVX-512F+VL
/// codegen enabled.
bool Avx512KernelsCompiled();

/// Avx512KernelsCompiled() and the CPU reports AVX-512F and AVX-512VL: the
/// 16-key kernel may run. Cached after the first call.
bool Avx512KeyLanesSupported();

#if defined(__x86_64__) || defined(_M_X64)

/// 4 messages per call: two 2-lane SSE2 state sets advanced in lockstep.
void SipHash24x4Sse2(std::uint64_t k0, std::uint64_t k1,
                     const std::uint8_t* const* ptrs, std::size_t len,
                     std::uint64_t* out);

/// Canonical int64-key messages, 4 per iteration (count must be a multiple
/// of 4): blocks computed scalar (the per-qword byte shuffle needs SSSE3,
/// above this level), the round sequence vectorized as in SipHash24x4Sse2.
void SipHash24Int64BatchSse2(std::uint64_t k0, std::uint64_t k1,
                             const std::int64_t* vals, std::size_t count,
                             std::uint64_t* out);

/// 4 keys per message: two 2-lane SSE2 state sets (keys {0,1}, {2,3}).
void SipHash24KeyLanesSse2(const std::uint64_t* k0, const std::uint64_t* k1,
                           std::size_t num_keys, const std::uint8_t* arena,
                           const std::size_t* bounds, std::size_t count,
                           std::uint64_t* out, std::size_t out_stride);

/// 8 keys per message: two 4-lane AVX2 state sets. Only callable when
/// Avx2KernelsCompiled() and the CPU supports AVX2.
void SipHash24KeyLanesAvx2(const std::uint64_t* k0, const std::uint64_t* k1,
                           std::size_t num_keys, const std::uint8_t* arena,
                           const std::size_t* bounds, std::size_t count,
                           std::uint64_t* out, std::size_t out_stride);

/// 16 keys per message: two 8-lane AVX-512 state sets with native 64-bit
/// rotates. Only callable when Avx512KeyLanesSupported().
void SipHash24KeyLanesAvx512(const std::uint64_t* k0, const std::uint64_t* k1,
                             std::size_t num_keys, const std::uint8_t* arena,
                             const std::size_t* bounds, std::size_t count,
                             std::uint64_t* out, std::size_t out_stride);

/// 8 messages per call: two 4-lane AVX2 state sets advanced in lockstep.
/// Only callable when Avx2KernelsCompiled() and the CPU supports AVX2.
void SipHash24x8Avx2(std::uint64_t k0, std::uint64_t k1,
                     const std::uint8_t* const* ptrs, std::size_t len,
                     std::uint64_t* out);

/// Canonical int64-key messages, 8 per iteration (count must be a multiple
/// of 8): both input blocks of each 9-byte record assembled in vector
/// registers from two contiguous loads of `vals` (vector byteswap +
/// shifts), then the same round sequence as SipHash24x8Avx2. The group
/// loop lives inside so the key schedule and shuffle controls stay in
/// registers across groups. Same callability condition.
void SipHash24Int64BatchAvx2(std::uint64_t k0, std::uint64_t k1,
                             const std::int64_t* vals, std::size_t count,
                             std::uint64_t* out);

/// Exactly 64 hashes -> one divisibility-mask word (bit i covers h[i]):
/// the DivisibilityCheck test with the mod-2^64 multiply decomposed into
/// vpmuludq cross-products and the unsigned compare done sign-biased.
/// Same callability condition.
std::uint64_t DivisibilityMaskWordAvx2(std::uint64_t odd_inv,
                                       std::uint64_t odd_limit,
                                       std::uint64_t pow2_mask,
                                       const std::uint64_t* h);

// The helpers below are `static`: each kernel translation unit keeps its own
// copy, built with its own codegen flags, so an un-inlined copy from the
// AVX2 or AVX-512 unit (as at -O0) is never what an SSE2 path links to.

/// Little-endian unaligned 8-byte load (x86 only, hence the plain memcpy).
static inline std::uint64_t LoadLe64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// The scalar final-block assembly, shared verbatim by every lane: the
/// 0..7 tail bytes at `tail` (== data + 8 * (len / 8)) plus len mod 256 in
/// the top byte. Must stay bit-identical to the switch in siphash.cc.
static inline std::uint64_t SipTailBlock(const std::uint8_t* tail,
                                         std::size_t len) {
  std::uint64_t b = static_cast<std::uint64_t>(len & 0xff) << 56;
  switch (len % 8) {
    case 7: b |= static_cast<std::uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: b |= static_cast<std::uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: b |= static_cast<std::uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: b |= static_cast<std::uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: b |= static_cast<std::uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: b |= static_cast<std::uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1: b |= static_cast<std::uint64_t>(tail[0]); break;
    case 0: break;
  }
  return b;
}

// One SipRound over a vector of independent 64-bit lanes. The callers
// define VAdd/VXor/VRotl/VRotl32 for their vector width; the statement
// order mirrors SipRound in siphash.cc exactly, so each lane is
// bit-identical to the scalar reference by construction.
#define CATMARK_SIP_VROUND(v0, v1, v2, v3) \
  do {                                     \
    v0 = VAdd(v0, v1);                     \
    v1 = VRotl(v1, 13);                    \
    v1 = VXor(v1, v0);                     \
    v0 = VRotl32(v0);                      \
    v2 = VAdd(v2, v3);                     \
    v3 = VRotl(v3, 16);                    \
    v3 = VXor(v3, v2);                     \
    v0 = VAdd(v0, v3);                     \
    v3 = VRotl(v3, 21);                    \
    v3 = VXor(v3, v0);                     \
    v2 = VAdd(v2, v1);                     \
    v1 = VRotl(v1, 17);                    \
    v1 = VXor(v1, v2);                     \
    v2 = VRotl32(v2);                      \
  } while (0)

#endif  // x86_64

}  // namespace catmark::siphash_internal

#endif  // CATMARK_CRYPTO_SIPHASH_SIMD_INTERNAL_H_
