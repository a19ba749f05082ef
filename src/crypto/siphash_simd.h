#ifndef CATMARK_CRYPTO_SIPHASH_SIMD_H_
#define CATMARK_CRYPTO_SIPHASH_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "common/bits.h"
#include "crypto/siphash.h"

namespace catmark {

/// Vector widths the multi-lane SipHash-2-4 backend can run at. Ordered so
/// that a numeric comparison is a capability comparison: every level can be
/// clamped down to what the hardware (or the operator) allows.
///
///   - kScalar: the reference loop in siphash.cc, one message at a time.
///   - kSse2:   4 independent messages per call (two 2-lane state sets).
///   - kAvx2:   8 independent messages per call (two 4-lane state sets).
///
/// The key-lane shape (SipHash24KeyLanes) has one more width: under kAvx2,
/// a CPU that also reports AVX-512F+VL runs 16 keys per call. It is not a
/// level of its own — CATMARK_SIMD=avx2 selects it where the hardware has
/// it, and sse2/off clamp below it as usual.
///
/// Every level is bit-identical to kScalar for every message — the lanes
/// run the exact SipRound sequence on independent state, so the choice is
/// purely a throughput knob, never a compatibility one.
enum class SimdLevel { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Registered name of a level ("off", "sse2", "avx2").
std::string_view SimdLevelName(SimdLevel level);

/// Name -> level: "avx2", "sse2", and "off" (alias "scalar"); anything else
/// is nullopt. Case-sensitive, like CATMARK_PRF.
std::optional<SimdLevel> SimdLevelFromName(std::string_view name);

/// The widest level this binary can run on this machine: compile-time
/// kernel availability AND the runtime CPUID check. Always kScalar off
/// x86-64.
SimdLevel HardwareSimdLevel();

/// The level batch hashing actually dispatches to: HardwareSimdLevel()
/// clamped by the CATMARK_SIMD environment variable ("avx2", "sse2", "off";
/// an unknown value is ignored with a one-line stderr warning — unlike
/// CATMARK_PRF a typo here cannot change any result, only the speed) and by
/// ForceSimdLevel. A request above the hardware level clamps down, so
/// CATMARK_SIMD=avx2 on an SSE2-only box runs SSE2, not illegal
/// instructions.
SimdLevel ActiveSimdLevel();

/// Process-wide dispatch override, clamped to HardwareSimdLevel():
/// parity tests and benches sweep levels in-process with it. nullopt
/// restores the environment/hardware default. Not intended for production
/// configuration — that is what CATMARK_SIMD is for.
void ForceSimdLevel(std::optional<SimdLevel> level);

/// Batch SipHash-2-4 over an (arena, bounds) message block: out[i] covers
/// arena bytes [bounds[i], bounds[i + 1]), so bounds.size() must be
/// out.size() + 1 (an empty batch is the single bound {0}). Equal-length
/// runs — including the fixed-width serialized-key layout detection
/// produces — go through the multi-lane kernels directly; mixed lengths
/// are bucketed by length and flushed lane-group by lane-group, with a
/// scalar tail for partial groups and messages longer than the bucket cap.
/// Bit-identical to the scalar loop at every level.
void SipHash24Batch(std::uint64_t k0, std::uint64_t k1,
                    const std::uint8_t* arena,
                    std::span<const std::size_t> bounds,
                    std::span<std::uint64_t> out);

/// Fixed-shape batch: out[i] = SipHash24 of the `len` bytes at
/// base + i * stride (stride >= len; stride == len is the packed
/// equal-length arena). No per-message bounds lookups — this is the layout
/// the detect engine's RelationPlan emits for fixed-width keys.
void SipHash24Fixed(std::uint64_t k0, std::uint64_t k1,
                    const std::uint8_t* base, std::size_t len,
                    std::size_t stride, std::span<std::uint64_t> out);

/// Batch over scattered string_view messages (sizes must match): the
/// Hash64Column shape. Same bucketing and bit-identity as SipHash24Batch.
void SipHash24Views(std::uint64_t k0, std::uint64_t k1,
                    std::span<const std::string_view> inputs,
                    std::span<std::uint64_t> out);

/// Batch over canonical int64-key messages: out[i] = SipHash24 of the
/// 9-byte serialization tag 0x01 + big-endian vals[i] — without ever
/// materializing those bytes. A 9-byte message is exactly two SipHash input
/// blocks, and both are pure ALU functions of the value
/// (block0 = 0x01 | byteswap64(v) << 8, tail = 9 << 56 | byteswap64(v) >> 56),
/// so the AVX2 path assembles them in vector registers from two contiguous
/// loads of `vals` — no byte stores, no lane gathers, no per-lane tail
/// switch. Bit-identical to SerializeForHash + the scalar loop at every
/// dispatch level.
void SipHash24Int64Keys(std::uint64_t k0, std::uint64_t k1,
                        const std::int64_t* vals, std::size_t count,
                        std::span<std::uint64_t> out);

/// Most keys one key-lane kernel call hashes under (the AVX-512 width).
inline constexpr std::size_t kMaxKeyLanes = 16;

/// Keys per key-lane kernel call at the active level: 16 under kAvx2 on a
/// CPU with AVX-512F+VL (two 8-lane zmm state sets), 8 under kAvx2
/// otherwise (two 4-lane ymm sets), 4 under kSse2 (two 2-lane xmm sets),
/// and 8 for the scalar loop, which has no width of its own (8 keeps a
/// caller's key blocks the same as under AVX2).
std::size_t KeyLaneWidth();

/// Key-lane batch, the transpose of SipHash24Batch: many keys, each message
/// hashed under all of them. For every key l and message i (arena bytes
/// [bounds[i], bounds[i + 1]), so bounds.size() is the message count + 1),
/// out[l * out_stride + i] = SipHash24(keys[l].k0, keys[l].k1, message i).
/// out_stride must be >= the message count. The lanes of one call are
/// keys, not messages: each message word is loaded once and broadcast to
/// every lane, so the kernel needs no lane gathers and no length buckets,
/// whatever the message lengths. Keys go through the kernel KeyLaneWidth()
/// at a time; a short last group pads its lanes with copies of its last key
/// and stores only the real ones. Bit-identical to the scalar loop at every
/// level and for every key count.
void SipHash24KeyLanes(std::span<const SipHashKey> keys,
                       const std::uint8_t* arena,
                       std::span<const std::size_t> bounds, std::uint64_t* out,
                       std::size_t out_stride);

/// Packs `check(h[i])` into a bitset: bit (i mod 64) of words[i / 64] is 1
/// iff the divisor exactly divides h[i]; trailing bits of the last word are
/// zero. `words` must hold ceil(count / 64) entries. The scalar multiply in
/// DivisibilityCheck cannot auto-vectorize (no 64-bit vector multiply before
/// AVX-512), so the AVX2 kernel decomposes h * odd_inv into vpmuludq
/// cross-products and does the unsigned compare sign-biased — this is the
/// detect hot loop's fitness test, which is why it lives with the SIMD
/// dispatch rather than in common/. Identical output at every level.
void DivisibilityMask64(const DivisibilityCheck& check, const std::uint64_t* h,
                        std::size_t count, std::uint64_t* words);

}  // namespace catmark

#endif  // CATMARK_CRYPTO_SIPHASH_SIMD_H_
