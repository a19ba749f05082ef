#ifndef CATMARK_CRYPTO_SIPHASH_H_
#define CATMARK_CRYPTO_SIPHASH_H_

#include <cstdint>
#include <cstddef>

namespace catmark {

/// A SipHash-2-4 key as the two little-endian 64-bit halves the rounds
/// consume (k0 = key bytes 0..7, k1 = bytes 8..15).
struct SipHashKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

/// SipHash-2-4 (Aumasson & Bernstein, 2012): a fast keyed PRF with a
/// 128-bit key and 64-bit output, designed exactly for the "short-input
/// authentication" shape of the watermarking fitness test. This is the raw
/// primitive pinned by the reference test vectors; the KeyedPrf registry
/// wraps it behind key derivation from a SecretKey.
std::uint64_t SipHash24(std::uint64_t k0, std::uint64_t k1,
                        const std::uint8_t* data, std::size_t len);

/// As above with the key given as 16 bytes, split little-endian into
/// (k0, k1) — the layout of the published reference vectors.
std::uint64_t SipHash24(const std::uint8_t key[16], const std::uint8_t* data,
                        std::size_t len);

}  // namespace catmark

#endif  // CATMARK_CRYPTO_SIPHASH_H_
