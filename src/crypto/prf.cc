#include "crypto/prf.h"

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/check.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/siphash.h"
#include "crypto/siphash_simd.h"

namespace catmark {

namespace {

constexpr PrfKind kRegisteredPrfs[] = {
    PrfKind::kKeyedHash, PrfKind::kHmacSha256, PrfKind::kSipHash24};

/// The paper-literal H(k;V;k) sandwich, delegating to KeyedHasher so this
/// backend can never drift from the construction every deployed watermark
/// was embedded with (golden tests pin the equivalence).
class KeyedHashPrf final : public KeyedPrf {
 public:
  KeyedHashPrf(const SecretKey& key, HashAlgorithm algo)
      : hasher_(key, algo) {}

  std::string_view Name() const override { return PrfKindName(kind()); }
  PrfKind kind() const override { return PrfKind::kKeyedHash; }

  std::uint64_t Hash64(const std::uint8_t* data,
                       std::size_t len) const override {
    return hasher_.Hash64(data, len);
  }

  void Hash64Column(std::span<const std::string_view> inputs,
                    std::span<std::uint64_t> out) const override {
    CATMARK_CHECK_EQ(inputs.size(), out.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      out[i] = hasher_.Hash64(
          reinterpret_cast<const std::uint8_t*>(inputs[i].data()),
          inputs[i].size());
    }
  }

 private:
  KeyedHasher hasher_;
};

/// RFC 2104 HMAC-SHA256; the ipad/opad key schedule lives in the Hmac
/// member, so it is derived once per PRF instance rather than per message.
class HmacSha256Prf final : public KeyedPrf {
 public:
  explicit HmacSha256Prf(const SecretKey& key)
      : hmac_(HashAlgorithm::kSha256, key.bytes()) {}

  std::string_view Name() const override { return PrfKindName(kind()); }
  PrfKind kind() const override { return PrfKind::kHmacSha256; }

  std::uint64_t Hash64(const std::uint8_t* data,
                       std::size_t len) const override {
    return hmac_.Compute(data, len).ToUint64();
  }

  void Hash64Column(std::span<const std::string_view> inputs,
                    std::span<std::uint64_t> out) const override {
    CATMARK_CHECK_EQ(inputs.size(), out.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      out[i] = hmac_
                   .Compute(reinterpret_cast<const std::uint8_t*>(
                                inputs[i].data()),
                            inputs[i].size())
                   .ToUint64();
    }
  }

 private:
  Hmac hmac_;
};

/// SipHash-2-4 over a 128-bit key derived as SHA-256(key bytes)[0..16):
/// SecretKey material is arbitrary-length, and hashing it first both
/// compresses long keys and whitens short ones, mirroring HMAC's treatment
/// of oversized keys.
class SipHash24Prf final : public KeyedPrf {
 public:
  explicit SipHash24Prf(const SecretKey& key)
      : key_(DeriveSipHash24Key(key)) {}

  std::string_view Name() const override { return PrfKindName(kind()); }
  PrfKind kind() const override { return PrfKind::kSipHash24; }

  std::uint64_t Hash64(const std::uint8_t* data,
                       std::size_t len) const override {
    return SipHash24(key_.k0, key_.k1, data, len);
  }

  // The batch forms all route through the multi-lane dispatcher
  // (crypto/siphash_simd.h): 8 messages per call under AVX2, 4 under SSE2,
  // the scalar reference loop otherwise — bit-identical at every level, so
  // the dispatch decision can never change a detection result.
  void Hash64Column(std::span<const std::string_view> inputs,
                    std::span<std::uint64_t> out) const override {
    SipHash24Views(key_.k0, key_.k1, inputs, out);
  }

  void Hash64Arena(const std::uint8_t* arena,
                   std::span<const std::size_t> bounds,
                   std::span<std::uint64_t> out) const override {
    SipHash24Batch(key_.k0, key_.k1, arena, bounds, out);
  }

  void Hash64Fixed(const std::uint8_t* base, std::size_t len,
                   std::size_t stride,
                   std::span<std::uint64_t> out) const override {
    SipHash24Fixed(key_.k0, key_.k1, base, len, stride, out);
  }

  void Hash64Int64Keys(const std::int64_t* vals, std::size_t count,
                       std::span<std::uint64_t> out) const override {
    SipHash24Int64Keys(key_.k0, key_.k1, vals, count, out);
  }

 private:
  SipHashKey key_;
};

}  // namespace

std::string_view PrfKindName(PrfKind kind) {
  switch (kind) {
    case PrfKind::kKeyedHash:
      return "keyed-hash";
    case PrfKind::kHmacSha256:
      return "hmac-sha256";
    case PrfKind::kSipHash24:
      return "siphash24";
  }
  return "unknown";
}

std::string RegisteredPrfNameList() {
  std::string out;
  for (const PrfKind kind : kRegisteredPrfs) {
    if (!out.empty()) out += ", ";
    out += PrfKindName(kind);
  }
  return out;
}

Result<PrfKind> PrfKindFromName(std::string_view name) {
  for (const PrfKind kind : kRegisteredPrfs) {
    if (PrfKindName(kind) == name) return kind;
  }
  return Status::InvalidArgument("unknown PRF backend '" + std::string(name) +
                                 "' (registered: " + RegisteredPrfNameList() +
                                 ")");
}

Result<PrfKind> ResolvePrfKindEnv(const char* text, PrfKind fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  return PrfKindFromName(text);
}

Result<PrfKind> ResolvePrfKind(const std::optional<PrfKind>& choice) {
  if (choice.has_value()) return *choice;
  return ResolvePrfKindEnv(std::getenv("CATMARK_PRF"), PrfKind::kKeyedHash);
}

void KeyedPrf::Hash64Column(std::span<const std::string_view> inputs,
                            std::span<std::uint64_t> out) const {
  CATMARK_CHECK_EQ(inputs.size(), out.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out[i] = Hash64(inputs[i]);
  }
}

void KeyedPrf::Hash64Arena(const std::uint8_t* arena,
                           std::span<const std::size_t> bounds,
                           std::span<std::uint64_t> out) const {
  CATMARK_CHECK_EQ(bounds.size(), out.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = Hash64(arena + bounds[i], bounds[i + 1] - bounds[i]);
  }
}

void KeyedPrf::Hash64Fixed(const std::uint8_t* base, std::size_t len,
                           std::size_t stride,
                           std::span<std::uint64_t> out) const {
  CATMARK_CHECK_GE(stride, len);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = Hash64(base + i * stride, len);
  }
}

void KeyedPrf::Hash64Int64Keys(const std::int64_t* vals, std::size_t count,
                               std::span<std::uint64_t> out) const {
  CATMARK_CHECK_EQ(count, out.size());
  // The canonical int64 record from Value::SerializeForHash: tag 0x01, then
  // the payload big-endian. Kept in sync by the parity tests in prf_test.
  std::uint8_t buf[9];
  buf[0] = 1;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(vals[i]);
    for (int b = 0; b < 8; ++b) {
      buf[1 + b] = static_cast<std::uint8_t>(v >> (8 * (7 - b)));
    }
    out[i] = Hash64(buf, sizeof(buf));
  }
}

SipHashKey DeriveSipHash24Key(const SecretKey& key) {
  Sha256 sha;
  const Digest d = sha.Hash(key.bytes().data(), key.bytes().size());
  SipHashKey out;
  for (int i = 7; i >= 0; --i) out.k0 = (out.k0 << 8) | d.bytes[i];
  for (int i = 15; i >= 8; --i) out.k1 = (out.k1 << 8) | d.bytes[i];
  return out;
}

std::unique_ptr<KeyedPrf> CreateKeyedPrf(PrfKind kind, const SecretKey& key,
                                         HashAlgorithm algo) {
  switch (kind) {
    case PrfKind::kKeyedHash:
      return std::make_unique<KeyedHashPrf>(key, algo);
    case PrfKind::kHmacSha256:
      return std::make_unique<HmacSha256Prf>(key);
    case PrfKind::kSipHash24:
      return std::make_unique<SipHash24Prf>(key);
  }
  CATMARK_CHECK(false) << "unreachable PrfKind";
  return nullptr;
}

}  // namespace catmark
