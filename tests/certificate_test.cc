#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/certificate.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/histogram.h"
#include "relation/ops.h"
#include "random/rng.h"

namespace catmark {
namespace {

struct CertTestData {
  Relation marked;
  WatermarkKeySet keys = WatermarkKeySet::FromPassphrase("cert-owner");
  WatermarkParams params;
  BitVector wm;
  WatermarkCertificate cert;
};

CertTestData MakeSetup() {
  CertTestData s;
  KeyedCategoricalConfig gen;
  gen.num_tuples = 5000;
  gen.domain_size = 80;
  gen.seed = 111;
  s.marked = GenerateKeyedCategorical(gen);
  s.params.e = 40;
  s.wm = MakeWatermark(10, 111);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(s.keys, s.params).Embed(s.marked, options, s.wm).value();
  const auto freqs = FrequencyHistogram::Compute(
                         s.marked, 1, report.domain)
                         .value()
                         .Frequencies();
  s.cert = WatermarkCertificate::Create(s.keys, s.params, options, report,
                                        s.wm, freqs, "ItemScan sample #1");
  return s;
}

TEST(CertificateTest, SerializationRoundTrips) {
  const CertTestData s = MakeSetup();
  const std::string text = s.cert.Serialize();
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(text).value();
  EXPECT_TRUE(back == s.cert);
}

TEST(CertificateTest, CarriesEverythingDetectionNeeds) {
  const CertTestData s = MakeSetup();
  const WatermarkCertificate cert =
      WatermarkCertificate::Deserialize(s.cert.Serialize()).value();
  // Detect purely from certificate + keys.
  const Detector detector(s.keys, cert.params);
  DetectOptions options;
  options.key_attr = cert.key_attr;
  options.target_attr = cert.target_attr;
  options.payload_length = cert.payload_length;
  options.domain = cert.domain;
  const DetectionResult detection =
      detector.Detect(s.marked, options, cert.wm.size()).value();
  EXPECT_EQ(detection.wm, cert.wm);
}

TEST(CertificateTest, KeyCommitmentVerifies) {
  const CertTestData s = MakeSetup();
  EXPECT_TRUE(s.cert.VerifyKeys(s.keys));
  EXPECT_FALSE(s.cert.VerifyKeys(WatermarkKeySet::FromPassphrase("mallory")));
}

TEST(CertificateTest, CommitmentDoesNotRevealKeys) {
  // The commitment is a single SHA-256: 64 hex chars, not the key bytes.
  const CertTestData s = MakeSetup();
  EXPECT_EQ(s.cert.key_commitment_hex.size(), 64u);
  EXPECT_EQ(s.cert.Serialize().find(s.keys.k1.ToHex()), std::string::npos);
}

TEST(CertificateTest, IntegerDomainRoundTrips) {
  SalesGenConfig gen;
  gen.num_tuples = 2000;
  gen.num_items = 50;
  Relation rel = GenerateItemScan(gen);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(112);
  WatermarkParams params;
  EmbedOptions options;
  options.key_attr = "Visit_Nbr";
  options.target_attr = "Item_Nbr";
  const BitVector wm = MakeWatermark(10, 112);
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();
  const WatermarkCertificate cert =
      WatermarkCertificate::Create(keys, params, options, report, wm);
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(cert.Serialize()).value();
  EXPECT_TRUE(back == cert);
  EXPECT_TRUE(back.domain.value(0).is_int64());
}

TEST(CertificateTest, NonDefaultParamsRoundTrip) {
  CertTestData s = MakeSetup();
  s.cert.params.ecc = EccKind::kHamming74;
  s.cert.params.hash_algo = HashAlgorithm::kSha1;
  s.cert.params.bit_index_mode = BitIndexMode::kMsbModL;
  s.cert.params.min_category_keep = 7;
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(s.cert.Serialize()).value();
  EXPECT_TRUE(back == s.cert);
}

TEST(CertificateTest, RecordsThePrfBackendUsed) {
  // Embed under the fast backend: the certificate must pin it so dispute-
  // time detection re-verifies with the right primitive.
  CertTestData s;
  KeyedCategoricalConfig gen;
  gen.num_tuples = 5000;
  gen.domain_size = 80;
  gen.seed = 111;
  s.marked = GenerateKeyedCategorical(gen);
  s.params.e = 40;
  s.params.prf = PrfKind::kSipHash24;
  s.wm = MakeWatermark(10, 111);
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const EmbedReport report =
      Embedder(s.keys, s.params).Embed(s.marked, options, s.wm).value();
  EXPECT_EQ(report.prf, PrfKind::kSipHash24);
  s.cert = WatermarkCertificate::Create(s.keys, s.params, options, report,
                                        s.wm);
  EXPECT_NE(s.cert.Serialize().find("prf=siphash24"), std::string::npos);

  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(s.cert.Serialize()).value();
  EXPECT_TRUE(back == s.cert);
  ASSERT_TRUE(back.params.prf.has_value());
  EXPECT_EQ(*back.params.prf, PrfKind::kSipHash24);

  // One-call certificate detection picks the backend up transparently.
  const CertifiedDetection result =
      DetectWithCertificate(s.marked, back, s.keys).value();
  EXPECT_TRUE(result.decision.owned);
  EXPECT_EQ(result.detection.prf, PrfKind::kSipHash24);
}

TEST(CertificateTest, LegacyCertificateWithoutPrfFieldStillVerifies) {
  // Certificates issued before the PRF subsystem carry no prf= line; they
  // must keep deserializing and must verify with the legacy keyed hash.
  const CertTestData s = MakeSetup();
  std::string text = s.cert.Serialize();
  const std::size_t pos = text.find("prf=");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, text.find('\n', pos) - pos + 1);
  ASSERT_EQ(text.find("prf="), std::string::npos);

  const WatermarkCertificate legacy =
      WatermarkCertificate::Deserialize(text).value();
  ASSERT_TRUE(legacy.params.prf.has_value());
  EXPECT_EQ(*legacy.params.prf, PrfKind::kKeyedHash);
  EXPECT_TRUE(legacy == s.cert);

  const CertifiedDetection result =
      DetectWithCertificate(s.marked, legacy, s.keys).value();
  EXPECT_TRUE(result.decision.owned);
  EXPECT_EQ(result.detection.wm, s.cert.wm);
}

TEST(CertificateTest, RejectsUnknownPrfName) {
  const CertTestData s = MakeSetup();
  std::string text = s.cert.Serialize();
  const std::size_t pos = text.find("prf=keyed-hash");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("prf=keyed-hash").size(), "prf=rot13");
  const auto result = WatermarkCertificate::Deserialize(text);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  // The error teaches the valid choices.
  EXPECT_NE(result.status().ToString().find("siphash24"), std::string::npos);
}

TEST(CertificateTest, RejectsGarbage) {
  EXPECT_FALSE(WatermarkCertificate::Deserialize("not a cert").ok());
  EXPECT_FALSE(WatermarkCertificate::Deserialize(
                   "catmark-certificate-v1\nbogus_field=1\n")
                   .ok());
  EXPECT_FALSE(WatermarkCertificate::Deserialize(
                   "catmark-certificate-v1\ndescription=x\n")
                   .ok());  // missing wm/payload
}

/// `text` with the value of line `field=` replaced by `value`.
std::string WithField(std::string text, const std::string& field,
                      const std::string& value) {
  const std::size_t pos = text.find("\n" + field + "=");
  EXPECT_NE(pos, std::string::npos) << field;
  const std::size_t begin = pos + field.size() + 2;
  text.replace(begin, text.find('\n', begin) - begin, value);
  return text;
}

TEST(CertificateTest, RejectsMalformedNumbers) {
  // Every numeric field parses its whole value: before, "e=abc" read as 0
  // and aborted detection on CHECK_GE(e, 1), "e=5x" read as 5, and a
  // garbled frequency read as 0.
  const std::string text = MakeSetup().cert.Serialize();
  const struct {
    const char* field;
    const char* value;
  } kCases[] = {
      {"e", "abc"},
      {"e", "0"},
      {"e", "40x"},
      {"e", " 40"},
      {"e", "-40"},
      {"e", ""},
      {"e", "99999999999999999999999"},
      {"payload_length", "12abc"},
      {"payload_length", "999999999999999"},
      {"min_category_keep", "1.5"},
      {"min_category_keep", "one"},
      {"frequencies", "0.5,abc"},
      {"frequencies", "0.5,,0.5"},
      {"frequencies", "0.5,"},
      {"bit_index_mode", "lsb"},
      {"bit_index_mode", "MSB"},
  };
  for (const auto& kase : kCases) {
    const auto result = WatermarkCertificate::Deserialize(
        WithField(text, kase.field, kase.value));
    ASSERT_FALSE(result.ok()) << kase.field << "=" << kase.value;
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << kase.field << "=" << kase.value << ": "
        << result.status().ToString();
  }
}

TEST(CertificateTest, AcceptsTheNumbersItWrites) {
  const CertTestData s = MakeSetup();
  const std::string text = s.cert.Serialize();
  const WatermarkCertificate msb =
      WatermarkCertificate::Deserialize(WithField(text, "bit_index_mode",
                                                  "msb"))
          .value();
  EXPECT_EQ(msb.params.bit_index_mode, BitIndexMode::kMsbModL);
  const WatermarkCertificate edge =
      WatermarkCertificate::Deserialize(
          WithField(WithField(WithField(text, "payload_length",
                                        std::to_string(
                                            kMaxCertificatePayloadLength)),
                              "min_category_keep", "-3"),
                    "frequencies", "inf,-0,1e-300,0.25"))
          .value();
  EXPECT_EQ(edge.payload_length, kMaxCertificatePayloadLength);
  EXPECT_EQ(edge.params.min_category_keep, -3);
  ASSERT_EQ(edge.frequencies.size(), 4u);
  EXPECT_TRUE(std::isinf(edge.frequencies[0]));
  EXPECT_EQ(edge.frequencies[3], 0.25);
  const WatermarkCertificate no_freqs =
      WatermarkCertificate::Deserialize(WithField(text, "frequencies", ""))
          .value();
  EXPECT_TRUE(no_freqs.frequencies.empty());
}

TEST(CertifiedDetectionTest, OneCallWorkflow) {
  const CertTestData s = MakeSetup();
  const CertifiedDetection result =
      DetectWithCertificate(s.marked, s.cert, s.keys).value();
  EXPECT_TRUE(result.decision.owned);
  EXPECT_EQ(result.detection.wm, s.cert.wm);
}

TEST(CertifiedDetectionTest, RefusesMismatchedKeys) {
  const CertTestData s = MakeSetup();
  const auto result = DetectWithCertificate(
      s.marked, s.cert, WatermarkKeySet::FromPassphrase("impostor"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("commitment"), std::string::npos);
}

TEST(CertifiedDetectionTest, SurvivesAttackThroughCertificate) {
  const CertTestData s = MakeSetup();
  Xoshiro256ss rng(7);
  const Relation kept = SampleRows(s.marked, 0.5, rng).value();
  const CertifiedDetection result =
      DetectWithCertificate(kept, s.cert, s.keys).value();
  EXPECT_TRUE(result.decision.owned);
}

TEST(CertificateTest, ValuesWithCommasSurvive) {
  // Hex-encoding must protect domain values containing the separators.
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}},
                              "K")
                   .value());
  for (int i = 0; i < 600; ++i) {
    rel.AppendRowUnchecked({Value(static_cast<std::int64_t>(i)),
                            Value(i % 2 ? "a,b=c" : "x\ny")});
  }
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(113);
  WatermarkParams params;
  params.e = 20;
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const BitVector wm = MakeWatermark(4, 113);
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, options, wm).value();
  const WatermarkCertificate cert =
      WatermarkCertificate::Create(keys, params, options, report, wm);
  const WatermarkCertificate back =
      WatermarkCertificate::Deserialize(cert.Serialize()).value();
  EXPECT_TRUE(back == cert);
  EXPECT_TRUE(back.domain.Contains(Value("a,b=c")));
  EXPECT_TRUE(back.domain.Contains(Value("x\ny")));
}

}  // namespace
}  // namespace catmark
