#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/certificate.h"
#include "core/detect_engine.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/siphash_simd.h"
#include "service/service.h"
#include "test_util.h"

namespace catmark {
namespace {

// ---------------------------------------------------------------- fixtures

/// (K STRING CATEGORICAL, A STRING CATEGORICAL) with heavily repeated keys
/// — the dict-code gather path, where one prepared message serves many rows.
Relation DictKeyRelation(std::size_t num_tuples = 2400,
                         std::size_t num_keys = 400,
                         std::size_t domain_size = 24,
                         std::uint64_t seed = 11) {
  Schema schema =
      Schema::Create({{"K", ColumnType::kString, /*categorical=*/true},
                      {"A", ColumnType::kString, /*categorical=*/true}})
          .value();
  Relation rel(schema);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < num_tuples; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t h = state >> 17;
    Row row;
    row.emplace_back("cust-" + std::to_string(h % num_keys));
    row.emplace_back("val-" + std::to_string((h / num_keys) % domain_size));
    rel.AppendRowUnchecked(std::move(row));
  }
  return rel;
}

struct Marked {
  Relation rel;
  BitVector wm;
  EmbedReport report;
  WatermarkKeySet keys;
  WatermarkParams params;
};

Marked EmbedOn(Relation rel, PrfKind prf, std::uint64_t e = 4) {
  Marked m;
  m.rel = std::move(rel);
  m.keys = testutil::TestKeys();
  m.params.e = e;
  m.params.prf = prf;
  // Pin a short payload: on the dict-key fixture the position channel has
  // one slot per *distinct* fit key (~num_keys / e), so a derived N/e-long
  // payload would be mostly erasures by construction.
  m.params.payload_length = 12;
  m.wm = testutil::TestWatermark(12);
  EmbedOptions options;
  options.key_attr = testutil::kKeyAttr;
  options.target_attr = testutil::kTargetAttr;
  const Embedder embedder(m.keys, m.params);
  m.report = embedder.Embed(m.rel, options, m.wm).value();
  return m;
}

std::vector<KeyCandidate> CandidatesFor(const Marked& m) {
  // The true keys plus wrong keys and a wrong-parameter claim: a sweep's
  // population is mostly non-owners, so parity must hold off the happy path.
  std::vector<KeyCandidate> candidates;
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{101},
                                   std::uint64_t{202}, std::uint64_t{303}}) {
    KeyCandidate c;
    c.keys = seed == 0 ? m.keys : WatermarkKeySet::FromSeed(seed);
    c.params = m.params;
    c.params.payload_length = m.report.payload_length;
    c.wm_len = m.wm.size();
    candidates.push_back(std::move(c));
  }
  candidates.back().params.e = 7;  // wrong e claimed in its certificate
  return candidates;
}

void ExpectSameDetection(const DetectionResult& got,
                         const DetectionResult& want) {
  EXPECT_EQ(got.wm, want.wm);
  EXPECT_EQ(got.num_tuples, want.num_tuples);
  EXPECT_EQ(got.fit_tuples, want.fit_tuples);
  EXPECT_EQ(got.usable_votes, want.usable_votes);
  EXPECT_EQ(got.payload_length, want.payload_length);
  EXPECT_EQ(got.positions_present, want.positions_present);
  EXPECT_EQ(got.payload_fill, want.payload_fill);
  EXPECT_EQ(got.prf, want.prf);
  EXPECT_EQ(got.bit_confidence, want.bit_confidence);
}

// The acceptance bar of this refactor: DetectMany and the engine's single
// Detect are bit-identical to a standalone Detector::Detect for every
// candidate, across PRF backends x thread counts, on both key layouts.
void RunParitySweep(bool dict_keys) {
  for (const PrfKind prf : {PrfKind::kKeyedHash, PrfKind::kSipHash24}) {
    Marked m = EmbedOn(dict_keys ? DictKeyRelation()
                                 : testutil::SmallKeyedRelation(),
                       prf);
    const std::vector<KeyCandidate> candidates = CandidatesFor(m);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      // Reference: one standalone Detector per candidate.
      std::vector<DetectionResult> expected;
      for (const KeyCandidate& c : candidates) {
        WatermarkParams params = c.params;
        params.num_threads = threads;
        DetectOptions options;
        options.key_attr = testutil::kKeyAttr;
        options.target_attr = testutil::kTargetAttr;
        options.domain = m.report.domain;
        options.payload_length = c.params.payload_length;
        const Detector detector(c.keys, params);
        expected.push_back(detector.Detect(m.rel, options, c.wm_len).value());
      }
      EXPECT_EQ(expected[0].wm, m.wm)
          << "true keys must recover the mark (prf=" << static_cast<int>(prf)
          << ", threads=" << threads << ")";
      EXPECT_NE(expected[1].wm, m.wm) << "wrong keys must not";

      DetectEngineOptions options;
      options.key_attr = testutil::kKeyAttr;
      options.target_attr = testutil::kTargetAttr;
      options.domain = m.report.domain;
      options.num_threads = threads;
      const DetectEngine engine =
          DetectEngine::Create(m.rel, options).value();
      EXPECT_EQ(engine.dict_keys(), dict_keys);
      EXPECT_EQ(engine.num_rows(), m.rel.NumRows());
      if (dict_keys) {
        EXPECT_LT(engine.num_messages(), m.rel.NumRows())
            << "repeated keys must fold into fewer prepared messages";
      }

      const std::vector<Result<DetectionResult>> many =
          engine.DetectMany(std::span<const KeyCandidate>(candidates));
      ASSERT_EQ(many.size(), candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        ASSERT_TRUE(many[i].ok()) << many[i].status().ToString();
        ExpectSameDetection(many[i].value(), expected[i]);
        EXPECT_EQ(many[i].value().rows_scanned, engine.num_rows());
        EXPECT_EQ(many[i].value().messages_hashed, engine.num_messages());

        const DetectionResult single = engine.Detect(candidates[i]).value();
        ExpectSameDetection(single, expected[i]);
      }
    }
  }
}

TEST(DetectEngineTest, ParityPlainKeys) { RunParitySweep(false); }

TEST(DetectEngineTest, ParityDictKeys) { RunParitySweep(true); }

// ------------------------------------------------------------- edge cases

TEST(DetectEngineTest, EmptyRelationFailsCleanly) {
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}})
                   .value());
  DetectEngineOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  const Result<DetectEngine> engine = DetectEngine::Create(rel, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsFailedPrecondition());
}

TEST(DetectEngineTest, UnknownAttributeFailsCleanly) {
  Relation rel = DictKeyRelation(50);
  DetectEngineOptions options;
  options.key_attr = "NOPE";
  options.target_attr = "A";
  const Result<DetectEngine> engine = DetectEngine::Create(rel, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsNotFound());
}

KeyCandidate PlainCandidate(std::size_t payload_length = 16,
                            std::size_t wm_len = 8) {
  KeyCandidate c;
  c.keys = testutil::TestKeys();
  c.params.e = 5;
  c.params.prf = PrfKind::kKeyedHash;
  c.params.payload_length = payload_length;
  c.wm_len = wm_len;
  return c;
}

TEST(DetectEngineTest, AllNullKeysDetectCleanlyOnBothLayouts) {
  for (const bool dict : {false, true}) {
    Relation rel(Schema::Create({{"K",
                                  dict ? ColumnType::kString
                                       : ColumnType::kInt64,
                                  dict},
                                 {"A", ColumnType::kString, true}})
                     .value());
    for (int i = 0; i < 40; ++i) {
      Row row;
      row.emplace_back();  // NULL key: unfit, never a prepared message
      row.emplace_back(i % 2 == 0 ? "left" : "right");
      rel.AppendRowUnchecked(std::move(row));
    }
    DetectEngineOptions options;
    options.key_attr = "K";
    options.target_attr = "A";
    const DetectEngine engine = DetectEngine::Create(rel, options).value();
    EXPECT_EQ(engine.dict_keys(), dict);
    EXPECT_EQ(engine.num_messages(), 0u);

    const DetectionResult result = engine.Detect(PlainCandidate()).value();
    EXPECT_EQ(result.fit_tuples, 0u);
    EXPECT_EQ(result.usable_votes, 0u);
    EXPECT_EQ(result.positions_present, 0u);
  }
}

TEST(DetectEngineTest, AllNullTargetWithProvidedDomainDetectsCleanly) {
  // Zero live dict entries in the target attribute: detection must run on
  // the provided domain and report zero usable votes, never crash.
  Relation rel(Schema::Create({{"K", ColumnType::kInt64, false},
                               {"A", ColumnType::kString, true}})
                   .value());
  for (int i = 0; i < 40; ++i) {
    Row row;
    row.emplace_back(static_cast<std::int64_t>(i));
    row.emplace_back();  // NULL target everywhere
    rel.AppendRowUnchecked(std::move(row));
  }
  DetectEngineOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.domain = CategoricalDomain::FromValues(
                       {Value("left"), Value("right")})
                       .value();
  const DetectEngine engine = DetectEngine::Create(rel, options).value();

  const DetectionResult result = engine.Detect(PlainCandidate()).value();
  EXPECT_GT(result.fit_tuples, 0u);  // fitness is key-only; rows still fit
  EXPECT_EQ(result.usable_votes, 0u);
  EXPECT_EQ(result.positions_present, 0u);

  // And the Detector front door agrees.
  WatermarkParams params;
  params.e = 5;
  params.prf = PrfKind::kKeyedHash;
  DetectOptions detect_options;
  detect_options.key_attr = "K";
  detect_options.target_attr = "A";
  detect_options.domain = *options.domain;
  detect_options.payload_length = 16;
  const Detector detector(testutil::TestKeys(), params);
  const DetectionResult front = detector.Detect(rel, detect_options, 8).value();
  EXPECT_EQ(front.usable_votes, 0u);
  EXPECT_EQ(front.fit_tuples, result.fit_tuples);
}

TEST(DetectEngineTest, DetectManyIsolatesBadCandidates) {
  const Marked m = EmbedOn(DictKeyRelation(), PrfKind::kKeyedHash);
  std::vector<KeyCandidate> candidates = CandidatesFor(m);
  candidates[1].wm_len = 0;                       // invalid mark length
  candidates[2].keys.k2 = candidates[2].keys.k1;  // k1 == k2
  KeyCandidate zero_e = candidates[0];
  zero_e.params.e = 0;
  candidates.push_back(zero_e);

  DetectEngineOptions options;
  options.key_attr = testutil::kKeyAttr;
  options.target_attr = testutil::kTargetAttr;
  options.domain = m.report.domain;
  const DetectEngine engine = DetectEngine::Create(m.rel, options).value();

  const std::vector<Result<DetectionResult>> results =
      engine.DetectMany(std::span<const KeyCandidate>(candidates));
  ASSERT_EQ(results.size(), candidates.size());
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0].value().wm, m.wm);
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
  EXPECT_TRUE(results[2].status().IsInvalidArgument());
  ASSERT_TRUE(results[3].ok());  // wrong e is a valid (losing) claim
  EXPECT_TRUE(results[4].status().IsInvalidArgument());
}

// -------------------------------------------------------- key-lane blocks

using testutil::RunnableLevels;
using testutil::ScopedSimdLevel;

/// A sweep population for the key-lane grid: the true keys first, then
/// non-owners whose claims vary what each lane carries (e, payload length,
/// bit-index mode, mark length). Most are siphash24, so they form key-lane
/// blocks; keyed-hash (i % 10 == 2) and hmac-sha256 (i % 10 == 8) ones sit
/// between them and must run alone. Three siphash24 candidates per ten are
/// invalid inside a block — e = 0 (i % 10 == 3), k1 == k2 (5) and a payload
/// past the cap (6) — and must fail only their own entry.
std::vector<KeyCandidate> LaneCandidates(const Marked& m, std::size_t count) {
  std::vector<KeyCandidate> candidates;
  for (std::size_t i = 0; i < count; ++i) {
    KeyCandidate c;
    c.keys = m.keys;
    c.params = m.params;
    c.params.payload_length = m.report.payload_length;
    c.wm_len = m.wm.size();
    if (i > 0) {
      c.keys = WatermarkKeySet::FromSeed(500 + i);
      c.params.e = 3 + i % 4;
      c.params.payload_length = 12 + 4 * (i % 3);
      c.params.bit_index_mode =
          i % 2 == 0 ? BitIndexMode::kModulo : BitIndexMode::kMsbModL;
      c.wm_len = 8 + i % 5;
    }
    switch (i % 10) {
      case 2: c.params.prf = PrfKind::kKeyedHash; break;
      case 8: c.params.prf = PrfKind::kHmacSha256; break;
      case 3: c.params.e = 0; break;
      case 5: c.keys.k2 = c.keys.k1; break;
      case 6: c.params.payload_length = kMaxCertificatePayloadLength + 1; break;
      default: break;
    }
    candidates.push_back(std::move(c));
  }
  return candidates;
}

// DetectMany runs siphash24 candidates in key-lane blocks (16, 8 or 4 keys
// per kernel call by level); the engine's single Detect runs each alone on
// the message-lane kernels. The two must agree field for field for every
// candidate, for every block split (1, 7, 17 and 33 candidates leave
// remainders at every width), at every SIMD level x thread count, on the
// mixed-length dict layout and on the fixed-width int64 layout.
void RunKeyLaneParity(bool dict_keys) {
  const Marked m = EmbedOn(
      dict_keys ? DictKeyRelation() : testutil::SmallKeyedRelation(),
      PrfKind::kSipHash24);
  const std::vector<KeyCandidate> all = LaneCandidates(m, 33);
  const auto make_engine = [&](std::size_t threads) {
    DetectEngineOptions options;
    options.key_attr = testutil::kKeyAttr;
    options.target_attr = testutil::kTargetAttr;
    options.domain = m.report.domain;
    options.num_threads = threads;
    return DetectEngine::Create(m.rel, options).value();
  };

  for (const SimdLevel level : RunnableLevels()) {
    ScopedSimdLevel forced(level);
    std::vector<Result<DetectionResult>> expected;
    {
      const DetectEngine engine = make_engine(1);
      for (const KeyCandidate& c : all) expected.push_back(engine.Detect(c));
    }
    ASSERT_TRUE(expected[0].ok());
    EXPECT_EQ(expected[0].value().wm, m.wm) << "true keys must recover it";
    for (const std::size_t bad : {3, 5, 6, 13, 15, 16}) {
      EXPECT_TRUE(expected[bad].status().IsInvalidArgument()) << bad;
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      const DetectEngine engine = make_engine(threads);
      for (const std::size_t count : {std::size_t{1}, std::size_t{7},
                                      std::size_t{17}, std::size_t{33}}) {
        const std::vector<Result<DetectionResult>> many = engine.DetectMany(
            std::span<const KeyCandidate>(all.data(), count));
        ASSERT_EQ(many.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
          SCOPED_TRACE("level=" + std::string(SimdLevelName(level)) +
                       " threads=" + std::to_string(threads) +
                       " count=" + std::to_string(count) +
                       " candidate=" + std::to_string(i));
          ASSERT_EQ(many[i].ok(), expected[i].ok())
              << many[i].status().ToString();
          if (!many[i].ok()) {
            EXPECT_EQ(many[i].status().code(), expected[i].status().code());
            continue;
          }
          ExpectSameDetection(many[i].value(), expected[i].value());
          EXPECT_EQ(many[i].value().messages_hashed, engine.num_messages());
        }
      }
    }
  }
}

TEST(DetectEngineKeyLaneTest, DetectManyEqualsDetectDictKeys) {
  RunKeyLaneParity(true);
}

TEST(DetectEngineKeyLaneTest, DetectManyEqualsDetectInt64Keys) {
  RunKeyLaneParity(false);
}

// A payload length past kMaxCertificatePayloadLength sizes nothing: it is
// InvalidArgument from every place a caller can set it — the candidate's
// params, DetectEngineOptions, and DetectOptions on the one-shot (plain
// and dict key) and embedding-map paths.
TEST(DetectEngineTest, OversizedPayloadLengthIsInvalidArgument) {
  constexpr std::size_t kHuge = std::size_t{1} << 40;
  for (const bool dict : {false, true}) {
    const Marked m = EmbedOn(
        dict ? DictKeyRelation() : testutil::SmallKeyedRelation(),
        PrfKind::kSipHash24);
    DetectEngineOptions options;
    options.key_attr = testutil::kKeyAttr;
    options.target_attr = testutil::kTargetAttr;
    options.domain = m.report.domain;
    KeyCandidate candidate = CandidatesFor(m)[0];
    candidate.params.payload_length = kHuge;
    const DetectEngine engine = DetectEngine::Create(m.rel, options).value();
    EXPECT_TRUE(engine.Detect(candidate).status().IsInvalidArgument());
    EXPECT_TRUE(DetectEngine::DetectOneShot(m.rel, options, candidate)
                    .status()
                    .IsInvalidArgument());

    options.payload_length = kHuge;
    candidate.params.payload_length = 12;
    const DetectEngine overridden =
        DetectEngine::Create(m.rel, options).value();
    EXPECT_TRUE(overridden.Detect(candidate).status().IsInvalidArgument());
    EXPECT_TRUE(overridden.DetectMany(std::span<const KeyCandidate>(
                                          &candidate, 1))[0]
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(DetectEngine::DetectOneShot(m.rel, options, candidate)
                    .status()
                    .IsInvalidArgument());

    DetectOptions detect_options;
    detect_options.key_attr = testutil::kKeyAttr;
    detect_options.target_attr = testutil::kTargetAttr;
    detect_options.domain = m.report.domain;
    detect_options.payload_length = kHuge;
    const Detector detector(m.keys, m.params);
    EXPECT_TRUE(detector.Detect(m.rel, detect_options, m.wm.size())
                    .status()
                    .IsInvalidArgument());
    const EmbeddingMap map;
    detect_options.embedding_map = &map;
    EXPECT_TRUE(detector.Detect(m.rel, detect_options, m.wm.size())
                    .status()
                    .IsInvalidArgument());
  }
}

// ---------------------------------------------------------- service sweep

TEST(DetectEngineTest, SweepOwnershipRanksTrueOwnerFirst) {
  const Marked m = EmbedOn(DictKeyRelation(), PrfKind::kSipHash24);
  EmbedOptions embed_options;
  embed_options.key_attr = testutil::kKeyAttr;
  embed_options.target_attr = testutil::kTargetAttr;

  std::vector<OwnershipCandidate> candidates;
  {
    OwnershipCandidate owner;
    owner.id = "owner";
    owner.certificate = WatermarkCertificate::Create(
        m.keys, m.params, embed_options, m.report, m.wm);
    owner.keys = m.keys;
    candidates.push_back(std::move(owner));
  }
  for (const std::uint64_t seed : {std::uint64_t{41}, std::uint64_t{42}}) {
    OwnershipCandidate impostor;
    impostor.id = "impostor-" + std::to_string(seed);
    // Forged claim: the owner's public certificate with the impostor's keys
    // — the commitment mismatch must be reported, not veto the detection.
    impostor.certificate = candidates[0].certificate;
    impostor.keys = WatermarkKeySet::FromSeed(seed);
    candidates.push_back(std::move(impostor));
  }
  {
    OwnershipCandidate bad;
    bad.id = "bad-attrs";
    bad.certificate = candidates[0].certificate;
    bad.certificate.key_attr = "NO_SUCH_COLUMN";
    bad.keys = m.keys;
    candidates.push_back(std::move(bad));
  }

  const WatermarkService service;
  const SweepReport report =
      service
          .SweepOwnership(m.rel,
                          std::span<const OwnershipCandidate>(candidates))
          .value();

  ASSERT_EQ(report.ranked.size(), 3u);
  EXPECT_EQ(report.ranked[0].id, "owner");
  EXPECT_TRUE(report.ranked[0].commitment_verified);
  EXPECT_TRUE(report.ranked[0].decision.owned);
  EXPECT_EQ(report.ranked[0].detection.wm, m.wm);
  for (std::size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_FALSE(report.ranked[i].commitment_verified);
    EXPECT_FALSE(report.ranked[i].decision.owned);
  }
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.failed[0].first, "bad-attrs");
  EXPECT_TRUE(report.failed[0].second.IsNotFound());
  // One plan serves the three same-attribute candidates; the bad group
  // never builds one.
  EXPECT_EQ(report.plans_built, 1u);
  EXPECT_GT(report.messages_hashed, 0u);

  // Sweep results match a certificate-driven detection for the true owner.
  const CertifiedDetection certified =
      DetectWithCertificate(m.rel, candidates[0].certificate, m.keys).value();
  ExpectSameDetection(report.ranked[0].detection, certified.detection);
  EXPECT_EQ(report.ranked[0].decision.matched_bits,
            certified.decision.matched_bits);
}

TEST(DetectEngineTest, SweepOwnershipRejectsEmptyCandidateList) {
  const Relation rel = DictKeyRelation(50);
  const WatermarkService service;
  const Result<SweepReport> report =
      service.SweepOwnership(rel, std::span<const OwnershipCandidate>());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

}  // namespace
}  // namespace catmark
