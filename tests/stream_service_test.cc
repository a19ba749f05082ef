// Streaming service equivalence suite: the batched StreamSession /
// WatermarkService path must be byte-identical to the seed-era
// one-row-at-a-time incremental path — same relation bytes, same dictionary
// code assignment, same detection outcome — across batch splits, PRF
// backends, cache configurations and service thread counts.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/certificate.h"
#include "core/codec.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "ecc/code.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "relation/csv.h"
#include "service/service.h"
#include "service/session.h"

namespace catmark {
namespace {

struct Fixture {
  Relation rel;
  WatermarkKeySet keys = WatermarkKeySet::FromSeed(91);
  WatermarkParams params;
  BitVector wm;
  EmbedOptions options;
  EmbedReport report;
};

Fixture MakeFixture(std::optional<PrfKind> prf = std::nullopt,
                    std::uint64_t seed = 91) {
  Fixture f;
  f.keys = WatermarkKeySet::FromSeed(seed);
  KeyedCategoricalConfig gen;
  gen.num_tuples = 3000;
  gen.domain_size = 100;
  gen.seed = seed;
  f.rel = GenerateKeyedCategorical(gen);
  f.params.e = 30;
  f.params.prf = prf;
  f.wm = MakeWatermark(10, seed);
  f.options.key_attr = "K";
  f.options.target_attr = "A";
  f.report = Embedder(f.keys, f.params).Embed(f.rel, f.options, f.wm).value();
  return f;
}

SessionSpec SpecOf(const Fixture& f) {
  return SessionSpec::FromEmbedReport(f.keys, f.params, f.options, f.report,
                                      f.wm);
}

DetectionResult Detect(const Fixture& f, const Relation& rel) {
  const Detector detector(f.keys, f.params);
  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.payload_length = f.report.payload_length;
  options.domain = f.report.domain;
  return detector.Detect(rel, options, f.wm.size()).value();
}

// A stream of rows with repeat-heavy keys (like a live feed re-inserting
// the same customers) plus a unique tail, deterministic in `seed`.
std::vector<Row> MakeStream(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool repeat = (rng() % 4) != 0;  // ~75% repeats of a small pool
    const std::int64_t key =
        repeat ? static_cast<std::int64_t>(1000000 + rng() % 200)
               : static_cast<std::int64_t>(2000000 + i);
    rows.push_back({Value(key), Value("V0001")});
  }
  return rows;
}

// True when the relations are byte-identical *including* dictionary code
// assignment (SameContent deliberately ignores code order; the streaming
// path promises to preserve it exactly).
void ExpectIdenticalState(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  EXPECT_EQ(WriteCsvString(a), WriteCsvString(b));
  for (std::size_t c = 0; c < a.schema().num_columns(); ++c) {
    ASSERT_EQ(a.store().IsDictColumn(c), b.store().IsDictColumn(c));
    if (!a.store().IsDictColumn(c)) continue;
    EXPECT_EQ(a.store().Codes(c), b.store().Codes(c)) << "column " << c;
    EXPECT_EQ(a.store().Dict(c).size(), b.store().Dict(c).size());
    for (std::size_t k = 0; k < a.store().Dict(c).size(); ++k) {
      EXPECT_EQ(a.store().Dict(c)[k], b.store().Dict(c)[k]);
    }
  }
}

// Independent single-shot reference built straight from the codec
// primitives — what Section 4.3 says each insert must do. Pins the batched
// path to the spec, not just to the legacy implementation.
Row ReferenceMarkedRow(const Fixture& f, Row row) {
  const auto prf_k1 =
      CreateKeyedPrf(f.report.prf, f.keys.k1, f.params.hash_algo);
  const auto prf_k2 =
      CreateKeyedPrf(f.report.prf, f.keys.k2, f.params.hash_algo);
  const BitVector wm_data = CreateEcc(f.params.ecc)
                                ->Encode(f.wm, f.report.payload_length)
                                .value();
  HashScratch scratch;
  const std::uint64_t h1 = HashValue(*prf_k1, row[0], scratch);
  if (h1 % f.params.e == 0) {
    const std::size_t idx =
        PayloadIndexFromHash(HashValue(*prf_k2, row[0], scratch),
                             f.report.payload_length, f.params.bit_index_mode);
    const std::size_t t = SelectValueIndex(h1, f.report.domain.size(),
                                           wm_data.Get(idx));
    row[1] = f.report.domain.value(t);
  }
  return row;
}

class StreamEquivalenceTest : public ::testing::TestWithParam<PrfKind> {};

TEST_P(StreamEquivalenceTest, BatchSplitsMatchOneAtATime) {
  const Fixture f = MakeFixture(GetParam());
  const std::vector<Row> stream = MakeStream(2000, 7);

  // Path 1: the legacy wrapper, one row at a time.
  Relation one_at_a_time = f.rel;
  const IncrementalWatermarker inc(f.keys, f.params, f.options, f.report,
                                   f.wm);
  std::size_t legacy_fit = 0;
  for (const Row& row : stream) {
    if (inc.Insert(one_at_a_time, row).value()) ++legacy_fit;
  }

  // Path 2: one giant batch.
  Relation one_batch = f.rel;
  StreamSession big = StreamSession::Create(SpecOf(f)).value();
  std::vector<Row> rows = stream;
  const BatchReport report =
      big.InsertBatch(one_batch, std::span<Row>(rows)).value();
  EXPECT_EQ(report.rows, stream.size());
  EXPECT_EQ(report.fit_rows, legacy_fit);
  // Repeat-heavy keys: far fewer PRF calls than rows.
  EXPECT_LT(report.hashed_keys, stream.size());
  EXPECT_EQ(big.total_rows(), stream.size());
  EXPECT_EQ(big.total_fit(), legacy_fit);
  ExpectIdenticalState(one_at_a_time, one_batch);

  // Path 3: random batch splits, resident cache warm across batches.
  Relation split_rel = f.rel;
  StreamSession split = StreamSession::Create(SpecOf(f)).value();
  std::mt19937_64 rng(13);
  rows = stream;
  std::size_t split_fit = 0;
  for (std::size_t at = 0; at < rows.size();) {
    const std::size_t len =
        std::min(rows.size() - at, 1 + rng() % 700);
    split_fit += split.InsertBatch(split_rel,
                                   std::span<Row>(&rows[at], len))
                     .value()
                     .fit_rows;
    at += len;
  }
  EXPECT_EQ(split_fit, legacy_fit);
  ExpectIdenticalState(one_at_a_time, split_rel);

  // Path 4: resident cache disabled — every batch re-hashes, same bytes.
  Relation uncached_rel = f.rel;
  SessionSpec uncached_spec = SpecOf(f);
  uncached_spec.key_cache_capacity = 0;
  StreamSession uncached = StreamSession::Create(std::move(uncached_spec))
                               .value();
  rows = stream;
  for (std::size_t at = 0; at < rows.size();) {
    const std::size_t len = std::min(rows.size() - at, std::size_t{257});
    ASSERT_TRUE(uncached
                    .InsertBatch(uncached_rel, std::span<Row>(&rows[at], len))
                    .ok());
    at += len;
  }
  EXPECT_EQ(uncached.cached_keys(), 0u);
  ExpectIdenticalState(one_at_a_time, uncached_rel);

  // Every path must still detect the offline-embedded mark.
  EXPECT_EQ(Detect(f, one_batch).wm, f.wm);

  // And the batched rows match the from-first-principles reference.
  std::mt19937_64 pick(29);
  for (int i = 0; i < 20; ++i) {
    const std::size_t j = pick() % stream.size();
    const Row expected = ReferenceMarkedRow(f, stream[j]);
    const std::size_t row_index = f.rel.NumRows() + j;
    EXPECT_EQ(one_batch.Get(row_index, 0), expected[0]);
    EXPECT_EQ(one_batch.Get(row_index, 1), expected[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamEquivalenceTest,
                         ::testing::Values(PrfKind::kKeyedHash,
                                           PrfKind::kSipHash24),
                         [](const auto& info) {
                           return std::string(
                               info.param == PrfKind::kKeyedHash
                                   ? "KeyedHash"
                                   : "SipHash24");
                         });

TEST(StreamSessionTest, ChunkBoundariesDoNotChangeVerdicts) {
  // A batch larger than kKeyHashBatch forces multiple Hash64Column chunks
  // inside one InsertBatch; keys repeating across chunk boundaries must
  // resolve identically.
  const Fixture f = MakeFixture();
  std::vector<Row> stream = MakeStream(3 * kKeyHashBatch + 37, 17);

  Relation batched = f.rel;
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  ASSERT_TRUE(session.InsertBatch(batched, std::span<Row>(stream)).ok());

  Relation serial = f.rel;
  const IncrementalWatermarker inc(f.keys, f.params, f.options, f.report,
                                   f.wm);
  for (const Row& row : MakeStream(3 * kKeyHashBatch + 37, 17)) {
    ASSERT_TRUE(inc.Insert(serial, row).ok());
  }
  ExpectIdenticalState(serial, batched);
}

TEST(StreamSessionTest, NullKeysAreUnfitAndAppended) {
  const Fixture f = MakeFixture();
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  Relation rel = f.rel;
  std::vector<Row> rows;
  rows.push_back({Value(), Value("V0001")});
  const BatchReport report =
      session.InsertBatch(rel, std::span<Row>(rows)).value();
  EXPECT_EQ(report.rows, 1u);
  EXPECT_EQ(report.fit_rows, 0u);
  EXPECT_EQ(report.hashed_keys, 0u);
  EXPECT_EQ(rel.NumRows(), f.rel.NumRows() + 1);
}

TEST(StreamSessionTest, BatchesAreAtomicOnValidationErrors) {
  const Fixture f = MakeFixture();
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  Relation rel = f.rel;
  const std::string before = WriteCsvString(rel);

  // Arity error in the middle of the batch: nothing lands.
  std::vector<Row> bad_arity = MakeStream(10, 3);
  bad_arity[7] = {Value(std::int64_t{1})};
  EXPECT_FALSE(session.InsertBatch(rel, std::span<Row>(bad_arity)).ok());
  EXPECT_EQ(WriteCsvString(rel), before);

  // Type error: the key column is int64, hand it a string.
  std::vector<Row> bad_type = MakeStream(10, 3);
  bad_type[4][0] = Value("not-a-key");
  EXPECT_FALSE(session.InsertBatch(rel, std::span<Row>(bad_type)).ok());
  EXPECT_EQ(WriteCsvString(rel), before);

  // Unknown attribute: a relation without the key column.
  Relation wrong_schema(
      Schema::Create({{"X", ColumnType::kInt64, false}}).value());
  std::vector<Row> one = {{Value(std::int64_t{5})}};
  EXPECT_FALSE(session.InsertBatch(wrong_schema, std::span<Row>(one)).ok());
}

TEST(StreamSessionTest, RefreshReusesResidentStateAndRepairs) {
  // FitnessSelector below hashes with the keyed-hash backend, so pin it;
  // left to CATMARK_PRF, the session could pick another and disagree.
  Fixture f = MakeFixture(PrfKind::kKeyedHash);
  StreamSession session = StreamSession::Create(SpecOf(f)).value();
  const FitnessSelector fitness(f.keys.k1, f.params.e);
  std::size_t fit_row = f.rel.NumRows();
  for (std::size_t i = 0; i < f.rel.NumRows(); ++i) {
    if (fitness.IsFit(f.rel.Get(i, 0))) {
      fit_row = i;
      break;
    }
  }
  ASSERT_LT(fit_row, f.rel.NumRows());
  const Value marked_value = f.rel.Get(fit_row, 1);
  ASSERT_TRUE(f.rel.Set(fit_row, 1, Value("V0002")).ok());
  EXPECT_TRUE(session.Refresh(f.rel, fit_row).value());
  EXPECT_EQ(f.rel.Get(fit_row, 1), marked_value);
  // The verdict is resident now; a second refresh hits the cache.
  EXPECT_GE(session.cached_keys(), 1u);
  EXPECT_TRUE(session.Refresh(f.rel, fit_row).value());
  EXPECT_FALSE(session.Refresh(f.rel, f.rel.NumRows()).ok());
}

TEST(SessionSpecTest, FromEmbedReportPinsThePrfBackend) {
  Fixture f = MakeFixture(PrfKind::kSipHash24);
  ASSERT_EQ(f.report.prf, PrfKind::kSipHash24);
  WatermarkParams auto_params = f.params;
  auto_params.prf.reset();  // the later-process default
  const SessionSpec spec = SessionSpec::FromEmbedReport(
      f.keys, auto_params, f.options, f.report, f.wm);
  ASSERT_TRUE(spec.params.prf.has_value());
  EXPECT_EQ(*spec.params.prf, PrfKind::kSipHash24);
}

TEST(SessionSpecTest, ValidateRejectsBrokenSpecs) {
  const Fixture f = MakeFixture();
  ASSERT_TRUE(SpecOf(f).Validate().ok());

  SessionSpec no_prf = SpecOf(f);
  no_prf.params.prf.reset();
  EXPECT_FALSE(no_prf.Validate().ok());

  SessionSpec no_wm = SpecOf(f);
  no_wm.wm = BitVector();
  EXPECT_FALSE(no_wm.Validate().ok());

  SessionSpec short_payload = SpecOf(f);
  short_payload.payload_length = f.wm.size() - 1;
  EXPECT_FALSE(short_payload.Validate().ok());

  SessionSpec tiny_domain = SpecOf(f);
  tiny_domain.domain =
      CategoricalDomain::FromValues({Value("only")}).value();
  EXPECT_FALSE(tiny_domain.Validate().ok());

  SessionSpec bad_keys = SpecOf(f);
  bad_keys.keys.k2 = bad_keys.keys.k1;
  EXPECT_FALSE(bad_keys.Validate().ok());

  SessionSpec bad_e = SpecOf(f);
  bad_e.params.e = 0;
  EXPECT_FALSE(bad_e.Validate().ok());
  EXPECT_FALSE(StreamSession::Create(std::move(bad_e)).ok());
}

TEST(SessionSpecTest, FromCertificateVerifiesTheKeyCommitment) {
  const Fixture f = MakeFixture();
  const WatermarkCertificate cert = WatermarkCertificate::Create(
      f.keys, f.params, f.options, f.report, f.wm);

  const Result<SessionSpec> wrong =
      SessionSpec::FromCertificate(cert, WatermarkKeySet::FromSeed(4444));
  ASSERT_FALSE(wrong.ok());

  SessionSpec spec = SessionSpec::FromCertificate(cert, f.keys).value();
  EXPECT_EQ(spec.payload_length, f.report.payload_length);
  ASSERT_TRUE(spec.params.prf.has_value());

  // Inserts under the certificate spec are byte-identical to inserts under
  // the embed-report spec.
  const std::vector<Row> stream = MakeStream(500, 23);
  Relation from_cert = f.rel;
  Relation from_report = f.rel;
  StreamSession cert_session =
      StreamSession::Create(std::move(spec)).value();
  StreamSession report_session = StreamSession::Create(SpecOf(f)).value();
  std::vector<Row> a = stream;
  std::vector<Row> b = stream;
  ASSERT_TRUE(cert_session.InsertBatch(from_cert, std::span<Row>(a)).ok());
  ASSERT_TRUE(
      report_session.InsertBatch(from_report, std::span<Row>(b)).ok());
  ExpectIdenticalState(from_cert, from_report);
  // The grown relation still passes certificate-driven detection.
  const CertifiedDetection verdict =
      DetectWithCertificate(from_cert, cert, f.keys).value();
  EXPECT_EQ(verdict.detection.wm, f.wm);
}

TEST(WatermarkServiceTest, MultiplexedSessionsMatchSequentialAtEveryThreadCount) {
  // Three tenants with distinct keys/marks; one mixed batch stream. The
  // parallel executor must produce byte-identical relations at 1, 2 and 8
  // workers, all equal to running each session sequentially.
  constexpr std::size_t kSessions = 3;
  std::vector<Fixture> fixtures;
  for (std::size_t s = 0; s < kSessions; ++s) {
    fixtures.push_back(MakeFixture(std::nullopt, 100 + s));
  }

  // The mixed stream: interleaved per-session batches, deterministic.
  struct Piece {
    std::size_t fixture;
    std::vector<Row> rows;
  };
  std::vector<Piece> pieces;
  std::mt19937_64 rng(5);
  for (int round = 0; round < 12; ++round) {
    const std::size_t s = rng() % kSessions;
    pieces.push_back(Piece{s, MakeStream(50 + rng() % 300, rng())});
  }

  // Reference: each session sequentially.
  std::vector<Relation> expected;
  for (std::size_t s = 0; s < kSessions; ++s) {
    expected.push_back(fixtures[s].rel);
  }
  {
    std::vector<StreamSession> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(
          StreamSession::Create(SpecOf(fixtures[s])).value());
    }
    for (const Piece& piece : pieces) {
      std::vector<Row> rows = piece.rows;
      ASSERT_TRUE(sessions[piece.fixture]
                      .InsertBatch(expected[piece.fixture],
                                   std::span<Row>(rows))
                      .ok());
    }
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    WatermarkService service(ServiceOptions{threads});
    std::vector<std::size_t> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(
          service.Open(SpecOf(fixtures[s]), fixtures[s].rel).value());
    }
    EXPECT_EQ(service.num_sessions(), kSessions);
    std::vector<WatermarkService::SessionBatch> batches;
    for (const Piece& piece : pieces) {
      batches.push_back(
          WatermarkService::SessionBatch{ids[piece.fixture], piece.rows});
    }
    const std::vector<Result<BatchReport>> results =
        service.ExecuteBatches(std::span<WatermarkService::SessionBatch>(
            batches));
    ASSERT_EQ(results.size(), pieces.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i]->rows, pieces[i].rows.size());
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      ExpectIdenticalState(expected[s], service.relation(ids[s]));
      // Each grown tenant relation still detects its own mark.
      EXPECT_EQ(Detect(fixtures[s], service.relation(ids[s])).wm,
                fixtures[s].wm);
    }
    // Close hands the relation back and invalidates the handle.
    Relation closed = service.Close(ids[0]).value();
    ExpectIdenticalState(expected[0], closed);
    EXPECT_EQ(service.num_sessions(), kSessions - 1);
    EXPECT_FALSE(service.Close(ids[0]).ok());
    std::vector<Row> one = MakeStream(1, 1);
    EXPECT_FALSE(service.InsertBatch(ids[0], std::span<Row>(one)).ok());
  }
}

TEST(WatermarkServiceTest, BadSessionIdsFailTheirBatchOnly) {
  const Fixture f = MakeFixture();
  WatermarkService service;
  const std::size_t id = service.Open(SpecOf(f), f.rel).value();
  std::vector<WatermarkService::SessionBatch> batches;
  batches.push_back(WatermarkService::SessionBatch{id, MakeStream(20, 2)});
  batches.push_back(
      WatermarkService::SessionBatch{id + 999, MakeStream(20, 2)});
  batches.push_back(WatermarkService::SessionBatch{id, MakeStream(20, 3)});
  const auto results = service.ExecuteBatches(
      std::span<WatermarkService::SessionBatch>(batches));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(service.relation(id).NumRows(), f.rel.NumRows() + 40);
}

TEST(WatermarkServiceTest, OpenRejectsInvalidSpecs) {
  const Fixture f = MakeFixture();
  SessionSpec spec = SpecOf(f);
  spec.params.prf.reset();
  WatermarkService service;
  EXPECT_FALSE(service.Open(std::move(spec), f.rel).ok());
  EXPECT_EQ(service.num_sessions(), 0u);
}

}  // namespace
}  // namespace catmark
