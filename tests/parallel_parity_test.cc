// Serial-vs-parallel parity: the pipelined embed/detect hot path must
// produce bit-identical EmbedReport / DetectionResult / relation contents
// for every thread count. Detection merges per-thread integer tallies;
// embedding runs a two-phase sharded apply pass (parallel classify,
// prefix-sum map-index assignment, parallel apply with spliced per-shard
// map segments) whose every output — relation bytes, report counters,
// serialized embedding map, ledger — must match the serial reference pass
// exactly. The randomized suite below proves that over ~50 trials of
// random schemas, domains, parameters and thread counts; run under TSan
// with CATMARK_THREADS swept in CI to also prove data-race freedom.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "common/parallel.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/sha256.h"
#include "crypto/siphash_simd.h"
#include "exp/harness.h"
#include "gen/sales_gen.h"
#include "quality/assessor.h"
#include "relation/catm_io.h"
#include "relation/csv.h"

namespace catmark {
namespace {

// ------------------------------------------------------------- ParallelFor

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t n : {0u, 1u, 7u, 100u}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(n, threads,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t j = begin; j < end; ++j) ++hits[j];
                  });
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(hits[j].load(), 1) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelForTest, ShardsAreContiguousAndOrdered) {
  const std::size_t n = 103;
  std::vector<std::pair<std::size_t, std::size_t>> shards(8, {0, 0});
  ParallelFor(n, 8, [&](std::size_t shard, std::size_t begin,
                        std::size_t end) { shards[shard] = {begin, end}; });
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : shards) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LE(begin, end);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, n);
}

TEST(ParallelForTest, EffectiveThreadCountClamps) {
  EXPECT_EQ(EffectiveThreadCount(8, 3), 3u);
  EXPECT_EQ(EffectiveThreadCount(2, 100), 2u);
  EXPECT_GE(EffectiveThreadCount(0, 100), 1u);
}

TEST(ParallelForTest, ShardBoundsPartitionExactly) {
  for (const std::size_t threads : {1u, 2u, 3u, 7u, 8u}) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 103u}) {
      const std::vector<std::size_t> bounds = ShardBounds(n, threads);
      ASSERT_EQ(bounds.size(), threads + 1);
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), n);
      for (std::size_t s = 0; s < threads; ++s) {
        EXPECT_LE(bounds[s], bounds[s + 1]);
        // Near-equal: no shard more than one item larger than another.
        EXPECT_LE(bounds[s + 1] - bounds[s], n / threads + 1);
      }
    }
  }
}

TEST(ParallelForTest, ShardBoundsMatchParallelForPartition) {
  const std::size_t n = 103;
  for (const std::size_t threads : {2u, 3u, 8u}) {
    const std::vector<std::size_t> bounds = ShardBounds(n, threads);
    std::vector<std::pair<std::size_t, std::size_t>> observed(threads);
    ParallelFor(n, threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  observed[shard] = {begin, end};
                });
    for (std::size_t s = 0; s < threads; ++s) {
      EXPECT_EQ(observed[s].first, bounds[s]) << "threads=" << threads;
      EXPECT_EQ(observed[s].second, bounds[s + 1]) << "threads=" << threads;
    }
  }
}

TEST(ParallelForTest, ExclusivePrefixSum) {
  std::vector<std::size_t> counts = {3, 0, 5, 1};
  EXPECT_EQ(ExclusivePrefixSum(counts), 9u);
  EXPECT_EQ(counts, (std::vector<std::size_t>{0, 3, 3, 8}));

  std::vector<std::size_t> empty;
  EXPECT_EQ(ExclusivePrefixSum(empty), 0u);

  std::vector<std::size_t> one = {7};
  EXPECT_EQ(ExclusivePrefixSum(one), 7u);
  EXPECT_EQ(one[0], 0u);
}

// ------------------------------------------------ CATMARK_THREADS parsing

TEST(ThreadCountEnvTest, MalformedInputsFallBackToHardware) {
  // One case per malformed shape: empty, words, digit/letter mixes, signs
  // (strtoul used to wrap "-4" into a huge positive count), whitespace,
  // hex/scientific notation, and zero.
  for (const char* bad : {"", "abc", "12abc", "abc12", "-4", "+8", " 8",
                          "8 ", "0x10", "1e3", "0", "00"}) {
    EXPECT_EQ(ResolveThreadCountEnv(bad, 4), 4u) << "input \"" << bad << "\"";
  }
  EXPECT_EQ(ResolveThreadCountEnv(nullptr, 4), 4u);
  // A zero hardware report (the standard allows it) still floors at 1.
  EXPECT_EQ(ResolveThreadCountEnv("junk", 0), 1u);
}

TEST(ThreadCountEnvTest, ValidInputsParseAndClamp) {
  EXPECT_EQ(ResolveThreadCountEnv("1", 4), 1u);
  EXPECT_EQ(ResolveThreadCountEnv("3", 4), 3u);
  // Modest oversubscription stays allowed — the sanitizer sweeps run 8
  // workers on small machines.
  EXPECT_EQ(ResolveThreadCountEnv("8", 1), 8u);
  // Oversized and overflowing values clamp to the hardware-derived ceiling
  // instead of spawning thousands of threads.
  EXPECT_EQ(ResolveThreadCountEnv("100000", 4), MaxEnvThreadCount(4));
  EXPECT_EQ(ResolveThreadCountEnv("99999999999999999999999999", 4),
            MaxEnvThreadCount(4));
}

TEST(ThreadCountEnvTest, MaxEnvThreadCountShape) {
  EXPECT_EQ(MaxEnvThreadCount(1), 8u);
  EXPECT_EQ(MaxEnvThreadCount(2), 8u);
  EXPECT_EQ(MaxEnvThreadCount(4), 16u);
  EXPECT_EQ(MaxEnvThreadCount(16), 64u);
  EXPECT_EQ(MaxEnvThreadCount(100), 256u);  // absolute cap
}

TEST(ThreadCountEnvTest, DefaultThreadCountSurvivesGarbageEnv) {
  const char* saved = std::getenv("CATMARK_THREADS");
  const std::string saved_copy = saved != nullptr ? saved : "";
  setenv("CATMARK_THREADS", "not-a-number", 1);
  EXPECT_GE(DefaultThreadCount(), 1u);
  setenv("CATMARK_THREADS", "-3", 1);
  EXPECT_GE(DefaultThreadCount(), 1u);
  setenv("CATMARK_THREADS", "2", 1);
  EXPECT_EQ(DefaultThreadCount(), 2u);
  if (saved != nullptr) {
    setenv("CATMARK_THREADS", saved_copy.c_str(), 1);
  } else {
    unsetenv("CATMARK_THREADS");
  }
}

// ------------------------------------------------------------------ parity

Relation StandardRelation(std::size_t n, std::uint64_t seed) {
  KeyedCategoricalConfig config;
  config.num_tuples = n;
  config.domain_size = 100;
  config.seed = seed;
  return GenerateKeyedCategorical(config);
}

EmbedOptions KA(bool map = false) {
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.build_embedding_map = map;
  return options;
}

void ExpectReportsEqual(const EmbedReport& a, const EmbedReport& b) {
  EXPECT_EQ(a.num_tuples, b.num_tuples);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.messages_hashed, b.messages_hashed);
  EXPECT_EQ(a.fit_tuples, b.fit_tuples);
  EXPECT_EQ(a.altered_tuples, b.altered_tuples);
  EXPECT_EQ(a.unchanged_tuples, b.unchanged_tuples);
  EXPECT_EQ(a.skipped_by_quality, b.skipped_by_quality);
  EXPECT_EQ(a.skipped_by_ledger, b.skipped_by_ledger);
  EXPECT_EQ(a.skipped_by_domain_guard, b.skipped_by_domain_guard);
  EXPECT_EQ(a.payload_length, b.payload_length);
  EXPECT_EQ(a.positions_written, b.positions_written);
  EXPECT_DOUBLE_EQ(a.alteration_fraction, b.alteration_fraction);
  EXPECT_TRUE(a.domain == b.domain);
  EXPECT_EQ(a.embedding_map.Serialize(), b.embedding_map.Serialize());
}

void ExpectDetectionsEqual(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.wm, b.wm);
  EXPECT_EQ(a.num_tuples, b.num_tuples);
  EXPECT_EQ(a.fit_tuples, b.fit_tuples);
  EXPECT_EQ(a.usable_votes, b.usable_votes);
  EXPECT_EQ(a.payload_length, b.payload_length);
  EXPECT_EQ(a.positions_present, b.positions_present);
  EXPECT_DOUBLE_EQ(a.payload_fill, b.payload_fill);
  ASSERT_EQ(a.bit_confidence.size(), b.bit_confidence.size());
  for (std::size_t i = 0; i < a.bit_confidence.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.bit_confidence[i], b.bit_confidence[i]);
  }
}

TEST(ParallelParityTest, EmbedIsBitIdenticalAcrossThreadCounts) {
  for (const bool map_mode : {false, true}) {
    Relation serial_rel = StandardRelation(5000, 41);
    WatermarkParams params;
    params.e = 25;
    params.num_threads = 1;
    const BitVector wm = MakeWatermark(10, 41);
    const EmbedReport serial =
        Embedder(WatermarkKeySet::FromSeed(41), params)
            .Embed(serial_rel, KA(map_mode), wm)
            .value();

    for (const std::size_t threads : {2u, 8u}) {
      Relation rel = StandardRelation(5000, 41);
      params.num_threads = threads;
      const EmbedReport report = Embedder(WatermarkKeySet::FromSeed(41), params)
                                     .Embed(rel, KA(map_mode), wm)
                                     .value();
      ExpectReportsEqual(serial, report);
      // Row-for-row identical, not just multiset-equal: the apply pass is
      // sequential regardless of plan threads.
      ASSERT_EQ(rel.NumRows(), serial_rel.NumRows());
      for (std::size_t j = 0; j < rel.NumRows(); ++j) {
        ASSERT_TRUE(rel.Get(j, 1) == serial_rel.Get(j, 1))
            << "row " << j << " threads=" << threads
            << " map_mode=" << map_mode;
      }
    }
  }
}

TEST(ParallelParityTest, DetectIsBitIdenticalAcrossThreadCounts) {
  Relation rel = StandardRelation(6000, 42);
  WatermarkParams params;
  params.e = 20;
  const BitVector wm = MakeWatermark(10, 42);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(42);
  const EmbedReport report = Embedder(keys, params).Embed(rel, KA(), wm).value();

  // An attacked suspect exercises the unfit / out-of-domain / missing-key
  // code paths, not just the clean tally.
  const Relation attacked =
      SubsetAdditionAttack(HorizontalPartitionAttack(rel, 0.7, 7).value(), 0.4,
                           8)
          .value();

  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.payload_length = report.payload_length;
  options.domain = report.domain;

  const std::vector<const Relation*> suspects = {&rel, &attacked};
  for (const Relation* suspect : suspects) {
    params.num_threads = 1;
    const DetectionResult serial =
        Detector(keys, params).Detect(*suspect, options, wm.size()).value();
    for (const std::size_t threads : {2u, 8u}) {
      params.num_threads = threads;
      const DetectionResult parallel =
          Detector(keys, params).Detect(*suspect, options, wm.size()).value();
      ExpectDetectionsEqual(serial, parallel);
    }
  }
}

TEST(ParallelParityTest, MapDetectionIsBitIdenticalAcrossThreadCounts) {
  Relation rel = StandardRelation(4000, 43);
  WatermarkParams params;
  params.e = 20;
  const BitVector wm = MakeWatermark(10, 43);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(43);
  const EmbedReport report =
      Embedder(keys, params).Embed(rel, KA(/*map=*/true), wm).value();

  DetectOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  options.payload_length = report.payload_length;
  options.domain = report.domain;
  options.embedding_map = &report.embedding_map;

  params.num_threads = 1;
  const DetectionResult serial =
      Detector(keys, params).Detect(rel, options, wm.size()).value();
  EXPECT_EQ(serial.wm, wm);
  for (const std::size_t threads : {2u, 8u}) {
    params.num_threads = threads;
    const DetectionResult parallel =
        Detector(keys, params).Detect(rel, options, wm.size()).value();
    ExpectDetectionsEqual(serial, parallel);
  }
}

TEST(ParallelParityTest, NullKeysParityAcrossThreadCounts) {
  Relation base = StandardRelation(3000, 44);
  for (std::size_t j = 0; j < 300; ++j) {
    ASSERT_TRUE(base.Set(j * 7 % base.NumRows(), 0, Value()).ok());
  }
  WatermarkParams params;
  params.e = 15;
  const BitVector wm = MakeWatermark(10, 44);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(44);

  params.num_threads = 1;
  Relation serial_rel = base;
  const EmbedReport serial =
      Embedder(keys, params).Embed(serial_rel, KA(), wm).value();
  for (const std::size_t threads : {2u, 8u}) {
    params.num_threads = threads;
    Relation rel = base;
    const EmbedReport report =
        Embedder(keys, params).Embed(rel, KA(), wm).value();
    ExpectReportsEqual(serial, report);
  }
}

// ------------------------------------ embed fast-path SIMD x thread grid

// A (K STRING, A STRING) relation: string keys take the serialized-arena
// hash path instead of the typed Hash64Int64Keys kernel.
Relation StringKeyRelation(std::size_t n, std::uint64_t seed) {
  Schema schema = Schema::Create({{"K", ColumnType::kString, false},
                                  {"A", ColumnType::kString, true}},
                                 "K")
                      .value();
  Relation rel(schema);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    // Variable-length keys so arena bounds are irregular across chunks.
    Value k("user-" + std::to_string(rng() % 900000));
    Value a("V" + std::to_string(rng() % 97));
    rel.AppendRowUnchecked({std::move(k), std::move(a)});
  }
  return rel;
}

// The embed pipeline (typed int64 key gather, arena fallback,
// DivisibilityMask64 fitness verdicts, fit-row classify/apply) swept over
// SIMD dispatch level x thread count x key-column shape, in both k2-position
// and embedding-map modes with a pre-marked ledger. Every cell must be
// byte-identical — CSV snapshot, report counters, serialized embedding map,
// ledger — to the serial scalar reference pass (force_serial_apply +
// ForceSimdLevel(kScalar) + one thread). CI runs this under
// CATMARK_SIMD={avx2,sse2,off} and TSan/ASan as well; the in-process
// ForceSimdLevel sweep here covers levels the env clamp would hide.
TEST(EmbedFastPathGridTest, BitIdenticalAcrossSimdLevelsAndThreads) {
  struct Flavor {
    const char* name;
    Relation rel;
  };
  std::vector<Flavor> flavors;
  // int64 keys: the typed Hash64Int64Keys chunk path.
  flavors.push_back({"int64-key", StandardRelation(2600, 91)});
  // string keys: the serialized-arena Hash64Arena path.
  flavors.push_back({"string-key", StringKeyRelation(2600, 92)});
  // NULL-heavy int64 keys: dense-chunk gather with lazy NULL backfill.
  Relation null_heavy = StandardRelation(2600, 93);
  for (std::size_t j = 0; j < null_heavy.NumRows(); j += 4) {
    ASSERT_TRUE(null_heavy.Set(j, 0, Value()).ok());
  }
  flavors.push_back({"null-heavy", std::move(null_heavy)});

  constexpr SimdLevel kLevels[] = {SimdLevel::kAvx2, SimdLevel::kSse2,
                                   SimdLevel::kScalar};
  constexpr std::size_t kLedgerStride = 5;
  constexpr std::size_t kTargetCol = 1;
  const BitVector wm = MakeWatermark(8, 91);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(91);

  for (const Flavor& flavor : flavors) {
    const auto premark = [&](EmbeddingLedger& ledger) {
      for (std::size_t j = 0; j < flavor.rel.NumRows(); j += kLedgerStride) {
        ledger.Mark(j, kTargetCol);
      }
    };
    for (const bool map_mode : {false, true}) {
      SCOPED_TRACE(std::string(flavor.name) +
                   " map=" + std::to_string(map_mode));
      WatermarkParams params;
      params.e = 7;
      // The backend with SIMD kernels — levels must be indistinguishable.
      params.prf = PrfKind::kSipHash24;
      params.min_category_keep = 0;

      // Reference: the serial apply pass, scalar dispatch.
      ForceSimdLevel(SimdLevel::kScalar);
      params.num_threads = 1;
      EmbedOptions ref_options = KA(map_mode);
      ref_options.force_serial_apply = true;
      Relation ref_rel = flavor.rel;
      EmbeddingLedger ref_ledger;
      premark(ref_ledger);
      const EmbedReport ref = Embedder(keys, params)
                                  .Embed(ref_rel, ref_options, wm, nullptr,
                                         &ref_ledger)
                                  .value();
      EXPECT_EQ(ref.apply_shards, 1u);
      const std::string ref_csv = WriteCsvString(ref_rel);

      for (const SimdLevel level : kLevels) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
          SCOPED_TRACE("simd=" + std::string(SimdLevelName(level)) +
                       " threads=" + std::to_string(threads));
          // Clamped to what the hardware supports; on an SSE2-only box the
          // kAvx2 cells re-run SSE2, which is still a valid parity cell.
          ForceSimdLevel(level);
          params.num_threads = threads;
          Relation rel = flavor.rel;
          EmbeddingLedger ledger;
          premark(ledger);
          const EmbedReport report = Embedder(keys, params)
                                         .Embed(rel, KA(map_mode), wm,
                                                nullptr, &ledger)
                                         .value();
          ExpectReportsEqual(ref, report);
          EXPECT_EQ(WriteCsvString(rel), ref_csv);
          EXPECT_EQ(ledger.size(), ref_ledger.size());
          for (std::size_t j = 0; j < flavor.rel.NumRows(); ++j) {
            ASSERT_EQ(ledger.IsMarked(j, kTargetCol),
                      ref_ledger.IsMarked(j, kTargetCol))
                << "row " << j;
          }
        }
      }
      ForceSimdLevel(std::nullopt);
    }
  }
  ForceSimdLevel(std::nullopt);
}

// ----------------------------------------- released-bytes golden grid

// A (K STRING categorical, A STRING categorical) relation: a
// dictionary-encoded key column takes the plan's per-dict-code cache, and
// rows sharing a key share its fitness verdict.
Relation DictKeyRelation(std::size_t n, std::uint64_t seed) {
  Schema schema = Schema::Create({{"K", ColumnType::kString, true},
                                  {"A", ColumnType::kString, true}},
                                 "")
                      .value();
  Relation rel(schema);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    Value k("cust-" + std::to_string(rng() % 700));
    // Twelve common values plus a long tail of mostly single-row ones, so
    // the draining guard at min_category_keep = 1 has categories to veto.
    const std::uint64_t r = rng() % 1000;
    Value a(r < 900 ? "V" + std::to_string(r % 12)
                    : "R" + std::to_string(rng() % 400));
    rel.AppendRowUnchecked({std::move(k), std::move(a)});
  }
  return rel;
}

// SHA-256 of the released .catm bytes after one embed, for every cell of
// draining guard on/off x embedding map on/off x ledger on/off x typed
// int64 / dictionary key column. The constants were captured from the
// per-row plan (fit bytes plus packed fitness words) that the sparse
// fit-row plan replaced, whose apply pass had separate fused (guard off),
// three-phase (guard on) and serial (map + guard) flavours; every cell
// runs at threads {1, 2, 8}, so the released bytes are pinned for all of
// them at once.
TEST(ReleasedBytesGoldenTest, CatmBytesMatchGoldenAtEveryThreadCount) {
  struct Cell {
    bool guard;
    bool map;
    bool ledger;
    bool dict_key;
    const char* sha256;
  };
  const Cell kCells[] = {
      {false, false, false, false,
       "10fbd588838d656eef04bb4bf91330dd1ef706532bbf2df497d03e076cf6de8d"},
      {false, false, false, true,
       "d5b9b66dbf3d5288d38f50bb3dd1c7c87617cc3bda827190c6feb10d7b2d4166"},
      {false, false, true, false,
       "295aab82a719a6566ed0468488682600e48a793141e8a6744d8d6d7fb837d525"},
      {false, false, true, true,
       "87aebca61d926ff54e2001c2c6e985cbdc38286a5416b8da2fbb6416ab884484"},
      {false, true, false, false,
       "665b36b34f7ec66f5aa9d814dcec8e9771d95b6609414230da5f7738de464c70"},
      {false, true, false, true,
       "98244c1b544283d4ee83330cd3190a5f69a9ce36f0094f9c8dbb1d522e44405f"},
      {false, true, true, false,
       "c040cb0010d6daba55f5795a4dede6f392767b14b6474e1284371c29b98d44bd"},
      {false, true, true, true,
       "19a9ed80c3741c6230074a451b2100b21e813b5b72b673b0d7a62b2257ba3e94"},
      {true, false, false, false,
       "69dd109fb18eb57dcc8d852c89b204cbe07483af3b5fae7703fdd27df12a4406"},
      {true, false, false, true,
       "f85c73d7c6fc44d1fecef3cca90193f42435ed9cfce8e2599b88bb89d54677ff"},
      {true, false, true, false,
       "c233ff8909f86cc790754d91694ebe6d075cba3bed536d7330be39278eb025e3"},
      {true, false, true, true,
       "f9ad942c03e20cd79ba2c9132881ad7f0baea75c5d24cd71ca098d2b9e6d8318"},
      {true, true, false, false,
       "b7b4275f0aa30c01f5ee2beecc727de2f320123b0d9e1a40c54d09dd1d9067ec"},
      {true, true, false, true,
       "eeff766f4a278261610453ea8b96fd8ab44ae9421984326e7d20d44e1fab2137"},
      {true, true, true, false,
       "6ed03ac15f8cdc7379394f5ab70a6b07c7884300c0e5ce4ce5086f81df1d8ce7"},
      {true, true, true, true,
       "142a935556f3d7ad18cac707f8e874b86c67006271ecbc244671f0a438526196"},
  };
  KeyedCategoricalConfig int64_config;
  int64_config.num_tuples = 3000;
  int64_config.domain_size = 150;
  int64_config.zipf_s = 1.3;
  int64_config.seed = 61;
  const Relation int64_base = GenerateKeyedCategorical(int64_config);
  const Relation dict_base = DictKeyRelation(3000, 62);
  const BitVector wm = MakeWatermark(12, 63);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(63);

  for (const Cell& cell : kCells) {
    SCOPED_TRACE("guard=" + std::to_string(cell.guard) +
                 " map=" + std::to_string(cell.map) +
                 " ledger=" + std::to_string(cell.ledger) +
                 " dict_key=" + std::to_string(cell.dict_key));
    const Relation& base = cell.dict_key ? dict_base : int64_base;
    ASSERT_EQ(base.store().IsDictColumn(0), cell.dict_key);
    WatermarkParams params;
    params.e = 7;
    // Pinned, so a CATMARK_PRF leg hashes the same way.
    params.prf = PrfKind::kSipHash24;
    params.min_category_keep = cell.guard ? 1 : 0;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      params.num_threads = threads;
      Relation rel = base;
      EmbeddingLedger ledger;
      if (cell.ledger) {
        for (std::size_t j = 0; j < rel.NumRows(); j += 5) ledger.Mark(j, 1);
      }
      const EmbedReport report =
          Embedder(keys, params)
              .Embed(rel, KA(cell.map), wm, nullptr,
                     cell.ledger ? &ledger : nullptr)
              .value();
      EXPECT_GT(report.altered_tuples, 0u);
      if (cell.guard) {
        EXPECT_GT(report.skipped_by_domain_guard, 0u);
      }
      if (cell.ledger) {
        EXPECT_GT(report.skipped_by_ledger, 0u);
      }
      const std::string bytes = WriteCatmString(rel);
      EXPECT_EQ(Sha256().Hash(bytes).ToHex(), cell.sha256);
    }
  }
}

// -------------------------------------------- randomized property suite

// One randomized trial's configuration, drawn from the trial seed.
struct TrialConfig {
  bool item_scan = false;       // ItemScan schema vs minimal (K, A)
  std::string key_attr;
  std::string target_attr;
  std::size_t num_tuples = 0;
  std::size_t domain_size = 0;  // minimal schema only
  double zipf_s = 0.0;
  std::uint64_t e = 0;
  std::size_t wm_bits = 0;
  std::size_t payload_length = 0;  // 0 = derive (bandwidth N/e)
  long min_category_keep = 0;
  bool map_mode = false;
  std::size_t ledger_stride = 0;   // 0 = no ledger
  std::uint64_t seed = 0;
};

TrialConfig DrawTrialConfig(std::uint64_t trial_seed) {
  std::mt19937_64 rng(trial_seed);
  const auto draw = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng() % (hi - lo + 1));
  };
  TrialConfig c;
  c.seed = rng();
  c.item_scan = draw(0, 2) == 0;
  if (c.item_scan) {
    c.key_attr = "Visit_Nbr";
    c.target_attr = draw(0, 1) == 0 ? "Item_Nbr" : "Dept_Desc";
    c.num_tuples = draw(400, 2000);
    c.domain_size = draw(8, 120);  // num_items when targeting Item_Nbr
  } else {
    c.key_attr = "K";
    c.target_attr = "A";
    c.num_tuples = draw(300, 2500);
    c.domain_size = draw(2, 250);
  }
  c.zipf_s = static_cast<double>(draw(0, 12)) / 10.0;
  c.e = draw(1, 40);
  if (c.e > c.num_tuples) c.e = c.num_tuples;  // keep N/e >= 1
  c.wm_bits = draw(4, 24);
  // Explicit payloads must clear the ECC's minimum (|wm|); short ones force
  // heavy map-index wraparound at shard boundaries.
  c.payload_length = draw(0, 1) == 0 ? 0 : draw(c.wm_bits, c.wm_bits + 56);
  const long keeps[] = {0, 0, 1, 3};  // bias 0: sharded map path coverage
  c.min_category_keep = keeps[draw(0, 3)];
  c.map_mode = draw(0, 1) == 1;
  c.ledger_stride = draw(0, 2) == 0 ? draw(3, 17) : 0;
  return c;
}

Relation MakeTrialRelation(const TrialConfig& c) {
  if (c.item_scan) {
    SalesGenConfig gen;
    gen.num_tuples = c.num_tuples;
    gen.num_items = c.domain_size;
    gen.item_zipf_s = c.zipf_s;
    gen.seed = c.seed;
    return GenerateItemScan(gen);
  }
  KeyedCategoricalConfig gen;
  gen.num_tuples = c.num_tuples;
  gen.domain_size = c.domain_size;
  gen.zipf_s = c.zipf_s;
  gen.seed = c.seed;
  return GenerateKeyedCategorical(gen);
}

// ~50 seeded trials over random schemas, domain sizes, e/bandwidth
// parameters and thread counts {1, 2, 3, 8}: the sharded apply pass must
// reproduce the serial reference byte-for-byte — relation CSV snapshot,
// every report counter, the serialized embedding map and the ledger.
TEST(RandomizedParityTest, SerialAndShardedEmbedAreBitIdentical) {
  constexpr std::uint64_t kSuiteSeed = 0x5104'2004'0301ull;
  constexpr int kTrials = 50;
  int sharded_trials = 0;

  for (int trial = 0; trial < kTrials; ++trial) {
    const TrialConfig c = DrawTrialConfig(kSuiteSeed + trial);
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(c.num_tuples) + " e=" + std::to_string(c.e) +
                 " target=" + c.target_attr +
                 " map=" + std::to_string(c.map_mode) +
                 " keep=" + std::to_string(c.min_category_keep) +
                 " payload=" + std::to_string(c.payload_length) +
                 " ledger=" + std::to_string(c.ledger_stride));

    const Relation base = MakeTrialRelation(c);
    const BitVector wm = MakeWatermark(c.wm_bits, c.seed);
    const WatermarkKeySet keys = WatermarkKeySet::FromSeed(c.seed);

    WatermarkParams params;
    params.e = c.e;
    params.payload_length = c.payload_length;
    params.min_category_keep = c.min_category_keep;

    EmbedOptions options;
    options.key_attr = c.key_attr;
    options.target_attr = c.target_attr;
    options.build_embedding_map = c.map_mode;

    const std::size_t target_col = static_cast<std::size_t>(
        base.schema().ColumnIndex(c.target_attr));
    const auto premark = [&](EmbeddingLedger& ledger) {
      if (c.ledger_stride == 0) return;
      for (std::size_t j = 0; j < base.NumRows(); j += c.ledger_stride) {
        ledger.Mark(j, target_col);
      }
    };

    params.num_threads = 1;
    Relation serial_rel = base;
    EmbeddingLedger serial_ledger;
    premark(serial_ledger);
    const Result<EmbedReport> serial_result =
        Embedder(keys, params)
            .Embed(serial_rel, options, wm, nullptr,
                   c.ledger_stride != 0 ? &serial_ledger : nullptr);
    ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
    const EmbedReport& serial = serial_result.value();
    EXPECT_EQ(serial.apply_shards, 1u);
    const std::string serial_csv = WriteCsvString(serial_rel);

    for (const std::size_t threads : {2u, 3u, 8u}) {
      params.num_threads = threads;
      Relation rel = base;
      EmbeddingLedger ledger;
      premark(ledger);
      const Result<EmbedReport> result =
          Embedder(keys, params)
              .Embed(rel, options, wm, nullptr,
                     c.ledger_stride != 0 ? &ledger : nullptr);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const EmbedReport& report = result.value();

      ExpectReportsEqual(serial, report);
      EXPECT_EQ(WriteCsvString(rel), serial_csv) << "threads=" << threads;
      EXPECT_EQ(ledger.size(), serial_ledger.size());
      for (std::size_t j = 0; j < base.NumRows(); ++j) {
        ASSERT_EQ(ledger.IsMarked(j, target_col),
                  serial_ledger.IsMarked(j, target_col))
            << "row " << j << " threads=" << threads;
      }

      // Pin the path: map mode with the draining guard falls back to the
      // serial apply pass; everything else shards.
      const bool expect_serial = c.map_mode && c.min_category_keep > 0;
      EXPECT_EQ(report.apply_shards, expect_serial ? 1u : threads)
          << "threads=" << threads;
      if (!expect_serial) ++sharded_trials;
    }
  }
  // The draw is biased so the sharded pipeline gets real coverage.
  EXPECT_GE(sharded_trials, kTrials);
}

// --------------------------------------- sharded apply edge-case pinning

WatermarkParams MapPathParams(std::size_t threads) {
  WatermarkParams params;
  params.e = 1;  // every tuple fit: maximal shard occupancy
  params.min_category_keep = 0;  // guard off: sharded map path engages
  params.num_threads = threads;
  return params;
}

void ExpectEmbedMatchesSerial(const Relation& base,
                              const WatermarkParams& parallel_params,
                              const EmbedOptions& options,
                              const BitVector& wm,
                              EmbeddingLedger* serial_ledger = nullptr,
                              EmbeddingLedger* parallel_ledger = nullptr,
                              std::size_t expect_shards = 0) {
  WatermarkParams serial_params = parallel_params;
  serial_params.num_threads = 1;
  Relation serial_rel = base;
  const EmbedReport serial = Embedder(WatermarkKeySet::FromSeed(7),
                                      serial_params)
                                 .Embed(serial_rel, options, wm, nullptr,
                                        serial_ledger)
                                 .value();
  EXPECT_EQ(serial.apply_shards, 1u);

  Relation rel = base;
  const EmbedReport report = Embedder(WatermarkKeySet::FromSeed(7),
                                      parallel_params)
                                 .Embed(rel, options, wm, nullptr,
                                        parallel_ledger)
                                 .value();
  if (expect_shards != 0) {
    EXPECT_EQ(report.apply_shards, expect_shards);
  }
  ExpectReportsEqual(serial, report);
  EXPECT_EQ(WriteCsvString(rel), WriteCsvString(serial_rel));
}

TEST(ShardedApplyEdgeCaseTest, SingleTupleShards) {
  // n = 5 with 8 requested workers: EffectiveThreadCount caps at one tuple
  // per shard; every shard's map segment holds at most one entry.
  const Relation base = StandardRelation(5, 51);
  ExpectEmbedMatchesSerial(base, MapPathParams(8), KA(/*map=*/true),
                           MakeWatermark(4, 51), nullptr, nullptr,
                           /*expect_shards=*/5);
}

TEST(ShardedApplyEdgeCaseTest, AllSkipShards) {
  // Every cell pre-marked in the ledger: all shards classify all tuples as
  // ledger skips, every segment splices empty, the map stays empty.
  const Relation base = StandardRelation(400, 52);
  EmbeddingLedger serial_ledger;
  EmbeddingLedger parallel_ledger;
  for (std::size_t j = 0; j < base.NumRows(); ++j) {
    serial_ledger.Mark(j, 1);
    parallel_ledger.Mark(j, 1);
  }
  WatermarkParams params = MapPathParams(8);
  WatermarkParams serial_params = params;
  serial_params.num_threads = 1;

  Relation serial_rel = base;
  const EmbedReport serial =
      Embedder(WatermarkKeySet::FromSeed(7), serial_params)
          .Embed(serial_rel, KA(/*map=*/true), MakeWatermark(4, 52), nullptr,
                 &serial_ledger)
          .value();
  Relation rel = base;
  const EmbedReport report =
      Embedder(WatermarkKeySet::FromSeed(7), params)
          .Embed(rel, KA(/*map=*/true), MakeWatermark(4, 52), nullptr,
                 &parallel_ledger)
          .value();
  EXPECT_EQ(report.apply_shards, 8u);
  ExpectReportsEqual(serial, report);
  EXPECT_EQ(report.embedding_map.size(), 0u);
  EXPECT_EQ(report.skipped_by_ledger, report.fit_tuples);
  EXPECT_EQ(report.altered_tuples, 0u);
  EXPECT_EQ(WriteCsvString(rel), WriteCsvString(base));
}

TEST(ShardedApplyEdgeCaseTest, EmptyShards) {
  // e = 50 over 200 tuples: only a handful are fit, so several shards carry
  // zero commits and contribute nothing to the prefix sum.
  const Relation base = StandardRelation(200, 53);
  WatermarkParams params = MapPathParams(8);
  params.e = 50;
  ExpectEmbedMatchesSerial(base, params, KA(/*map=*/true),
                           MakeWatermark(4, 53), nullptr, nullptr,
                           /*expect_shards=*/8);
}

TEST(ShardedApplyEdgeCaseTest, PayloadIndexWraparoundAtShardBoundaries) {
  // payload_length = 3 against ~64 commits: the running map index wraps the
  // payload many times per shard and most shards start mid-cycle — their
  // prefix-sum base must continue the cycle exactly where the previous
  // shard left it.
  const Relation base = StandardRelation(64, 54);
  WatermarkParams params = MapPathParams(8);
  params.payload_length = 3;
  ExpectEmbedMatchesSerial(base, params, KA(/*map=*/true),
                           MakeWatermark(3, 54), nullptr, nullptr,
                           /*expect_shards=*/8);
}

TEST(ShardedApplyEdgeCaseTest, HashPathWithDrainingGuard) {
  // k2 positions + draining guard: parallel classify, serial guard
  // resolution over running counts, parallel apply. A small skewed domain
  // makes the guard actually veto alterations.
  KeyedCategoricalConfig config;
  config.num_tuples = 2000;
  config.domain_size = 6;
  config.zipf_s = 1.3;
  config.seed = 55;
  const Relation base = GenerateKeyedCategorical(config);
  WatermarkParams params;
  params.e = 2;
  params.min_category_keep = 40;
  params.num_threads = 8;
  ExpectEmbedMatchesSerial(base, params, KA(/*map=*/false),
                           MakeWatermark(6, 55), nullptr, nullptr,
                           /*expect_shards=*/8);
}

TEST(ShardedApplyEdgeCaseTest, SerialFallbackPinning) {
  const Relation base = StandardRelation(500, 56);
  const BitVector wm = MakeWatermark(4, 56);
  const WatermarkKeySet keys = WatermarkKeySet::FromSeed(7);

  // num_threads == 1: serial semantics preserved by definition.
  {
    WatermarkParams params = MapPathParams(1);
    Relation rel = base;
    EXPECT_EQ(Embedder(keys, params).Embed(rel, KA(), wm).value().apply_shards,
              1u);
  }
  // Map mode with the draining guard on: bit positions depend on guard
  // verdicts, so the sharded pipeline must refuse.
  {
    WatermarkParams params = MapPathParams(8);
    params.min_category_keep = 1;
    Relation rel = base;
    EXPECT_EQ(Embedder(keys, params)
                  .Embed(rel, KA(/*map=*/true), wm)
                  .value()
                  .apply_shards,
              1u);
  }
  // A quality assessor (even plugin-less, it logs every alteration for
  // rollback): stateful, serial.
  {
    WatermarkParams params = MapPathParams(8);
    Relation rel = base;
    QualityAssessor assessor;
    ASSERT_TRUE(assessor.Begin(rel).ok());
    EXPECT_EQ(Embedder(keys, params)
                  .Embed(rel, KA(), wm, &assessor)
                  .value()
                  .apply_shards,
              1u);
  }
  // k2 mode with the guard on still shards (guard resolution is the cheap
  // serial scan between the parallel phases).
  {
    WatermarkParams params = MapPathParams(8);
    params.min_category_keep = 1;
    Relation rel = base;
    EXPECT_EQ(Embedder(keys, params).Embed(rel, KA(), wm).value().apply_shards,
              8u);
  }
}

}  // namespace
}  // namespace catmark
