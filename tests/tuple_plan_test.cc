// The sparse fit-row plan build: for every PRF backend, thread count and
// key-column shape, the plan must list exactly the rows a one-row-at-a-time
// KeyedPrf::Hash64 + DivisibilityCheck reference marks fit, in strictly
// ascending order, with the same per-row h1 and k2 payload index. The
// per-dict-code cache must be bit-identical to the uncached per-row batch
// path, results must not depend on the worker count, and nothing the plan
// keeps may be sized by N instead of by the fit count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/bits.h"
#include "core/codec.h"
#include "core/tuple_plan.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "test_util.h"

namespace catmark {
namespace {

constexpr PrfKind kBackends[] = {PrfKind::kKeyedHash, PrfKind::kHmacSha256,
                                 PrfKind::kSipHash24};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr std::size_t kPayloadLen = 64;

// Key columns of MixedKeyRelation: a typed int64 plain key, a string
// categorical key and an int64 categorical key — the plain chunk path, and
// the dict cache's view and typed lanes.
constexpr std::size_t kPlainInt64Key = 0;
constexpr std::size_t kDictStringKey = 1;
constexpr std::size_t kDictInt64Key = 2;
constexpr std::size_t kKeyCols[] = {kPlainInt64Key, kDictStringKey,
                                    kDictInt64Key};

// Repeated categorical keys, NULL keys in every key column, and a dead
// dictionary entry — the shapes the two plan-build paths must agree on.
Relation MixedKeyRelation(std::size_t n) {
  Schema schema = Schema::Create({{"K", ColumnType::kInt64, false},
                                  {"C", ColumnType::kString, true},
                                  {"D", ColumnType::kInt64, true},
                                  {"A", ColumnType::kString, true}},
                                 "")
                      .value();
  Relation rel(schema);
  for (std::size_t i = 0; i < n; ++i) {
    // ~47 / ~61 distinct categorical keys; every 13th row has a NULL plain
    // key, every 17th a NULL string key, every 19th a NULL int64 dict key.
    Value k = (i % 13 == 0) ? Value()
                            : Value(static_cast<std::int64_t>(i * 977));
    Value c = (i % 17 == 0) ? Value()
                            : Value("cat-" + std::to_string((i * 31) % 47));
    Value d = (i % 19 == 0)
                  ? Value()
                  : Value(static_cast<std::int64_t>((i * 7) % 61) - 30);
    Value a = Value("v" + std::to_string(i % 5));
    rel.AppendRowUnchecked(
        {std::move(k), std::move(c), std::move(d), std::move(a)});
  }
  // Interned but referenced by no row: the cache must skip it.
  rel.mutable_store().InternValue(kDictStringKey, Value("dead-entry"));
  return rel;
}

TuplePlanOptions PlanOptions(PrfKind prf, std::size_t threads,
                             bool use_dict_cache) {
  TuplePlanOptions options;
  options.payload_len = kPayloadLen;
  options.with_payload_index = true;
  options.num_threads = threads;
  options.prf = prf;
  options.use_dict_cache = use_dict_cache;
  return options;
}

// One row at a time: serialize the key, Hash64 it under k1, test
// divisibility by e, and position-hash fit keys under k2.
TuplePlan ReferencePlan(const Relation& rel, std::size_t key_col,
                        const WatermarkKeySet& keys,
                        const WatermarkParams& params, PrfKind prf_kind) {
  const std::unique_ptr<KeyedPrf> prf_k1 =
      CreateKeyedPrf(prf_kind, keys.k1, params.hash_algo);
  const std::unique_ptr<KeyedPrf> prf_k2 =
      CreateKeyedPrf(prf_kind, keys.k2, params.hash_algo);
  const DivisibilityCheck fit_by_e(params.e);
  TuplePlan plan;
  std::vector<std::uint8_t> bytes;
  for (std::size_t j = 0; j < rel.NumRows(); ++j) {
    const Value& key = rel.Get(j, key_col);
    if (key.is_null()) continue;
    bytes.clear();
    key.SerializeForHash(bytes);
    const std::uint64_t h1 = prf_k1->Hash64(bytes.data(), bytes.size());
    if (!fit_by_e(h1)) continue;
    plan.fit_rows.push_back(j);
    plan.h1.push_back(h1);
    plan.payload_index.push_back(static_cast<std::uint32_t>(
        PayloadIndexFromHash(prf_k2->Hash64(bytes.data(), bytes.size()),
                             kPayloadLen, params.bit_index_mode)));
  }
  return plan;
}

void ExpectPlansEqual(const TuplePlan& a, const TuplePlan& b,
                      const std::string& label) {
  EXPECT_EQ(a.fit_rows, b.fit_rows) << label;
  EXPECT_EQ(a.h1, b.h1) << label;
  EXPECT_EQ(a.payload_index, b.payload_index) << label;
}

// The core invariant, over every backend x key shape x cache mode x thread
// count: the plan is exactly the row-at-a-time reference, ascending.
TEST(TuplePlanTest, FitRowsMatchRowAtATimeReference) {
  const Relation rel = MixedKeyRelation(3000);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 5;
  for (const PrfKind prf : kBackends) {
    for (const std::size_t key_col : kKeyCols) {
      const TuplePlan reference =
          ReferencePlan(rel, key_col, keys, params, prf);
      ASSERT_GT(reference.fit_rows.size(), 0u);
      for (const bool cached : {true, false}) {
        for (const std::size_t threads : kThreadCounts) {
          const std::string label =
              std::string(PrfKindName(prf)) + " col=" +
              std::to_string(key_col) + " cached=" + std::to_string(cached) +
              " threads=" + std::to_string(threads);
          const TuplePlan plan = BuildTuplePlan(
              rel, key_col, keys, params, PlanOptions(prf, threads, cached));
          ExpectPlansEqual(plan, reference, label);
          for (std::size_t f = 1; f < plan.fit_rows.size(); ++f) {
            ASSERT_LT(plan.fit_rows[f - 1], plan.fit_rows[f]) << label;
          }
        }
      }
    }
  }
}

// For a dictionary-encoded key column the per-dict-code cache and the
// uncached per-row batch path must produce byte-identical plans; only the
// PRF work differs.
TEST(TuplePlanTest, DictCodeCacheIsBitIdenticalToUncachedPerRowPath) {
  const Relation rel = MixedKeyRelation(3000);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 5;
  for (const PrfKind prf : kBackends) {
    for (const std::size_t key_col : {kDictStringKey, kDictInt64Key}) {
      for (const std::size_t threads : kThreadCounts) {
        const TuplePlan cached = BuildTuplePlan(
            rel, key_col, keys, params, PlanOptions(prf, threads, true));
        const TuplePlan uncached = BuildTuplePlan(
            rel, key_col, keys, params, PlanOptions(prf, threads, false));
        ExpectPlansEqual(cached, uncached,
                         std::string(PrfKindName(prf)) + " col=" +
                             std::to_string(key_col) + " threads=" +
                             std::to_string(threads));
        EXPECT_GT(cached.fit_rows.size(), 0u);
      }
    }
  }
}

// messages_hashed counts PRF inputs: live distinct dictionary entries on
// the cached path (the dead entry and NULL excluded), non-NULL key rows on
// the per-row path — at every thread count.
TEST(TuplePlanTest, MessagesHashedCountsPrfInputs) {
  const Relation rel = MixedKeyRelation(2000);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 4;
  std::size_t non_null = 0;
  for (std::size_t j = 0; j < rel.NumRows(); ++j) {
    non_null += !rel.Get(j, kDictStringKey).is_null();
  }
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(BuildTuplePlan(rel, kDictStringKey, keys, params,
                             PlanOptions(PrfKind::kSipHash24, threads, true))
                  .messages_hashed,
              47u);
    EXPECT_EQ(BuildTuplePlan(rel, kDictStringKey, keys, params,
                             PlanOptions(PrfKind::kSipHash24, threads, false))
                  .messages_hashed,
              non_null);
  }
}

// Different backends must select different tuple subsets (the channels are
// genuinely distinct primitives, not renamings of one another).
TEST(TuplePlanTest, BackendsSelectDifferentTuples) {
  const Relation rel = MixedKeyRelation(3000);
  const WatermarkKeySet keys = testutil::TestKeys();
  WatermarkParams params;
  params.e = 5;
  const TuplePlan kh = BuildTuplePlan(
      rel, 0, keys, params, PlanOptions(PrfKind::kKeyedHash, 1, true));
  const TuplePlan sip = BuildTuplePlan(
      rel, 0, keys, params, PlanOptions(PrfKind::kSipHash24, 1, true));
  EXPECT_NE(kh.fit_rows, sip.fit_rows);
}

// The map path leaves payload_index empty.
TEST(TuplePlanTest, MapPathPlanHasNoPayloadIndex) {
  const Relation rel = MixedKeyRelation(1000);
  WatermarkParams params;
  params.e = 3;
  TuplePlanOptions options = PlanOptions(PrfKind::kSipHash24, 2, true);
  options.with_payload_index = false;
  for (const std::size_t key_col : kKeyCols) {
    const TuplePlan plan =
        BuildTuplePlan(rel, key_col, testutil::TestKeys(), params, options);
    EXPECT_GT(plan.fit_rows.size(), 0u);
    EXPECT_EQ(plan.h1.size(), plan.fit_rows.size());
    EXPECT_TRUE(plan.payload_index.empty());
  }
}

// What the plan keeps scales with the fit count (~N/e), not with N: at
// N = 1M and e = 1000 no plan vector holds — or has room for — more than a
// small multiple of the ~1000 fit rows.
TEST(TuplePlanTest, PlanStateScalesWithFitRowsNotRows) {
  constexpr std::size_t kRows = 1'000'000;
  const Schema schema = Schema::Create({{"K", ColumnType::kInt64, false},
                                        {"A", ColumnType::kString, true}},
                                       "K")
                            .value();
  Relation rel(schema);
  for (std::size_t i = 0; i < kRows; ++i) {
    rel.AppendRowUnchecked(
        {Value(static_cast<std::int64_t>(i * 2654435761u)), Value("a")});
  }
  WatermarkParams params;
  params.e = 1000;
  for (const std::size_t threads : kThreadCounts) {
    const TuplePlan plan =
        BuildTuplePlan(rel, 0, testutil::TestKeys(), params,
                       PlanOptions(PrfKind::kSipHash24, threads, true));
    const std::size_t nf = plan.fit_rows.size();
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " fit=" + std::to_string(nf));
    EXPECT_GT(nf, 500u);
    EXPECT_LT(nf, 2000u);
    EXPECT_EQ(plan.h1.size(), nf);
    EXPECT_EQ(plan.payload_index.size(), nf);
    EXPECT_EQ(plan.messages_hashed, kRows);
    EXPECT_LE(plan.fit_rows.capacity(), 4 * nf);
    EXPECT_LE(plan.h1.capacity(), 4 * nf);
    EXPECT_LE(plan.payload_index.capacity(), 4 * nf);
  }
}

}  // namespace
}  // namespace catmark
