#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "relation/column_store.h"
#include "relation/domain.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "relation/value_index_column.h"

namespace catmark {
namespace {

Schema TestSchema() {
  return Schema::Create({{"K", ColumnType::kInt64, false},
                         {"A", ColumnType::kString, true},
                         {"X", ColumnType::kDouble, false}},
                        "K")
      .value();
}

TEST(ColumnStoreTest, LayoutFollowsSchema) {
  const Relation rel(TestSchema());
  EXPECT_FALSE(rel.store().IsDictColumn(0));  // key: plain
  EXPECT_TRUE(rel.store().IsDictColumn(1));   // categorical: dictionary
  EXPECT_FALSE(rel.store().IsDictColumn(2));  // measure: plain
  EXPECT_TRUE(rel.store().IsInt64Column(0));  // int64 key: typed cells
  EXPECT_FALSE(rel.store().IsInt64Column(2));
}

TEST(ColumnStoreTest, DictionaryInternsDistinctValues) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{3}), Value("red"), Value(3.0)});

  const ColumnStore& store = rel.store();
  EXPECT_EQ(store.Dict(1).size(), 2u);  // red, blue — interned once each
  EXPECT_EQ(store.Codes(1).size(), 3u);
  EXPECT_EQ(store.Codes(1)[0], store.Codes(1)[2]);  // both "red"
  EXPECT_NE(store.Codes(1)[0], store.Codes(1)[1]);
  EXPECT_EQ(store.DictLiveCounts(1)[0], 2);  // "red" held by two rows
  EXPECT_EQ(store.DictLiveCounts(1)[1], 1);
}

TEST(ColumnStoreTest, NullCellsUseNullCode) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value(), Value(1.0)});
  EXPECT_EQ(rel.store().Codes(1)[0], ColumnStore::kNullCode);
  EXPECT_TRUE(rel.Get(0, 1).is_null());
  EXPECT_TRUE(rel.store().Dict(1).empty());
}

TEST(ColumnStoreTest, SetMaintainsLiveCounts) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("red"), Value(2.0)});
  ASSERT_TRUE(rel.Set(0, 1, Value("blue")).ok());
  const ColumnStore& store = rel.store();
  EXPECT_EQ(store.DictLiveCounts(1)[0], 1);  // red: one holder left
  EXPECT_EQ(store.DictLiveCounts(1)[1], 1);  // blue: newly interned
  ASSERT_TRUE(rel.Set(1, 1, Value()).ok());
  EXPECT_EQ(store.DictLiveCounts(1)[0], 0);  // red now dead
  EXPECT_EQ(store.Dict(1).size(), 2u);       // ...but never garbage-collected
}

TEST(ColumnStoreTest, DeadDictEntriesLeaveRecoveredDomain) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  ASSERT_TRUE(rel.Set(0, 1, Value("blue")).ok());  // "red" goes dead
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.value(0).AsString(), "blue");
}

TEST(ColumnStoreTest, InternValueDoesNotTouchRows) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  const std::int32_t code = rel.mutable_store().InternValue(1, Value("green"));
  EXPECT_GE(code, 0);
  EXPECT_EQ(rel.store().DictLiveCounts(1)[static_cast<std::size_t>(code)], 0);
  EXPECT_EQ(rel.Get(0, 1).AsString(), "red");
  // Interning the same value again returns the same code.
  EXPECT_EQ(rel.mutable_store().InternValue(1, Value("green")), code);
  // A dead interned value must not leak into the recovered domain.
  const CategoricalDomain d =
      CategoricalDomain::FromRelationColumn(rel, 1).value();
  EXPECT_EQ(d.size(), 1u);
}

TEST(ColumnStoreTest, SetCodeWritesWithoutSerialization) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  const std::int32_t green = rel.mutable_store().InternValue(1, Value("green"));
  rel.mutable_store().SetCode(0, 1, green);
  EXPECT_EQ(rel.Get(0, 1).AsString(), "green");
  EXPECT_EQ(rel.store().DictLiveCounts(1)[static_cast<std::size_t>(green)], 1);
  rel.mutable_store().SetCode(0, 1, ColumnStore::kNullCode);
  EXPECT_TRUE(rel.Get(0, 1).is_null());
  EXPECT_EQ(rel.store().DictLiveCounts(1)[static_cast<std::size_t>(green)], 0);
}

TEST(ColumnStoreTest, CodeOfDistinguishesTypes) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("7"), Value(1.0)});
  EXPECT_GE(rel.store().CodeOf(1, Value("7")), 0);
  EXPECT_EQ(rel.store().CodeOf(1, Value(std::int64_t{7})),
            ColumnStore::kNullCode);
  EXPECT_EQ(rel.store().CodeOf(1, Value("8")), ColumnStore::kNullCode);
}

TEST(ColumnStoreTest, SwapRemoveUpdatesCodesAndCounts) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{3}), Value("red"), Value(3.0)});
  rel.SwapRemoveRow(0);
  ASSERT_EQ(rel.NumRows(), 2u);
  EXPECT_EQ(rel.Get(0, 0).AsInt64(), 3);  // last row swapped into slot 0
  EXPECT_EQ(rel.Get(0, 1).AsString(), "red");
  EXPECT_EQ(rel.store().DictLiveCounts(1)[0], 1);  // one "red" remains
  rel.SwapRemoveRow(0);
  rel.SwapRemoveRow(0);
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(rel.store().DictLiveCounts(1)[0], 0);
  EXPECT_EQ(rel.store().DictLiveCounts(1)[1], 0);
}

TEST(ColumnStoreTest, AppendRowsFromTranslatesDictCodes) {
  // Different insertion orders assign different codes; the bulk path must
  // translate them, intern each referenced entry once, and skip dead ones.
  Relation src(TestSchema()), dst(TestSchema());
  src.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  src.AppendRowUnchecked({Value(std::int64_t{2}), Value("blue"), Value(2.0)});
  src.AppendRowUnchecked({Value(std::int64_t{3}), Value(), Value(3.0)});
  dst.AppendRowUnchecked({Value(std::int64_t{4}), Value("blue"), Value(4.0)});

  ASSERT_TRUE(dst.AppendRowsFrom(src, {2, 0, 1}).ok());
  ASSERT_EQ(dst.NumRows(), 4u);
  EXPECT_TRUE(dst.Get(1, 1).is_null());
  EXPECT_EQ(dst.Get(2, 1).AsString(), "red");
  EXPECT_EQ(dst.Get(3, 1).AsString(), "blue");
  EXPECT_EQ(dst.store().Dict(1).size(), 2u);  // blue, red — no duplicates
  EXPECT_EQ(dst.store().DictLiveCounts(1)[0], 2);  // blue: rows 0 and 3
  EXPECT_EQ(dst.store().DictLiveCounts(1)[1], 1);  // red

  Relation expected(TestSchema());
  expected.AppendRowUnchecked(
      {Value(std::int64_t{4}), Value("blue"), Value(4.0)});
  ASSERT_TRUE(expected.AppendRowsFrom(src, {0, 1, 2}).ok());
  // Order-insensitive equality: {row3, row1, row2} == {row1, row2, row3}.
  EXPECT_TRUE(dst.SameContent(expected));
}

TEST(ColumnStoreTest, AppendRowsFromValidates) {
  Relation src(TestSchema()), dst(TestSchema());
  src.AppendRowUnchecked({Value(std::int64_t{1}), Value("a"), Value(0.0)});
  EXPECT_FALSE(dst.AppendRowsFrom(src, {5}).ok());  // out of range
  Relation other(
      Schema::Create({{"Z", ColumnType::kInt64, false}}, "").value());
  EXPECT_FALSE(other.AppendRowsFrom(src, {0}).ok());  // schema mismatch
  // Self-append goes through the safe row path.
  ASSERT_TRUE(src.AppendRowsFrom(src, {0, 0}).ok());
  EXPECT_EQ(src.NumRows(), 3u);
  EXPECT_EQ(src.store().DictLiveCounts(1)[0], 3);
}

TEST(ColumnStoreTest, PlainColumnsStoreValuesDirectly) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{9}), Value("a"), Value(2.5)});
  EXPECT_EQ(rel.store().Int64Column(0).values[0], 9);
  EXPECT_DOUBLE_EQ(rel.store().PlainValues(2)[0].AsDouble(), 2.5);
}

TEST(ColumnStoreTest, ColumnReaderReadsBothLayouts) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value(), Value(2.0)});
  const ColumnReader key(rel.store(), 0);
  const ColumnReader cat(rel.store(), 1);
  EXPECT_FALSE(key.is_dict());
  EXPECT_TRUE(cat.is_dict());
  EXPECT_EQ(key[1].AsInt64(), 2);
  EXPECT_EQ(cat[0].AsString(), "red");
  EXPECT_TRUE(cat[1].is_null());
}

TEST(ColumnStoreTest, MaterializedRowCopiesEveryColumn) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("red"), Value(1.0)});
  const Row r = rel.row(0);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].AsInt64(), 1);
  EXPECT_EQ(r[1].AsString(), "red");
}

// --- typed int64 columns ------------------------------------------------

Value Int(std::int64_t v) { return Value(v); }

/// The typed column's cells, read back as Values without the boxed view.
std::vector<Value> CellsOf(const ColumnStore& store, std::size_t col) {
  const Int64Cells& cells = store.Int64Column(col);
  std::vector<Value> out(cells.values.size());
  for (std::size_t r = 0; r < out.size(); ++r) {
    if (!cells.is_null(r)) out[r] = Value(cells.values[r]);
  }
  return out;
}

TEST(TypedInt64ColumnTest, NullBitmapFollowsEveryMutation) {
  Relation rel(TestSchema());
  std::vector<Value> want;
  for (std::int64_t i = 0; i < 130; ++i) {
    const bool null = i == 5 || i == 64 || i == 129;
    want.push_back(null ? Value() : Int(i * 3 - 100));
    rel.AppendRowUnchecked({want.back(), Value("a"), Value(1.0)});
  }
  const ColumnStore& store = rel.store();
  EXPECT_EQ(store.Int64Column(0).nulls.size(), 3u);  // ceil(130 / 64)
  EXPECT_EQ(store.Int64Column(0).values[64], 0);     // NULL rows hold 0
  EXPECT_EQ(CellsOf(store, 0), want);

  // Set a NULL to a value and a value to NULL.
  ASSERT_TRUE(rel.Set(5, 0, Int(77)).ok());
  ASSERT_TRUE(rel.Set(6, 0, Value()).ok());
  want[5] = Int(77);
  want[6] = Value();
  EXPECT_EQ(CellsOf(store, 0), want);

  // Swap-remove moves the last row's NULL bit into the hole, and a removal
  // that crosses back under a word boundary drops the spare word.
  rel.SwapRemoveRow(10);
  want[10] = want.back();
  want.pop_back();
  EXPECT_EQ(CellsOf(store, 0), want);
  EXPECT_TRUE(store.IsNull(10, 0));
  rel.SwapRemoveRow(128);  // the last row itself
  want.pop_back();
  EXPECT_EQ(store.Int64Column(0).nulls.size(), 2u);
  EXPECT_EQ(CellsOf(store, 0), want);

  // Clearing every NULL empties the bitmap.
  for (std::size_t r = 0; r < want.size(); ++r) {
    if (want[r].is_null()) {
      ASSERT_TRUE(rel.Set(r, 0, Int(1)).ok());
    }
  }
  EXPECT_TRUE(store.Int64Column(0).nulls.empty());
  EXPECT_FALSE(store.BoxedViewBuilt(0));
}

TEST(TypedInt64ColumnTest, BulkAppendsCarryNulls) {
  Relation src(TestSchema());
  for (std::int64_t i = 0; i < 70; ++i) {
    src.AppendRowUnchecked(
        {i % 7 == 0 ? Value() : Int(i), Value("a"), Value(1.0)});
  }
  Relation dst(TestSchema());
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < 70; i += 3) picks.push_back(69 - i);
  ASSERT_TRUE(dst.AppendRowsFrom(src, picks).ok());
  std::vector<Row> rows;
  for (const std::size_t i : picks) rows.push_back(src.row(i));
  Relation batched(TestSchema());
  batched.AppendRowsUnchecked(std::span<Row>(rows));
  ASSERT_EQ(dst.NumRows(), picks.size());
  for (std::size_t r = 0; r < picks.size(); ++r) {
    EXPECT_EQ(dst.store().IsNull(r, 0), picks[r] % 7 == 0) << r;
  }
  EXPECT_EQ(CellsOf(dst.store(), 0), CellsOf(batched.store(), 0));
  EXPECT_FALSE(src.store().BoxedViewBuilt(0));
}

TEST(TypedInt64ColumnTest, BoxedViewIsBuiltOnceAndKeptCoherent) {
  Relation rel(TestSchema());
  for (std::int64_t i = 0; i < 10; ++i) {
    rel.AppendRowUnchecked({Int(i), Value("a"), Value(1.0)});
  }
  EXPECT_FALSE(rel.store().BoxedViewBuilt(0));
  const Value& third = rel.Get(3, 0);
  EXPECT_TRUE(rel.store().BoxedViewBuilt(0));
  EXPECT_EQ(third.AsInt64(), 3);

  // Mutations after the build keep Get in step, and a reference to a cell
  // that was not mutated stays valid.
  ASSERT_TRUE(rel.Set(4, 0, Value()).ok());
  EXPECT_TRUE(rel.Get(4, 0).is_null());
  EXPECT_EQ(third.AsInt64(), 3);
  rel.SwapRemoveRow(0);
  EXPECT_EQ(rel.Get(0, 0).AsInt64(), 9);
  rel.AppendRowUnchecked({Int(42), Value("a"), Value(1.0)});
  EXPECT_EQ(rel.Get(9, 0).AsInt64(), 42);
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    EXPECT_EQ(rel.Get(r, 0), CellsOf(rel.store(), 0)[r]) << r;
  }

  // A copy starts without a view and builds its own.
  const Relation copy = rel;
  EXPECT_FALSE(copy.store().BoxedViewBuilt(0));
  EXPECT_TRUE(copy.SameContent(rel));
  EXPECT_EQ(copy.Get(9, 0).AsInt64(), 42);
}

TEST(TypedInt64ColumnTest, InstallDropsAViewOfTheEmptyColumn) {
  Relation rel(TestSchema());
  ColumnStore& store = rel.mutable_store();
  { const ColumnReader reader(store, 0); }  // boxes the empty column
  ASSERT_TRUE(store.InstallInt64Column(0, {{5, 6}, {}}).ok());
  ASSERT_TRUE(store.InstallDictColumn(1, {Value("a")}, {2}, {0, 0}).ok());
  ASSERT_TRUE(store.InstallPlainColumn(2, {Value(1.0), Value(2.0)}).ok());
  ASSERT_TRUE(store.FinalizeInstall(2).ok());
  EXPECT_EQ(rel.Get(1, 0).AsInt64(), 6);
}

TEST(TypedInt64ColumnTest, ConcurrentFirstGetsShareOneView) {
  Relation rel(TestSchema());
  for (std::int64_t i = 0; i < 5000; ++i) {
    rel.AppendRowUnchecked({Int(i), Value("a"), Value(1.0)});
  }
  std::vector<const Value*> seen(4, nullptr);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    readers.emplace_back([&, t] { seen[t] = &rel.Get(4999, 0); });
  }
  for (std::thread& t : readers) t.join();
  for (const Value* v : seen) EXPECT_EQ(v, seen[0]);
  EXPECT_EQ(seen[0]->AsInt64(), 4999);
}

TEST(TypedInt64ColumnDeathTest, RejectsNonInt64Values) {
  Relation rel(TestSchema());
  EXPECT_DEATH(rel.AppendRowUnchecked({Value("7"), Value("a"), Value(1.0)}),
               "non-INT64 value");
}

// The zero-copy index view must follow live mutations of the aliased code
// vector (the embed apply pass depends on it) while codes interned after
// Build resolve to kNoIndex.
TEST(ValueIndexViewTest, ViewFollowsSetCode) {
  Relation rel(TestSchema());
  rel.AppendRowUnchecked({Value(std::int64_t{1}), Value("a"), Value(1.0)});
  rel.AppendRowUnchecked({Value(std::int64_t{2}), Value("b"), Value(2.0)});
  const CategoricalDomain domain =
      CategoricalDomain::FromValues({Value("a"), Value("b")}).value();
  const ValueIndexColumn view = ValueIndexColumn::Build(rel, 1, domain);
  EXPECT_EQ(view.index(0), 0);
  EXPECT_EQ(view.index(1), 1);
  rel.mutable_store().SetCode(0, 1, rel.store().CodeOf(1, Value("b")));
  EXPECT_EQ(view.index(0), 1);  // view reads the live codes
  // A value interned after Build is outside the remap table -> kNoIndex.
  const std::int32_t late = rel.mutable_store().InternValue(1, Value("a2"));
  rel.mutable_store().SetCode(1, 1, late);
  EXPECT_EQ(view.index(1), ValueIndexColumn::kNoIndex);
}

}  // namespace
}  // namespace catmark
