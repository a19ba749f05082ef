#include "relation/column_store.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/check.h"

namespace catmark {

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

const std::int64_t* Int64KeyChunk(const Int64Cells& cells, std::size_t begin,
                                  std::size_t end, std::int64_t* gathered,
                                  std::vector<std::uint32_t>& rows,
                                  std::size_t& count) {
  rows.clear();
  bool any_null = false;
  if (!cells.nulls.empty() && begin < end) {
    for (std::size_t w = begin >> 6; w <= (end - 1) >> 6 && !any_null; ++w) {
      std::uint64_t word = cells.nulls[w];
      if (w == begin >> 6) word &= ~std::uint64_t{0} << (begin & 63);
      if (w == (end - 1) >> 6 && (end & 63) != 0) {
        word &= ~(~std::uint64_t{0} << (end & 63));
      }
      any_null = word != 0;
    }
  }
  if (!any_null) {
    count = end - begin;
    return cells.values.data() + begin;
  }
  count = 0;
  for (std::size_t j = begin; j < end; ++j) {
    if (cells.is_null(j)) continue;
    gathered[count++] = cells.values[j];
    rows.push_back(static_cast<std::uint32_t>(j));
  }
  return gathered;
}

const std::vector<Value>& ColumnStore::BoxedView::Get(
    const Int64Cells& cells) const {
  std::call_once(state_->once, [&] {
    std::vector<Value>& values = state_->values;
    values.reserve(cells.values.size());
    for (std::size_t r = 0; r < cells.values.size(); ++r) {
      values.push_back(cells.cell(r));
    }
    state_->built.store(true, std::memory_order_release);
  });
  return state_->values;
}

ColumnStore::ColumnStore(const Schema& schema) {
  columns_.reserve(schema.num_columns());
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    const Column& column = schema.column(c);
    if (column.categorical) {
      columns_.emplace_back(DictColumn{});
    } else if (column.type == ColumnType::kInt64) {
      columns_.emplace_back(TypedInt64Column{});
    } else {
      columns_.emplace_back(PlainColumn{});
    }
  }
}

void ColumnStore::Reserve(std::size_t n) {
  for (auto& col : columns_) {
    if (auto* d = std::get_if<DictColumn>(&col)) {
      d->codes.reserve(n);
    } else if (auto* p = std::get_if<PlainColumn>(&col)) {
      p->values.reserve(n);
    } else {
      std::get<TypedInt64Column>(col).cells.values.reserve(n);
    }
  }
}

void ColumnStore::MarkNull(TypedInt64Column& c, std::size_t row) {
  std::vector<std::uint64_t>& nulls = c.cells.nulls;
  if (nulls.empty()) nulls.assign((c.cells.values.size() + 63) / 64, 0);
  const std::uint64_t bit = std::uint64_t{1} << (row & 63);
  if ((nulls[row >> 6] & bit) == 0) {
    nulls[row >> 6] |= bit;
    ++c.null_count;
  }
}

void ColumnStore::ClearNull(TypedInt64Column& c, std::size_t row) {
  if (!c.cells.is_null(row)) return;
  c.cells.nulls[row >> 6] &= ~(std::uint64_t{1} << (row & 63));
  if (--c.null_count == 0) c.cells.nulls.clear();
}

void ColumnStore::AppendInt64(TypedInt64Column& c, const Value& v) {
  const std::int64_t* x = v.TryInt64();
  CATMARK_CHECK(x != nullptr || v.is_null())
      << "non-INT64 value in an INT64 column";
  const std::size_t row = c.cells.values.size();
  c.cells.values.push_back(x != nullptr ? *x : 0);
  if (!c.cells.nulls.empty() && row % 64 == 0) c.cells.nulls.push_back(0);
  if (x == nullptr) MarkNull(c, row);
  if (std::vector<Value>* boxed = c.boxed.built()) boxed->push_back(v);
}

void ColumnStore::SetInt64(TypedInt64Column& c, std::size_t row,
                           const Value& v) {
  const std::int64_t* x = v.TryInt64();
  CATMARK_CHECK(x != nullptr || v.is_null())
      << "non-INT64 value in an INT64 column";
  c.cells.values[row] = x != nullptr ? *x : 0;
  if (x != nullptr) {
    ClearNull(c, row);
  } else {
    MarkNull(c, row);
  }
  if (std::vector<Value>* boxed = c.boxed.built()) (*boxed)[row] = v;
}

std::int32_t ColumnStore::Intern(DictColumn& c, const Value& v) {
  return InternSerialized(c, v.SerializeKeyInto(scratch_), v);
}

std::int32_t ColumnStore::InternSerialized(DictColumn& c,
                                           std::string_view key,
                                           const Value& v) {
  const auto it = c.code_of.find(key);
  if (it != c.code_of.end()) return it->second;
  CATMARK_CHECK_LT(c.dict.size(),
                   static_cast<std::size_t>(
                       std::numeric_limits<std::int32_t>::max()));
  const std::int32_t code = static_cast<std::int32_t>(c.dict.size());
  c.dict.push_back(v);
  c.live.push_back(0);
  c.code_of.emplace(std::string(key), code);
  return code;
}

void ColumnStore::AppendRow(Row row) {
  CATMARK_CHECK_EQ(row.size(), columns_.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (auto* d = std::get_if<DictColumn>(&columns_[i])) {
      if (row[i].is_null()) {
        d->codes.push_back(kNullCode);
      } else {
        const std::int32_t code = Intern(*d, row[i]);
        d->codes.push_back(code);
        ++d->live[static_cast<std::size_t>(code)];
      }
    } else if (auto* p = std::get_if<PlainColumn>(&columns_[i])) {
      p->values.push_back(std::move(row[i]));
    } else {
      AppendInt64(std::get<TypedInt64Column>(columns_[i]), row[i]);
    }
  }
  ++num_rows_;
}

void ColumnStore::AppendRows(std::span<Row> rows) {
  for (const Row& row : rows) CATMARK_CHECK_EQ(row.size(), columns_.size());
  // Grow geometrically when a batch overflows capacity: reserve(size + n)
  // would set capacity *exactly*, so a steady stream of batches would
  // reallocate (and copy) every column on every batch — O(N^2) growth.
  const auto grow = [n = rows.size()](auto& vec) {
    if (vec.size() + n > vec.capacity()) {
      vec.reserve(std::max(vec.size() + n, vec.capacity() * 2));
    }
  };
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (auto* d = std::get_if<DictColumn>(&columns_[c])) {
      grow(d->codes);
      // Streamed batches tend to carry runs of the same value, so memoize
      // the last interned key's canonical bytes and skip the dictionary
      // probe while the run lasts. Comparing serialized bytes (not Value
      // equality) keeps code assignment byte-identical to the row-at-a-time
      // path: e.g. -0.0 == 0.0 as doubles but they serialize differently.
      std::vector<std::uint8_t> last_key;
      std::int32_t last_code = kNullCode;
      for (Row& row : rows) {
        if (row[c].is_null()) {
          d->codes.push_back(kNullCode);
          continue;
        }
        const std::string_view key = row[c].SerializeKeyInto(scratch_);
        const std::string_view last(
            reinterpret_cast<const char*>(last_key.data()), last_key.size());
        std::int32_t code;
        if (!last.empty() && key == last) {
          code = last_code;
        } else {
          code = InternSerialized(*d, key, row[c]);
          last_key.assign(key.begin(), key.end());
          last_code = code;
        }
        d->codes.push_back(code);
        ++d->live[static_cast<std::size_t>(code)];
      }
    } else if (auto* p = std::get_if<PlainColumn>(&columns_[c])) {
      grow(p->values);
      for (Row& row : rows) p->values.push_back(std::move(row[c]));
    } else {
      TypedInt64Column& col = std::get<TypedInt64Column>(columns_[c]);
      grow(col.cells.values);
      for (const Row& row : rows) AppendInt64(col, row[c]);
    }
  }
  num_rows_ += rows.size();
}

void ColumnStore::AppendRowsFrom(const ColumnStore& src,
                                 const std::vector<std::size_t>& indices) {
  CATMARK_CHECK(this != &src) << "self-append requires the row path";
  CATMARK_CHECK_EQ(columns_.size(), src.columns_.size());
  // One validation pass; the per-column copy loops below can then index
  // unchecked.
  for (const std::size_t i : indices) CATMARK_CHECK_LT(i, src.num_rows_);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    CATMARK_CHECK_EQ(columns_[c].index(), src.columns_[c].index());
    if (auto* d = std::get_if<DictColumn>(&columns_[c])) {
      const DictColumn& s = std::get<DictColumn>(src.columns_[c]);
      // Lazily translate source codes: each referenced dictionary entry is
      // interned once, however many rows carry it.
      constexpr std::int32_t kUntranslated = -2;
      std::vector<std::int32_t> xlate(s.dict.size(), kUntranslated);
      d->codes.reserve(d->codes.size() + indices.size());
      for (const std::size_t i : indices) {
        const std::int32_t code = s.codes[i];
        if (code < 0) {
          d->codes.push_back(kNullCode);
          continue;
        }
        std::int32_t& mapped = xlate[static_cast<std::size_t>(code)];
        if (mapped == kUntranslated) {
          mapped = Intern(*d, s.dict[static_cast<std::size_t>(code)]);
        }
        d->codes.push_back(mapped);
        ++d->live[static_cast<std::size_t>(mapped)];
      }
    } else if (auto* p = std::get_if<PlainColumn>(&columns_[c])) {
      const auto& s = std::get<PlainColumn>(src.columns_[c]).values;
      p->values.reserve(p->values.size() + indices.size());
      for (const std::size_t i : indices) p->values.push_back(s[i]);
    } else {
      TypedInt64Column& col = std::get<TypedInt64Column>(columns_[c]);
      const Int64Cells& s = std::get<TypedInt64Column>(src.columns_[c]).cells;
      col.cells.values.reserve(col.cells.values.size() + indices.size());
      for (const std::size_t i : indices) AppendInt64(col, s.cell(i));
    }
  }
  num_rows_ += indices.size();
}

const Value& ColumnStore::Get(std::size_t row, std::size_t col) const {
  CATMARK_CHECK_LT(row, num_rows_);
  CATMARK_CHECK_LT(col, columns_.size());
  if (const auto* d = std::get_if<DictColumn>(&columns_[col])) {
    const std::int32_t c = d->codes[row];
    return c < 0 ? NullValue() : d->dict[static_cast<std::size_t>(c)];
  }
  if (const auto* p = std::get_if<PlainColumn>(&columns_[col])) {
    return p->values[row];
  }
  const TypedInt64Column& c = std::get<TypedInt64Column>(columns_[col]);
  return c.boxed.Get(c.cells)[row];
}

void ColumnStore::Set(std::size_t row, std::size_t col, Value v) {
  CATMARK_CHECK_LT(row, num_rows_);
  CATMARK_CHECK_LT(col, columns_.size());
  if (auto* d = std::get_if<DictColumn>(&columns_[col])) {
    const std::int32_t code = v.is_null() ? kNullCode : Intern(*d, v);
    const std::int32_t old = d->codes[row];
    if (old >= 0) --d->live[static_cast<std::size_t>(old)];
    if (code >= 0) ++d->live[static_cast<std::size_t>(code)];
    d->codes[row] = code;
    return;
  }
  if (auto* p = std::get_if<PlainColumn>(&columns_[col])) {
    p->values[row] = std::move(v);
    return;
  }
  SetInt64(std::get<TypedInt64Column>(columns_[col]), row, v);
}

void ColumnStore::SwapRemoveRow(std::size_t i) {
  CATMARK_CHECK_LT(i, num_rows_);
  const std::size_t last = num_rows_ - 1;
  for (auto& col : columns_) {
    if (auto* d = std::get_if<DictColumn>(&col)) {
      const std::int32_t removed = d->codes[i];
      if (removed >= 0) --d->live[static_cast<std::size_t>(removed)];
      d->codes[i] = d->codes[last];
      d->codes.pop_back();
    } else if (auto* p = std::get_if<PlainColumn>(&col)) {
      p->values[i] = std::move(p->values[last]);
      p->values.pop_back();
    } else {
      TypedInt64Column& c = std::get<TypedInt64Column>(col);
      ClearNull(c, i);
      if (i != last) {
        c.cells.values[i] = c.cells.values[last];
        if (c.cells.is_null(last)) {
          MarkNull(c, i);
          ClearNull(c, last);
        }
      }
      c.cells.values.pop_back();
      if (!c.cells.nulls.empty()) {
        c.cells.nulls.resize((c.cells.values.size() + 63) / 64);
      }
      if (std::vector<Value>* boxed = c.boxed.built()) {
        (*boxed)[i] = std::move((*boxed)[last]);
        boxed->pop_back();
      }
    }
  }
  --num_rows_;
}

Row ColumnStore::MaterializeRow(std::size_t i) const {
  CATMARK_CHECK_LT(i, num_rows_);
  Row row;
  row.reserve(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    // Int64 cells are copied straight out: materializing builds no view.
    const auto* col = std::get_if<TypedInt64Column>(&columns_[c]);
    row.push_back(col != nullptr ? col->cells.cell(i) : Get(i, c));
  }
  return row;
}

bool ColumnStore::IsDictColumn(std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  return std::holds_alternative<DictColumn>(columns_[col]);
}

ColumnStore::DictColumn& ColumnStore::dict_column(std::size_t col) {
  CATMARK_CHECK_LT(col, columns_.size());
  auto* d = std::get_if<DictColumn>(&columns_[col]);
  CATMARK_CHECK(d != nullptr) << "column " << col << " is not dict-encoded";
  return *d;
}

const ColumnStore::DictColumn& ColumnStore::dict_column(
    std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  const auto* d = std::get_if<DictColumn>(&columns_[col]);
  CATMARK_CHECK(d != nullptr) << "column " << col << " is not dict-encoded";
  return *d;
}

const std::vector<std::int32_t>& ColumnStore::Codes(std::size_t col) const {
  return dict_column(col).codes;
}

const std::vector<Value>& ColumnStore::Dict(std::size_t col) const {
  return dict_column(col).dict;
}

const std::vector<std::int64_t>& ColumnStore::DictLiveCounts(
    std::size_t col) const {
  return dict_column(col).live;
}

ColumnStore::TypedInt64Column& ColumnStore::int64_column(std::size_t col) {
  CATMARK_CHECK_LT(col, columns_.size());
  auto* c = std::get_if<TypedInt64Column>(&columns_[col]);
  CATMARK_CHECK(c != nullptr) << "column " << col << " is not typed INT64";
  return *c;
}

const ColumnStore::TypedInt64Column& ColumnStore::int64_column(
    std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  const auto* c = std::get_if<TypedInt64Column>(&columns_[col]);
  CATMARK_CHECK(c != nullptr) << "column " << col << " is not typed INT64";
  return *c;
}

bool ColumnStore::IsInt64Column(std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  return std::holds_alternative<TypedInt64Column>(columns_[col]);
}

const Int64Cells& ColumnStore::Int64Column(std::size_t col) const {
  return int64_column(col).cells;
}

const std::vector<Value>& ColumnStore::PlainValues(std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  const auto* p = std::get_if<PlainColumn>(&columns_[col]);
  CATMARK_CHECK(p != nullptr)
      << "column " << col << " is dict-encoded or typed INT64";
  return p->values;
}

bool ColumnStore::IsNull(std::size_t row, std::size_t col) const {
  CATMARK_CHECK_LT(row, num_rows_);
  CATMARK_CHECK_LT(col, columns_.size());
  if (const auto* d = std::get_if<DictColumn>(&columns_[col])) {
    return d->codes[row] < 0;
  }
  if (const auto* p = std::get_if<PlainColumn>(&columns_[col])) {
    return p->values[row].is_null();
  }
  return std::get<TypedInt64Column>(columns_[col]).cells.is_null(row);
}

std::string_view ColumnStore::CellKey(
    std::size_t row, std::size_t col,
    std::vector<std::uint8_t>& scratch) const {
  CATMARK_CHECK_LT(row, num_rows_);
  CATMARK_CHECK_LT(col, columns_.size());
  if (const auto* c = std::get_if<TypedInt64Column>(&columns_[col])) {
    return c->cells.cell(row).SerializeKeyInto(scratch);
  }
  return Get(row, col).SerializeKeyInto(scratch);
}

bool ColumnStore::BoxedViewBuilt(std::size_t col) const {
  CATMARK_CHECK_LT(col, columns_.size());
  const auto* c = std::get_if<TypedInt64Column>(&columns_[col]);
  return c != nullptr && c->boxed.built() != nullptr;
}

std::int32_t ColumnStore::InternValue(std::size_t col, const Value& v) {
  if (v.is_null()) return kNullCode;
  return Intern(dict_column(col), v);
}

std::int32_t ColumnStore::CodeOf(std::size_t col, const Value& v) const {
  if (v.is_null()) return kNullCode;
  const DictColumn& d = dict_column(col);
  std::vector<std::uint8_t> scratch;
  const auto it = d.code_of.find(v.SerializeKeyInto(scratch));
  return it == d.code_of.end() ? kNullCode : it->second;
}

std::int32_t ColumnStore::GetCode(std::size_t row, std::size_t col) const {
  CATMARK_CHECK_LT(row, num_rows_);
  return dict_column(col).codes[row];
}

void ColumnStore::SetCode(std::size_t row, std::size_t col,
                          std::int32_t code) {
  CATMARK_CHECK_LT(row, num_rows_);
  DictColumn& d = dict_column(col);
  CATMARK_CHECK(code >= kNullCode &&
                code < static_cast<std::int32_t>(d.dict.size()));
  const std::int32_t old = d.codes[row];
  if (old >= 0) --d.live[static_cast<std::size_t>(old)];
  if (code >= 0) ++d.live[static_cast<std::size_t>(code)];
  d.codes[row] = code;
}

Status ColumnStore::InstallDictColumn(std::size_t col,
                                      std::vector<Value> dict,
                                      std::vector<std::int64_t> live,
                                      std::vector<std::int32_t> codes) {
  CATMARK_CHECK_EQ(num_rows_, 0u) << "install on a non-fresh store";
  CATMARK_CHECK_LT(col, columns_.size());
  auto* d = std::get_if<DictColumn>(&columns_[col]);
  CATMARK_CHECK(d != nullptr) << "column " << col << " is not dict-encoded";
  CATMARK_CHECK(d->codes.empty() && d->dict.empty())
      << "column " << col << " installed twice";
  if (live.size() != dict.size()) {
    return Status::InvalidArgument(
        "dict column: live-count array does not match dictionary size");
  }
  // Rebuild the intern map; a duplicate canonical key means two codes would
  // alias one value and future interns could not reproduce the assignment.
  d->code_of.reserve(dict.size());
  for (std::size_t i = 0; i < dict.size(); ++i) {
    if (dict[i].is_null()) {
      return Status::InvalidArgument("dict column: NULL dictionary entry");
    }
    const std::string_view key = dict[i].SerializeKeyInto(scratch_);
    if (!d->code_of.emplace(std::string(key), static_cast<std::int32_t>(i))
             .second) {
      return Status::InvalidArgument(
          "dict column: duplicate dictionary entry");
    }
  }
  // Codes must land inside the dictionary and explain the live counts
  // exactly — live counts are stored (not derived) so a corrupted-but-
  // checksum-valid mismatch is treated as a malformed file, not repaired.
  std::vector<std::int64_t> recounted(dict.size(), 0);
  for (const std::int32_t code : codes) {
    if (code == kNullCode) continue;
    if (code < 0 || static_cast<std::size_t>(code) >= dict.size()) {
      return Status::InvalidArgument("dict column: code out of range");
    }
    ++recounted[static_cast<std::size_t>(code)];
  }
  if (recounted != live) {
    return Status::InvalidArgument(
        "dict column: live counts disagree with the code vector");
  }
  d->dict = std::move(dict);
  d->live = std::move(live);
  d->codes = std::move(codes);
  return Status::OK();
}

Status ColumnStore::InstallPlainColumn(std::size_t col,
                                       std::vector<Value> values) {
  CATMARK_CHECK_EQ(num_rows_, 0u) << "install on a non-fresh store";
  CATMARK_CHECK_LT(col, columns_.size());
  auto* p = std::get_if<PlainColumn>(&columns_[col]);
  CATMARK_CHECK(p != nullptr)
      << "column " << col << " is dict-encoded or typed INT64";
  CATMARK_CHECK(p->values.empty()) << "column " << col << " installed twice";
  p->values = std::move(values);
  return Status::OK();
}

Status ColumnStore::InstallInt64Column(std::size_t col, Int64Cells cells) {
  CATMARK_CHECK_EQ(num_rows_, 0u) << "install on a non-fresh store";
  TypedInt64Column& c = int64_column(col);
  CATMARK_CHECK(c.cells.values.empty())
      << "column " << col << " installed twice";
  const std::size_t rows = cells.values.size();
  std::size_t null_count = 0;
  if (!cells.nulls.empty()) {
    if (cells.nulls.size() != (rows + 63) / 64) {
      return Status::InvalidArgument(
          "int64 column: NULL bitmap does not match the row count");
    }
    if (rows % 64 != 0 && (cells.nulls.back() >> (rows % 64)) != 0) {
      return Status::InvalidArgument(
          "int64 column: NULL bitmap marks rows past the end");
    }
    for (std::size_t w = 0; w < cells.nulls.size(); ++w) {
      std::uint64_t word = cells.nulls[w];
      null_count += static_cast<std::size_t>(std::popcount(word));
      for (; word != 0; word &= word - 1) {
        const std::size_t r =
            64 * w + static_cast<std::size_t>(std::countr_zero(word));
        if (cells.values[r] != 0) {
          return Status::InvalidArgument(
              "int64 column: NULL row holds a non-zero value");
        }
      }
    }
    if (null_count == 0) cells.nulls.clear();
  }
  c.cells = std::move(cells);
  c.null_count = null_count;
  c.boxed.Reset();  // a view of the empty column, if one was read, is stale
  return Status::OK();
}

Status ColumnStore::FinalizeInstall(std::size_t num_rows) {
  CATMARK_CHECK_EQ(num_rows_, 0u) << "finalize on a non-fresh store";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::size_t rows;
    if (const auto* d = std::get_if<DictColumn>(&columns_[c])) {
      rows = d->codes.size();
    } else if (const auto* p = std::get_if<PlainColumn>(&columns_[c])) {
      rows = p->values.size();
    } else {
      rows = std::get<TypedInt64Column>(columns_[c]).cells.values.size();
    }
    if (rows != num_rows) {
      return Status::InvalidArgument(
          "column " + std::to_string(c) + " holds " + std::to_string(rows) +
          " rows, expected " + std::to_string(num_rows));
    }
  }
  num_rows_ = num_rows;
  return Status::OK();
}

std::vector<Value> ColumnStore::TakePlainColumn(std::size_t col) {
  CATMARK_CHECK_LT(col, columns_.size());
  auto* p = std::get_if<PlainColumn>(&columns_[col]);
  CATMARK_CHECK(p != nullptr)
      << "column " << col << " is dict-encoded or typed INT64";
  return std::move(p->values);
}

Int64Cells ColumnStore::TakeInt64Column(std::size_t col) {
  TypedInt64Column& c = int64_column(col);
  c.null_count = 0;
  c.boxed.Reset();
  return std::exchange(c.cells, Int64Cells{});
}

BulkCodeWriter::BulkCodeWriter(ColumnStore& store, std::size_t col,
                               std::size_t num_shards)
    : store_(store), col_(col) {
  CATMARK_CHECK_GE(num_shards, 1u);
  ColumnStore::DictColumn& d = store_.dict_column(col_);
  codes_ = &d.codes;
  live_delta_.assign(num_shards,
                     std::vector<std::int64_t>(d.dict.size(), 0));
}

BulkCodeWriter::~BulkCodeWriter() {
  CATMARK_CHECK(finished_)
      << "BulkCodeWriter destroyed with unreconciled live-count deltas";
}

void BulkCodeWriter::Finish() {
  if (finished_) return;
  finished_ = true;
  ColumnStore::DictColumn& d = store_.dict_column(col_);
  for (const std::vector<std::int64_t>& delta : live_delta_) {
    for (std::size_t code = 0; code < delta.size(); ++code) {
      d.live[code] += delta[code];
    }
  }
}

ColumnReader::ColumnReader(const ColumnStore& store, std::size_t col) {
  if (store.IsDictColumn(col)) {
    codes_ = &store.Codes(col);
    dict_ = &store.Dict(col);
  } else if (store.IsInt64Column(col)) {
    const ColumnStore::TypedInt64Column& c = store.int64_column(col);
    values_ = &c.boxed.Get(c.cells);
  } else {
    values_ = &store.PlainValues(col);
  }
}

}  // namespace catmark
