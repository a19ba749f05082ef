#ifndef CATMARK_RELATION_COLUMN_STORE_H_
#define CATMARK_RELATION_COLUMN_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "relation/schema.h"
#include "relation/value.h"

namespace catmark {

/// Transparent string hash: lets std::string-keyed maps probe with a
/// std::string_view (or char*) without materializing a key copy.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// The shared NULL value — Get on a NULL cell returns a reference to this.
const Value& NullValue();

/// Cells of a typed int64 column: one raw int64 per row plus a NULL bitmap.
/// NULL rows hold 0 in `values`; bit (r % 64) of `nulls[r / 64]` is set when
/// row r is NULL. The bitmap is empty while the column holds no NULL, and
/// otherwise has exactly ceil(rows / 64) words with no bit set past the
/// last row.
struct Int64Cells {
  std::vector<std::int64_t> values;
  std::vector<std::uint64_t> nulls;

  bool is_null(std::size_t row) const {
    return !nulls.empty() && ((nulls[row >> 6] >> (row & 63)) & 1) != 0;
  }

  /// Row `row` as a Value (NULL or int64).
  Value cell(std::size_t row) const {
    if (is_null(row)) return Value();
    return Value(values[row]);
  }
};

/// The non-NULL keys of rows [begin, end) of a typed int64 column, for the
/// keyed-hash kernels. Sets `count` and returns a pointer to that many
/// keys. While the range holds no NULL that pointer is into the column
/// itself and `rows` is left empty (key i is row begin + i); otherwise the
/// keys are compacted into `gathered` (sized >= end - begin by the caller)
/// and `rows` receives each key's row.
const std::int64_t* Int64KeyChunk(const Int64Cells& cells, std::size_t begin,
                                  std::size_t end, std::int64_t* gathered,
                                  std::vector<std::uint32_t>& rows,
                                  std::size_t& count);

/// Column-major tuple storage behind Relation.
///
/// Each categorical column is dictionary-encoded: cells are int32 codes into
/// a per-column dictionary of distinct values (code kNullCode marks NULL),
/// interned through a transparent-hash map over the values' canonical hash
/// serialization. The dictionary also tracks a live-occurrence count per
/// code, so "which distinct values are present, and how often" — domain
/// recovery, frequency histograms, the embedder's category-draining guard —
/// costs O(dictionary) instead of a full O(N) column scan.
///
/// Non-categorical columns (keys, measures) skip the dictionary: their
/// values are mostly distinct, so a dictionary would just add an
/// indirection on every access. A non-categorical kInt64 column is *typed*:
/// its cells are an Int64Cells (8 bytes a row plus a NULL bitmap) instead of
/// one 40-byte Value a row, and the .catm reader and writer, the keyed-hash
/// kernels and the embedding map read it through Int64Column(). Other
/// non-categorical columns (doubles, strings) stay a column-major
/// std::vector<Value> (PlainValues()). A typed int64 column holds only
/// int64s and NULLs; storing any other value in one is a CHECK failure.
///
/// Get() returns `const Value&` for every column, with the same lifetime as
/// ever: valid until the cell is next mutated or the column grows. On a
/// typed int64 column it is served from a boxed per-row Value view, built
/// once (under std::call_once, so concurrent readers are safe) by the first
/// Get or ColumnReader on that column and kept in step by every later
/// mutation. The view costs what the untyped column did, so the library's
/// own per-row paths never build it: they read Int64Column(), CellKey() or
/// dictionary codes instead. BoxedViewBuilt() reports whether it exists.
///
/// Sion's channel is per-tuple-per-attribute, which makes the embed/detect
/// hot loops stream exactly one column at a time; the int32 code arrays keep
/// those passes cache-resident where row-of-Value storage thrashed.
class ColumnStore {
 public:
  static constexpr std::int32_t kNullCode = -1;

  ColumnStore() = default;

  /// Lays out one column per schema attribute: dictionary-encoded when
  /// `categorical`, typed int64 for other kInt64 columns, plain otherwise.
  explicit ColumnStore(const Schema& schema);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }

  void Reserve(std::size_t n);

  /// Appends a tuple; `row.size()` must equal num_columns() (checked).
  void AppendRow(Row row);

  /// Bulk-appends `rows` (each of arity num_columns(), checked in one
  /// up-front sweep), consuming them. Column-major: each column's cells
  /// append in row order, so dictionary code assignment is identical to
  /// issuing the same AppendRow calls one at a time — only the per-row
  /// variant dispatch and map-growth churn are amortized away. The
  /// streaming insert path batches through this.
  void AppendRows(std::span<Row> rows);

  /// Bulk-appends rows `indices` of `src`, which must have the same column
  /// layout (checked) and not be this store. Dictionary columns intern each
  /// *referenced* source dictionary entry once and translate codes;
  /// fallback columns copy values — no per-cell re-serialization, unlike
  /// the row-at-a-time path.
  void AppendRowsFrom(const ColumnStore& src,
                      const std::vector<std::size_t>& indices);

  /// Cell value; NULL cells return NullValue(). The reference is valid until
  /// the cell (or, for dictionary columns, the dictionary) is next mutated.
  const Value& Get(std::size_t row, std::size_t col) const;

  /// Overwrites one cell (no type validation — Relation layers that on top).
  void Set(std::size_t row, std::size_t col, Value v);

  /// Removes row `i` by swapping the last row into its slot: O(columns).
  void SwapRemoveRow(std::size_t i);

  /// Materializes row `i` as a Row of Value copies.
  Row MaterializeRow(std::size_t i) const;

  // --- Columnar access (the hot-path surface) ------------------------------

  bool IsDictColumn(std::size_t col) const;

  /// Per-row dictionary codes of a dictionary column. The returned vector's
  /// identity is stable across Set/Intern (only elements change); it grows /
  /// shrinks with AppendRow / SwapRemoveRow.
  const std::vector<std::int32_t>& Codes(std::size_t col) const;

  /// code -> value dictionary of a dictionary column. Append-only: codes are
  /// never recycled, so an entry may outlive its last occurrence (its live
  /// count drops to 0 instead).
  const std::vector<Value>& Dict(std::size_t col) const;

  /// Rows currently holding each code (parallel to Dict). Entries with a
  /// zero count are "dead": interned but not present in any row.
  const std::vector<std::int64_t>& DictLiveCounts(std::size_t col) const;

  /// True for a typed int64 column (non-categorical kInt64).
  bool IsInt64Column(std::size_t col) const;

  /// Raw cells of a typed int64 column. The reference is stable; its
  /// vectors change with the column.
  const Int64Cells& Int64Column(std::size_t col) const;

  /// Per-row values of a plain column that is neither dictionary-encoded
  /// nor typed int64 (CHECKed): double and string columns.
  const std::vector<Value>& PlainValues(std::size_t col) const;

  /// True when `row`'s cell in `col` is NULL. Builds no view.
  bool IsNull(std::size_t row, std::size_t col) const;

  /// Canonical key bytes of one cell (Value::SerializeForHash form, NULL
  /// cells included), serialized into `scratch` (cleared first) without
  /// building a boxed view. The view is valid until `scratch` changes.
  std::string_view CellKey(std::size_t row, std::size_t col,
                           std::vector<std::uint8_t>& scratch) const;

  /// Whether Get or a ColumnReader has built `col`'s boxed Value view. Only
  /// a typed int64 column ever has one.
  bool BoxedViewBuilt(std::size_t col) const;

  /// Interns `v` into `col`'s dictionary without touching any row; returns
  /// its code. NULL interns as kNullCode.
  std::int32_t InternValue(std::size_t col, const Value& v);

  /// Code of `v` in `col`'s dictionary, or kNullCode when absent/NULL.
  std::int32_t CodeOf(std::size_t col, const Value& v) const;

  /// Cell code of a dictionary column (kNullCode for NULL cells).
  std::int32_t GetCode(std::size_t row, std::size_t col) const;

  /// Overwrites a dictionary cell by code; `code` must be kNullCode or a
  /// valid code for `col` (checked).
  void SetCode(std::size_t row, std::size_t col, std::int32_t code);

  // --- Wholesale column installation (the zero-re-intern load surface) -----
  //
  // The .catm loader and the parallel-ingest dictionary merge build columns
  // elsewhere (from disk sections / per-shard stores) and adopt them here
  // without touching the per-row intern path. Contract: the store must be
  // freshly constructed for the right schema (num_rows() == 0, CHECKed),
  // each column installed at most once, and FinalizeInstall called last —
  // a partially-installed store is not usable through the row API.
  //
  // Everything data-dependent is validated with a Status (the inputs come
  // from disk and must never crash the process): duplicate or NULL
  // dictionary entries, codes outside [kNullCode, dict size), and live
  // counts that disagree with the code vector all return InvalidArgument.
  // Code assignment is adopted verbatim — including dead (zero-live)
  // entries — so a loaded store is code-for-code identical to the one that
  // was serialized.

  /// Installs a dictionary column from pre-encoded parts; rebuilds the
  /// intern map from `dict` (O(dictionary), the only non-bulk work).
  Status InstallDictColumn(std::size_t col, std::vector<Value> dict,
                           std::vector<std::int64_t> live,
                           std::vector<std::int32_t> codes);

  /// Installs a plain (double or string) column's per-row values.
  Status InstallPlainColumn(std::size_t col, std::vector<Value> values);

  /// Installs a typed int64 column. InvalidArgument when the bitmap is
  /// neither empty nor ceil(rows / 64) words, sets a bit past the last row,
  /// or marks a row NULL whose value is not 0. An all-zero bitmap is
  /// dropped.
  Status InstallInt64Column(std::size_t col, Int64Cells cells);

  /// Verifies every column holds exactly `num_rows` cells and commits the
  /// row count; InvalidArgument (and the store stays inert) otherwise.
  Status FinalizeInstall(std::size_t num_rows);

  /// Move a plain or typed int64 column's cells out (the column is left
  /// empty). The parallel-ingest merge concatenates shard columns through
  /// these instead of copying every string.
  std::vector<Value> TakePlainColumn(std::size_t col);
  Int64Cells TakeInt64Column(std::size_t col);

 private:
  friend class BulkCodeWriter;
  friend class ColumnReader;
  struct DictColumn {
    std::vector<std::int32_t> codes;   // per-row; kNullCode == NULL
    std::vector<Value> dict;           // code -> value, append-only
    std::vector<std::int64_t> live;    // code -> rows currently holding it
    // Canonical hash serialization of each dict value -> its code.
    std::unordered_map<std::string, std::int32_t, TransparentStringHash,
                       std::equal_to<>>
        code_of;
  };
  struct PlainColumn {
    std::vector<Value> values;  // per-row
  };
  /// Lazily built per-row Values of a typed int64 column, serving Get. A
  /// copy starts unbuilt (it rebuilds from its own cells on demand); a move
  /// carries a built view along, so references into it stay valid.
  class BoxedView {
   public:
    BoxedView() : state_(std::make_unique<State>()) {}
    BoxedView(const BoxedView&) : BoxedView() {}
    BoxedView& operator=(const BoxedView&) {
      state_ = std::make_unique<State>();
      return *this;
    }
    BoxedView(BoxedView&&) noexcept = default;
    BoxedView& operator=(BoxedView&&) noexcept = default;

    /// The view, built from `cells` on first use; safe to call concurrently.
    const std::vector<Value>& Get(const Int64Cells& cells) const;
    /// The built view for a mutation to keep in step, or nullptr.
    std::vector<Value>* built() const {
      return state_ != nullptr && state_->built.load(std::memory_order_acquire)
                 ? &state_->values
                 : nullptr;
    }
    /// Drops a built view (the cells were moved out).
    void Reset() { state_ = std::make_unique<State>(); }

   private:
    struct State {
      std::once_flag once;
      std::atomic<bool> built{false};
      std::vector<Value> values;
    };
    std::unique_ptr<State> state_;
  };
  struct TypedInt64Column {
    Int64Cells cells;
    std::size_t null_count = 0;  // rows whose bit is set in cells.nulls
    BoxedView boxed;
  };
  using AnyColumn = std::variant<DictColumn, PlainColumn, TypedInt64Column>;

  DictColumn& dict_column(std::size_t col);
  const DictColumn& dict_column(std::size_t col) const;
  TypedInt64Column& int64_column(std::size_t col);
  const TypedInt64Column& int64_column(std::size_t col) const;

  /// Appends one cell (int64 or NULL, CHECKed) to a typed int64 column.
  static void AppendInt64(TypedInt64Column& c, const Value& v);
  /// Overwrites one cell (int64 or NULL, CHECKed) of a typed int64 column.
  static void SetInt64(TypedInt64Column& c, std::size_t row, const Value& v);
  /// Sets row `row`'s NULL bit, creating the bitmap on the first NULL.
  static void MarkNull(TypedInt64Column& c, std::size_t row);
  /// Clears row `row`'s NULL bit, dropping the bitmap with the last NULL.
  static void ClearNull(TypedInt64Column& c, std::size_t row);

  std::int32_t Intern(DictColumn& c, const Value& v);
  /// Intern with the canonical key bytes already serialized (`key` must be
  /// `v.SerializeKeyInto(...)` output) — the batch append path serializes
  /// once per row and reuses the bytes for its run-of-equal-values memo.
  std::int32_t InternSerialized(DictColumn& c, std::string_view key,
                                const Value& v);

  std::vector<AnyColumn> columns_;
  std::size_t num_rows_ = 0;
  // Reused serialization buffer for intern probes (single-threaded mutation
  // path; readers never touch it).
  std::vector<std::uint8_t> scratch_;
};

/// Bulk code-write path for sharded writers (the parallel embed apply
/// pass). SetCode is not safe to call concurrently — every write touches
/// the column's shared live-count array — so BulkCodeWriter splits the work:
/// Write(shard, row, code) performs the raw per-row code-slot store plus a
/// *shard-local* live-count delta, and Finish() reconciles the deltas into
/// the dictionary's live counts in one serial pass. Concurrent Write calls
/// are safe as long as (a) each row is written by at most one shard and
/// (b) no other mutation of the store overlaps the writer's lifetime. The
/// final store state is identical to issuing the same SetCode calls
/// serially, in any order.
class BulkCodeWriter {
 public:
  /// All codes written must already be interned in `col`'s dictionary —
  /// Write never grows it (interning mutates shared maps).
  BulkCodeWriter(ColumnStore& store, std::size_t col, std::size_t num_shards);

  /// Destructor CHECKs that Finish() ran: dropping pending deltas would
  /// silently corrupt the live counts.
  ~BulkCodeWriter();

  BulkCodeWriter(const BulkCodeWriter&) = delete;
  BulkCodeWriter& operator=(const BulkCodeWriter&) = delete;

  /// Overwrites `row`'s code with `code` (must be a valid non-NULL code for
  /// the column, checked) and records the live-count delta against `shard`.
  void Write(std::size_t shard, std::size_t row, std::int32_t code) {
    CATMARK_CHECK_LT(shard, live_delta_.size());
    CATMARK_CHECK_LT(row, codes_->size());
    CATMARK_CHECK(code >= 0 &&
                  static_cast<std::size_t>(code) < live_delta_[shard].size());
    std::vector<std::int64_t>& delta = live_delta_[shard];
    const std::int32_t old = (*codes_)[row];
    if (old >= 0) --delta[static_cast<std::size_t>(old)];
    ++delta[static_cast<std::size_t>(code)];
    (*codes_)[row] = code;
  }

  /// Serially folds every shard's live-count deltas into the dictionary.
  /// Idempotent; Write must not be called afterwards.
  void Finish();

 private:
  ColumnStore& store_;
  std::size_t col_;
  std::vector<std::int32_t>* codes_;  // the column's per-row code slots
  // live_delta_[shard][code]: net change in rows holding `code`.
  std::vector<std::vector<std::int64_t>> live_delta_;
  bool finished_ = false;
};

/// Cheap positional cursor over one column for per-row Value reads:
/// resolves the column layout once at construction, then reads row values
/// with two indexed loads. On a typed int64 column it reads the boxed view,
/// building it if needed (hot paths read Int64Column() instead). `store`
/// must outlive the reader.
class ColumnReader {
 public:
  ColumnReader(const ColumnStore& store, std::size_t col);

  const Value& operator[](std::size_t row) const {
    if (codes_ != nullptr) {
      const std::int32_t c = (*codes_)[row];
      return c < 0 ? NullValue() : (*dict_)[static_cast<std::size_t>(c)];
    }
    return (*values_)[row];
  }

  bool is_dict() const { return codes_ != nullptr; }

 private:
  const std::vector<std::int32_t>* codes_ = nullptr;
  const std::vector<Value>* dict_ = nullptr;
  const std::vector<Value>* values_ = nullptr;
};

}  // namespace catmark

#endif  // CATMARK_RELATION_COLUMN_STORE_H_
