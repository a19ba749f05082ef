#ifndef CATMARK_SERVICE_SESSION_H_
#define CATMARK_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/certificate.h"
#include "core/embedder.h"
#include "core/keys.h"
#include "core/params.h"
#include "core/tuple_plan.h"
#include "crypto/prf.h"
#include "relation/column_store.h"
#include "relation/domain.h"
#include "relation/relation.h"

namespace catmark {

/// Everything a streaming watermark session needs, in one value: the secret
/// keys, the scheme parameters with the keyed-PRF backend *pinned*
/// (params.prf must be set — a session that re-resolved CATMARK_PRF in some
/// later process would embed marks invisible to dispute-time detection), the
/// attribute pair, the categorical domain, the payload length and the mark
/// itself. This replaces the seed-era 5-argument IncrementalWatermarker
/// constructor: build one from the embedding that created the relation
/// (FromEmbedReport) or from a published certificate (FromCertificate), then
/// open a StreamSession over it.
struct SessionSpec {
  WatermarkKeySet keys;
  /// params.prf must hold a value (Validate enforces it) — the factories
  /// below pin it from the report / certificate.
  WatermarkParams params;
  std::string key_attr;
  std::string target_attr;
  /// The embed-time domain. Inserts select marked values from it, so it must
  /// be the one detection will use.
  CategoricalDomain domain;
  /// |wm_data| — must match the original embedding (>= wm.size()).
  std::size_t payload_length = 0;
  BitVector wm;
  /// Ceiling on the session's resident key->verdict cache (distinct keys).
  /// Keys past the cap still batch-hash correctly; they just are not
  /// memoized across batches. 0 disables the resident cache entirely.
  std::size_t key_cache_capacity = std::size_t{1} << 20;

  /// Builds a spec from the original embedding run — the streaming successor
  /// of the 5-arg IncrementalWatermarker constructor. An explicit
  /// `params.prf` wins; on auto (nullopt) the backend is pinned from the
  /// report, *not* re-resolved from CATMARK_PRF at insert time.
  static SessionSpec FromEmbedReport(WatermarkKeySet keys,
                                     WatermarkParams params,
                                     const EmbedOptions& options,
                                     const EmbedReport& report, BitVector wm);

  /// Builds a spec from a published certificate: verifies `keys` against the
  /// certificate's key commitment (FailedPrecondition on mismatch), then
  /// takes every parameter from the certificate. Certificates without a PRF
  /// field predate the PRF subsystem and mean the legacy keyed hash.
  static Result<SessionSpec> FromCertificate(
      const WatermarkCertificate& certificate, const WatermarkKeySet& keys);

  /// Structural validation: keys valid, attributes named, domain of size
  /// >= 2, e >= 1, a pinned PRF backend, a non-empty mark that fits the
  /// payload length.
  Status Validate() const;
};

/// What one insert batch did.
struct BatchReport {
  std::size_t rows = 0;          ///< rows appended
  std::size_t fit_rows = 0;      ///< rows satisfying the fitness test
  std::size_t altered_rows = 0;  ///< fit rows whose target cell changed
  /// Distinct keys that actually went through the keyed PRF this batch —
  /// cache hits (repeat keys) cost no hashing at all.
  std::size_t hashed_keys = 0;
};

/// A live streaming embedding session (Section 4.3, "as updates occur to
/// the data, the resulting tuples can be evaluated on the fly for 'fitness'
/// and watermarked accordingly") — the batched redesign of the seed-era
/// one-row-at-a-time IncrementalWatermarker.
///
/// InsertBatch runs the same per-tuple rule as the offline embedder and is
/// bit-compatible with it, but amortizes everything the row-at-a-time path
/// paid per insert:
///
///   - keys serialize chunk-wise into one arena and hash through a single
///     batched KeyedPrf call per chunk (kKeyHashBatch rows) — the typed
///     Hash64Int64Keys SIMD kernel when the whole chunk is int64 keys, the
///     Hash64Column view path otherwise — the same KeyHashBatch channel the
///     tuple_plan precompute uses;
///   - fitness/position verdicts for repeated keys come from a resident
///     key->verdict cache that survives across batches (a streaming feed
///     re-inserts the same customers all day);
///   - rows append through the columnar bulk path (one arity sweep, then
///     column-major interning) instead of per-row AppendRow.
///
/// Batches are atomic: the batch is validated against the relation's schema
/// up front, and on any error nothing is appended. A session is not
/// internally synchronized — it is single-writer (the WatermarkService runs
/// *distinct* sessions in parallel, never one session from two threads).
///
/// The session does not own the relation; Insert/InsertBatch/Refresh take it
/// explicitly, and a session may serve several relations of the same schema
/// shape (the column bindings re-resolve when the relation changes, the
/// key->verdict cache is relation-independent).
class StreamSession {
 public:
  /// Validates `spec` and builds the session: PRF key schedules, the
  /// ECC-expanded payload, the verdict cache.
  static Result<StreamSession> Create(SessionSpec spec);

  StreamSession(StreamSession&&) = default;
  StreamSession& operator=(StreamSession&&) = default;
  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Watermarks every fit row of `rows` in place and appends the whole batch
  /// to `rel`. On error (arity/type mismatch anywhere in the batch, unknown
  /// attribute) nothing is appended. `rows` is consumed.
  Result<BatchReport> InsertBatch(Relation& rel, std::span<Row> rows);

  /// Single-row convenience — a batch of one. Returns true when the tuple
  /// was fit (and therefore carries a mark bit).
  Result<bool> Insert(Relation& rel, Row row);

  /// Re-evaluates an updated tuple in place: when the key attribute of row
  /// `row_index` is fit, re-applies the embedding rule to the target
  /// attribute (an UPDATE that touched either attribute may have destroyed
  /// the bit). Returns true when the tuple is fit. Reuses the session's
  /// resident column bindings and verdict cache — a refresh of a key seen
  /// before performs no keyed hashing.
  Result<bool> Refresh(Relation& rel, std::size_t row_index);

  const SessionSpec& spec() const { return spec_; }
  const CategoricalDomain& domain() const { return spec_.domain; }
  std::size_t payload_length() const { return spec_.payload_length; }

  /// Lifetime totals across every batch.
  std::size_t total_rows() const { return total_rows_; }
  std::size_t total_fit() const { return total_fit_; }
  /// Distinct keys resident in the verdict cache.
  std::size_t cached_keys() const { return cache_.size(); }

 private:
  /// The memoized per-key outcome of the Section 3.2.1 hashes: fitness,
  /// the fitness hash itself (drives value selection) and the k2-derived
  /// payload position. Everything downstream (bit lookup, SelectValueIndex)
  /// is cheap integer work recomputed per row.
  struct Verdict {
    std::uint64_t h1 = 0;
    std::uint32_t payload_index = 0;
    bool fit = false;
    /// True while the key sits in the current chunk awaiting its batched
    /// hash; rows repeating a pending key defer their copy to after
    /// FinishChunk instead of reading the unfilled placeholder.
    bool pending = false;
  };
  using VerdictCache =
      std::unordered_map<std::string, Verdict, TransparentStringHash,
                         std::equal_to<>>;

  explicit StreamSession(SessionSpec spec);

  /// Binds key/target column indices for `rel`, memoized on the relation's
  /// schema identity so consecutive batches against the same relation skip
  /// the name lookups.
  Status BindColumns(const Relation& rel);

  /// Resolves the per-row verdicts for `rows[i][key_col_]` into
  /// `verdict_of_row_` (NULL keys keep the default unfit verdict), batching
  /// every cache miss through one Hash64Column call per chunk. Verdicts are
  /// copied out of the cache by value so the apply pass scans a flat array
  /// instead of chasing a map node per row. Returns the number of keys
  /// hashed.
  std::size_t ResolveVerdicts(std::span<const Row> rows);

  /// Finishes a chunk of misses: one batched k1 call (typed int64 kernel
  /// for all-int64 chunks), vectorized DivisibilityMask64 fitness, then one
  /// batched k2 call over the ~1/e fit entries.
  void FinishChunk(std::vector<Verdict*>& pending);

  /// Cache-or-compute for one key's serialized bytes (the Refresh path).
  /// Single-shot hashing on a miss.
  const Verdict& VerdictFor(std::string_view key);

  SessionSpec spec_;
  BitVector wm_data_;  // ECC-expanded payload
  // Built once: inserts must not pay the backend's key schedule (for
  // siphash24, a SHA-256 key derivation) per tuple, let alone per batch.
  std::unique_ptr<KeyedPrf> prf_k1_;
  std::unique_ptr<KeyedPrf> prf_k2_;

  // Resident key->verdict cache (bounded by spec_.key_cache_capacity).
  // overflow_ catches the keys of one batch past the cap so in-batch
  // duplicates still dedupe; it is cleared per batch.
  VerdictCache cache_;
  VerdictCache overflow_;

  // Column bindings for the relation last served, keyed on its schema's
  // identity.
  const Schema* bound_schema_ = nullptr;
  std::size_t key_col_ = 0;
  std::size_t target_col_ = 0;

  // Per-batch scratch, reused across batches.
  KeyHashBatch batch_;
  std::vector<Verdict*> pending_;
  // Per-chunk scratch of FinishChunk: the packed fitness mask, the fit
  // subset's indices, its gathered keys (typed or views) and k2 outputs.
  std::vector<std::uint64_t> fit_mask_;
  std::vector<std::size_t> fit_idx_;
  std::vector<std::int64_t> fit_i64_;
  std::vector<std::string_view> fit_views_;
  std::vector<std::uint64_t> h2_;
  // Rows whose key was still pending when scanned; their verdicts are
  // copied into verdict_of_row_ once the owning chunk has been hashed.
  std::vector<std::pair<std::size_t, const Verdict*>> pending_rows_;
  std::vector<Verdict> verdict_of_row_;
  std::vector<std::uint8_t> scratch_;

  std::size_t total_rows_ = 0;
  std::size_t total_fit_ = 0;
};

/// Compatibility wrapper over a StreamSession batch of one — the seed-era
/// incremental API, kept so no call site breaks. New code should use
/// SessionSpec + StreamSession (or WatermarkService) directly.
class IncrementalWatermarker {
 public:
  /// Deprecated 5-argument form — delegates to SessionSpec::FromEmbedReport.
  IncrementalWatermarker(WatermarkKeySet keys, WatermarkParams params,
                         const EmbedOptions& options, const EmbedReport& report,
                         BitVector wm);

  /// Spec form; CHECK-fails on an invalid spec (the Result-returning
  /// equivalent is StreamSession::Create).
  explicit IncrementalWatermarker(SessionSpec spec);

  /// Watermarks `row` (if fit) and appends it to `rel`. Returns true when
  /// the tuple was fit (and therefore carries a mark bit).
  Result<bool> Insert(Relation& rel, Row row) const {
    return session_.Insert(rel, std::move(row));
  }

  /// Re-evaluates an updated tuple in place; see StreamSession::Refresh.
  Result<bool> Refresh(Relation& rel, std::size_t row_index) const {
    return session_.Refresh(rel, row_index);
  }

  const CategoricalDomain& domain() const { return session_.domain(); }
  std::size_t payload_length() const { return session_.payload_length(); }

 private:
  // The historical API is const; the session's resident caches are an
  // implementation detail behind it. Like the seed implementation, the
  // wrapper is safe for concurrent *reads* of its metadata but Insert /
  // Refresh are single-writer.
  mutable StreamSession session_;
};

}  // namespace catmark

#endif  // CATMARK_SERVICE_SESSION_H_
