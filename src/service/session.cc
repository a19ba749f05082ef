#include "service/session.h"

#include <array>
#include <bit>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "core/codec.h"
#include "crypto/siphash_simd.h"
#include "ecc/code.h"

namespace catmark {

SessionSpec SessionSpec::FromEmbedReport(WatermarkKeySet keys,
                                         WatermarkParams params,
                                         const EmbedOptions& options,
                                         const EmbedReport& report,
                                         BitVector wm) {
  SessionSpec spec;
  spec.keys = std::move(keys);
  spec.params = params;
  // Pin the PRF backend the original embedding ran with: inserts hashed
  // under a CATMARK_PRF re-resolved in some later process would be
  // invisible to dispute-time detection (which follows the certificate).
  spec.params.prf = params.prf.value_or(report.prf);
  spec.key_attr = options.key_attr;
  spec.target_attr = options.target_attr;
  spec.domain = report.domain;
  spec.payload_length = report.payload_length;
  spec.wm = std::move(wm);
  return spec;
}

Result<SessionSpec> SessionSpec::FromCertificate(
    const WatermarkCertificate& certificate, const WatermarkKeySet& keys) {
  if (!certificate.VerifyKeys(keys)) {
    return Status::FailedPrecondition(
        "supplied keys do not match the certificate's key commitment");
  }
  SessionSpec spec;
  spec.keys = keys;
  spec.params = certificate.params;
  spec.params.prf = certificate.params.prf.value_or(PrfKind::kKeyedHash);
  spec.key_attr = certificate.key_attr;
  spec.target_attr = certificate.target_attr;
  spec.domain = certificate.domain;
  spec.payload_length = certificate.payload_length;
  spec.wm = certificate.wm;
  return spec;
}

Status SessionSpec::Validate() const {
  if (!keys.valid()) {
    return Status::InvalidArgument(
        "invalid key set (keys must be non-empty and distinct)");
  }
  if (key_attr.empty()) return Status::InvalidArgument("key_attr not set");
  if (target_attr.empty()) {
    return Status::InvalidArgument("target_attr not set");
  }
  if (domain.size() < 2) {
    return Status::InvalidArgument(
        "domain must hold at least 2 values to carry a bit");
  }
  if (params.e == 0) return Status::InvalidArgument("e must be >= 1");
  if (!params.prf.has_value()) {
    return Status::InvalidArgument(
        "params.prf not pinned — build the spec via FromEmbedReport / "
        "FromCertificate so inserts hash under the embed-time backend");
  }
  if (wm.empty()) return Status::InvalidArgument("watermark is empty");
  if (payload_length < wm.size()) {
    return Status::InvalidArgument(
        "payload_length is shorter than the watermark");
  }
  return Status::OK();
}

StreamSession::StreamSession(SessionSpec spec) : spec_(std::move(spec)) {
  prf_k1_ = CreateKeyedPrf(*spec_.params.prf, spec_.keys.k1,
                           spec_.params.hash_algo);
  prf_k2_ = CreateKeyedPrf(*spec_.params.prf, spec_.keys.k2,
                           spec_.params.hash_algo);
  scratch_.reserve(64);
}

Result<StreamSession> StreamSession::Create(SessionSpec spec) {
  CATMARK_RETURN_IF_ERROR(spec.Validate());
  StreamSession session(std::move(spec));
  const auto ecc = CreateEcc(session.spec_.params.ecc);
  CATMARK_ASSIGN_OR_RETURN(
      session.wm_data_,
      ecc->Encode(session.spec_.wm, session.spec_.payload_length));
  return session;
}

Status StreamSession::BindColumns(const Relation& rel) {
  // Memoized on the schema's identity; the bound and name re-checks make a
  // stale pointer (a new relation allocated where an old one lived)
  // harmless, even when the new schema has fewer columns.
  if (bound_schema_ == &rel.schema() &&
      key_col_ < rel.schema().num_columns() &&
      target_col_ < rel.schema().num_columns() &&
      rel.schema().column(key_col_).name == spec_.key_attr &&
      rel.schema().column(target_col_).name == spec_.target_attr) {
    return Status::OK();
  }
  CATMARK_ASSIGN_OR_RETURN(key_col_,
                           rel.schema().ColumnIndexOrError(spec_.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      target_col_, rel.schema().ColumnIndexOrError(spec_.target_attr));
  bound_schema_ = &rel.schema();
  return Status::OK();
}

void StreamSession::FinishChunk(std::vector<Verdict*>& pending) {
  if (pending.empty()) return;
  batch_.Hash(*prf_k1_);
  const std::size_t count = batch_.size();

  // Vectorized fitness: pack h1 % e == 0 into a bitset and walk only the
  // set bits — the same DivisibilityMask64 kernel the plan build and the
  // detect engine use, so streaming verdicts are pinned to the same
  // arithmetic.
  const DivisibilityCheck fit_by_e(spec_.params.e);
  fit_mask_.assign((count + 63) / 64, 0);
  DivisibilityMask64(fit_by_e, batch_.h1.data(), count, fit_mask_.data());
  fit_idx_.clear();
  for (std::size_t w = 0; w < fit_mask_.size(); ++w) {
    std::uint64_t word = fit_mask_[w];
    while (word != 0) {
      const std::size_t i =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      fit_idx_.push_back(i);
    }
  }

  // The fitness rate is 1/e, so the k2 position hash runs on a small
  // minority of keys — one batched call over the fit subset, through the
  // typed int64 kernel when the whole chunk is int64 keys (the common
  // streaming shape), else gathered views over the still-live arena bytes.
  h2_.resize(fit_idx_.size());
  if (!fit_idx_.empty()) {
    if (batch_.int64_lane()) {
      fit_i64_.clear();
      for (const std::size_t i : fit_idx_) fit_i64_.push_back(batch_.i64[i]);
      prf_k2_->Hash64Int64Keys(fit_i64_.data(), fit_i64_.size(),
                               std::span<std::uint64_t>(h2_));
    } else {
      fit_views_.clear();
      for (const std::size_t i : fit_idx_) {
        fit_views_.push_back(batch_.views[i]);
      }
      prf_k2_->Hash64Column(fit_views_, std::span<std::uint64_t>(h2_));
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    Verdict& v = *pending[batch_.ids[i]];
    v.h1 = batch_.h1[i];
    v.pending = false;
  }
  for (std::size_t f = 0; f < fit_idx_.size(); ++f) {
    Verdict& v = *pending[batch_.ids[fit_idx_[f]]];
    v.fit = true;
    v.payload_index = static_cast<std::uint32_t>(PayloadIndexFromHash(
        h2_[f], spec_.payload_length, spec_.params.bit_index_mode));
  }
  pending.clear();
  batch_.Clear();
}

std::size_t StreamSession::ResolveVerdicts(std::span<const Row> rows) {
  verdict_of_row_.assign(rows.size(), Verdict{});
  pending_rows_.clear();
  overflow_.clear();
  pending_.clear();
  batch_.Clear();
  std::size_t hashed = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Value& key_value = rows[i][key_col_];
    if (key_value.is_null()) continue;  // NULL keys keep the unfit default
    const std::string_view key = key_value.SerializeKeyInto(scratch_);
    const Verdict* found = nullptr;
    if (const auto it = cache_.find(key); it != cache_.end()) {
      found = &it->second;
    } else if (const auto it = overflow_.find(key); it != overflow_.end()) {
      found = &it->second;
    }
    if (found != nullptr) {
      // Copy the verdict out by value while the map node is hot — the apply
      // pass then scans a flat array instead of re-chasing a node per row.
      // A still-pending node (its chunk not hashed yet) is deferred.
      if (found->pending) {
        pending_rows_.emplace_back(i, found);
      } else {
        verdict_of_row_[i] = *found;
      }
      continue;
    }
    // A fresh key: queue it once; later rows repeating it share the same
    // map node via pending_rows_. Node-based maps keep the Verdict
    // addresses stable while either map grows.
    VerdictCache& target =
        cache_.size() < spec_.key_cache_capacity ? cache_ : overflow_;
    Verdict placeholder;
    placeholder.pending = true;
    Verdict& v = target.emplace(std::string(key), placeholder).first->second;
    pending_rows_.emplace_back(i, &v);
    batch_.AddSerialized(std::span<const std::uint8_t>(scratch_.data(),
                                                       scratch_.size()),
                         pending_.size());
    pending_.push_back(&v);
    ++hashed;
    if (batch_.full()) FinishChunk(pending_);
  }
  FinishChunk(pending_);
  for (const auto& [row, v] : pending_rows_) verdict_of_row_[row] = *v;
  return hashed;
}

Result<BatchReport> StreamSession::InsertBatch(Relation& rel,
                                               std::span<Row> rows) {
  CATMARK_RETURN_IF_ERROR(BindColumns(rel));
  // Validate the whole batch before touching anything: batches are atomic,
  // so an arity or type error anywhere leaves the relation unchanged.
  const Schema& schema = rel.schema();
  for (const Row& row : rows) {
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument("row arity mismatch");
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (!row[c].is_null() && !row[c].MatchesType(schema.column(c).type)) {
        return Status::InvalidArgument("value for column '" +
                                       schema.column(c).name +
                                       "' has wrong type");
      }
    }
  }

  BatchReport report;
  report.rows = rows.size();
  report.hashed_keys = ResolveVerdicts(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Verdict& v = verdict_of_row_[i];
    if (!v.fit) continue;
    ++report.fit_rows;
    const std::size_t t = SelectValueIndex(
        v.h1, spec_.domain.size(), wm_data_.Get(v.payload_index));
    const Value& marked = spec_.domain.value(t);
    Value& cell = rows[i][target_col_];
    if (!(cell == marked)) {
      cell = marked;
      ++report.altered_rows;
    }
  }
  // The batch was validated above and marked values come from the domain,
  // so the unchecked columnar bulk append is safe.
  rel.AppendRowsUnchecked(rows);
  total_rows_ += report.rows;
  total_fit_ += report.fit_rows;
  return report;
}

Result<bool> StreamSession::Insert(Relation& rel, Row row) {
  std::array<Row, 1> rows = {std::move(row)};
  CATMARK_ASSIGN_OR_RETURN(const BatchReport report,
                           InsertBatch(rel, std::span<Row>(rows)));
  return report.fit_rows > 0;
}

const StreamSession::Verdict& StreamSession::VerdictFor(
    std::string_view key) {
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  Verdict v;
  const std::uint64_t h1 = prf_k1_->Hash64(key);
  if (h1 % spec_.params.e == 0) {
    v.fit = true;
    v.h1 = h1;
    v.payload_index = static_cast<std::uint32_t>(
        PayloadIndexFromHash(prf_k2_->Hash64(key), spec_.payload_length,
                             spec_.params.bit_index_mode));
  }
  VerdictCache& target =
      cache_.size() < spec_.key_cache_capacity ? cache_ : overflow_;
  return target.insert_or_assign(std::string(key), v).first->second;
}

Result<bool> StreamSession::Refresh(Relation& rel, std::size_t row_index) {
  CATMARK_RETURN_IF_ERROR(BindColumns(rel));
  if (row_index >= rel.NumRows()) return Status::OutOfRange("row index");
  if (rel.store().IsNull(row_index, key_col_)) return false;
  const Verdict& v =
      VerdictFor(rel.store().CellKey(row_index, key_col_, scratch_));
  if (!v.fit) return false;
  const std::size_t t = SelectValueIndex(v.h1, spec_.domain.size(),
                                         wm_data_.Get(v.payload_index));
  const Value& marked = spec_.domain.value(t);
  // Skip the store write when the cell already carries the marked value —
  // the common case when refreshing an already-watermarked relation.
  if (!(rel.Get(row_index, target_col_) == marked)) {
    CATMARK_RETURN_IF_ERROR(rel.Set(row_index, target_col_, marked));
  }
  return true;
}

namespace {

StreamSession MakeSessionOrDie(SessionSpec spec) {
  Result<StreamSession> session = StreamSession::Create(std::move(spec));
  CATMARK_CHECK(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

}  // namespace

IncrementalWatermarker::IncrementalWatermarker(WatermarkKeySet keys,
                                               WatermarkParams params,
                                               const EmbedOptions& options,
                                               const EmbedReport& report,
                                               BitVector wm)
    : session_(MakeSessionOrDie(SessionSpec::FromEmbedReport(
          std::move(keys), params, options, report, std::move(wm)))) {}

IncrementalWatermarker::IncrementalWatermarker(SessionSpec spec)
    : session_(MakeSessionOrDie(std::move(spec))) {}

}  // namespace catmark
