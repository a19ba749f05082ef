#include "core/detect_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "common/parallel.h"
#include "core/certificate.h"
#include "core/codec.h"
#include "core/embedder.h"
#include "core/tuple_plan.h"
#include "crypto/prf.h"
#include "crypto/siphash_simd.h"
#include "relation/column_store.h"

namespace catmark {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

constexpr std::uint32_t kNoMessage = std::numeric_limits<std::uint32_t>::max();

}  // namespace

/// One candidate's claims resolved for the PerKeyPass: validated, with its
/// payload length, PRF backend and fitness test fixed. Its key schedules
/// are built only when its unit runs (Lane), so a sweep holds one block's
/// worth of them at a time.
struct DetectEngine::Pass {
  const KeyCandidate* candidate = nullptr;
  std::size_t payload_len = 0;
  PrfKind prf = PrfKind::kKeyedHash;
  DivisibilityCheck fit_by_e{1};

  /// Whether the pass may share key-lane calls with other candidates: a
  /// siphash24 pass whose vote tally is small enough to keep one per lane
  /// while the block runs. Anything else runs alone.
  bool key_lane() const {
    return prf == PrfKind::kSipHash24 && payload_len <= kMaxKeyLanePayload;
  }

  /// Largest payload a key-lane block tallies: 16 lanes x 2^16 votes x 8 B
  /// is 8 MiB per worker. Longer payloads run alone, as they always did.
  static constexpr std::size_t kMaxKeyLanePayload = std::size_t{1} << 16;
};

/// A pass inside a running unit, with its key schedules: the k2 position
/// hasher and, in a key-lane block, k1's SipHash key (all a block needs of
/// k1).
struct DetectEngine::Lane {
  const Pass* pass = nullptr;
  std::unique_ptr<KeyedPrf> k2;
  SipHashKey sip_k1;
};

/// One lane's running tally: votes per payload position plus the usable
/// and fit counts.
struct DetectEngine::LaneTally {
  std::vector<long> votes;
  std::size_t usable = 0;
  std::size_t fit = 0;

  void Reset(std::size_t payload_len) {
    votes.assign(payload_len, 0);
    usable = 0;
    fit = 0;
  }
};

/// Per-worker reusable buffers of the PerKeyPass: the block's lane tallies,
/// one k1 chunk per lane (kKeyHashBatch apart, at most kMaxKeyLanes of
/// them), the fit subset's k2 probes. A sweep touches these thousands of
/// times per worker — none of them may allocate per key.
struct DetectEngine::Scratch {
  std::vector<LaneTally> tallies;
  std::vector<std::uint64_t> h1;
  std::vector<std::uint64_t> h2;
  std::vector<std::uint64_t> fit_mask;
  std::vector<std::string_view> fit_views;
  std::vector<std::uint32_t> fit_msg;
};

namespace {

/// Candidate sanity shared by ResolvePass and DetectOneShot — one source, so
/// the fused and planned paths cannot drift on what they reject.
Status ValidateCandidate(const KeyCandidate& candidate) {
  if (candidate.wm_len == 0) {
    return Status::InvalidArgument("watermark length must be > 0");
  }
  if (!candidate.keys.valid()) {
    return Status::InvalidArgument("invalid watermark key set (k1 == k2?)");
  }
  if (candidate.params.e == 0) {
    return Status::InvalidArgument("encoding parameter e must be >= 1");
  }
  return Status::OK();
}


/// Chunk size of the fused one-shot worker. Larger than the sweep's
/// kKeyHashBatch: the one-shot pass touches each chunk exactly once, so
/// per-chunk fixed costs (kernel ramp-up, resizes, two virtual calls)
/// amortize better, and the working set (8-byte vals + 8-byte hashes per
/// row) stays comfortably L2-resident even at this size.
constexpr std::size_t kOneShotBatch = 4096;

/// Appends first + i for every fit hash h[i], ascending: the fitness
/// verdicts packed into `mask` words by DivisibilityMask64 (AVX2-vectorized,
/// 64 per word), then set-bit iteration, so the loop touches only the ~1/e
/// fit hashes plus one word per 64.
void CompactFit(const DivisibilityCheck& fit_by_e,
                std::span<const std::uint64_t> h, std::size_t first,
                std::vector<std::uint64_t>& mask,
                std::vector<std::uint32_t>& fit) {
  mask.resize((h.size() + 63) / 64);
  DivisibilityMask64(fit_by_e, h.data(), h.size(), mask.data());
  fit.clear();
  for (std::size_t w = 0; w < mask.size(); ++w) {
    std::uint64_t word = mask[w];
    while (word != 0) {
      fit.push_back(static_cast<std::uint32_t>(
          first + 64 * w + static_cast<std::size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
}

/// Scans a built plan's shard bounds for the equal-length layout: returns
/// the common message length when every message in every shard serialized
/// to the same byte count (and there is at least one message), -1 otherwise.
std::ptrdiff_t DetectFixedLength(
    const std::vector<std::vector<std::size_t>>& bounds) {
  std::ptrdiff_t len = -1;
  for (const std::vector<std::size_t>& shard : bounds) {
    for (std::size_t i = 0; i + 1 < shard.size(); ++i) {
      const std::ptrdiff_t msg_len =
          static_cast<std::ptrdiff_t>(shard[i + 1] - shard[i]);
      if (len < 0) {
        len = msg_len;
      } else if (msg_len != len) {
        return -1;
      }
    }
  }
  return len;
}

}  // namespace

Result<std::size_t> ResolveDetectPayloadLength(std::size_t override_len,
                                               const KeyCandidate& candidate,
                                               std::size_t num_rows) {
  std::size_t payload_len = override_len;
  if (payload_len == 0) payload_len = candidate.params.payload_length;
  if (payload_len == 0) {
    if (num_rows / candidate.params.e == 0) {
      return Status::FailedPrecondition(
          "cannot derive the payload length: e exceeds the suspect relation "
          "size (N/e == 0); pass the owner-side payload_length instead");
    }
    payload_len =
        DerivePayloadLength(num_rows, candidate.params.e, candidate.wm_len);
  }
  if (payload_len > kMaxCertificatePayloadLength) {
    return Status::InvalidArgument(
        "payload length " + std::to_string(payload_len) + " exceeds the " +
        std::to_string(kMaxCertificatePayloadLength) + " maximum");
  }
  return payload_len;
}

Result<DetectEngine> DetectEngine::Create(const Relation& rel,
                                          const DetectEngineOptions& options) {
  const SteadyClock::time_point start = SteadyClock::now();
  DetectEngine engine;
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t key_col,
      rel.schema().ColumnIndexOrError(options.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t target_col,
      rel.schema().ColumnIndexOrError(options.target_attr));
  if (rel.empty()) {
    return Status::FailedPrecondition("cannot detect in an empty relation");
  }

  if (options.domain_view != nullptr) {
    engine.domain_ = options.domain_view;
  } else if (options.domain.has_value()) {
    engine.owned_domain_ =
        std::make_unique<CategoricalDomain>(*options.domain);
    engine.domain_ = engine.owned_domain_.get();
  } else {
    CATMARK_ASSIGN_OR_RETURN(
        CategoricalDomain recovered,
        CategoricalDomain::FromRelationColumn(rel, target_col));
    engine.owned_domain_ =
        std::make_unique<CategoricalDomain>(std::move(recovered));
    engine.domain_ = engine.owned_domain_.get();
  }
  if (engine.domain_->size() < 2) {
    return Status::FailedPrecondition("domain has fewer than 2 values");
  }

  const std::size_t n = rel.NumRows();
  engine.num_rows_ = n;
  engine.num_threads_ = options.num_threads;
  engine.default_payload_length_ = options.payload_length;
  const std::size_t threads = EffectiveThreadCount(options.num_threads, n);

  const ValueIndexColumn* target_index = options.target_index;
  if (target_index != nullptr && target_index->size() != n) {
    return Status::InvalidArgument(
        "target_index has a different row count than the suspect relation");
  }
  ValueIndexColumn local_index;
  if (target_index == nullptr) {
    local_index =
        ValueIndexColumn::Build(rel, target_col, *engine.domain_, threads);
    target_index = &local_index;
  }

  const ColumnStore& store = rel.store();
  engine.dict_keys_ = store.IsDictColumn(key_col);

  if (engine.dict_keys_) {
    // Dict-code gather: one message per *live* distinct dictionary entry,
    // serialized once — every row holding that entry shares its fitness
    // and position hashes, so the pass never revisits the row dimension.
    const std::vector<Value>& dict = store.Dict(key_col);
    const std::vector<std::int32_t>& codes = store.Codes(key_col);
    const std::vector<std::int64_t>& live = store.DictLiveCounts(key_col);
    const std::size_t dict_threads =
        EffectiveThreadCount(options.num_threads, dict.size());
    engine.arena_.resize(dict_threads);
    // Seed each shard's leading bound *before* the fan-out: ParallelFor
    // never invokes the body for zero items (a dictionary with no live
    // entry — e.g. an all-NULL key column), and TallyShard reads
    // bounds.size() - 1 as the message count.
    engine.bounds_.assign(dict_threads, std::vector<std::size_t>{0});
    std::vector<std::vector<std::uint32_t>> shard_codes(dict_threads);
    ParallelFor(dict.size(), dict_threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  std::vector<std::uint8_t>& arena = engine.arena_[shard];
                  std::vector<std::size_t>& bounds = engine.bounds_[shard];
                  for (std::size_t code = begin; code < end; ++code) {
                    if (live[code] == 0) continue;  // no referencing row
                    dict[code].SerializeForHash(arena);
                    bounds.push_back(arena.size());
                    shard_codes[shard].push_back(
                        static_cast<std::uint32_t>(code));
                  }
                });

    engine.msg_base_.resize(dict_threads);
    std::size_t total = 0;
    std::vector<std::uint32_t> msg_of_code(dict.size(), kNoMessage);
    for (std::size_t s = 0; s < dict_threads; ++s) {
      engine.msg_base_[s] = total;
      for (const std::uint32_t code : shard_codes[s]) {
        msg_of_code[code] = static_cast<std::uint32_t>(total++);
      }
    }
    engine.num_messages_ = total;
    engine.vote_.assign(total, 0);
    engine.usable_.assign(total, 0);
    engine.rows_.assign(total, 0);

    // Fold every row into its message's key-independent aggregates. The
    // per-worker accumulators are |messages| wide, so cap the worker count
    // when a near-unique key column would make the transient copies large
    // (the fold is a cheap streaming pass; extra workers buy little there).
    std::size_t agg_threads = EffectiveThreadCount(options.num_threads, n);
    const std::size_t per_worker_bytes = total * 12;
    while (agg_threads > 1 &&
           (agg_threads - 1) * per_worker_bytes > (std::size_t{64} << 20)) {
      --agg_threads;
    }
    std::vector<std::vector<std::int32_t>> shard_vote(
        agg_threads, std::vector<std::int32_t>(total, 0));
    std::vector<std::vector<std::uint32_t>> shard_usable(
        agg_threads, std::vector<std::uint32_t>(total, 0));
    std::vector<std::vector<std::uint32_t>> shard_rows(
        agg_threads, std::vector<std::uint32_t>(total, 0));
    ParallelFor(n, agg_threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  std::vector<std::int32_t>& vote = shard_vote[shard];
                  std::vector<std::uint32_t>& usable = shard_usable[shard];
                  std::vector<std::uint32_t>& rows = shard_rows[shard];
                  for (std::size_t j = begin; j < end; ++j) {
                    const std::int32_t code = codes[j];
                    if (code < 0) continue;  // NULL key: unfit, no message
                    const std::uint32_t m =
                        msg_of_code[static_cast<std::size_t>(code)];
                    ++rows[m];
                    const std::int32_t t = target_index->index(j);
                    if (t < 0) continue;  // NULL / out-of-domain target
                    ++usable[m];
                    vote[m] += ExtractBitFromValueIndex(
                                   static_cast<std::size_t>(t))
                                   ? 1
                                   : -1;
                  }
                });
    for (std::size_t s = 0; s < agg_threads; ++s) {
      for (std::size_t m = 0; m < total; ++m) {
        engine.vote_[m] += shard_vote[s][m];
        engine.usable_[m] += shard_usable[s][m];
        engine.rows_[m] += shard_rows[s][m];
      }
    }
  } else {
    // Plain key column: one message per non-NULL key row, fused with the
    // vote computation in a single sharded pass (vote 0 = unusable row, so
    // the tally can add it unconditionally).
    const Int64Cells* int64_keys =
        store.IsInt64Column(key_col) ? &store.Int64Column(key_col) : nullptr;
    const std::vector<Value>* key_values =
        int64_keys == nullptr ? &store.PlainValues(key_col) : nullptr;
    engine.arena_.resize(threads);
    engine.bounds_.assign(threads, std::vector<std::size_t>{0});
    std::vector<std::vector<std::int32_t>> shard_vote(threads);
    ParallelFor(n, threads,
                [&](std::size_t shard, std::size_t begin, std::size_t end) {
                  std::vector<std::uint8_t>& arena = engine.arena_[shard];
                  std::vector<std::size_t>& bounds = engine.bounds_[shard];
                  std::vector<std::int32_t>& vote = shard_vote[shard];
                  for (std::size_t j = begin; j < end; ++j) {
                    if (int64_keys != nullptr) {
                      if (int64_keys->is_null(j)) continue;
                      Value::SerializeInt64(int64_keys->values[j], arena);
                    } else {
                      const Value& key_value = (*key_values)[j];
                      if (key_value.is_null()) continue;
                      key_value.SerializeForHash(arena);
                    }
                    bounds.push_back(arena.size());
                    const std::int32_t t = target_index->index(j);
                    vote.push_back(
                        t < 0 ? 0
                              : (ExtractBitFromValueIndex(
                                     static_cast<std::size_t>(t))
                                     ? 1
                                     : -1));
                  }
                });
    engine.msg_base_.resize(threads);
    std::size_t total = 0;
    for (std::size_t s = 0; s < threads; ++s) {
      engine.msg_base_[s] = total;
      total += shard_vote[s].size();
    }
    engine.num_messages_ = total;
    engine.vote_.reserve(total);
    for (std::size_t s = 0; s < threads; ++s) {
      engine.vote_.insert(engine.vote_.end(), shard_vote[s].begin(),
                          shard_vote[s].end());
    }
  }

  engine.fixed_len_ = DetectFixedLength(engine.bounds_);
  engine.plan_build_seconds_ = SecondsSince(start);
  return engine;
}

Result<DetectEngine::Pass> DetectEngine::ResolvePass(
    const KeyCandidate& candidate) const {
  CATMARK_RETURN_IF_ERROR(ValidateCandidate(candidate));
  Pass pass;
  pass.candidate = &candidate;
  CATMARK_ASSIGN_OR_RETURN(
      pass.payload_len,
      ResolveDetectPayloadLength(default_payload_length_, candidate,
                                 num_rows_));
  CATMARK_ASSIGN_OR_RETURN(pass.prf, ResolvePrfKind(candidate.params.prf));
  pass.fit_by_e = DivisibilityCheck(candidate.params.e);
  return pass;
}

void DetectEngine::TallyChunk(std::size_t shard, std::size_t first,
                              std::span<const std::uint64_t> h1,
                              const Lane& lane, LaneTally& tally,
                              Scratch& scratch) const {
  const Pass& pass = *lane.pass;
  const std::vector<std::uint8_t>& arena = arena_[shard];
  const std::vector<std::size_t>& bounds = bounds_[shard];
  const std::size_t base = msg_base_[shard];

  // Compact the chunk's ~1/e fit messages, then position-hash them in one
  // batched k2 call over the bytes still resident in the arena.
  CompactFit(pass.fit_by_e, h1, first, scratch.fit_mask, scratch.fit_msg);
  const std::size_t nfit = scratch.fit_msg.size();
  scratch.fit_views.clear();
  for (std::size_t f = 0; f < nfit; ++f) {
    const std::size_t m = scratch.fit_msg[f];
    scratch.fit_views.push_back(std::string_view(
        reinterpret_cast<const char*>(arena.data()) + bounds[m],
        bounds[m + 1] - bounds[m]));
  }
  scratch.h2.resize(nfit);
  lane.k2->Hash64Column(scratch.fit_views,
                        std::span<std::uint64_t>(scratch.h2));

  // Counts accumulate in locals: a store through `votes` (long) may alias
  // the tally's size_t counters, which would pin them to memory.
  const BitIndexMode mode = pass.candidate->params.bit_index_mode;
  long* const votes = tally.votes.data();
  std::size_t usable = 0;
  std::size_t fit = 0;
  if (dict_keys_) {
    for (std::size_t f = 0; f < nfit; ++f) {
      const std::size_t m = base + scratch.fit_msg[f];
      const std::size_t idx =
          PayloadIndexFromHash(scratch.h2[f], pass.payload_len, mode);
      fit += rows_[m];
      usable += usable_[m];
      votes[idx] += vote_[m];
    }
  } else {
    for (std::size_t f = 0; f < nfit; ++f) {
      const std::size_t m = base + scratch.fit_msg[f];
      const std::size_t idx =
          PayloadIndexFromHash(scratch.h2[f], pass.payload_len, mode);
      const std::int32_t v = vote_[m];
      ++fit;
      usable += (v != 0);
      votes[idx] += v;
    }
  }
  tally.usable += usable;
  tally.fit += fit;
}

void DetectEngine::TallyShard(std::size_t shard,
                              std::span<const Lane> lanes,
                              const KeyedPrf* lone_k1,
                              std::span<LaneTally> tallies,
                              Scratch& scratch) const {
  const std::vector<std::uint8_t>& arena = arena_[shard];
  const std::span<const std::size_t> bounds(bounds_[shard]);
  const std::size_t num_msgs = bounds.size() - 1;
  SipHashKey keys[kMaxKeyLanes];
  for (std::size_t l = 0; l < lanes.size(); ++l) keys[l] = lanes[l].sip_k1;
  scratch.h1.resize(lanes.size() * kKeyHashBatch);

  for (std::size_t k = 0; k < num_msgs; k += kKeyHashBatch) {
    const std::size_t len = std::min(kKeyHashBatch, num_msgs - k);
    // The chunk's h1 column per lane: one key-lane call for a block, the
    // message-lane batch forms for a lone pass.
    if (lone_k1 == nullptr) {
      SipHash24KeyLanes(std::span<const SipHashKey>(keys, lanes.size()),
                        arena.data(), bounds.subspan(k, len + 1),
                        scratch.h1.data(), kKeyHashBatch);
    } else if (fixed_len_ >= 0) {
      // Equal-length layout: message k + i sits at (k + i) * fixed_len, so
      // the SIMD lanes stream at a constant stride, no bounds reads at all.
      const std::size_t fixed_len = static_cast<std::size_t>(fixed_len_);
      lone_k1->Hash64Fixed(arena.data() + k * fixed_len, fixed_len, fixed_len,
                           std::span<std::uint64_t>(scratch.h1.data(), len));
    } else {
      lone_k1->Hash64Arena(arena.data(), bounds.subspan(k, len + 1),
                           std::span<std::uint64_t>(scratch.h1.data(), len));
    }
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      TallyChunk(shard, k,
                 std::span<const std::uint64_t>(
                     scratch.h1.data() + l * kKeyHashBatch, len),
                 lanes[l], tallies[l], scratch);
    }
  }
}

std::vector<Result<DetectionResult>> DetectEngine::RunBlock(
    std::span<const Pass* const> passes, std::size_t num_threads,
    Scratch& scratch) const {
  const SteadyClock::time_point start = SteadyClock::now();
  const std::size_t n = passes.size();
  CATMARK_CHECK(n >= 1 && n <= kMaxKeyLanes);
  // A lone pass keeps the message-lane producer: with no other key to share
  // a call with, its k1 hashes 8 (or 4) messages per call instead.
  std::unique_ptr<KeyedPrf> lone_k1;
  std::array<Lane, kMaxKeyLanes> lane_store;
  const std::span<const Lane> lanes(lane_store.data(), n);
  for (std::size_t l = 0; l < n; ++l) {
    const Pass& pass = *passes[l];
    const KeyCandidate& c = *pass.candidate;
    lane_store[l].pass = &pass;
    lane_store[l].k2 = CreateKeyedPrf(pass.prf, c.keys.k2, c.params.hash_algo);
    if (n == 1) {
      lone_k1 = CreateKeyedPrf(pass.prf, c.keys.k1, c.params.hash_algo);
    } else {
      CATMARK_CHECK(pass.key_lane()) << "a key-lane block holds siphash24 only";
      lane_store[l].sip_k1 = DeriveSipHash24Key(c.keys.k1);
    }
  }

  const std::size_t num_shards = arena_.size();
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(num_threads, num_shards));
  scratch.tallies.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    scratch.tallies[l].Reset(passes[l]->payload_len);
  }
  const std::span<LaneTally> tallies(scratch.tallies.data(), n);
  if (threads <= 1) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      TallyShard(s, lanes, lone_k1.get(), tallies, scratch);
    }
  } else {
    // Message shards tally into per-worker lanes merged by commutative
    // integer sums — bit-identical at every thread count, like the
    // detector always has been.
    std::vector<std::vector<LaneTally>> worker(threads,
                                               std::vector<LaneTally>(n));
    for (std::vector<LaneTally>& w : worker) {
      for (std::size_t l = 0; l < n; ++l) w[l].Reset(passes[l]->payload_len);
    }
    ParallelFor(num_shards, threads,
                [&](std::size_t w, std::size_t begin, std::size_t end) {
                  Scratch local;
                  for (std::size_t s = begin; s < end; ++s) {
                    TallyShard(s, lanes, lone_k1.get(),
                               std::span<LaneTally>(worker[w]), local);
                  }
                });
    for (const std::vector<LaneTally>& w : worker) {
      for (std::size_t l = 0; l < n; ++l) {
        tallies[l].usable += w[l].usable;
        tallies[l].fit += w[l].fit;
        for (std::size_t i = 0; i < w[l].votes.size(); ++i) {
          tallies[l].votes[i] += w[l].votes[i];
        }
      }
    }
  }

  std::vector<Result<DetectionResult>> results;
  results.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    const Pass& pass = *passes[l];
    DetectionResult result;
    result.num_tuples = num_rows_;
    result.payload_length = pass.payload_len;
    result.prf = pass.prf;
    result.usable_votes = tallies[l].usable;
    result.fit_tuples = tallies[l].fit;
    const Status finish = FinishVoteTally(
        std::span<const long>(tallies[l].votes), pass.candidate->wm_len,
        pass.candidate->params.ecc, result);
    if (!finish.ok()) {
      results.emplace_back(finish);
      continue;
    }
    result.rows_scanned = num_rows_;
    result.messages_hashed = num_messages_;
    results.emplace_back(std::move(result));
  }
  // Each lane's share of the block's time.
  const double seconds = SecondsSince(start) / static_cast<double>(n);
  for (Result<DetectionResult>& r : results) {
    if (r.ok()) r->wall_seconds = seconds;
  }
  return results;
}

Result<DetectionResult> DetectEngine::Detect(
    const KeyCandidate& candidate) const {
  CATMARK_ASSIGN_OR_RETURN(const Pass pass, ResolvePass(candidate));
  const Pass* const one = &pass;
  Scratch scratch;
  return std::move(
      RunBlock(std::span<const Pass* const>(&one, 1),
               EffectiveThreadCount(num_threads_, num_messages_), scratch)
          .front());
}

Result<DetectionResult> DetectEngine::DetectOneShot(
    const Relation& rel, const DetectEngineOptions& options,
    const KeyCandidate& candidate) {
  const SteadyClock::time_point start = SteadyClock::now();
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t key_col,
      rel.schema().ColumnIndexOrError(options.key_attr));
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t target_col,
      rel.schema().ColumnIndexOrError(options.target_attr));
  if (rel.empty()) {
    return Status::FailedPrecondition("cannot detect in an empty relation");
  }
  const ColumnStore& store = rel.store();

  if (store.IsDictColumn(key_col)) {
    // Dict-code gather: the plan arena is O(live dict entries) and folding
    // the rows into it is the whole win — Create IS the fused pass here.
    CATMARK_ASSIGN_OR_RETURN(DetectEngine engine, Create(rel, options));
    CATMARK_ASSIGN_OR_RETURN(DetectionResult result,
                             engine.Detect(candidate));
    result.wall_seconds = SecondsSince(start);
    return result;
  }

  // Plain key column: one message per non-NULL key row, so the plan would
  // materialize an O(N) arena + bounds + votes only to stream them back
  // exactly once. Fuse instead: serialize a cache-resident chunk, hash it
  // while hot, fitness-test, and tally — target-domain indices resolved
  // only for the ~1/e fit rows.
  const Status valid = ValidateCandidate(candidate);
  if (!valid.ok()) return valid;

  CategoricalDomain recovered_domain;
  const CategoricalDomain* domain;
  if (options.domain_view != nullptr) {
    domain = options.domain_view;
  } else if (options.domain.has_value()) {
    domain = &*options.domain;
  } else {
    CATMARK_ASSIGN_OR_RETURN(
        recovered_domain,
        CategoricalDomain::FromRelationColumn(rel, target_col));
    domain = &recovered_domain;
  }
  if (domain->size() < 2) {
    return Status::FailedPrecondition("domain has fewer than 2 values");
  }

  const std::size_t n = rel.NumRows();
  const std::size_t threads = EffectiveThreadCount(options.num_threads, n);

  // Domain-index view of the target column: a caller-provided cache wins;
  // a dict-encoded target builds its zero-copy O(dict) view; a plain
  // target resolves lazily per fit row below — never an O(N) index build.
  const ValueIndexColumn* cached_index = options.target_index;
  if (cached_index != nullptr && cached_index->size() != n) {
    return Status::InvalidArgument(
        "target_index has a different row count than the suspect relation");
  }
  ValueIndexColumn local_index;
  if (cached_index == nullptr && store.IsDictColumn(target_col)) {
    local_index = ValueIndexColumn::Build(rel, target_col, *domain, threads);
    cached_index = &local_index;
  }

  DetectionResult result;
  result.num_tuples = n;
  CATMARK_ASSIGN_OR_RETURN(
      const std::size_t payload_len,
      ResolveDetectPayloadLength(options.payload_length, candidate, n));
  result.payload_length = payload_len;
  CATMARK_ASSIGN_OR_RETURN(const PrfKind prf_kind,
                           ResolvePrfKind(candidate.params.prf));
  result.prf = prf_kind;
  const std::unique_ptr<KeyedPrf> prf_k1 =
      CreateKeyedPrf(prf_kind, candidate.keys.k1, candidate.params.hash_algo);
  const std::unique_ptr<KeyedPrf> prf_k2 =
      CreateKeyedPrf(prf_kind, candidate.keys.k2, candidate.params.hash_algo);

  const DivisibilityCheck fit_by_e(candidate.params.e);
  const Int64Cells* int64_keys =
      store.IsInt64Column(key_col) ? &store.Int64Column(key_col) : nullptr;
  const std::vector<Value>* key_values =
      int64_keys == nullptr ? &store.PlainValues(key_col) : nullptr;
  std::vector<std::vector<long>> worker_votes(
      threads, std::vector<long>(payload_len, 0));
  std::vector<std::size_t> worker_usable(threads, 0);
  std::vector<std::size_t> worker_fit(threads, 0);
  std::vector<std::size_t> worker_hashed(threads, 0);
  ParallelFor(n, threads, [&](std::size_t shard, std::size_t begin,
                              std::size_t end) {
    std::vector<long>& votes = worker_votes[shard];
    std::vector<std::uint8_t> arena;
    std::vector<std::int64_t> vals;      // compacted int64 keys
    std::vector<std::int64_t> fit_vals;  // fit subset of the keys, for k2
    std::vector<std::size_t> bounds;
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> h1;
    std::vector<std::uint64_t> h2;
    std::vector<std::uint64_t> fit_mask;
    std::vector<std::uint32_t> fit_sel;
    std::vector<std::string_view> fit_views;
    arena.reserve(kOneShotBatch * 16);
    vals.resize(kOneShotBatch);
    fit_vals.resize(kOneShotBatch);
    bounds.reserve(kOneShotBatch + 1);
    rows.reserve(kOneShotBatch);
    std::size_t usable = 0;
    std::size_t fit = 0;
    std::size_t hashed = 0;
    for (std::size_t chunk = begin; chunk < end; chunk += kOneShotBatch) {
      const std::size_t chunk_end = std::min(end, chunk + kOneShotBatch);
      // A typed int64 key column feeds its raw cells to the typed kernel,
      // which assembles both SipHash input blocks of each canonical 9-byte
      // record in vector registers: no per-row SerializeForHash, no bounds
      // vector, and no copy at all while the chunk has no NULL (message i
      // is then row chunk + i and `rows` stays empty). Other plain keys
      // serialize into the arena.
      std::size_t count = 0;
      const std::int64_t* keys = nullptr;
      if (int64_keys != nullptr) {
        keys = Int64KeyChunk(*int64_keys, chunk, chunk_end, vals.data(), rows,
                             count);
        h1.resize(count);
        prf_k1->Hash64Int64Keys(keys, count, std::span<std::uint64_t>(h1));
      } else {
        rows.clear();
        arena.clear();
        bounds.clear();
        bounds.push_back(0);
        for (std::size_t j = chunk; j < chunk_end; ++j) {
          const Value& key_value = (*key_values)[j];
          if (key_value.is_null()) continue;
          key_value.SerializeForHash(arena);
          bounds.push_back(arena.size());
          rows.push_back(static_cast<std::uint32_t>(j));
        }
        count = rows.size();
        h1.resize(count);
        prf_k1->Hash64Arena(arena.data(),
                            std::span<const std::size_t>(bounds),
                            std::span<std::uint64_t>(h1));
      }
      hashed += count;
      CompactFit(fit_by_e, h1, 0, fit_mask, fit_sel);
      const std::size_t nfit = fit_sel.size();
      fit += nfit;
      h2.resize(nfit);
      if (keys != nullptr) {
        for (std::size_t f = 0; f < nfit; ++f) {
          fit_vals[f] = keys[fit_sel[f]];
        }
        prf_k2->Hash64Int64Keys(fit_vals.data(), nfit,
                                std::span<std::uint64_t>(h2));
      } else {
        fit_views.clear();
        for (std::size_t f = 0; f < nfit; ++f) {
          const std::size_t i = fit_sel[f];
          fit_views.push_back(std::string_view(
              reinterpret_cast<const char*>(arena.data()) + bounds[i],
              bounds[i + 1] - bounds[i]));
        }
        prf_k2->Hash64Column(fit_views, std::span<std::uint64_t>(h2));
      }
      for (std::size_t f = 0; f < nfit; ++f) {
        const std::size_t j =
            rows.empty() ? chunk + fit_sel[f] : rows[fit_sel[f]];
        const std::size_t idx = PayloadIndexFromHash(
            h2[f], payload_len, candidate.params.bit_index_mode);
        std::int32_t t;
        if (cached_index != nullptr) {
          t = cached_index->index(j);
        } else {
          const Value& attr_value = rel.Get(j, target_col);
          if (attr_value.is_null()) continue;
          const auto domain_index = domain->IndexOf(attr_value);
          t = domain_index.has_value()
                  ? static_cast<std::int32_t>(*domain_index)
                  : ValueIndexColumn::kNoIndex;
        }
        if (t < 0) continue;  // NULL / out-of-domain target
        ++usable;
        votes[idx] +=
            ExtractBitFromValueIndex(static_cast<std::size_t>(t)) ? 1 : -1;
      }
    }
    worker_usable[shard] = usable;
    worker_fit[shard] = fit;
    worker_hashed[shard] = hashed;
  });

  std::vector<long> votes(payload_len, 0);
  for (std::size_t w = 0; w < threads; ++w) {
    result.usable_votes += worker_usable[w];
    result.fit_tuples += worker_fit[w];
    result.messages_hashed += worker_hashed[w];
    for (std::size_t i = 0; i < payload_len; ++i) {
      votes[i] += worker_votes[w][i];
    }
  }

  const Status finish =
      FinishVoteTally(std::span<const long>(votes), candidate.wm_len,
                      candidate.params.ecc, result);
  if (!finish.ok()) return finish;
  result.rows_scanned = n;
  result.wall_seconds = SecondsSince(start);
  return result;
}

std::vector<Result<DetectionResult>> DetectEngine::DetectMany(
    std::span<const KeyCandidate> candidates) const {
  std::vector<Result<DetectionResult>> results(
      candidates.size(),
      Result<DetectionResult>(Status::Internal("pass not run")));
  if (candidates.empty()) return results;
  const std::size_t budget = EffectiveThreadCount(num_threads_, num_rows_);

  // Resolve every candidate first; a bad one fails its own entry only.
  std::vector<std::optional<Pass>> passes(candidates.size());
  ParallelFor(candidates.size(), std::min(budget, candidates.size()),
              [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  Result<Pass> pass = ResolvePass(candidates[i]);
                  if (pass.ok()) {
                    passes[i] = std::move(pass).value();
                  } else {
                    results[i] = pass.status();
                  }
                }
              });

  // Work units: key-lane passes in candidate order, KeyLaneWidth() to a
  // block (one message load serves every key of the block); anything else
  // alone.
  std::vector<std::vector<std::size_t>> units;
  std::vector<std::size_t> block;
  const std::size_t width = KeyLaneWidth();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!passes[i].has_value()) continue;
    if (!passes[i]->key_lane()) {
      units.push_back({i});
      continue;
    }
    block.push_back(i);
    if (block.size() == width) units.push_back(std::exchange(block, {}));
  }
  if (!block.empty()) units.push_back(std::move(block));
  if (units.empty()) return results;

  // Split the worker budget units × shards: units fan out first (their
  // passes are fully independent), and leftover workers parallelize each
  // unit's message shards.
  const std::size_t outer = std::min(budget, units.size());
  const std::size_t inner = std::max<std::size_t>(1, budget / outer);
  ParallelFor(units.size(), outer,
              [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
                Scratch scratch;
                std::vector<const Pass*> unit;
                for (std::size_t u = begin; u < end; ++u) {
                  unit.clear();
                  for (const std::size_t i : units[u]) {
                    unit.push_back(&*passes[i]);
                  }
                  std::vector<Result<DetectionResult>> unit_results =
                      RunBlock(unit, inner, scratch);
                  for (std::size_t l = 0; l < unit.size(); ++l) {
                    results[units[u][l]] = std::move(unit_results[l]);
                  }
                }
              });
  return results;
}

}  // namespace catmark
