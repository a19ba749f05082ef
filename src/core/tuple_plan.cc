#include "core/tuple_plan.h"

#include <bit>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "common/parallel.h"
#include "core/codec.h"
#include "crypto/siphash_simd.h"
#include "relation/column_store.h"

namespace catmark {

void KeyHashBatch::Hash(const KeyedPrf& prf) {
  h1.resize(ends.size());
  if (all_int64_) {
    views.clear();
    prf.Hash64Int64Keys(i64.data(), i64.size(),
                        std::span<std::uint64_t>(h1.data(), h1.size()));
    return;
  }
  views.resize(ends.size());
  std::size_t begin = 0;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    views[i] = std::string_view(
        reinterpret_cast<const char*>(arena.data()) + begin,
        ends[i] - begin);
    begin = ends[i];
  }
  prf.Hash64Column(views, std::span<std::uint64_t>(h1.data(), h1.size()));
}

namespace {

/// Chunk size of the fused plain-column plan build — matches the one-shot
/// detect worker: each chunk is touched exactly once, so per-chunk fixed
/// costs amortize, and the per-row working set (8-byte vals + 8-byte
/// hashes) stays L2-resident.
constexpr std::size_t kPlanChunk = 4096;

/// Extracts the set-bit positions of `mask` (the first `count` bits) into
/// `out` — the ~1/e fit entries of a hashed chunk, compacted so the
/// selection work downstream touches only them plus one word per 64 hashes.
void CollectSetBits(const std::vector<std::uint64_t>& mask, std::size_t count,
                    std::vector<std::uint32_t>& out) {
  out.clear();
  const std::size_t words = (count + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = mask[w];
    while (word != 0) {
      out.push_back(static_cast<std::uint32_t>(
          64 * w + static_cast<std::size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
}

/// Reserves a shard's share of the plan: rows / e fit entries expected.
void ReserveShard(TuplePlan& part, std::size_t rows, std::uint64_t e,
                  bool with_payload_index) {
  const std::size_t expected = rows / static_cast<std::size_t>(e) + 64;
  part.fit_rows.reserve(expected);
  part.h1.reserve(expected);
  if (with_payload_index) part.payload_index.reserve(expected);
}

/// Concatenates per-shard plans in shard order. Shards cover contiguous
/// ascending row ranges, so the result is ascending and the same for every
/// shard count.
TuplePlan ConcatShards(std::vector<TuplePlan>& parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  TuplePlan plan;
  std::size_t total = 0;
  std::size_t total_index = 0;
  for (const TuplePlan& p : parts) {
    total += p.fit_rows.size();
    total_index += p.payload_index.size();
  }
  plan.fit_rows.reserve(total);
  plan.h1.reserve(total);
  plan.payload_index.reserve(total_index);
  for (const TuplePlan& p : parts) {
    plan.fit_rows.insert(plan.fit_rows.end(), p.fit_rows.begin(),
                         p.fit_rows.end());
    plan.h1.insert(plan.h1.end(), p.h1.begin(), p.h1.end());
    plan.payload_index.insert(plan.payload_index.end(),
                              p.payload_index.begin(), p.payload_index.end());
    plan.messages_hashed += p.messages_hashed;
  }
  return plan;
}

}  // namespace

TuplePlan BuildTuplePlan(const Relation& rel, std::size_t key_col,
                         const WatermarkKeySet& keys,
                         const WatermarkParams& params,
                         const TuplePlanOptions& options) {
  const std::size_t n = rel.NumRows();
  if (options.with_payload_index) {
    CATMARK_CHECK_GE(options.payload_len, 1u);
    CATMARK_CHECK_LE(options.payload_len,
                     static_cast<std::size_t>(
                         std::numeric_limits<std::uint32_t>::max()));
  }

  // One immutable PRF instance per key, shared by every worker: the key
  // schedule is set up here, once, not per shard or per row.
  const std::unique_ptr<KeyedPrf> prf_k1 =
      CreateKeyedPrf(options.prf, keys.k1, params.hash_algo);
  const std::unique_ptr<KeyedPrf> prf_k2 =
      CreateKeyedPrf(options.prf, keys.k2, params.hash_algo);

  const std::size_t threads = EffectiveThreadCount(options.num_threads, n);
  const ColumnStore& store = rel.store();
  const DivisibilityCheck fit_by_e(params.e);
  std::vector<TuplePlan> parts(threads);

  if (store.IsDictColumn(key_col) && options.use_dict_cache) {
    // Dictionary-encoded key column: every row with the same key value
    // hashes identically, so hash each live distinct dictionary entry once
    // into a per-dict-code h1/fit cache and fan the verdicts out through
    // the code vector — |dict| keyed hashes instead of N.
    const std::vector<Value>& dict = store.Dict(key_col);
    const std::vector<std::int32_t>& codes = store.Codes(key_col);
    const std::vector<std::int64_t>& live = store.DictLiveCounts(key_col);
    std::vector<std::uint64_t> h1_of(dict.size(), 0);
    std::vector<std::uint8_t> fit_of(dict.size(), 0);
    std::vector<std::uint32_t> index_of(
        options.with_payload_index ? dict.size() : 0, 0);
    // The keyed hashing dominates, and a near-unique categorical key means
    // |dict| ~ N — shard it like the plain path so plan build keeps its
    // multi-core scaling.
    ParallelFor(
        dict.size(), EffectiveThreadCount(options.num_threads, dict.size()),
        [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
          KeyHashBatch batch;
          std::vector<std::uint64_t> fit_mask((kKeyHashBatch + 63) / 64);
          std::vector<std::uint32_t> fit_sel;
          std::vector<std::int64_t> fit_i64;
          std::vector<std::string_view> fit_views;
          std::vector<std::uint64_t> h2;
          for (std::size_t code = begin; code < end;) {
            batch.Clear();
            for (; code < end && batch.size() < kKeyHashBatch; ++code) {
              // Dead entries (live count 0) have no referencing row.
              if (live[code] == 0) continue;
              batch.Add(dict[code], code);
            }
            batch.Hash(*prf_k1);
            // Fitness as a packed bitset (AVX2-vectorized divisibility
            // test), then set-bit compaction of the ~1/e fit entries.
            DivisibilityMask64(fit_by_e, batch.h1.data(), batch.size(),
                               fit_mask.data());
            CollectSetBits(fit_mask, batch.size(), fit_sel);
            const std::size_t nfit = fit_sel.size();
            if (options.with_payload_index && nfit > 0) {
              // Position-hash the fit subset in one batched k2 call —
              // through the typed kernel when the dict entries are int64.
              h2.resize(nfit);
              if (batch.int64_lane()) {
                fit_i64.resize(nfit);
                for (std::size_t f = 0; f < nfit; ++f) {
                  fit_i64[f] = batch.i64[fit_sel[f]];
                }
                prf_k2->Hash64Int64Keys(fit_i64.data(), nfit,
                                        std::span<std::uint64_t>(h2));
              } else {
                fit_views.clear();
                for (std::size_t f = 0; f < nfit; ++f) {
                  fit_views.push_back(batch.views[fit_sel[f]]);
                }
                prf_k2->Hash64Column(fit_views,
                                     std::span<std::uint64_t>(h2));
              }
            }
            for (std::size_t f = 0; f < nfit; ++f) {
              const std::size_t i = fit_sel[f];
              const std::size_t c = batch.ids[i];
              fit_of[c] = 1;
              h1_of[c] = batch.h1[i];
              if (options.with_payload_index) {
                index_of[c] = static_cast<std::uint32_t>(PayloadIndexFromHash(
                    h2[f], options.payload_len, params.bit_index_mode));
              }
            }
          }
        });
    ParallelFor(n, threads, [&](std::size_t shard, std::size_t begin,
                                std::size_t end) {
      TuplePlan& part = parts[shard];
      ReserveShard(part, end - begin, params.e, options.with_payload_index);
      for (std::size_t j = begin; j < end; ++j) {
        const std::int32_t code = codes[j];
        if (code < 0 || !fit_of[static_cast<std::size_t>(code)]) continue;
        part.fit_rows.push_back(j);
        part.h1.push_back(h1_of[static_cast<std::size_t>(code)]);
        if (options.with_payload_index) {
          part.payload_index.push_back(
              index_of[static_cast<std::size_t>(code)]);
        }
      }
    });
    TuplePlan plan = ConcatShards(parts);
    // Each live distinct entry went through the PRF exactly once above.
    for (const std::int64_t l : live) plan.messages_hashed += (l != 0);
    return plan;
  }

  // Plain key columns (or the dict cache disabled for the parity tests):
  // the fused chunk pipeline of DetectOneShot, producing plan rows instead
  // of vote tallies. A typed int64 key column feeds its raw cells to the
  // typed kernel, straight from the column while a chunk has no NULL;
  // anything else serializes chunk-wise into a per-worker arena.
  const Int64Cells* int64_keys =
      store.IsInt64Column(key_col) ? &store.Int64Column(key_col) : nullptr;
  std::optional<ColumnReader> key_reader;
  if (int64_keys == nullptr) key_reader.emplace(store, key_col);
  ParallelFor(n, threads, [&](std::size_t shard, std::size_t begin,
                              std::size_t end) {
    TuplePlan& part = parts[shard];
    ReserveShard(part, end - begin, params.e, options.with_payload_index);
    std::vector<std::uint8_t> arena;
    std::vector<std::int64_t> vals;      // compacted int64 keys
    std::vector<std::int64_t> fit_vals;  // fit subset of the keys, for k2
    std::vector<std::size_t> bounds;
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> h1;
    std::vector<std::uint64_t> h2;
    std::vector<std::uint64_t> fit_mask((kPlanChunk + 63) / 64);
    std::vector<std::uint32_t> fit_sel;
    std::vector<std::string_view> fit_views;
    arena.reserve(kPlanChunk * 16);
    vals.resize(kPlanChunk);
    fit_vals.resize(kPlanChunk);
    bounds.reserve(kPlanChunk + 1);
    rows.reserve(kPlanChunk);
    for (std::size_t chunk = begin; chunk < end; chunk += kPlanChunk) {
      const std::size_t chunk_end = std::min(end, chunk + kPlanChunk);
      // Key i of the chunk is row chunk + i while `rows` stays empty.
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
          const Value& key_value = (*key_reader)[j];
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
      part.messages_hashed += count;
      DivisibilityMask64(fit_by_e, h1.data(), count, fit_mask.data());
      CollectSetBits(fit_mask, count, fit_sel);
      const std::size_t nfit = fit_sel.size();
      if (options.with_payload_index) {
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
      }
      for (std::size_t f = 0; f < nfit; ++f) {
        const std::size_t i = fit_sel[f];
        part.fit_rows.push_back(rows.empty() ? chunk + i : rows[i]);
        part.h1.push_back(h1[i]);
        if (options.with_payload_index) {
          part.payload_index.push_back(
              static_cast<std::uint32_t>(PayloadIndexFromHash(
                  h2[f], options.payload_len, params.bit_index_mode)));
        }
      }
    }
  });
  return ConcatShards(parts);
}

}  // namespace catmark
