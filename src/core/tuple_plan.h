#ifndef CATMARK_CORE_TUPLE_PLAN_H_
#define CATMARK_CORE_TUPLE_PLAN_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/keys.h"
#include "core/params.h"
#include "crypto/prf.h"
#include "relation/relation.h"

namespace catmark {

/// Number of values batched into one KeyedPrf::Hash64Column call by the
/// plan build and the streaming insert path: large enough to amortize the
/// virtual dispatch and key-schedule reads, small enough that the serialized
/// arena and hash outputs stay cache-resident per worker.
inline constexpr std::size_t kKeyHashBatch = 1024;

/// Reusable chunk builder for batched keyed hashing: values serialize
/// back-to-back into one grown-once arena, and the whole chunk goes through
/// a single batched PRF call. The string_view probes are materialized only
/// once the chunk is complete (the arena may reallocate while it grows).
/// Shared by the tuple-plan precompute and the streaming insert path so the
/// two batch channels cannot drift apart.
///
/// Chunks made up entirely of int64 values additionally fill a typed lane
/// (`i64`, parallel to `ids`), and Hash() routes such chunks through
/// KeyedPrf::Hash64Int64Keys — the SIMD kernel that assembles the canonical
/// 9-byte records in vector registers — instead of materializing views.
/// The first non-int64 value demotes the chunk: the typed lane goes stale
/// and Hash() falls back to the arena/view path. Consumers that hash a
/// subset again (the ~1/e fit entries through k2) must branch on
/// int64_lane(): views are only populated when it is false.
struct KeyHashBatch {
  std::vector<std::uint8_t> arena;
  std::vector<std::size_t> ends;  // arena offset after each value
  std::vector<std::size_t> ids;   // row index / dict code per value
  std::vector<std::int64_t> i64;  // typed lane, valid iff int64_lane()
  std::vector<std::string_view> views;
  std::vector<std::uint64_t> h1;

  KeyHashBatch() {
    arena.reserve(kKeyHashBatch * 24);
    ends.reserve(kKeyHashBatch);
    ids.reserve(kKeyHashBatch);
    i64.reserve(kKeyHashBatch);
    views.reserve(kKeyHashBatch);
    h1.reserve(kKeyHashBatch);
  }

  void Clear() {
    arena.clear();
    ends.clear();
    ids.clear();
    i64.clear();
    all_int64_ = true;
  }

  std::size_t size() const { return ends.size(); }
  bool full() const { return ends.size() >= kKeyHashBatch; }

  /// True when every value added so far is an int64 — the typed lane holds
  /// them all and Hash() used (or will use) the typed kernel.
  bool int64_lane() const { return all_int64_; }

  void Add(const Value& v, std::size_t id) {
    v.SerializeForHash(arena);
    ends.push_back(arena.size());
    ids.push_back(id);
    if (all_int64_) {
      if (const std::int64_t* p = v.TryInt64()) {
        i64.push_back(*p);
      } else {
        all_int64_ = false;
      }
    }
  }

  /// Adds an already-serialized value (the streaming path probes its verdict
  /// cache with the serialized bytes first, so they are already at hand).
  /// Canonical int64 records (tag 0x01 + big-endian payload, 9 bytes) are
  /// decoded back into the typed lane — Hash64Int64Keys is pinned
  /// bit-identical to hashing the serialized record.
  void AddSerialized(std::span<const std::uint8_t> bytes, std::size_t id) {
    arena.insert(arena.end(), bytes.begin(), bytes.end());
    ends.push_back(arena.size());
    ids.push_back(id);
    if (all_int64_) {
      if (bytes.size() == 9 && bytes[0] == 0x01) {
        std::uint64_t v = 0;
        for (std::size_t b = 1; b < 9; ++b) v = (v << 8) | bytes[b];
        i64.push_back(static_cast<std::int64_t>(v));
      } else {
        all_int64_ = false;
      }
    }
  }

  /// One batched PRF call over the whole chunk; results land in h1[i]
  /// parallel to ids[i]. All-int64 chunks hash through the typed kernel and
  /// leave `views` empty; mixed chunks materialize views[i] as before.
  void Hash(const KeyedPrf& prf);

 private:
  bool all_int64_ = true;
};

/// Fit-tuple precompute shared by the embed and map-detect hot paths, built
/// in one thread-parallel pass over the key column. Only the fit tuples
/// (Section 3.2.1: H(T_j(K), k1) mod e == 0; NULL keys are unfit) carry
/// the mark, about N/e of N, so the plan is a sparse list over them
/// (structure-of-arrays, entry f describes row fit_rows[f]):
///
///   - fit_rows[f]: the row index, strictly ascending.
///   - h1[f]: the fitness hash itself — it also drives value selection, so
///     it is computed once, not once per use.
///   - payload_index[f]: the k2-derived wm_data position (only populated
///     when the k2 position path is in use — the Figure 1(b) embedding-map
///     path assigns indices sequentially at apply time).
///
/// No field is sized N: the build's per-row work streams through
/// chunk-sized scratch, and everything it keeps scales with the fit count.
///
/// All keyed hashing goes through the configured KeyedPrf backend
/// (TuplePlanOptions::prf). Dictionary-encoded key columns hash each live
/// distinct dictionary entry once into a per-dict-code h1/fit cache and
/// gather fit rows through the code vector. Plain columns run the same
/// fused chunk pipeline as DetectEngine::DetectOneShot: int64 key chunks
/// gather raw values straight off the column storage into the typed
/// Hash64Int64Keys kernel, anything else serializes chunk-wise into a
/// per-worker arena hashed via Hash64Arena; fitness verdicts come from the
/// vectorized DivisibilityMask64 bitset and only the ~1/e fit entries reach
/// the batched k2 position hash and the plan. Each worker appends the fit
/// rows of its contiguous row shard; the shards concatenate in shard order,
/// so the plan is identical at every thread count.
struct TuplePlan {
  std::vector<std::size_t> fit_rows;
  std::vector<std::uint64_t> h1;
  std::vector<std::uint32_t> payload_index;

  /// Messages the build pushed through the k1 PRF: live distinct dictionary
  /// entries on the cached path, non-NULL key rows otherwise. Feeds
  /// DetectionResult::messages_hashed so map-path detections report the
  /// same work accounting as the engine.
  std::size_t messages_hashed = 0;
};

/// Knobs of the plan build, separated from WatermarkParams because the PRF
/// choice arrives *resolved*: BuildTuplePlan cannot fail, so its callers
/// (which can) resolve WatermarkParams::prf / CATMARK_PRF first.
struct TuplePlanOptions {
  /// Payload (|wm_data|) length; only consulted when `with_payload_index`
  /// is set, and must then be >= 1 and fit in 32 bits.
  std::size_t payload_len = 0;
  /// Populate payload_index[] (the k2 position path). The Figure 1(b)
  /// embedding-map path leaves it off.
  bool with_payload_index = false;
  /// Worker threads (0 = auto).
  std::size_t num_threads = 0;
  /// Keyed-PRF backend for every hash in the plan.
  PrfKind prf = PrfKind::kKeyedHash;
  /// Test-only escape hatch: force the per-row batch path even on a
  /// dictionary-encoded key column, so the property suite can assert the
  /// per-dict-code cache is bit-identical to the uncached build.
  bool use_dict_cache = true;
};

TuplePlan BuildTuplePlan(const Relation& rel, std::size_t key_col,
                         const WatermarkKeySet& keys,
                         const WatermarkParams& params,
                         const TuplePlanOptions& options);

}  // namespace catmark

#endif  // CATMARK_CORE_TUPLE_PLAN_H_
