#ifndef CATMARK_CORE_DETECT_ENGINE_H_
#define CATMARK_CORE_DETECT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/detector.h"
#include "core/keys.h"
#include "core/params.h"
#include "relation/domain.h"
#include "relation/relation.h"
#include "relation/value_index_column.h"

namespace catmark {

/// One candidate of a multi-key detection sweep: the keys to test plus the
/// scheme parameters that candidate claims were used at embed time (e, PRF
/// backend, ECC, payload length — in a registry dispute each certificate
/// brings its own) and the claimed mark length.
struct KeyCandidate {
  WatermarkKeySet keys;
  WatermarkParams params;
  std::size_t wm_len = 0;
};

/// The payload-length precedence ladder every detect path shares: a nonzero
/// `override_len` (DetectEngineOptions / DetectOptions::payload_length),
/// then the candidate's claimed params.payload_length, then re-derivation
/// from the suspect size (FailedPrecondition when N / e == 0). The result
/// sizes the vote tally, so it is capped like a certificate's
/// payload_length: above kMaxCertificatePayloadLength it is
/// InvalidArgument, never an allocation. Requires candidate.params.e >= 1.
Result<std::size_t> ResolveDetectPayloadLength(std::size_t override_len,
                                               const KeyCandidate& candidate,
                                               std::size_t num_rows);

/// Inputs of the key-independent half of detection. Mirrors DetectOptions
/// minus everything per-key; the embedding-map variant stays on Detector
/// (a map lookup is inherently per-embedding, not per-relation).
struct DetectEngineOptions {
  std::string key_attr;
  std::string target_attr;

  /// Domain the embedder used; copied into the engine. When neither this
  /// nor `domain_view` is set it is recovered from the suspect data.
  std::optional<CategoricalDomain> domain;

  /// Non-owning alternative to `domain` (takes precedence). The pointee
  /// must outlive the engine — the only external state an engine keeps.
  const CategoricalDomain* domain_view = nullptr;

  /// Optional caller-built domain-index view of the target column (one
  /// entry per suspect row, built against the same domain as above). Only
  /// read during Create; the engine is self-contained afterwards.
  const ValueIndexColumn* target_index = nullptr;

  /// Engine-wide payload length override. Per candidate the precedence is
  /// this, then KeyCandidate::params.payload_length, then re-derivation
  /// from the suspect size (which fails when N / e == 0) — the same ladder
  /// as DetectOptions::payload_length over WatermarkParams.
  std::size_t payload_length = 0;

  /// Worker threads (0 = auto). DetectMany splits them keys × shards.
  std::size_t num_threads = 0;
};

/// The key-agnostic detect engine: builds the per-relation half of blind
/// detection once (the *RelationPlan*) and runs the per-key half (the
/// *PerKeyPass*) against it for any number of candidate keys.
///
/// RelationPlan — everything the fitness/position hashes consume that does
/// not depend on the key, built once at Create:
///   - canonical key-value serialization into per-shard arenas: one
///     prepared *message* per live distinct dictionary entry on a
///     dictionary-encoded key column (the dict-code gather), or one per
///     non-NULL key row on a plain column;
///   - key-independent per-message vote aggregates from the target column's
///     domain-index view: vote[i] = Σ over that message's rows of ±1 (the
///     embedded bit t & 1, 0 when NULL/out-of-domain), plus usable/row
///     counts. Integer addition commutes, so folding rows into their
///     message *before* knowing which messages are fit is bit-identical to
///     the row-at-a-time tally.
///
/// PerKeyPass — the only work repeated per candidate: chunked batched
/// Hash64Arena over the prepared messages under k1, a divide-free
/// H mod e == 0 fitness test, batched k2 position hashes for the ~1/e fit
/// messages, and a branchless votes[idx] += vote[i] tally. On a
/// repeat-heavy key column this is O(distinct keys) per candidate instead
/// of O(N) — the entire row dimension was folded into the plan.
///
/// DetectMany runs siphash24 candidates in key-lane blocks: one
/// SipHash24KeyLanes call hashes a chunk of plan messages under up to
/// KeyLaneWidth() candidates' k1 keys (16 with AVX-512, 8 with AVX2), and
/// each resulting h1 column goes through the same tally body as a lone
/// candidate's message-lane h1.
///
/// Every result is bit-identical to a standalone Detector::Detect with the
/// same inputs, at every thread count, SIMD level, block split and under
/// every PRF backend (detect_engine_test pins the parity); Detector::Detect
/// itself runs on this engine, so the two cannot drift.
class DetectEngine {
 public:
  /// Builds the RelationPlan. Fails like Detector::Detect's per-relation
  /// half: unknown attributes, empty relation, domain with < 2 values, or
  /// a target_index whose row count does not match.
  static Result<DetectEngine> Create(const Relation& rel,
                                     const DetectEngineOptions& options);

  /// The one-shot single-candidate entry point Detector::Detect runs on:
  /// the plan-then-pass split exists to amortize the plan across *many*
  /// candidates, so with exactly one there is nothing to amortize — on a
  /// plain key column this fuses serialize -> hash -> fitness -> tally into
  /// a single chunked streaming pass that never materializes the
  /// whole-relation arena (and resolves target-domain indices only for the
  /// ~1/e fit rows). On a dict-encoded key column the plan arena is O(live
  /// dict) and building it IS the fast path, so this delegates to
  /// Create + Detect. Bit-identical to that pair on every input.
  static Result<DetectionResult> DetectOneShot(
      const Relation& rel, const DetectEngineOptions& options,
      const KeyCandidate& candidate);

  DetectEngine(DetectEngine&&) = default;
  DetectEngine& operator=(DetectEngine&&) = default;

  /// One candidate through the PerKeyPass. The plan is amortized, not
  /// rebuilt: messages_hashed counts its prepared messages while
  /// rows_scanned stays the relation's row count; wall_seconds covers just
  /// this pass.
  Result<DetectionResult> Detect(const KeyCandidate& candidate) const;

  /// Runs every candidate through the PerKeyPass, amortizing the plan
  /// across the block and splitting the worker budget units × shards:
  /// units (key-lane blocks of siphash24 candidates, every other candidate
  /// alone) fan out over ParallelFor, and any leftover workers parallelize
  /// each unit's message shards. results[i] corresponds to candidates[i];
  /// a bad candidate (zero wm_len, invalid keys, e == 0, unresolvable PRF,
  /// or a payload length that cannot be derived or exceeds
  /// kMaxCertificatePayloadLength) fails that entry only. In a key-lane
  /// block each result's wall_seconds is its share of the block's time.
  std::vector<Result<DetectionResult>> DetectMany(
      std::span<const KeyCandidate> candidates) const;

  const CategoricalDomain& domain() const { return *domain_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_messages() const { return num_messages_; }
  bool dict_keys() const { return dict_keys_; }
  double plan_build_seconds() const { return plan_build_seconds_; }

 private:
  struct Pass;
  struct Lane;
  struct LaneTally;
  struct Scratch;

  DetectEngine() = default;

  Result<Pass> ResolvePass(const KeyCandidate& candidate) const;
  /// Runs one unit of the sweep: a lone pass (k1 through the message-lane
  /// batch forms) or a key-lane block of up to kMaxKeyLanes siphash24
  /// passes (k1 for every lane from one SipHash24KeyLanes call per chunk).
  /// results[l] belongs to passes[l].
  std::vector<Result<DetectionResult>> RunBlock(
      std::span<const Pass* const> passes, std::size_t num_threads,
      Scratch& scratch) const;
  void TallyShard(std::size_t shard, std::span<const Lane> lanes,
                  const KeyedPrf* lone_k1, std::span<LaneTally> tallies,
                  Scratch& scratch) const;
  /// The tally body after k1, the one copy every h1 producer feeds: fitness
  /// mask, fit-message compaction, k2 positions, votes.
  void TallyChunk(std::size_t shard, std::size_t first,
                  std::span<const std::uint64_t> h1, const Lane& lane,
                  LaneTally& tally, Scratch& scratch) const;

  // Resolved domain: an external view or the engine-owned copy (unique_ptr
  // keeps the address stable across moves).
  std::unique_ptr<CategoricalDomain> owned_domain_;
  const CategoricalDomain* domain_ = nullptr;

  std::size_t num_rows_ = 0;
  std::size_t num_messages_ = 0;
  std::size_t num_threads_ = 0;
  std::size_t default_payload_length_ = 0;
  bool dict_keys_ = false;
  double plan_build_seconds_ = 0.0;

  // RelationPlan storage, per build shard: serialized messages back to
  // back in arena_[s], with bounds_[s] holding a leading 0 plus one
  // end-offset per message (so any chunk hashes via a bounds subspan).
  std::vector<std::vector<std::uint8_t>> arena_;
  std::vector<std::vector<std::size_t>> bounds_;
  std::vector<std::size_t> msg_base_;  ///< first global message id per shard

  // Equal-length arena layout: when every prepared message serializes to
  // the same byte count (always true for int64/double keys — 9 bytes — and
  // for equal-width strings), message m sits at offset m * fixed_len_ in
  // its shard arena and the PerKeyPass hashes via Hash64Fixed with no
  // per-message bounds lookups. -1 = mixed lengths, use bounds_.
  std::ptrdiff_t fixed_len_ = -1;

  // Per-message aggregates, global message order (shards concatenated).
  // On a plain key column each message is a single row: rows == 1 and
  // usable == (vote != 0), so only vote_ is materialized.
  std::vector<std::int32_t> vote_;
  std::vector<std::uint32_t> usable_;
  std::vector<std::uint32_t> rows_;
};

}  // namespace catmark

#endif  // CATMARK_CORE_DETECT_ENGINE_H_
