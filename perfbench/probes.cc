// Layer probes of the traced run: each calls one layer's public functions
// on the workload's own relation, keys and certificates, inside spans, so
// every per-layer metric exists on every workload. A workload skips the
// probes whose calls its own ops already span.
#include <algorithm>
#include <bit>
#include <random>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/parallel.h"
#include "core/decision.h"
#include "core/detect_engine.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "crypto/siphash_simd.h"
#include "ecc/code.h"
#include "relation/catm_io.h"
#include "service/session.h"
#include "workloads.h"

namespace catmark::perfbench {
namespace {

constexpr double kAlpha = 1e-3;
constexpr int kSaveReps = 3;
constexpr int kEmbedReps = 2;
constexpr int kDetectReps = 3;
constexpr int kEngineReps = 3;
constexpr int kSweepReps = 3;
constexpr std::size_t kCertificateSamples = 200;
constexpr std::size_t kCryptoMessages = std::size_t{1} << 20;
constexpr int kEccReps = 200;
constexpr std::size_t kServiceSessions = 8;
constexpr std::size_t kServiceBatch = 64;
constexpr int kServiceTicks = 256;
constexpr int kParallelForReps = 500;

WatermarkParams CertParams(const WatermarkCertificate& cert) {
  WatermarkParams params = cert.params;
  params.payload_length = cert.payload_length;
  params.num_threads = kThreads;
  return params;
}

void ProbeSave(const ProbeContext& c, Tracer& tracer, Measurements& out) {
  for (int i = 0; i < kSaveReps; ++i) {
    const int span = tracer.Begin("relation.save");
    const Status saved = SaveRelation(*c.rel, c.save_path);
    tracer.End(span, 0.0);
    tracer.SetValue(span, FileSizeBytes(c.save_path));
    if (!saved.ok()) out.Fail("probe save: " + saved.ToString());
  }
}

// Re-embeds the workload's relation under keys that are not the owner's,
// so the embed does the alteration work of a first release.
void ProbeEmbed(const ProbeContext& c, Tracer& tracer, Measurements& out) {
  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase(
      "perfbench/probe-embed/" + std::to_string(c.seed));
  EmbedOptions options;
  options.key_attr = c.key_attr;
  options.target_attr = c.target_attr;
  options.domain = c.owner_cert.domain;
  const Embedder embedder(keys, CertParams(c.owner_cert));
  for (int i = 0; i < kEmbedReps; ++i) {
    Relation copy = *c.rel;
    Result<EmbedReport> report = [&] {
      ScopedSpan span(tracer, "core.embed");
      span.set_value(static_cast<double>(copy.NumRows()));
      return embedder.Embed(copy, options, c.owner_cert.wm);
    }();
    if (!report.ok()) {
      out.Fail("probe embed: " + report.status().ToString());
    } else if (report.value().fit_tuples > 0) {
      out.counters["core.altered_per_fit"].push_back(
          static_cast<double>(report.value().altered_tuples) /
          static_cast<double>(report.value().fit_tuples));
    }
  }
}

Result<DetectionResult> OwnerDetect(const ProbeContext& c) {
  DetectOptions options;
  options.key_attr = c.key_attr;
  options.target_attr = c.target_attr;
  options.domain_view = &c.owner_cert.domain;
  options.payload_length = c.owner_cert.payload_length;
  return Detector(c.owner_keys, CertParams(c.owner_cert))
      .Detect(*c.rel, options, c.owner_cert.wm.size());
}

void ProbeDetect(const ProbeContext& c, Tracer& tracer, Measurements& out) {
  for (int i = 0; i < kDetectReps; ++i) {
    Result<DetectionResult> detection = [&] {
      ScopedSpan span(tracer, "core.detect");
      span.set_value(static_cast<double>(c.rel->NumRows()));
      return OwnerDetect(c);
    }();
    if (!detection.ok()) {
      out.Fail("probe detect: " + detection.status().ToString());
      continue;
    }
    CountDetection(detection.value(), out);
  }
}

void ProbeEngine(const ProbeContext& c, Tracer& tracer, Measurements& out) {
  DetectEngineOptions options;
  options.key_attr = c.key_attr;
  options.target_attr = c.target_attr;
  options.domain_view = &c.owner_cert.domain;
  options.num_threads = kThreads;
  std::vector<KeyCandidate> candidates;
  for (const OwnershipCandidate& oc : c.candidates) {
    candidates.push_back(
        {oc.keys, CertParams(oc.certificate), oc.certificate.wm.size()});
  }
  for (int rep = 0; rep < kEngineReps; ++rep) {
    const int plan = tracer.Begin("core.plan");
    Result<DetectEngine> engine = DetectEngine::Create(*c.rel, options);
    tracer.End(plan, static_cast<double>(c.rel->NumRows()));
    if (!engine.ok()) {
      out.Fail("probe plan: " + engine.status().ToString());
      return;
    }
    const int pass = tracer.Begin("core.pass");
    const std::vector<Result<DetectionResult>> results =
        engine.value().DetectMany(candidates);
    tracer.End(pass, static_cast<double>(candidates.size()));
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        out.Fail("probe pass: " + results[i].status().ToString());
        continue;
      }
      ScopedSpan span(tracer, "core.decide");
      DecideOwnership(c.candidates[i].certificate.wm, results[i].value().wm,
                      kAlpha);
    }
  }
}

void ProbeSweep(const ProbeContext& c, Tracer& tracer, Measurements& out) {
  const WatermarkService service(ServiceOptions{kThreads});
  for (int rep = 0; rep < kSweepReps; ++rep) {
    Result<SweepReport> report = [&] {
      ScopedSpan span(tracer, "service.sweep");
      span.set_value(static_cast<double>(c.candidates.size()));
      return service.SweepOwnership(*c.rel, c.candidates, kAlpha);
    }();
    if (!report.ok() || !report.value().failed.empty()) {
      out.Fail("probe sweep failed");
    }
  }
}

void ProbeCertificates(const ProbeContext& c, Tracer& tracer,
                       Measurements& out) {
  std::vector<std::string> texts;
  for (const OwnershipCandidate& oc : c.candidates) {
    texts.push_back(oc.certificate.Serialize());
  }
  std::size_t samples = 0;
  while (!texts.empty() && samples < kCertificateSamples) {
    for (std::size_t i = 0; i < texts.size(); ++i, ++samples) {
      Result<WatermarkCertificate> cert = [&] {
        ScopedSpan span(tracer, "core.cert_parse");
        return WatermarkCertificate::Deserialize(texts[i]);
      }();
      if (!cert.ok()) {
        out.Fail("probe certificate parse: " + cert.status().ToString());
        return;
      }
      const int verify = tracer.Begin("core.verify_keys");
      const bool verified = cert.value().VerifyKeys(c.candidates[i].keys);
      tracer.End(verify, 1.0);
      if (!verified) out.Fail("probe: claimant keys fail their commitment");
    }
  }
}

// Hashes the workload's own keys with the k1 PRF and tests fitness: the
// typed int64 kernel for an int64 key column, the arena kernel over the
// distinct serialized keys otherwise (what a dictionary-key pass hashes).
void ProbeCrypto(const ProbeContext& c, Tracer& tracer, Measurements& out) {
  const std::size_t key_col =
      static_cast<std::size_t>(c.rel->schema().ColumnIndex(c.key_attr));
  const bool int64_keys =
      c.rel->schema().column(key_col).type == ColumnType::kInt64;
  const std::unique_ptr<KeyedPrf> prf =
      CreateKeyedPrf(PrfKind::kSipHash24, c.owner_keys.k1);
  std::vector<std::int64_t> ints;
  std::vector<std::uint8_t> arena;
  std::vector<std::size_t> bounds{0};
  if (int64_keys) {
    for (std::size_t r = 0;
         r < c.rel->NumRows() && ints.size() < kCryptoMessages; ++r) {
      if (const std::int64_t* v = c.rel->Get(r, key_col).TryInt64()) {
        ints.push_back(*v);
      }
    }
  } else {
    std::unordered_set<std::string> seen;
    std::vector<std::uint8_t> scratch;
    for (std::size_t r = 0;
         r < c.rel->NumRows() && seen.size() < kCryptoMessages; ++r) {
      const Value& v = c.rel->Get(r, key_col);
      if (v.is_null()) continue;
      const std::string_view bytes = v.SerializeKeyInto(scratch);
      if (!seen.emplace(bytes).second) continue;
      arena.insert(arena.end(), bytes.begin(), bytes.end());
      bounds.push_back(arena.size());
    }
  }
  const std::size_t n = int64_keys ? ints.size() : bounds.size() - 1;
  if (n == 0) {
    out.Fail("probe crypto: no keys");
    return;
  }
  std::vector<std::uint64_t> h(n);
  std::vector<std::uint64_t> words((n + 63) / 64);
  const DivisibilityCheck fit(c.owner_cert.params.e);
  const std::size_t reps = std::max<std::size_t>(5, kCryptoMessages / n);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    {
      ScopedSpan span(tracer, "crypto.hash");
      span.set_value(static_cast<double>(n));
      if (int64_keys) {
        prf->Hash64Int64Keys(ints.data(), n, h);
      } else {
        prf->Hash64Arena(arena.data(), bounds, h);
      }
    }
    ScopedSpan span(tracer, "crypto.fitness");
    span.set_value(static_cast<double>(n));
    DivisibilityMask64(fit, h.data(), n, words.data());
  }
  std::size_t fit_bits = 0;
  for (const std::uint64_t w : words) fit_bits += std::popcount(w);
  std::size_t fit_scalar = 0;
  for (const std::uint64_t x : h) fit_scalar += fit(x) ? 1 : 0;
  if (fit_bits != fit_scalar) {
    out.Fail("probe crypto: fitness mask disagrees with the scalar test");
  }
}

// Decodes the workload's payload at the fill its owner detection observes.
void ProbeEcc(const ProbeContext& c, Tracer& tracer, Measurements& out) {
  Result<DetectionResult> detection = OwnerDetect(c);
  const std::unique_ptr<ErrorCorrectingCode> ecc =
      CreateEcc(c.owner_cert.params.ecc);
  const std::size_t len = c.owner_cert.payload_length;
  Result<BitVector> encoded = ecc->Encode(c.owner_cert.wm, len);
  if (!detection.ok() || !encoded.ok()) {
    out.Fail("probe ecc: cannot build the payload");
    return;
  }
  ExtractedPayload payload(len);
  payload.bits = std::move(encoded).value();
  std::mt19937_64 rng(c.seed);
  const double fill = detection.value().payload_fill;
  for (std::size_t i = 0; i < len; ++i) {
    if (static_cast<double>(rng() >> 11) * 0x1.0p-53 < fill) {
      payload.present.Set(i, 1);
    }
  }
  for (int rep = 0; rep < kEccReps; ++rep) {
    Result<BitVector> decoded = [&] {
      ScopedSpan span(tracer, "ecc.decode");
      span.set_value(static_cast<double>(len));
      return ecc->Decode(payload, c.owner_cert.wm.size());
    }();
    if (!decoded.ok()) {
      out.Fail("probe ecc: " + decoded.status().ToString());
      return;
    }
  }
}

// A short feed through the service over fresh sessions, with rows drawn
// from the workload's relation, plus the same batches replayed one
// InsertBatch at a time on mirror sessions.
void ProbeService(const ProbeContext& c, Tracer& tracer, Measurements& out) {
  Result<SessionSpec> spec =
      SessionSpec::FromCertificate(c.owner_cert, c.owner_keys);
  if (!spec.ok()) {
    out.Fail("probe service spec: " + spec.status().ToString());
    return;
  }
  spec.value().params.num_threads = kThreads;
  WatermarkService service(ServiceOptions{kThreads});
  const Relation empty(c.rel->schema());
  std::vector<std::size_t> ids;
  std::vector<StreamSession> mirrors;
  std::vector<Relation> mirror_rels(kServiceSessions, empty);
  for (std::size_t s = 0; s < kServiceSessions; ++s) {
    Relation seed_rel = empty;
    Result<std::size_t> id = [&] {
      ScopedSpan span(tracer, "service.open");
      return service.Open(spec.value(), std::move(seed_rel));
    }();
    Result<StreamSession> mirror = StreamSession::Create(spec.value());
    if (!id.ok() || !mirror.ok()) {
      out.Fail("probe service: cannot open sessions");
      return;
    }
    ids.push_back(id.value());
    mirrors.push_back(std::move(mirror).value());
  }
  std::mt19937_64 rng(c.seed);
  for (int t = 0; t < kServiceTicks; ++t) {
    std::vector<WatermarkService::SessionBatch> batches(kServiceSessions);
    std::vector<std::vector<Row>> mirror_rows;
    for (std::size_t s = 0; s < kServiceSessions; ++s) {
      batches[s].session_id = ids[s];
      for (std::size_t i = 0; i < kServiceBatch; ++i) {
        batches[s].rows.push_back(c.rel->row(rng() % c.rel->NumRows()));
      }
      mirror_rows.push_back(batches[s].rows);
    }
    std::vector<Result<BatchReport>> results;
    {
      ScopedSpan root(tracer, "bench.tick");
      ScopedSpan span(tracer, "service.execute");
      span.set_value(static_cast<double>(kServiceSessions * kServiceBatch));
      results = service.ExecuteBatches(batches);
    }
    double rows = 0, hashed = 0, fit = 0;
    for (const Result<BatchReport>& r : results) {
      if (!r.ok()) {
        out.Fail("probe execute: " + r.status().ToString());
        return;
      }
      rows += static_cast<double>(r.value().rows);
      hashed += static_cast<double>(r.value().hashed_keys);
      fit += static_cast<double>(r.value().fit_rows);
    }
    out.counters["service.hashed_keys_ratio"].push_back(hashed / rows);
    out.counters["service.fit_ratio"].push_back(fit / rows);
    ScopedSpan root(tracer, "bench.mirror");
    for (std::size_t s = 0; s < kServiceSessions; ++s) {
      ScopedSpan span(tracer, "service.insert");
      span.set_value(static_cast<double>(kServiceBatch));
      if (!mirrors[s].InsertBatch(mirror_rels[s], mirror_rows[s]).ok()) {
        out.Fail("probe mirror insert failed");
      }
    }
  }
  for (const std::size_t id : ids) {
    ScopedSpan span(tracer, "service.close");
    if (!service.Close(id).ok()) out.Fail("probe close failed");
  }
}

void ProbeParallelFor(const ProbeContext& c, Tracer& tracer) {
  for (int rep = 0; rep < kParallelForReps; ++rep) {
    ScopedSpan span(tracer, "common.parallel_for");
    span.set_value(static_cast<double>(c.nproc));
    ParallelFor(c.nproc, c.nproc,
                [](std::size_t, std::size_t, std::size_t) {});
  }
}

}  // namespace

void RunProbes(const ProbeContext& context, unsigned probes, Tracer& tracer,
               Measurements& out) {
  tracer.set_enabled(true);
  tracer.set_op(-1);
  if (probes & kProbeSave) ProbeSave(context, tracer, out);
  if (probes & kProbeEmbed) ProbeEmbed(context, tracer, out);
  if (probes & kProbeDetect) ProbeDetect(context, tracer, out);
  if (probes & kProbeEngine) ProbeEngine(context, tracer, out);
  if (probes & kProbeSweep) ProbeSweep(context, tracer, out);
  if (probes & kProbeCertificates) ProbeCertificates(context, tracer, out);
  if (probes & kProbeCrypto) ProbeCrypto(context, tracer, out);
  if (probes & kProbeEcc) ProbeEcc(context, tracer, out);
  if (probes & kProbeService) ProbeService(context, tracer, out);
  if (probes & kProbeParallelFor) ProbeParallelFor(context, tracer);
  tracer.set_enabled(false);
}

}  // namespace catmark::perfbench
