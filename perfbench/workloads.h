// The benchmark's workloads (publish, dispute) and the layer probes of its
// traced run. See README.md for why each workload exists and which
// per-layer metric should move which end-to-end metric.
#ifndef CATMARK_PERFBENCH_WORKLOADS_H_
#define CATMARK_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/certificate.h"
#include "core/keys.h"
#include "relation/relation.h"
#include "service/service.h"
#include "trace.h"

namespace catmark::perfbench {

/// num_threads passed explicitly to every catmark call of the set-ups, the
/// timed ops and the layer probes. One: a fan-out over every CPU of a
/// shared host measures the other tenants' load (see README.md).
inline constexpr std::size_t kThreads = 1;

struct RunConfig {
  std::string workload;
  /// Generated inputs are read from here; files the ops save go here too.
  std::string dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// The CPUs the process may run on: recorded in the fingerprint, and the
  /// num_threads of input generation and of the publish check's reference
  /// embed.
  std::size_t nproc = 1;
};

/// Everything a run measured, as raw samples; run.py derives the metrics.
struct Measurements {
  /// One entry per set-up repetition (seconds) and whether it was traced.
  std::vector<double> setup_s;
  std::vector<int> setup_traced;
  /// One entry per timed op: latency and whether it was traced.
  std::vector<double> op_ms;
  std::vector<int> op_traced;
  /// Named components of each op (publish: "publish_ms", "verify_ms").
  std::map<std::string, std::vector<double>> parts;
  /// Per-layer counts taken from the reports catmark returns, one value
  /// per observation.
  std::map<std::string, std::vector<double>> counters;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  /// Peak resident set after the timed loop, before end checks and probes.
  double peak_rss_mb = 0.0;
  /// Wall-clock time of the timed loop's ops (checks included) and the part
  /// of it the hypervisor took from the benchmark's CPU.
  double loop_wall_ms = 0.0;
  double loop_stolen_ms = 0.0;

  /// Counts a failure that belongs to no op (an end check or a probe).
  void Fail(const std::string& why);
  /// Keeps a failure message without counting it (the op counts it).
  void Note(const std::string& why);
  void AddOp(double ms, bool traced, bool ok);
};

/// Writes a workload's inputs for `config.seed` into `config.dir`.
Status Generate(const RunConfig& config);

/// Runs a workload over the inputs in `config.dir`. Set-up failures are
/// returned; op and check failures are counted in `out`.
Status Run(const RunConfig& config, Tracer& tracer, Measurements& out);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Size of a file in bytes (0 when it cannot be read).
double FileSizeBytes(const std::string& path);

/// What the layer probes of the traced run work on: the workload's own
/// relation, keys and certificates.
struct ProbeContext {
  const Relation* rel = nullptr;
  std::string key_attr;
  std::string target_attr;
  WatermarkKeySet owner_keys;
  WatermarkCertificate owner_cert;
  /// Candidate set of the plan / pass / decide / sweep / certificate
  /// probes; the owner is among them.
  std::vector<OwnershipCandidate> candidates;
  /// File the save probe writes.
  std::string save_path;
  /// Width of the ParallelFor probe.
  std::size_t nproc = 1;
  std::uint64_t seed = 0;
};

/// Probes, each a group of calls into one layer's public functions.
enum Probe : unsigned {
  kProbeSave = 1u << 0,
  kProbeEmbed = 1u << 1,
  kProbeDetect = 1u << 2,
  kProbeEngine = 1u << 3,  ///< DetectEngine plan + pass, DecideOwnership
  kProbeSweep = 1u << 4,
  kProbeCertificates = 1u << 5,
  kProbeCrypto = 1u << 6,
  kProbeEcc = 1u << 7,
  kProbeService = 1u << 8,
  kProbeParallelFor = 1u << 9,
  kAllProbes = (1u << 10) - 1,
};

/// Runs the probes in `probes` with tracing on; a workload skips the ones
/// its own ops already span. Call failures are counted in `out`.
void RunProbes(const ProbeContext& context, unsigned probes, Tracer& tracer,
               Measurements& out);

/// Records the detection counters of one DetectionResult.
void CountDetection(const DetectionResult& detection, Measurements& out);

}  // namespace catmark::perfbench

#endif  // CATMARK_PERFBENCH_WORKLOADS_H_
