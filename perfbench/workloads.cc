#include "workloads.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/bitvec.h"
#include "common/result.h"
#include "core/decision.h"
#include "core/detector.h"
#include "core/embedder.h"
#include "crypto/prf.h"
#include "gen/sales_gen.h"
#include "relation/catm_io.h"
#include "relation/schema.h"

namespace catmark::perfbench {
namespace {

// Shared by every workload.
constexpr std::size_t kMarkBits = 64;
constexpr double kAlpha = 1e-3;  // DecideOwnership's default significance

// publish: the owner's release path on a large plain-key relation.
constexpr std::size_t kPublishRows = 4'000'000;
constexpr std::size_t kPublishDomain = 1000;
constexpr double kPublishZipf = 1.0;
constexpr std::uint64_t kPublishE = 60;
constexpr int kPublishSetups = 11;  // warm-up cycles of ~0.7 s

// dispute: a blind sweep of a 1000-certificate registry over a suspect with
// dictionary-encoded string keys (~4096 customers, ~244 rows each). e = 8
// gives ~512 fit customers, enough to fill a 128-position payload.
constexpr std::size_t kDisputeRows = 1'000'000;
constexpr std::size_t kDisputeCustomers = 4096;
constexpr std::size_t kDisputeDomain = 100;
constexpr std::uint64_t kDisputeE = 8;
constexpr std::size_t kDisputePayload = 128;
constexpr std::size_t kDisputeCandidates = 1000;
constexpr std::size_t kDisputeChecked = 25;
constexpr int kDisputeSetups = 25;  // set-ups of ~0.1 s

// Layer probes run against this many non-owner claimants where the
// workload brings no registry of its own.
constexpr std::size_t kProbeClaimants = 15;

std::string Path(const RunConfig& config, const std::string& name) {
  return config.dir + "/" + name;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

WatermarkParams Params(std::uint64_t e, std::size_t threads) {
  WatermarkParams params;
  params.e = e;
  params.prf = PrfKind::kSipHash24;
  params.num_threads = threads;
  return params;
}

BitVector MakeMark(std::uint64_t seed, std::uint64_t stream) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return BitVector::FromGenerator(kMarkBits, [&rng] { return rng(); });
}

std::string OwnerPassphrase(const std::string& workload, std::uint64_t seed) {
  return "perfbench/" + workload + "/owner/" + std::to_string(seed);
}

std::string ClaimantPassphrase(std::uint64_t seed, std::size_t i) {
  return "perfbench/claimant/" + std::to_string(seed) + "/" +
         std::to_string(i);
}

std::string CandidateId(std::size_t i) {
  std::string digits = std::to_string(i);
  return "cand-" + std::string(4 - std::min<std::size_t>(4, digits.size()),
                               '0') +
         digits;
}

std::size_t DisputeOwnerIndex(std::uint64_t seed) {
  return std::mt19937_64(seed ^ 0xD15B07EULL)() % kDisputeCandidates;
}

Result<Relation> TracedLoad(Tracer& tracer, const std::string& path,
                            const Schema& schema, double bytes) {
  ScopedSpan span(tracer, "relation.load");
  span.set_value(bytes);
  return LoadRelation(path, schema);
}

// Compares two files byte for byte.
bool SameFileBytes(const std::string& a, const std::string& b) {
  Result<FileBytes> fa = FileBytes::Open(a);
  Result<FileBytes> fb = FileBytes::Open(b);
  if (!fa.ok() || !fb.ok()) return false;
  const std::string_view va = fa.value().view();
  const std::string_view vb = fb.value().view();
  return va.size() == vb.size() &&
         std::memcmp(va.data(), vb.data(), va.size()) == 0;
}

// Claimants that are not the owner: `count` candidates with their own keys
// and marks over the owner certificate's parameters (honest commitments).
std::vector<OwnershipCandidate> MakeClaimants(
    const WatermarkCertificate& owner, std::uint64_t seed, std::size_t count) {
  std::vector<OwnershipCandidate> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    OwnershipCandidate c;
    c.id = "claimant-" + std::to_string(i);
    c.keys = WatermarkKeySet::FromPassphrase(ClaimantPassphrase(seed, i));
    c.certificate = owner;
    c.certificate.wm = MakeMark(seed, 1000 + i);
    c.certificate.key_commitment_hex = ComputeKeyCommitment(c.keys);
    out.push_back(std::move(c));
  }
  return out;
}

// Inputs of the traced run's layer probes: the workload's relation (every
// workload keys on "K" and marks "A") and owner. A workload without a
// registry of its own probes the owner plus kProbeClaimants claimants.
ProbeContext MakeProbeContext(const RunConfig& config, const Relation& rel,
                              const WatermarkKeySet& owner_keys,
                              const WatermarkCertificate& owner_cert,
                              std::vector<OwnershipCandidate> candidates = {}) {
  if (candidates.empty()) {
    candidates.push_back({"owner", owner_cert, owner_keys});
    for (OwnershipCandidate& c :
         MakeClaimants(owner_cert, config.seed, kProbeClaimants)) {
      candidates.push_back(std::move(c));
    }
  }
  ProbeContext context;
  context.rel = &rel;
  context.key_attr = "K";
  context.target_attr = "A";
  context.owner_keys = owner_keys;
  context.owner_cert = owner_cert;
  context.candidates = std::move(candidates);
  context.save_path = Path(config, "probe.catm");
  context.nproc = config.nproc;
  context.seed = config.seed;
  return context;
}

// A failed check during set-up ends the run with the check's message.
Status SetupFailure(const std::string& what, const Measurements& out) {
  return Status::Internal(what + " failed" +
                          (out.failures.empty() ? std::string()
                                                : ": " + out.failures.back()));
}

// The CPU the benchmark's thread is pinned to while a CpuPin lives, or -1.
int pinned_cpu = -1;

// Pins the calling thread, which makes every timed catmark call, to the CPU
// it runs on, so that StolenMs can read that CPU's steal time; restores the
// thread's CPU mask when it ends. Threads started meanwhile inherit the pin.
class CpuPin {
 public:
  CpuPin() {
    CPU_ZERO(&saved_);
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) pinned_cpu = cpu;
  }
  ~CpuPin() {
    if (pinned_cpu >= 0) sched_setaffinity(0, sizeof(saved_), &saved_);
    pinned_cpu = -1;
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
};

// Time the hypervisor has taken from the pinned CPU since boot, in ms: the
// steal column of its line in /proc/stat (kept in clock ticks of 10 ms).
// 0 when no CPU is pinned or the line cannot be read.
double StolenMs() {
  if (pinned_cpu < 0) return 0.0;
  std::ifstream in("/proc/stat");
  const std::string tag = "cpu" + std::to_string(pinned_cpu) + " ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, tag.size(), tag) != 0) continue;
    // user nice system idle iowait irq softirq steal
    std::istringstream fields(line.substr(tag.size()));
    double ticks[8] = {};
    for (double& t : ticks) fields >> t;
    return ticks[7] * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return 0.0;
}

// Times a section: its wall-clock time less the time the hypervisor took
// from the pinned CPU meanwhile, in ms. On a shared host the other tenants
// then reach the figure only through what they share with the benchmark
// while it runs (caches, memory bandwidth), not by preempting its CPU. The
// steal counter's 10 ms ticks make one short section's figure coarse;
// medians over many sections are not.
class Stopwatch {
 public:
  Stopwatch() : stolen_(StolenMs()), start_(Clock::now()) {}
  double Ms() const {
    const double wall = MsSince(start_);
    return std::max(0.0, wall - (StolenMs() - stolen_));
  }

 private:
  double stolen_;
  Clock::time_point start_;
};

// Set-up repetitions: setup_s is the median of `untraced` of them. The
// traced run alternates traced and untraced repetitions so it can report
// tracing overhead.
int SetupRepeats(const RunConfig& config, int untraced) {
  return config.trace ? 2 * untraced : untraced;
}

bool TracedIndex(const RunConfig& config, std::int64_t i) {
  return config.trace && i % 2 == 0;
}

// Times set-up repetition `r`. `setup` returns false when its checks
// failed, which ends the run.
Status TimeSetup(const RunConfig& config, int r, Tracer& tracer,
                 Measurements& out, const std::function<bool()>& setup) {
  tracer.set_enabled(TracedIndex(config, r));
  tracer.set_op(-1);
  const Stopwatch watch;
  const bool ok = setup();
  out.setup_s.push_back(watch.Ms() / 1e3);
  out.setup_traced.push_back(TracedIndex(config, r));
  tracer.set_enabled(false);
  if (!ok) return SetupFailure(config.workload + " set-up", out);
  return Status::OK();
}

// The timed loop: ops for config.seconds of loop time, set-up excluded.
// The workload has run set-up repetition 0 before; repetitions 1 to
// `setups` - 1 run at even steps of the loop time, so setup_s samples the
// host over the whole run as the ops do, not only its first seconds. `op`
// sets its latency and returns whether its checks passed.
Status TimedLoop(const RunConfig& config, int setups, Tracer& tracer,
                 Measurements& out, const std::function<bool()>& setup,
                 const std::function<bool(double&)>& op) {
  const double budget_ms = config.seconds * 1e3;
  double loop_ms = 0.0;
  int next = 1;
  for (std::int64_t i = 0; loop_ms < budget_ms; ++i) {
    while (next < setups && loop_ms >= budget_ms * next / setups) {
      CATMARK_RETURN_IF_ERROR(TimeSetup(config, next++, tracer, out, setup));
    }
    const auto start = Clock::now();
    const double stolen = StolenMs();
    const bool traced = TracedIndex(config, i);
    tracer.set_enabled(traced);
    tracer.set_op(i);
    double ms = 0.0;
    const bool ok = op(ms);
    out.AddOp(ms, traced, ok);
    tracer.set_enabled(false);
    tracer.set_op(-1);
    const double op_wall_ms = MsSince(start);
    loop_ms += op_wall_ms;
    out.loop_wall_ms += op_wall_ms;
    out.loop_stolen_ms += StolenMs() - stolen;
  }
  while (next < setups) {
    CATMARK_RETURN_IF_ERROR(TimeSetup(config, next++, tracer, out, setup));
  }
  return Status::OK();
}

// Writes a file's dirty pages to disk, so their writeback cannot stall a
// timed call later.
void SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}


// ---------------------------------------------------------------- publish

Schema PublishSchema() {
  return Schema::Create({{"K", ColumnType::kInt64, false},
                         {"A", ColumnType::kString, true}},
                        "K")
      .value();
}

Status GeneratePublish(const RunConfig& config) {
  KeyedCategoricalConfig gen;
  gen.num_tuples = kPublishRows;
  gen.domain_size = kPublishDomain;
  gen.zipf_s = kPublishZipf;
  gen.seed = config.seed;
  return GenerateKeyedCategoricalFile(gen, Path(config, "source.catm"))
      .status();
}

Status RunPublish(const RunConfig& config, Tracer& tracer,
                  Measurements& out) {
  const Schema schema = PublishSchema();
  const WatermarkKeySet keys =
      WatermarkKeySet::FromPassphrase(OwnerPassphrase("publish", config.seed));
  const BitVector wm = MakeMark(config.seed, 0);
  const WatermarkParams params = Params(kPublishE, kThreads);
  EmbedOptions embed_options;
  embed_options.key_attr = "K";
  embed_options.target_attr = "A";
  const Embedder embedder(keys, params);
  const Detector detector(keys, params);
  const std::string source = Path(config, "source.catm");
  const std::string released = Path(config, "released.catm");
  const std::string reference = Path(config, "reference.catm");
  const double source_bytes = FileSizeBytes(source);

  // The byte-identity reference: the same release embedded on nproc
  // threads.
  {
    WatermarkParams wide = params;
    wide.num_threads = config.nproc;
    CATMARK_ASSIGN_OR_RETURN(Relation rel, LoadRelation(source, schema));
    CATMARK_RETURN_IF_ERROR(
        Embedder(keys, wide).Embed(rel, embed_options, wm).status());
    CATMARK_RETURN_IF_ERROR(SaveRelation(rel, reference));
    SyncFile(reference);
  }
  const double released_bytes = FileSizeBytes(reference);

  std::optional<EmbedReport> last_report;
  // One release cycle. Op A: load -> embed -> save; op B, the owner's
  // pre-release check of the saved file: load -> detect -> decide. Each
  // check runs after its op's timer stops. Returns whether all passed.
  const auto cycle = [&](double& a_ms, double& b_ms) -> bool {
    bool ok = true;
    // Each release goes to a new file. Removing the last one here, before
    // the timer, keeps its writeback from stalling the next save.
    std::error_code ec;
    std::filesystem::remove(released, ec);
    const Stopwatch a_watch;
    {
      ScopedSpan root(tracer, "bench.publish");
      Result<Relation> rel = TracedLoad(tracer, source, schema, source_bytes);
      if (!rel.ok()) {
        out.Note("load source: " + rel.status().ToString());
        return false;
      }
      Result<EmbedReport> report = [&] {
        ScopedSpan span(tracer, "core.embed");
        span.set_value(static_cast<double>(rel.value().NumRows()));
        return embedder.Embed(rel.value(), embed_options, wm);
      }();
      if (!report.ok()) {
        out.Note("embed: " + report.status().ToString());
        return false;
      }
      last_report = std::move(report).value();
      const int save = tracer.Begin("relation.save");
      const Status saved = SaveRelation(rel.value(), released);
      tracer.End(save, released_bytes);
      if (!saved.ok()) {
        out.Note("save: " + saved.ToString());
        return false;
      }
      ScopedSpan release_span(tracer, "relation.free");
      Relation released_rel = std::move(rel).value();
    }
    a_ms = a_watch.Ms();
    if (tracer.enabled() && last_report->fit_tuples > 0) {
      out.counters["core.altered_per_fit"].push_back(
          static_cast<double>(last_report->altered_tuples) /
          static_cast<double>(last_report->fit_tuples));
    }
    if (!SameFileBytes(released, reference)) {
      out.Note("released .catm differs from the nproc-thread embed");
      ok = false;
    }

    DetectOptions detect_options;
    detect_options.key_attr = "K";
    detect_options.target_attr = "A";
    detect_options.domain_view = &last_report->domain;
    detect_options.payload_length = last_report->payload_length;
    std::optional<OwnershipDecision> decision;
    std::optional<DetectionResult> detection;
    const Stopwatch b_watch;
    {
      ScopedSpan root(tracer, "bench.verify");
      Result<Relation> rel =
          TracedLoad(tracer, released, schema, released_bytes);
      if (!rel.ok()) {
        out.Note("load release: " + rel.status().ToString());
        return false;
      }
      Result<DetectionResult> detected = [&] {
        ScopedSpan span(tracer, "core.detect");
        span.set_value(static_cast<double>(rel.value().NumRows()));
        return detector.Detect(rel.value(), detect_options, wm.size());
      }();
      if (!detected.ok()) {
        out.Note("detect: " + detected.status().ToString());
        return false;
      }
      detection = std::move(detected).value();
      {
        ScopedSpan span(tracer, "core.decide");
        decision = DecideOwnership(wm, detection->wm, kAlpha);
      }
      ScopedSpan release_span(tracer, "relation.free");
      Relation checked_rel = std::move(rel).value();
    }
    b_ms = b_watch.Ms();
    if (tracer.enabled()) CountDetection(*detection, out);
    if (!decision->owned || decision->matched_bits != wm.size()) {
      out.Note("pre-release check did not decide owned with a full match");
      ok = false;
    }
    return ok;
  };

  // Set-up is one untimed warm-up cycle.
  const auto warm_up = [&] {
    double a_ms = 0.0, b_ms = 0.0;
    return cycle(a_ms, b_ms);
  };
  std::optional<CpuPin> pin(std::in_place);  // set-ups and timed ops
  CATMARK_RETURN_IF_ERROR(TimeSetup(config, 0, tracer, out, warm_up));
  CATMARK_RETURN_IF_ERROR(TimedLoop(
      config, SetupRepeats(config, kPublishSetups), tracer, out, warm_up,
      [&](double& ms) {
        double a_ms = 0.0, b_ms = 0.0;
        const bool ok = cycle(a_ms, b_ms);
        ms = a_ms + b_ms;
        out.parts["publish_ms"].push_back(a_ms);
        out.parts["verify_ms"].push_back(b_ms);
        return ok;
      }));
  out.peak_rss_mb = PeakRssMb();
  pin.reset();
  out.counters["relation.catm_bytes_per_row"].push_back(
      released_bytes / static_cast<double>(kPublishRows));

  if (config.trace && last_report.has_value()) {
    CATMARK_ASSIGN_OR_RETURN(Relation rel, LoadRelation(released, schema));
    RunProbes(MakeProbeContext(config, rel, keys,
                               WatermarkCertificate::Create(
                                   keys, params, embed_options, *last_report,
                                   wm)),
              kAllProbes & ~(kProbeSave | kProbeEmbed | kProbeDetect), tracer,
              out);
  }
  return Status::OK();
}

// ---------------------------------------------------------------- dispute

Schema DisputeSchema() {
  return Schema::Create({{"K", ColumnType::kString, true},
                         {"A", ColumnType::kString, true}})
      .value();
}

// Registry text: per candidate a header line "<id>\t<passphrase>\t<length>"
// followed by that many bytes of serialized certificate.
Status GenerateDispute(const RunConfig& config) {
  Relation rel(DisputeSchema());
  rel.Reserve(kDisputeRows);
  std::mt19937_64 rng(config.seed);
  for (std::size_t i = 0; i < kDisputeRows; ++i) {
    const std::uint64_t h = rng();
    rel.AppendRowUnchecked(
        {Value("cust-" + std::to_string(h % kDisputeCustomers)),
         Value("item-" + std::to_string((h >> 32) % kDisputeDomain))});
  }
  const std::string owner_pass = OwnerPassphrase("dispute", config.seed);
  const WatermarkKeySet keys = WatermarkKeySet::FromPassphrase(owner_pass);
  const BitVector wm = MakeMark(config.seed, 0);
  WatermarkParams params = Params(kDisputeE, config.nproc);
  params.payload_length = kDisputePayload;
  EmbedOptions options;
  options.key_attr = "K";
  options.target_attr = "A";
  CATMARK_ASSIGN_OR_RETURN(EmbedReport report,
                           Embedder(keys, params).Embed(rel, options, wm));
  CATMARK_RETURN_IF_ERROR(SaveRelation(rel, Path(config, "suspect.catm")));

  const WatermarkCertificate owner =
      WatermarkCertificate::Create(keys, params, options, report, wm);
  const std::vector<OwnershipCandidate> claimants =
      MakeClaimants(owner, config.seed, kDisputeCandidates - 1);
  const std::size_t owner_index = DisputeOwnerIndex(config.seed);
  std::string registry;
  for (std::size_t i = 0, next = 0; i < kDisputeCandidates; ++i) {
    const bool is_owner = i == owner_index;
    const std::string text = is_owner
                                 ? owner.Serialize()
                                 : claimants[next].certificate.Serialize();
    const std::string pass =
        is_owner ? owner_pass : ClaimantPassphrase(config.seed, next);
    if (!is_owner) ++next;
    registry += CandidateId(i) + "\t" + pass + "\t" +
                std::to_string(text.size()) + "\n" + text;
  }
  return WriteFile(Path(config, "registry.txt"), registry);
}

Result<std::vector<OwnershipCandidate>> ParseRegistry(Tracer& tracer,
                                                      std::string_view text) {
  std::vector<OwnershipCandidate> out;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    if (eol == std::string_view::npos) {
      return Status::InvalidArgument("registry: truncated header");
    }
    const std::string_view header = text.substr(0, eol);
    const std::size_t t1 = header.find('\t');
    const std::size_t t2 = header.find('\t', t1 + 1);
    if (t1 == std::string_view::npos || t2 == std::string_view::npos) {
      return Status::InvalidArgument("registry: malformed header");
    }
    const std::string_view len_text = header.substr(t2 + 1);
    std::size_t len = 0;
    const auto parsed = std::from_chars(
        len_text.data(), len_text.data() + len_text.size(), len);
    text.remove_prefix(eol + 1);
    if (parsed.ec != std::errc() ||
        parsed.ptr != len_text.data() + len_text.size() || len > text.size()) {
      return Status::InvalidArgument("registry: truncated certificate");
    }
    OwnershipCandidate candidate;
    candidate.id = std::string(header.substr(0, t1));
    candidate.keys =
        WatermarkKeySet::FromPassphrase(header.substr(t1 + 1, t2 - t1 - 1));
    Result<WatermarkCertificate> cert = [&] {
      ScopedSpan span(tracer, "core.cert_parse");
      return WatermarkCertificate::Deserialize(text.substr(0, len));
    }();
    if (!cert.ok()) return cert.status();
    candidate.certificate = std::move(cert).value();
    out.push_back(std::move(candidate));
    text.remove_prefix(len);
  }
  return out;
}

Status RunDispute(const RunConfig& config, Tracer& tracer,
                  Measurements& out) {
  const Schema schema = DisputeSchema();
  const std::string suspect_path = Path(config, "suspect.catm");
  const double suspect_bytes = FileSizeBytes(suspect_path);
  const std::string owner_id = CandidateId(DisputeOwnerIndex(config.seed));
  const WatermarkService service(ServiceOptions{kThreads});

  // One sweep plus its checks (after the timer): the true owner ranks
  // first and is owned, nothing failed, and the first kDisputeChecked
  // candidates match one-at-a-time certified detection.
  struct Expected {
    BitVector wm;
    std::size_t usable_votes = 0;
    std::size_t fit_tuples = 0;
  };
  std::vector<Expected> expected;
  const auto sweep = [&](const Relation& suspect,
                         const std::vector<OwnershipCandidate>& candidates,
                         double& ms) -> bool {
    const Stopwatch watch;
    Result<SweepReport> report = [&] {
      ScopedSpan root(tracer, "bench.sweep");
      ScopedSpan span(tracer, "service.sweep");
      span.set_value(static_cast<double>(candidates.size()));
      return service.SweepOwnership(suspect, candidates, kAlpha);
    }();
    ms = watch.Ms();
    if (!report.ok()) {
      out.Note("sweep: " + report.status().ToString());
      return false;
    }
    const SweepReport& r = report.value();
    if (!r.failed.empty() || r.ranked.size() != candidates.size()) {
      out.Note("sweep: a candidate failed");
      return false;
    }
    if (r.ranked[0].id != owner_id || !r.ranked[0].decision.owned) {
      out.Note("sweep: the true owner is not first and owned");
      return false;
    }
    if (tracer.enabled()) CountDetection(r.ranked[0].detection, out);
    std::unordered_map<std::string_view, const SweepMatch*> by_id;
    for (const SweepMatch& m : r.ranked) by_id.emplace(m.id, &m);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const auto it = by_id.find(candidates[i].id);
      if (it == by_id.end() || it->second->detection.wm != expected[i].wm ||
          it->second->detection.usable_votes != expected[i].usable_votes ||
          it->second->detection.fit_tuples != expected[i].fit_tuples) {
        out.Note("sweep: " + candidates[i].id +
                 " differs from one-at-a-time certified detection");
        return false;
      }
    }
    return true;
  };

  // Set-up: suspect load, registry parsing and one warm-up sweep.
  std::optional<Relation> suspect;
  std::vector<OwnershipCandidate> candidates;
  const auto set_up = [&]() -> bool {
    suspect.reset();
    candidates.clear();
    Result<Relation> loaded =
        TracedLoad(tracer, suspect_path, schema, suspect_bytes);
    if (!loaded.ok()) {
      out.Note("load suspect: " + loaded.status().ToString());
      return false;
    }
    suspect = std::move(loaded).value();
    Result<std::string> registry = ReadFile(Path(config, "registry.txt"));
    if (!registry.ok()) {
      out.Note("read registry: " + registry.status().ToString());
      return false;
    }
    Result<std::vector<OwnershipCandidate>> parsed =
        ParseRegistry(tracer, registry.value());
    if (!parsed.ok()) {
      out.Note("parse registry: " + parsed.status().ToString());
      return false;
    }
    candidates = std::move(parsed).value();
    if (candidates.size() != kDisputeCandidates) {
      out.Note("registry holds the wrong number of candidates");
      return false;
    }
    double ms = 0.0;
    return sweep(*suspect, candidates, ms);
  };
  std::optional<CpuPin> pin(std::in_place);  // set-ups and timed ops
  CATMARK_RETURN_IF_ERROR(TimeSetup(config, 0, tracer, out, set_up));
  for (std::size_t i = 0; i < kDisputeChecked; ++i) {
    CATMARK_ASSIGN_OR_RETURN(
        CertifiedDetection d,
        DetectWithCertificate(*suspect, candidates[i].certificate,
                              candidates[i].keys, kAlpha));
    expected.push_back({d.detection.wm, d.detection.usable_votes,
                        d.detection.fit_tuples});
  }

  CATMARK_RETURN_IF_ERROR(TimedLoop(
      config, SetupRepeats(config, kDisputeSetups), tracer, out, set_up,
      [&](double& ms) { return sweep(*suspect, candidates, ms); }));
  out.peak_rss_mb = PeakRssMb();
  pin.reset();
  out.counters["relation.catm_bytes_per_row"].push_back(
      suspect_bytes / static_cast<double>(suspect->NumRows()));

  if (config.trace) {
    const std::size_t owner = DisputeOwnerIndex(config.seed);
    RunProbes(MakeProbeContext(config, *suspect, candidates[owner].keys,
                               candidates[owner].certificate, candidates),
              kAllProbes & ~kProbeSweep, tracer, out);
  }
  return Status::OK();
}

}  // namespace

void Measurements::Note(const std::string& why) {
  if (failures.size() < 20) failures.push_back(why);
}

void Measurements::Fail(const std::string& why) {
  ++failed;
  Note(why);
}

void Measurements::AddOp(double ms, bool traced, bool ok) {
  op_ms.push_back(ms);
  op_traced.push_back(traced ? 1 : 0);
  ++attempted;
  if (!ok) ++failed;
}

double FileSizeBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void CountDetection(const DetectionResult& detection, Measurements& out) {
  if (detection.rows_scanned > 0) {
    out.counters["core.messages_per_row"].push_back(
        static_cast<double>(detection.messages_hashed) /
        static_cast<double>(detection.rows_scanned));
  }
  if (detection.num_tuples > 0) {
    out.counters["core.fit_ratio"].push_back(
        static_cast<double>(detection.fit_tuples) /
        static_cast<double>(detection.num_tuples));
  }
}

Status Generate(const RunConfig& config) {
  Status status = Status::InvalidArgument("unknown workload " +
                                          config.workload);
  if (config.workload == "publish") status = GeneratePublish(config);
  if (config.workload == "dispute") status = GenerateDispute(config);
  if (!status.ok()) return status;
  // On disk before the run starts, so no writeback overlaps its timers.
  for (const auto& entry : std::filesystem::directory_iterator(config.dir)) {
    if (entry.is_regular_file()) SyncFile(entry.path().string());
  }
  return Status::OK();
}

Status Run(const RunConfig& config, Tracer& tracer, Measurements& out) {
  if (config.workload == "publish") return RunPublish(config, tracer, out);
  if (config.workload == "dispute") return RunDispute(config, tracer, out);
  return Status::InvalidArgument("unknown workload " + config.workload);
}

}  // namespace catmark::perfbench
