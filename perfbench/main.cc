// catmark_perfbench: the compiled half of the workload benchmark. run.py
// drives it; the statistics live there.
//
//   catmark_perfbench gen --workload W --seed N --dir D
//       Writes workload W's inputs for seed N into D.
//   catmark_perfbench run --workload W --seed N --seconds S --trace 0|1
//                         --dir D --out RAW.json [--spans SPANS.tsv]
//       Runs W over the inputs in D for S seconds and writes the raw
//       samples (and, traced, the spans) when it ends.
//
// Input generation is a separate process so that neither its time nor its
// memory reaches any metric.
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crypto/siphash_simd.h"
#include "trace.h"
#include "workloads.h"

namespace catmark::perfbench {
namespace {

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0, b = 0, c = 0, d = 0;
  __cpuid(0x80000000u, max_leaf, b, c, d);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __cpuid(0x80000002u + i, regs[i * 4], regs[i * 4 + 1], regs[i * 4 + 2],
              regs[i * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // stop at the first NUL
    const auto first = brand.find_first_not_of(' ');
    const auto last = brand.find_last_not_of(' ');
    if (first != std::string::npos) {
      return brand.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(static_cast<double>(values[i]));
  }
  return out + "]";
}

std::string JsonSeries(const std::map<std::string, std::vector<double>>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : m) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + JsonArray(values);
  }
  return out + "}";
}

std::string RawJson(const RunConfig& config, const Measurements& m,
                    const Tracer& tracer) {
  std::string failures = "[";
  for (std::size_t i = 0; i < m.failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += JsonString(m.failures[i]);
  }
  failures += "]";
  std::string out = "{";
  out += "\"workload\":" + JsonString(config.workload);
  out += ",\"seed\":" + std::to_string(config.seed);
  out += ",\"trace\":" + std::string(config.trace ? "1" : "0");
  out += ",\"host\":{\"cpu_model\":" + JsonString(CpuModel()) +
         ",\"nproc\":" + std::to_string(config.nproc) +
         ",\"simd_level\":" +
         JsonString(std::string(SimdLevelName(ActiveSimdLevel()))) +
         ",\"compiler\":" + JsonString(Compiler()) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) + "}";
  out += ",\"setup_s\":" + JsonArray(m.setup_s);
  out += ",\"setup_traced\":" + JsonArray(m.setup_traced);
  out += ",\"op_ms\":" + JsonArray(m.op_ms);
  out += ",\"op_traced\":" + JsonArray(m.op_traced);
  out += ",\"parts\":" + JsonSeries(m.parts);
  out += ",\"counters\":" + JsonSeries(m.counters);
  out += ",\"attempted\":" + std::to_string(m.attempted);
  out += ",\"failed\":" + std::to_string(m.failed);
  out += ",\"failures\":" + failures;
  out += ",\"peak_rss_mb\":" + JsonNumber(m.peak_rss_mb);
  out += ",\"loop_wall_ms\":" + JsonNumber(m.loop_wall_ms);
  out += ",\"loop_stolen_ms\":" + JsonNumber(m.loop_stolen_ms);
  out += ",\"spans\":" + std::to_string(tracer.size());
  out += ",\"span_bytes\":" + std::to_string(tracer.bytes());
  return out + "}\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: catmark_perfbench gen|run --workload W --seed N "
               "--dir D [--seconds S --trace 0|1 --out RAW.json "
               "--spans SPANS.tsv]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  RunConfig config;
  config.workload = flags["workload"];
  config.dir = flags["dir"];
  config.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(flags["seconds"].c_str());
  config.trace = flags["trace"] == "1";
  config.nproc = Nproc();
  if (config.workload.empty() || config.dir.empty()) return Usage();

  if (mode == "gen") {
    const Status status = Generate(config);
    if (!status.ok()) {
      std::fprintf(stderr, "gen: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run" || flags["out"].empty() || config.seconds <= 0) {
    return Usage();
  }
  Tracer tracer;
  Measurements measurements;
  const Status status = Run(config, tracer, measurements);
  if (!status.ok()) {
    std::fprintf(stderr, "run: %s\n", status.ToString().c_str());
    return 1;
  }
  std::FILE* f = std::fopen(flags["out"].c_str(), "w");
  if (f == nullptr) return 1;
  const std::string raw = RawJson(config, measurements, tracer);
  const bool written = std::fwrite(raw.data(), 1, raw.size(), f) == raw.size();
  if (std::fclose(f) != 0 || !written) return 1;
  if (config.trace && !flags["spans"].empty() &&
      !tracer.WriteTsv(flags["spans"])) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace catmark::perfbench

int main(int argc, char** argv) {
  return catmark::perfbench::Main(argc, argv);
}
