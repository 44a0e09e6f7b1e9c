// perfbench: the DeepBase benchmark program. One process runs one workload
// for a fixed time and prints, as its last stdout line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Earlier lines carry the host fingerprint ("host {...}"),
// per-rate open-loop accounting ("level {...}") and, in traced runs, the
// span file ("spans <path>") and per-layer self times ("self_time_s {...}").
//
//   perfbench --workload cold_scan --seed 1 --seconds 10 --trace 0
//             [--smoke] [--work-dir DIR] [--git-sha SHA] [--source-sha SHA]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "util/logging.h"

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "";
}

std::string HostJson(const std::string& git_sha, const std::string& source_sha) {
  std::set<std::string> flags;
  std::istringstream words(CpuInfoField("flags"));
  for (std::string w; words >> w;) flags.insert(w);
  std::string isa;
  for (const char* f : {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
                        "avx512vl", "avx512_vnni", "amx_tile"}) {
    if (flags.count(f) != 0) isa += std::string(isa.empty() ? "" : " ") + f;
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << JsonEscape(CpuInfoField("model name"))
    << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"isa\": \"" << isa << "\", \"compiler\": \"" << JsonEscape(compiler)
    << "\", \"deepbase_simd\": " << PERFBENCH_SIMD << ", \"march\": \""
    << PERFBENCH_MARCH << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"git_sha\": \"" << JsonEscape(git_sha)
    << "\", \"source_sha256\": \"" << JsonEscape(source_sha) << "\"}";
  return o.str();
}

/// Trace runs keep their spans in memory and write them out at the end,
/// one JSON object per line.
void WriteSpans(const RunArgs& args) {
  const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream out(path);
  for (const perfbench::Span& s : perfbench::SpanLog::Get().Collect()) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"job\": " << s.job
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"count\": " << s.count << "}\n";
  }
  std::printf("spans %s\n", path.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_scan|warm_reinspect|serve_mix|cluster_sliced --seed N "
               "--seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string git_sha = "unknown", source_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + flag).c_str());
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else if (flag == "--git-sha") {
      git_sha = v;
    } else if (flag == "--source-sha") {
      source_sha = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  deepbase::SetLogLevel(deepbase::LogLevel::kError);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  using Runner = RunResult (*)(const RunArgs&);
  const std::map<std::string, Runner> runners = {
      {"cold_scan", perfbench::RunColdScan},
      {"warm_reinspect", perfbench::RunWarmReinspect},
      {"serve_mix", perfbench::RunServeMix},
      {"cluster_sliced", perfbench::RunClusterSliced},
  };
  auto it = runners.find(args.workload);
  if (it == runners.end()) return Usage(("unknown workload " + args.workload).c_str());

  std::printf("host %s\n", HostJson(git_sha, source_sha).c_str());
  std::fflush(stdout);
  RunResult result = it->second(args);

  const auto& wanted =
      args.trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    auto m = result.metrics.find(name);
    double value = 0;
    if (m == result.metrics.end() || m->second.unit != unit) {
      result.Fail("metric not produced: " + name);
    } else if (!std::isfinite(m->second.value)) {
      result.Fail("metric not finite: " + name);
    } else {
      value = m->second.value;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name +
               "\": {\"value\": " + Num(value) + ", \"unit\": \"" + unit +
               "\"}";
  }
  if (args.trace) {
    WriteSpans(args);
    std::string self;
    for (const auto& [layer, s] : result.self_time_s) {
      self += std::string(self.empty() ? "" : ", ") + "\"" + layer +
              "\": " + Num(s);
    }
    std::printf("self_time_s {%s}\n", self.c_str());
  }
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
