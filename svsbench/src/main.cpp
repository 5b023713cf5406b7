// svsbench -- the repository's end-to-end benchmark.
//
//   svsbench --workload kv_burst|udp_group|crash_n512 --seed N
//            --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload for about S seconds of wall time, checks its outputs
// against the benchmark's own expectations, and prints one JSON object as
// the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, measured from spans (Chrome trace in DIR).
// Normally started through svsbench/run.py, which builds it first and
// checks the metrics' names and units against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

/// The metrics of the mode: every value must be finite.  run.py checks
/// the names and units against BENCHMARK.json.
std::vector<svsbench::Metric> reported(const std::vector<svsbench::Metric>& got,
                                       std::vector<std::string>& problems) {
  std::vector<svsbench::Metric> out = got;
  for (auto& m : out) {
    if (!std::isfinite(m.value)) {
      problems.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: svsbench --workload kv_burst|udp_group|crash_n512 "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  svsbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 120) {
        return usage();
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  svsbench::Result result;
  if (options.workload == "kv_burst") {
    result = svsbench::run_kv_burst(options);
  } else if (options.workload == "udp_group") {
    result = svsbench::run_udp_group(options);
  } else if (options.workload == "crash_n512") {
    result = svsbench::run_crash_n512(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return usage();
  }

  const auto metrics = reported(
      options.trace ? result.per_layer : result.end_to_end, result.problems);
  const bool correct = result.problems.empty();
  for (std::size_t i = 0; i < result.problems.size() && i < 20; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", result.problems[i].c_str());
  }
  if (result.problems.size() > 20) {
    std::fprintf(stderr, "... %zu more check failures\n",
                 result.problems.size() - 20);
  }
  if (options.trace) {
    for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  }
  std::printf("%s seed=%llu seconds=%g trace=%d: attempted=%llu failed=%llu "
              "correct=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              correct ? "true" : "false");
  for (const auto& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!options.trace) {
    std::printf("  reference figures (unbounded):\n");
    for (const auto& m : result.per_layer) {
      if (m.name.rfind("e2e_ref.", 0) != 0) continue;
      std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + json_escape(metrics[i].name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
