// perfbench: the request-boundary benchmark of REVERE.
//
//   perfbench --workload <portal|analytics|churn|overlay> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//
// Prints a manifest line, a detail line, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer split with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "perfbench: refusing to report from a debug or sanitizer build "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  std::string workload, commit = "unknown";
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value.c_str());
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (workload.empty() || seed < 0 || seconds <= 0 || trace < 0) {
    return Usage("missing or invalid --workload, --seed, --seconds or --trace");
  }

  perfbench::RunOutcome out;
  std::string error;
  if (!perfbench::RunWorkload(workload, static_cast<uint64_t>(seed), seconds,
                              trace == 1, &out, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }

  std::ostringstream manifest;
  manifest << "{\"manifest\": {\"workload\": " << perfbench::JsonString(workload)
           << ", \"seed\": " << seed << ", \"seconds\": " << seconds
           << ", \"trace\": " << trace
           << ", \"build_type\": " << perfbench::JsonString(PERFBENCH_BUILD_TYPE)
           << ", \"compiler\": " << perfbench::JsonString("g++ " __VERSION__)
           << ", \"cpu\": " << perfbench::JsonString(CpuModel())
           << ", \"nproc\": " << std::thread::hardware_concurrency()
           << ", \"commit\": " << perfbench::JsonString(commit)
           << ", \"params\": " << out.params << "}}";
  std::cout << manifest.str() << "\n";
  std::cout << "{\"detail\": " << out.detail << "}\n";

  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << perfbench::MetricsJson(out.metrics) << "}"
            << std::endl;
  return 0;
}
