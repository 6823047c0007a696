// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable notes go first; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/client.h"
#include "src/workloads.h"

namespace {

// Set-up is timed from here: static initialization, before main runs.
const int64_t kProcessStartNs = perfbench::NowNs();

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               why);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void PrintResult(const perfbench::RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start_ns = kProcessStartNs;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("malformed value for " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known) {
    return Usage("unknown or missing --workload");
  }
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::RunResult result = perfbench::RunWorkload(options);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (!result.error.empty()) {
    std::printf("# FAILED CHECK: %s\n", result.error.c_str());
  }
  PrintResult(result);
  return 0;
}
