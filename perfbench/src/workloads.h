// The benchmark's workloads: three live servers built through the program's public
// API and driven by the closed-loop client, plus the §6.1 discrete-event computation.
// See perfbench/README.md for the make-up of each and why it was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int64_t process_start_ns = 0;  // NowNs() at process start: set-up is timed from it
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed before the result
  std::string error;               // the first failed output check
};

const std::vector<std::string>& WorkloadNames();

// End-to-end metric names and units (untraced runs), and per-layer ones (traced runs),
// in the order they are printed. Every run prints every metric of its kind; a
// per-layer metric whose layer the workload does not run reads 0.
const std::vector<Metric>& EndToEndMetrics();
const std::vector<Metric>& PerLayerMetrics();

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
