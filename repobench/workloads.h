#ifndef COPYATTACK_REPOBENCH_WORKLOADS_H_
#define COPYATTACK_REPOBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace repobench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload measured: one pass over its inputs in a
/// process of its own.
struct RunResult {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double campaign_s = 0.0;  ///< time in the calls that run campaigns
  std::size_t targets = 0;  ///< target items completed
  std::vector<double> job_s;  ///< latency of each job
  double target_hr10 = 0.0;
  double hr20 = 0.0;
  std::string digest;         ///< of the results, doubles as hexfloat
  std::string counts_digest;  ///< of the program's counters (traced only)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation
  std::vector<Metric> metrics;        ///< per-layer metrics (traced only)
  std::vector<std::string> notes;     ///< extra human-readable report lines
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Enables the program's telemetry and adds the per-layer probes.
  bool trace = false;
  /// Directory `Generate` wrote the workload's inputs into.
  std::string input_dir;
  /// Per-run scratch space (checkpoint trees).
  std::string scratch_dir;
  /// Survives across runs in one checkout: the restart reference digests
  /// and the span dumps of traced runs.
  std::string state_dir;
};

/// Writes the inputs of `workload` for `seed` into `dir` as the CSV files
/// the program loads. Returns false (with `*error`) on an unknown
/// workload or an I/O failure.
bool Generate(const std::string& workload, std::uint64_t seed,
              const std::string& dir, std::string* error);

/// Runs one pass of the workload and measures it.
RunResult Run(const RunOptions& options);

}  // namespace repobench

#endif  // COPYATTACK_REPOBENCH_WORKLOADS_H_
