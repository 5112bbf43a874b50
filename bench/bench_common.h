#ifndef COPYATTACK_BENCH_BENCH_COMMON_H_
#define COPYATTACK_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/copy_attack.h"
#include "core/flat_policy.h"
#include "core/parallel_runner.h"
#include "core/runner.h"
#include "core/world.h"
#include "data/synthetic.h"
#include "serve/attack_server.h"

namespace copyattack::bench {

/// Generates the synthetic pair and builds its attack world with seeds
/// derived from `config.seed`, at most 40 target-model epochs and the
/// given tree depth (paper: 3 for the small pair, 6 for the large pair).
core::AttackWorld BuildBenchWorld(const data::SyntheticConfig& config,
                                  std::size_t tree_depth);

/// The method names of Table 2, in paper order (excluding WithoutAttack,
/// which the runner handles separately).
const std::vector<std::string>& Table2Methods();

/// Resolves a method name through the shared strategy registry
/// (`serve::MakeStrategyFactory`); aborts on an unknown name.
serve::StrategySpec ResolveMethod(const core::AttackWorld& bw,
                                  const std::string& method);

/// Runs one campaign against `bw`'s target model through the sharded
/// runner at its default options (one job) and returns its Table-2 row.
core::CampaignResult RunAttack(const core::AttackWorld& bw,
                               const core::StrategyFactory& strategy,
                               const std::vector<data::ItemId>& targets,
                               const core::CampaignConfig& config);

/// Default campaign configuration used across the experiment binaries
/// (paper §5.1.3: budget 30, query every 3 injections, 50 pretend users).
core::CampaignConfig DefaultCampaign(std::uint64_t seed);

/// Ensures ./bench_results exists and returns "bench_results/<name>".
std::string ResultPath(const std::string& name);

/// Shared implementation of Figures 5 and 6: sweeps the profile budget Δ
/// and reports HR@20 / NDCG@20 per method. Writes
/// `bench_results/<csv_name>` and prints one series per method.
void RunBudgetSweep(const data::SyntheticConfig& config,
                    std::size_t tree_depth,
                    const std::vector<std::size_t>& budgets,
                    const std::vector<std::string>& methods,
                    std::size_t num_targets, const std::string& csv_name);

/// Formats a double with 4 decimals (Table-2 style).
std::string F4(double value);

/// Opt-in campaign telemetry for experiment binaries. Construct first thing
/// in main(); when `--telemetry_out=DIR` is on the command line (or the
/// COPYATTACK_TELEMETRY_OUT environment variable is set) it enables the
/// obs subsystem for the binary's lifetime and exports metrics.csv,
/// summary.json and trace.json into DIR on destruction. Without either,
/// it is a no-op and the instrumentation stays at its disabled cost.
class TelemetryScope {
 public:
  TelemetryScope(int argc, const char* const* argv);
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;
  ~TelemetryScope();

  bool active() const { return !dir_.empty(); }

 private:
  std::string dir_;
};

}  // namespace copyattack::bench

#endif  // COPYATTACK_BENCH_BENCH_COMMON_H_
