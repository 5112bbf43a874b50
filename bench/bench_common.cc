#include "bench_common.h"
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>

#include "data/target_items.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace copyattack::bench {

core::AttackWorld BuildBenchWorld(const data::SyntheticConfig& config,
                                  std::size_t tree_depth) {
  CA_LOG(Info) << "generating world: " << config.name;
  core::WorldOptions options;
  options.split_seed = config.seed ^ 0x51517ULL;
  options.train_seed = config.seed ^ 0x7EA7ULL;
  options.train.max_epochs = 40;
  options.train.patience = 5;
  options.artifacts.tree_depth = tree_depth;
  options.artifacts.seed = config.seed ^ 0xA11CEULL;
  core::AttackWorld world = core::BuildAttackWorld(
      data::GenerateSyntheticWorld(config).dataset, options);
  CA_LOG(Info) << "target model trained: " << world.train_report.epochs_run
               << " epochs, test HR@10 = " << world.train_report.test_hr;
  return world;
}

const std::vector<std::string>& Table2Methods() {
  static const std::vector<std::string>* const methods =
      new std::vector<std::string>{
          "RandomAttack",       "TargetAttack40",  "TargetAttack70",
          "TargetAttack100",    "PolicyNetwork",   "CopyAttack-Masking",
          "CopyAttack-Length",  "CopyAttack"};
  return *methods;
}

serve::StrategySpec ResolveMethod(const core::AttackWorld& bw,
                                  const std::string& method) {
  serve::StrategySpec spec =
      serve::MakeStrategyFactory(bw.dataset, bw.artifacts, method);
  CA_CHECK(spec.factory != nullptr) << spec.error;
  return spec;
}

core::CampaignResult RunAttack(const core::AttackWorld& bw,
                               const core::StrategyFactory& strategy,
                               const std::vector<data::ItemId>& targets,
                               const core::CampaignConfig& config) {
  return core::ParallelCampaignRunner(bw.dataset, bw.split.train,
                                      bw.ModelFactory(), strategy,
                                      core::ParallelRunnerOptions{})
      .Run(targets, config)
      .aggregate;
}

core::CampaignConfig DefaultCampaign(std::uint64_t seed) {
  core::CampaignConfig config;
  config.env.budget = 30;
  config.env.query_interval = 3;
  config.env.num_pretend_users = 50;
  config.env.reward_k = 20;
  config.env.query_candidates = 100;
  config.episodes = 25;
  config.eval_ks = {20, 10, 5};
  config.eval_users = 250;
  config.eval_negatives = 100;
  config.seed = seed;
  return config;
}

std::string ResultPath(const std::string& name) {
  ::mkdir("bench_results", 0755);  // ignore EEXIST
  return "bench_results/" + name;
}

std::string F4(double value) { return util::FormatDouble(value, 4); }

TelemetryScope::TelemetryScope(int argc, const char* const* argv) {
  const std::string flag_prefix = "--telemetry_out=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::StartsWith(arg, flag_prefix)) {
      dir_ = arg.substr(flag_prefix.size());
    }
  }
  if (dir_.empty()) {
    const char* env = std::getenv("COPYATTACK_TELEMETRY_OUT");
    if (env != nullptr) dir_ = env;
  }
  if (!dir_.empty()) obs::SetEnabled(true);
}

TelemetryScope::~TelemetryScope() {
  if (dir_.empty()) return;
  obs::SetEnabled(false);
  if (obs::ExportAll(dir_)) {
    CA_LOG(Info) << "telemetry written to " << dir_;
  } else {
    CA_LOG(Warning) << "could not write telemetry to " << dir_;
  }
}

void RunBudgetSweep(const data::SyntheticConfig& config,
                    std::size_t tree_depth,
                    const std::vector<std::size_t>& budgets,
                    const std::vector<std::string>& methods,
                    std::size_t num_targets, const std::string& csv_name) {
  const core::AttackWorld bw = BuildBenchWorld(config, tree_depth);
  util::Rng target_rng(1789);
  const std::vector<data::ItemId> targets = data::SampleColdTargetItems(
      bw.dataset, num_targets, 10, target_rng);

  util::CsvWriter csv(ResultPath(csv_name),
                      {"dataset", "method", "budget", "hr20", "ndcg20"});

  std::printf("\n--- %s (%zu target items) ---\n", config.name.c_str(),
              targets.size());
  std::printf("%-20s", "budget");
  for (const std::size_t budget : budgets) std::printf("%8zu", budget);
  std::printf("\n");

  for (const std::string& method : methods) {
    const serve::StrategySpec spec = ResolveMethod(bw, method);
    std::vector<double> hr_series, ndcg_series;
    for (const std::size_t budget : budgets) {
      core::CampaignConfig campaign = DefaultCampaign(4242);
      campaign.env.budget = budget;
      if (!spec.learns) campaign.episodes = 1;
      const auto result = RunAttack(bw, spec.factory, targets, campaign);
      hr_series.push_back(result.metrics.at(20).hr);
      ndcg_series.push_back(result.metrics.at(20).ndcg);
      csv.WriteRow({config.name, method, std::to_string(budget),
                    F4(result.metrics.at(20).hr),
                    F4(result.metrics.at(20).ndcg)});
    }
    std::printf("%-20s", (method + " HR@20").c_str());
    for (const double v : hr_series) std::printf("%8.4f", v);
    std::printf("\n%-20s", (method + " NDCG").c_str());
    for (const double v : ndcg_series) std::printf("%8.4f", v);
    std::printf("\n");
  }
  csv.Flush();
}

}  // namespace copyattack::bench
