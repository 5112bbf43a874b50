// The attack-zoo / defense arms race (ISSUE 8): for each attacking method
// {CopyAttack, SurrogateTransfer, Influence}, run real campaigns, measure
// attack success (HR@20 over real users on the final polluted state), then
// hand the attacker's *actual injected profiles* to each detector
// {ZScore, kNN, Adaptive} — the adaptive one retrained on half of those
// very profiles, the defender's second move. The product is the
// HR@k-vs-detectability frontier: how much promotion each method buys per
// unit of exposure to an adapting defense.
//
// Output: bench_results/arms_race_frontier.csv with one row per
// strategy × detector cell:
//   strategy,detector,hr20,auc,recall_at_5fpr,profiles
// (hr20 is per strategy; auc/recall are the detector's separability on a
// held-out half of the injected profiles, never the half the adaptive
// detector trained on.)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/environment.h"
#include "data/target_items.h"
#include "defense/adaptive_detector.h"
#include "defense/detectors.h"
#include "defense/profile_features.h"
#include "obs/time.h"
#include "rec/matrix_factorization.h"
#include "serve/attack_server.h"
#include "util/csv.h"
#include "util/rng.h"

#include "bench_common.h"

namespace {

using namespace copyattack;

std::vector<defense::ProfileFeatures> ExtractAll(
    const defense::ProfileFeatureExtractor& extractor,
    const std::vector<data::Profile>& profiles, util::Rng& rng) {
  std::vector<defense::ProfileFeatures> features;
  features.reserve(profiles.size());
  for (const data::Profile& profile : profiles) {
    features.push_back(extractor.Extract(profile, rng));
  }
  return features;
}

/// Per-preset campaign sizing: `tiny` is the CI smoke (seconds), `small`
/// the real frontier.
struct RaceConfig {
  data::SyntheticConfig world;
  std::size_t num_targets = 6;
  std::size_t budget = 30;
  std::size_t episodes = 6;
  std::size_t pretend_users = 20;
  std::size_t query_candidates = 50;
  std::size_t eval_users = 200;
  std::size_t eval_negatives = 50;
  std::size_t genuine_profiles = 300;
};

RaceConfig TinyRace() {
  RaceConfig config;
  config.world = data::SyntheticConfig::Tiny();
  config.num_targets = 3;
  config.budget = 6;
  config.episodes = 3;
  config.pretend_users = 10;
  config.eval_users = 100;
  config.genuine_profiles = 120;
  return config;
}

RaceConfig SmallRace() {
  RaceConfig config;
  config.world = data::SyntheticConfig::SmallCross();
  return config;
}

/// One strategy's campaign output: mean HR@20 over the targets plus every
/// profile it actually injected in the final (eval-mode) episodes.
struct StrategyOutcome {
  double hr20 = 0.0;
  std::vector<data::Profile> injected;
};

StrategyOutcome RunStrategy(const core::AttackWorld& bw,
                            const RaceConfig& race,
                            const std::string& method,
                            const std::vector<data::ItemId>& targets) {
  const serve::StrategySpec spec = bench::ResolveMethod(bw, method);

  StrategyOutcome outcome;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::uint64_t item_seed = 77 + 1000003ULL * t;
    core::EnvConfig env_config;
    env_config.budget = race.budget;
    env_config.num_pretend_users = race.pretend_users;
    env_config.query_candidates = race.query_candidates;
    env_config.seed = item_seed;
    const auto model = bw.ModelFactory()();
    core::AttackEnvironment env(bw.dataset, bw.split.train,
                                model.get(), env_config);

    const auto strategy = spec.factory(item_seed);
    strategy->BeginTargetItem(targets[t]);
    util::Rng episode_rng(item_seed ^ 0xBEEFCAFEULL);
    for (std::size_t episode = 0; episode < race.episodes; ++episode) {
      if (episode + 1 == race.episodes) strategy->SetEvalMode(true);
      env.Reset(targets[t]);
      strategy->RunEpisode(env, episode_rng);
    }

    const auto metrics = env.EvaluateRealPromotion(
        {20}, race.eval_users, race.eval_negatives);
    outcome.hr20 += metrics.at(20).hr;

    // Harvest the final episode's injected profiles: the polluted rows
    // past the training users and the attacker's pretend accounts.
    const data::Dataset& polluted = env.black_box().polluted();
    const std::size_t base =
        bw.split.train.num_users() + env.pretend_users().size();
    for (data::UserId u = static_cast<data::UserId>(base);
         u < polluted.num_users(); ++u) {
      outcome.injected.push_back(polluted.UserProfile(u));
    }
  }
  outcome.hr20 /= static_cast<double>(targets.size());
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;

  RaceConfig race = SmallRace();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config=tiny") == 0) {
      race = TinyRace();
    } else if (std::strcmp(argv[i], "--config=small") == 0) {
      race = SmallRace();
    }
  }

  std::printf("=== Arms race: attack zoo x detector zoo frontier ===\n\n");
  const core::AttackWorld bw = bench::BuildBenchWorld(race.world, 3);

  // Platform-side detector inputs: item embeddings the defender trained
  // itself, genuine profiles from its clean data.
  util::Rng mf_rng(3);
  rec::MatrixFactorization platform_mf;
  platform_mf.Fit(bw.dataset.target, 15, mf_rng);
  const defense::ProfileFeatureExtractor extractor(
      &bw.dataset.target, &platform_mf.item_embeddings());

  util::Rng rng(7);
  std::vector<data::Profile> genuine;
  genuine.reserve(race.genuine_profiles);
  for (std::size_t i = 0; i < race.genuine_profiles; ++i) {
    const data::UserId u = static_cast<data::UserId>(
        rng.UniformUint64(bw.dataset.target.num_users()));
    genuine.push_back(bw.dataset.target.UserProfile(u));
  }
  const auto genuine_features = ExtractAll(extractor, genuine, rng);

  const auto targets = data::SampleColdTargetItems(
      bw.dataset, race.num_targets, 10, rng);
  if (targets.empty()) {
    std::fprintf(stderr, "bench_arms_race: no cold target items\n");
    return 1;
  }

  defense::ZScoreDetector zscore;
  defense::KnnDetector knn(5);
  zscore.Fit(genuine_features);
  knn.Fit(genuine_features);

  const std::vector<std::string> strategies = {
      "CopyAttack", "SurrogateTransfer", "Influence"};

  util::CsvWriter csv(bench::ResultPath("arms_race_frontier.csv"),
                      {"strategy", "detector", "hr20", "auc",
                       "recall_at_5fpr", "profiles"});
  std::printf("%-18s %-9s  %-7s  %-6s  %s\n", "strategy", "detector",
              "hr20", "auc", "recall@5%FPR");

  for (const std::string& strategy : strategies) {
    const StrategyOutcome outcome =
        RunStrategy(bw, race, strategy, targets);
    const auto injected_features =
        ExtractAll(extractor, outcome.injected, rng);

    // The adaptive detector trains on one half of the injected profiles;
    // every detector is evaluated on the other half, so the supervised one
    // is never scored on its own training rows.
    std::vector<defense::ProfileFeatures> fit_half, eval_half;
    for (std::size_t i = 0; i < injected_features.size(); ++i) {
      (i % 2 == 0 ? fit_half : eval_half).push_back(injected_features[i]);
    }
    if (fit_half.empty() || eval_half.empty()) {
      std::fprintf(stderr,
                   "bench_arms_race: %s injected too few profiles (%zu)\n",
                   strategy.c_str(), outcome.injected.size());
      return 1;
    }
    defense::AdaptiveDetector adaptive;
    adaptive.FitAdaptive(genuine_features, fit_half);

    const defense::AnomalyDetector* detectors[] = {&zscore, &knn,
                                                   &adaptive};
    for (const defense::AnomalyDetector* detector : detectors) {
      const defense::DetectionReport report = defense::EvaluateDetector(
          *detector, genuine_features, eval_half);
      std::printf("%-18s %-9s  %.4f   %.4f  %.4f\n", strategy.c_str(),
                  detector->name().c_str(), outcome.hr20, report.auc,
                  report.recall_at_fpr);
      csv.WriteRow({strategy, detector->name(), bench::F4(outcome.hr20),
                    bench::F4(report.auc), bench::F4(report.recall_at_fpr),
                    std::to_string(outcome.injected.size())});
    }
  }
  csv.Flush();
  std::printf("\n[arms_race] done in %.1fs; CSV: "
              "bench_results/arms_race_frontier.csv\n",
              watch.ElapsedSeconds());
  return 0;
}
