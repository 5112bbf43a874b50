#include "core/runner.h"

#include <sstream>

#include "core/target_play.h"
#include "obs/obs.h"
#include "obs/time.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace copyattack::core {

SourceArtifacts PrepareSourceArtifacts(
    const data::CrossDomainDataset& dataset,
    const SourceArtifactOptions& options) {
  rec::MfConfig mf_config;
  mf_config.embedding_dim = options.embedding_dim;
  rec::MatrixFactorization mf(mf_config);
  {
    OBS_SPAN("source.mf_fit");
    util::Rng rng(options.seed);
    mf.Fit(dataset.source, options.mf_epochs, rng);
  }

  cluster::HierarchicalTree tree = [&] {
    OBS_SPAN("source.tree_build");
    util::Rng tree_rng(options.seed ^ 0x1234567ULL);
    return cluster::HierarchicalTree::BuildWithDepth(
        mf.user_embeddings(), options.tree_depth, tree_rng);
  }();
  CA_LOG(Info) << "source artifacts: " << dataset.source.num_users()
               << " users, tree depth " << tree.depth() << ", branching "
               << tree.branching() << ", " << tree.num_internal_nodes()
               << " policy nodes";
  return SourceArtifacts{std::move(mf), std::move(tree)};
}

CampaignResult EvaluateWithoutAttack(
    const data::CrossDomainDataset& dataset,
    const data::Dataset& target_train, const ModelFactory& model_factory,
    const std::vector<data::ItemId>& targets, const CampaignConfig& config,
    std::size_t jobs) {
  OBS_SPAN("campaign.baseline_eval");
  obs::Stopwatch watch;
  CampaignResult result;
  result.method = "WithoutAttack";

  std::vector<TargetOutcomeState> outcomes(targets.size());
  util::ThreadPool::ParallelFor(
      targets.size(), jobs, [&](std::size_t index) {
        const data::ItemId item = targets[index];
        std::unique_ptr<rec::Recommender> model = model_factory();
        EnvConfig env_config = config.env;
        env_config.seed = config.seed + 1000003ULL * index;
        AttackEnvironment env(dataset, target_train, model.get(),
                              env_config);
        env.Reset(item);  // pretend users added, no injections
        TargetOutcomeState outcome;
        outcome.metrics = env.EvaluateRealPromotion(
            config.eval_ks, config.eval_users, config.eval_negatives);
        // Each worker writes its own pre-sized slot; no lock needed.
        outcomes[index] = std::move(outcome);
      });

  MergeOutcomes(outcomes, config.eval_ks, &result);
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

std::string CampaignRowHeader() {
  std::ostringstream out;
  out << "Method              HR@20   HR@10   HR@5    NDCG@20 NDCG@10 "
         "NDCG@5  Items/Prof  Wall(s)";
  return out.str();
}

std::string FormatCampaignRow(const CampaignResult& result) {
  std::ostringstream out;
  out << result.method;
  // Long attack-server job labels (id:method) overflow the 20-column
  // budget; keep at least two spaces so the row stays parseable.
  for (std::size_t i = result.method.size(); i < 20; ++i) out << ' ';
  if (result.method.size() >= 20) out << "  ";
  const std::size_t ks[] = {20, 10, 5};
  for (const std::size_t k : ks) {
    const auto it = result.metrics.find(k);
    out << util::FormatDouble(it != result.metrics.end() ? it->second.hr
                                                         : 0.0,
                              4)
        << "  ";
  }
  for (const std::size_t k : ks) {
    const auto it = result.metrics.find(k);
    out << util::FormatDouble(it != result.metrics.end() ? it->second.ndcg
                                                         : 0.0,
                              4)
        << "  ";
  }
  out << util::FormatDouble(result.avg_items_per_profile, 1) << "        ";
  out << util::FormatDouble(result.wall_seconds, 1);
  return out.str();
}

}  // namespace copyattack::core
