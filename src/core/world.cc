#include "core/world.h"

#include <memory>
#include <utility>

#include "obs/obs.h"
#include "util/rng.h"

namespace copyattack::core {

core::ModelFactory AttackWorld::ModelFactory() const {
  return [this] { return std::make_unique<rec::PinSageLite>(model); };
}

AttackWorld BuildAttackWorld(data::CrossDomainDataset dataset,
                             const WorldOptions& options) {
  data::TrainValidTestSplit split = [&] {
    OBS_SPAN("world.split");
    util::Rng split_rng(options.split_seed);
    return data::SplitDataset(dataset.target, split_rng);
  }();

  rec::PinSageLite model;
  rec::TrainReport train_report;
  {
    OBS_SPAN("world.train_target");
    util::Rng train_rng(options.train_seed);
    train_report = rec::TrainWithEarlyStopping(model, split, dataset.target,
                                               options.train, train_rng);
  }

  SourceArtifacts artifacts = [&] {
    OBS_SPAN("world.source_artifacts");
    return PrepareSourceArtifacts(dataset, options.artifacts);
  }();

  return AttackWorld{std::move(dataset), std::move(split), std::move(model),
                     train_report, std::move(artifacts)};
}

}  // namespace copyattack::core
