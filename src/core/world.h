#ifndef COPYATTACK_CORE_WORLD_H_
#define COPYATTACK_CORE_WORLD_H_

#include <cstdint>

#include "core/runner.h"
#include "data/cross_domain.h"
#include "data/split.h"
#include "rec/pinsage_lite.h"
#include "rec/trainer.h"

namespace copyattack::core {

/// Seeds and options of `BuildAttackWorld`. The defaults are those of
/// `copyattack attack`.
struct WorldOptions {
  std::uint64_t split_seed = 11;  ///< 80/10/10 target-domain split
  std::uint64_t train_seed = 13;  ///< target-model training
  rec::TrainOptions train;
  SourceArtifactOptions artifacts;
};

/// The derived world every attack starts from: the cross-domain dataset,
/// the target-domain split, the trained black-box target model and the
/// source-domain artifacts (MF embeddings + clustering tree).
struct AttackWorld {
  data::CrossDomainDataset dataset;
  data::TrainValidTestSplit split;
  rec::PinSageLite model;  ///< fitted prototype; campaigns use clones
  rec::TrainReport train_report;
  SourceArtifacts artifacts;

  /// Returns fresh clones of `model` (each with its own serving state).
  /// The factory refers to this world, which must outlive it.
  core::ModelFactory ModelFactory() const;
};

/// Splits `dataset.target` 80/10/10, trains the PinSage-style target
/// model with early stopping on validation HR@10 (paper §5.1.3), then
/// trains the source MF and builds the clustering tree (§4.3.1).
AttackWorld BuildAttackWorld(data::CrossDomainDataset dataset,
                             const WorldOptions& options);

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_WORLD_H_
