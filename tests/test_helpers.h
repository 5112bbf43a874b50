#ifndef COPYATTACK_TESTS_TEST_HELPERS_H_
#define COPYATTACK_TESTS_TEST_HELPERS_H_

#include "core/world.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "test_seed.h"
#include "util/rng.h"

namespace copyattack::testhelpers {

/// The options of the tiny world the core tests share: the target model
/// is fitted for exactly 12 epochs (patience never triggers) and the
/// source MF trains for 8 epochs.
inline core::WorldOptions TinyWorldOptions() {
  core::WorldOptions options;
  options.split_seed = TestSeed(23);
  options.train_seed = TestSeed(29);
  options.train.max_epochs = 12;
  options.train.patience = 12;
  options.artifacts.mf_epochs = 8;
  return options;
}

/// A tiny end-to-end world shared by the core tests: synthetic cross-domain
/// data, a train split, a fitted PinSage-style target model, the
/// source-domain artifacts (MF embeddings + clustering tree) and one cold
/// target item.
struct TinyWorld : core::AttackWorld {
  data::ItemId cold_target = data::kNoItem;

  TinyWorld()
      : core::AttackWorld(core::BuildAttackWorld(
            data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny())
                .dataset,
            TinyWorldOptions())) {
    util::Rng rng(TestSeed(17));
    const auto targets = data::SampleColdTargetItems(dataset, 1, 10, rng);
    if (!targets.empty()) cold_target = targets[0];
  }
};

/// Returns the process-wide shared TinyWorld (built once; read-only).
inline const TinyWorld& SharedTinyWorld() {
  static const TinyWorld* const world = new TinyWorld();
  return *world;
}

}  // namespace copyattack::testhelpers

#endif  // COPYATTACK_TESTS_TEST_HELPERS_H_
