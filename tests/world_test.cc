// Tests of core::BuildAttackWorld: it is bit-identical to the explicit
// split -> train target -> source artifacts sequence it replaces, the
// fixed-epoch fit the test fixtures rely on is a special case of early
// stopping, and its model factory hands out independent clones.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/world.h"
#include "data/synthetic.h"
#include "rec/pinsage_lite.h"
#include "rec/trainer.h"
#include "test_helpers.h"

namespace copyattack::core {
namespace {

data::CrossDomainDataset TinyDataset() {
  return data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny()).dataset;
}

/// Expects `a` and `b` to score every user over every item identically.
void ExpectSameScores(const rec::Recommender& a, const rec::Recommender& b,
                      const data::Dataset& data) {
  for (data::UserId u = 0; u < data.num_users(); ++u) {
    for (data::ItemId i = 0; i < data.num_items(); ++i) {
      ASSERT_EQ(a.Score(u, i), b.Score(u, i))
          << "user " << u << " item " << i;
    }
  }
}

TEST(WorldTest, BuildAttackWorldMatchesExplicitThreeCallSequence) {
  const AttackWorld world = BuildAttackWorld(TinyDataset(), WorldOptions{});

  // The sequence `copyattack attack` ran before the builder existed.
  const data::CrossDomainDataset dataset = TinyDataset();
  util::Rng split_rng(11);
  const data::TrainValidTestSplit split =
      data::SplitDataset(dataset.target, split_rng);
  rec::PinSageLite model;
  util::Rng train_rng(13);
  const rec::TrainReport report = rec::TrainWithEarlyStopping(
      model, split, dataset.target, rec::TrainOptions{}, train_rng);
  const SourceArtifacts artifacts =
      PrepareSourceArtifacts(dataset, SourceArtifactOptions{});

  EXPECT_EQ(world.train_report.epochs_run, report.epochs_run);
  EXPECT_EQ(world.train_report.best_valid_hr, report.best_valid_hr);
  EXPECT_EQ(world.train_report.test_hr, report.test_hr);
  EXPECT_EQ(world.train_report.test_ndcg, report.test_ndcg);
  EXPECT_EQ(world.split.train.num_interactions(),
            split.train.num_interactions());
  ExpectSameScores(world.model, model, split.train);

  ASSERT_EQ(world.artifacts.tree.num_leaves(), artifacts.tree.num_leaves());
  for (std::size_t u = 0; u < dataset.source.num_users(); ++u) {
    ASSERT_EQ(world.artifacts.tree.LeafOfUser(u),
              artifacts.tree.LeafOfUser(u))
        << "source user " << u;
  }
}

TEST(WorldTest, EarlyStoppingWithFullPatienceEqualsFixedEpochFit) {
  const data::CrossDomainDataset dataset = TinyDataset();
  util::Rng split_rng(testhelpers::TestSeed(23));
  const data::TrainValidTestSplit split =
      data::SplitDataset(dataset.target, split_rng);

  rec::TrainOptions options;
  options.max_epochs = 12;
  options.patience = 12;
  rec::PinSageLite stopped;
  util::Rng stopped_rng(testhelpers::TestSeed(29));
  const rec::TrainReport report = rec::TrainWithEarlyStopping(
      stopped, split, dataset.target, options, stopped_rng);

  rec::PinSageLite fitted;
  util::Rng fitted_rng(testhelpers::TestSeed(29));
  fitted.Fit(split.train, options.max_epochs, fitted_rng);

  EXPECT_EQ(report.epochs_run, options.max_epochs);
  ExpectSameScores(stopped, fitted, split.train);
  EXPECT_EQ(stopped_rng.NextUint64(), fitted_rng.NextUint64());
}

TEST(WorldTest, ModelFactoryReturnsIndependentClones) {
  const testhelpers::TinyWorld& world = testhelpers::SharedTinyWorld();
  const ModelFactory factory = world.ModelFactory();
  const std::unique_ptr<rec::Recommender> injected = factory();
  const std::unique_ptr<rec::Recommender> untouched = factory();
  ASSERT_NE(injected.get(), untouched.get());

  const data::Dataset& clean = world.split.train;
  data::Dataset polluted = world.split.train;
  injected->BeginServing(polluted);
  untouched->BeginServing(clean);
  ExpectSameScores(*injected, *untouched, clean);

  // Inject five profiles promoting the cold target into one clone only.
  const data::ItemId item = world.cold_target;
  ASSERT_NE(item, data::kNoItem);
  data::Profile profile = {item};
  for (const data::ItemId other : clean.UserProfile(0)) {
    if (other != item) profile.push_back(other);
  }
  std::vector<float> before;
  for (data::UserId u = 0; u < clean.num_users(); ++u) {
    before.push_back(untouched->Score(u, item));
  }
  for (int copy = 0; copy < 5; ++copy) {
    injected->ObserveNewUser(polluted, polluted.AddUser(profile));
  }
  bool moved = false;
  for (data::UserId u = 0; u < clean.num_users(); ++u) {
    EXPECT_EQ(untouched->Score(u, item), before[u]);
    moved = moved || injected->Score(u, item) != before[u];
  }
  EXPECT_TRUE(moved) << "the injection did not reach the injected clone";

  // The prototype behind the factory is untouched as well.
  const std::unique_ptr<rec::Recommender> fresh = factory();
  fresh->BeginServing(clean);
  ExpectSameScores(*fresh, *untouched, clean);
}

}  // namespace
}  // namespace copyattack::core
