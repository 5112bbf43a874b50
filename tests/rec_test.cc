#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.h"
#include "test_seed.h"

#include "data/split.h"
#include "data/synthetic.h"
#include "math/matrix.h"
#include "math/metrics.h"
#include "math/top_k.h"
#include "math/vector_ops.h"
#include "nn/activations.h"
#include "rec/black_box.h"
#include "rec/bpr_sampler.h"
#include "rec/evaluator.h"
#include "rec/matrix_factorization.h"
#include "rec/pinsage_lite.h"
#include "rec/trainer.h"
#include "util/rng.h"

namespace copyattack::rec {
namespace {

/// Shared fixture: a tiny synthetic world with a train split.
class RecFixture : public ::testing::Test {
 protected:
  RecFixture()
      : world_(data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny())),
        rng_(testhelpers::TestSeed(11)),
        split_(data::SplitDataset(world_.dataset.target, rng_)) {}

  data::SyntheticWorld world_;
  util::Rng rng_;
  data::TrainValidTestSplit split_;
};

TEST(MfTest, TrainsAboveRandomRanking) {
  // MF learns free per-user embeddings, so it needs a somewhat larger
  // world than Tiny to beat random ranking with a clear margin.
  data::SyntheticConfig config = data::SyntheticConfig::Tiny();
  config.num_target_users = 400;
  config.num_items = 120;
  config.overlap_items = 80;
  config.num_source_users = 200;
  config.target_profile_min = 6;
  config.target_profile_max = 20;
  const auto world = data::GenerateSyntheticWorld(config);
  util::Rng split_rng(testhelpers::TestSeed(11));
  const auto split = data::SplitDataset(world.dataset.target, split_rng);

  MatrixFactorization mf;
  util::Rng rng(testhelpers::TestSeed(3));
  mf.Fit(split.train, 30, rng);

  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics = EvaluateHeldOut(mf, world.dataset.target, split.test,
                                       {10}, 50, eval_rng);
  // Random ranking over 51 candidates gives HR@10 ~= 10/51 ~= 0.196.
  EXPECT_GT(metrics.at(10).hr, 0.35)
      << "MF should beat random ranking by a clear margin";
}

TEST_F(RecFixture, PinSageTrainsAboveRandomRanking) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 25, rng);

  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics =
      EvaluateHeldOut(model, world_.dataset.target, split_.test, {10}, 50,
                      eval_rng);
  EXPECT_GT(metrics.at(10).hr, 0.30);
}

TEST_F(RecFixture, EarlyStoppingTrainerRuns) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  TrainOptions options;
  options.max_epochs = 30;
  options.patience = 3;
  const TrainReport report = TrainWithEarlyStopping(
      model, split_, world_.dataset.target, options, rng);
  EXPECT_GT(report.epochs_run, 0U);
  EXPECT_LE(report.epochs_run, 30U);
  EXPECT_GT(report.best_valid_hr, 0.0);
  EXPECT_GT(report.test_hr, 0.2);
}

TEST_F(RecFixture, EvaluateHeldOutEqualsDrawThenScore) {
  MatrixFactorization mf;
  util::Rng rng(testhelpers::TestSeed(3));
  mf.Fit(split_.train, 5, rng);

  // 20 negatives out of Tiny's 60 items, so the draws depend on the seed.
  constexpr std::size_t kNegatives = 20;
  const std::vector<std::size_t> ks = {5, 10, 20};
  util::Rng direct_rng(testhelpers::TestSeed(21));
  util::Rng split_rng(testhelpers::TestSeed(21));
  util::Rng reference_rng(testhelpers::TestSeed(21));
  const MetricsByK direct = EvaluateHeldOut(
      mf, world_.dataset.target, split_.test, ks, kNegatives, direct_rng);
  const auto negatives = SampleHeldOutNegatives(
      world_.dataset.target, split_.test, kNegatives, split_rng);
  const MetricsByK scored = ScoreHeldOut(mf, split_.test, negatives, ks);

  // Reference: draw and rank pair by pair, interleaved.
  MetricsByK reference;
  for (const std::size_t k : ks) reference[k] = TopKMetrics();
  ASSERT_EQ(negatives.size(), split_.test.size());
  for (std::size_t i = 0; i < split_.test.size(); ++i) {
    const data::HeldOut& pair = split_.test[i];
    const auto drawn = SampleNegatives(world_.dataset.target, pair.user,
                                       pair.item, kNegatives, reference_rng);
    EXPECT_EQ(drawn, negatives[i]) << "pair " << i;
    std::vector<data::ItemId> candidates = {pair.item};
    candidates.insert(candidates.end(), drawn.begin(), drawn.end());
    const std::size_t rank =
        math::RankOf(mf.ScoreCandidates(pair.user, candidates), 0);
    for (const std::size_t k : ks) {
      reference[k].Accumulate(math::HitRatioAtK(rank, k),
                              math::NdcgAtK(rank, k));
    }
  }
  for (auto& [k, metrics] : reference) metrics.Finalize();

  const auto expect_equal_to_direct = [&](const MetricsByK& other) {
    for (const std::size_t k : ks) {
      EXPECT_EQ(direct.at(k).hr, other.at(k).hr) << "k=" << k;
      EXPECT_EQ(direct.at(k).ndcg, other.at(k).ndcg) << "k=" << k;
      EXPECT_EQ(direct.at(k).count, other.at(k).count) << "k=" << k;
    }
  };
  expect_equal_to_direct(scored);
  expect_equal_to_direct(reference);
  // All three consumed the same draws.
  const std::uint64_t next = direct_rng.NextUint64();
  EXPECT_EQ(split_rng.NextUint64(), next);
  EXPECT_EQ(reference_rng.NextUint64(), next);
}

TEST_F(RecFixture, EarlyStoppingMatchesPerEpochRedrawOfNegatives) {
  TrainOptions options;
  options.max_epochs = 12;
  options.patience = 3;
  // Fewer negatives than Tiny's unseen items, so the seed picks them.
  options.num_negatives = 20;
  options.eval_k = 5;
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  const TrainReport report = TrainWithEarlyStopping(
      model, split_, world_.dataset.target, options, rng);

  // Reference: the early-stopping loop redrawing validation negatives
  // from a fresh `eval_seed` stream on every epoch.
  PinSageLite reference;
  util::Rng reference_rng(testhelpers::TestSeed(3));
  TrainReport expected;
  reference.InitTraining(split_.train, reference_rng);
  std::size_t epochs_since_best = 0;
  for (std::size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    reference.TrainEpoch(split_.train, reference_rng);
    expected.epochs_run = epoch + 1;
    reference.BeginServing(split_.train);
    util::Rng eval_rng(options.eval_seed);
    const double hr =
        EvaluateHeldOut(reference, world_.dataset.target, split_.valid,
                        {options.eval_k}, options.num_negatives, eval_rng)
            .at(options.eval_k)
            .hr;
    if (hr > expected.best_valid_hr) {
      expected.best_valid_hr = hr;
      epochs_since_best = 0;
    } else {
      ++epochs_since_best;
    }
    if (epochs_since_best >= options.patience) break;
  }
  reference.BeginServing(split_.train);
  util::Rng test_rng(options.eval_seed + 1);
  const TopKMetrics test =
      EvaluateHeldOut(reference, world_.dataset.target, split_.test,
                      {options.eval_k}, options.num_negatives, test_rng)
          .at(options.eval_k);
  expected.test_hr = test.hr;
  expected.test_ndcg = test.ndcg;

  EXPECT_EQ(report.epochs_run, expected.epochs_run);
  EXPECT_EQ(report.best_valid_hr, expected.best_valid_hr);
  EXPECT_EQ(report.test_hr, expected.test_hr);
  EXPECT_EQ(report.test_ndcg, expected.test_ndcg);
  EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
}

TEST_F(RecFixture, MfFoldInHandlesNewUsers) {
  MatrixFactorization mf;
  util::Rng rng(testhelpers::TestSeed(3));
  mf.Fit(split_.train, 10, rng);

  data::Dataset polluted = split_.train;
  const data::UserId new_user = polluted.AddUser({0, 1, 2});
  mf.ObserveNewUser(polluted, new_user);
  // Score must be finite and computable for the folded user.
  const float score = mf.Score(new_user, 3);
  EXPECT_TRUE(std::isfinite(score));
}

TEST_F(RecFixture, PinSageInjectionShiftsItemRepresentation) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 15, rng);

  // Pick a cold overlapping item.
  data::ItemId cold = data::kNoItem;
  for (const data::ItemId item : world_.dataset.OverlapItems()) {
    if (split_.train.ItemPopularity(item) <= 2) {
      cold = item;
      break;
    }
  }
  ASSERT_NE(cold, data::kNoItem);

  std::vector<float> before;
  model.ItemRepresentation(cold, &before);

  data::Dataset polluted = split_.train;
  // Inject 5 users who pair the cold item with popular items.
  const auto popular = split_.train.ItemsByPopularity();
  for (int i = 0; i < 5; ++i) {
    data::Profile profile = {cold};
    for (int j = 0; j < 4; ++j) {
      const data::ItemId item = popular[i * 4 + j];
      if (item != cold) profile.push_back(item);
    }
    const data::UserId u = polluted.AddUser(profile);
    model.ObserveNewUser(polluted, u);
  }

  std::vector<float> after;
  model.ItemRepresentation(cold, &after);
  float diff = 0.0f;
  for (std::size_t d = 0; d < before.size(); ++d) {
    diff += std::abs(after[d] - before[d]);
  }
  EXPECT_GT(diff, 1e-4f)
      << "inductive model must react to injected profiles";
}

TEST_F(RecFixture, PinSageIncrementalMatchesRebuild) {
  PinSageLite incremental;
  util::Rng rng(testhelpers::TestSeed(3));
  incremental.Fit(split_.train, 10, rng);

  PinSageLite rebuilt = incremental;  // same trained parameters

  data::Dataset polluted = split_.train;
  util::Rng inject_rng(testhelpers::TestSeed(7));
  for (int i = 0; i < 3; ++i) {
    data::Profile profile;
    std::set<data::ItemId> seen;
    for (int j = 0; j < 5; ++j) {
      const data::ItemId item = static_cast<data::ItemId>(
          inject_rng.UniformUint64(polluted.num_items()));
      if (seen.insert(item).second) profile.push_back(item);
    }
    const data::UserId u = polluted.AddUser(profile);
    incremental.ObserveNewUser(polluted, u);
  }
  rebuilt.BeginServing(polluted);

  // Scores must agree between incremental updates and a full rebuild.
  for (data::UserId u = 0; u < 5; ++u) {
    for (data::ItemId i = 0; i < 10; ++i) {
      EXPECT_NEAR(incremental.Score(u, i), rebuilt.Score(u, i), 1e-4f);
    }
  }
}

TEST_F(RecFixture, SampleNegativesExcludesSeenAndHeldOut) {
  util::Rng rng(testhelpers::TestSeed(9));
  const data::UserId user = 0;
  const data::ItemId held = world_.dataset.target.UserProfile(user)[0];
  const auto negatives =
      SampleNegatives(world_.dataset.target, user, held, 20, rng);
  EXPECT_EQ(negatives.size(), 20U);
  std::set<data::ItemId> unique(negatives.begin(), negatives.end());
  EXPECT_EQ(unique.size(), 20U);
  for (const data::ItemId item : negatives) {
    EXPECT_NE(item, held);
    EXPECT_FALSE(world_.dataset.target.HasInteraction(user, item));
  }
}

TEST_F(RecFixture, EvaluatePromotionSkipsInteractedUsers) {
  MatrixFactorization mf;
  util::Rng rng(testhelpers::TestSeed(3));
  mf.Fit(split_.train, 5, rng);

  // Target = an item user 0 interacted with; evaluating only user 0 must
  // produce zero evaluation pairs.
  const data::ItemId item = world_.dataset.target.UserProfile(0)[0];
  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics = EvaluatePromotion(
      mf, world_.dataset.target, item, {0}, {10}, 20, eval_rng);
  EXPECT_EQ(metrics.at(10).count, 0U);
}

TEST_F(RecFixture, BlackBoxCountsQueriesAndInjections) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 5, rng);

  data::Dataset polluted = split_.train;
  model.BeginServing(polluted);
  BlackBoxRecommender bb(&model, &polluted);

  EXPECT_EQ(bb.query_count(), 0U);
  bb.InjectUser({0, 1, 2});
  bb.InjectUser({3, 4});
  EXPECT_EQ(bb.injected_profiles(), 2U);
  EXPECT_EQ(bb.injected_interactions(), 5U);

  const auto top = bb.QueryTopK(0, {0, 1, 2, 3, 4, 5}, 3);
  EXPECT_EQ(top.size(), 3U);
  EXPECT_EQ(bb.query_count(), 1U);

  bb.ResetCounters();
  EXPECT_EQ(bb.query_count(), 0U);
  EXPECT_EQ(bb.injected_profiles(), 0U);
}

TEST_F(RecFixture, BlackBoxTopKOrderedByScore) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 10, rng);
  data::Dataset polluted = split_.train;
  model.BeginServing(polluted);
  BlackBoxRecommender bb(&model, &polluted);

  std::vector<data::ItemId> candidates;
  for (data::ItemId i = 0; i < 20; ++i) candidates.push_back(i);
  const auto top = bb.QueryTopK(1, candidates, 20);
  ASSERT_EQ(top.size(), 20U);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(model.Score(1, top[i - 1]), model.Score(1, top[i]));
  }
}

TEST_F(RecFixture, RecommenderDeterministicInSeed) {
  MatrixFactorization a, b;
  util::Rng rng_a(testhelpers::TestSeed(3)), rng_b(testhelpers::TestSeed(3));
  a.Fit(split_.train, 5, rng_a);
  b.Fit(split_.train, 5, rng_b);
  for (data::UserId u = 0; u < 3; ++u) {
    for (data::ItemId i = 0; i < 5; ++i) {
      EXPECT_FLOAT_EQ(a.Score(u, i), b.Score(u, i));
    }
  }
}

/// Parameterized sweep: both models' evaluator metrics are monotone in k
/// (HR@k1 <= HR@k2 for k1 <= k2) — an invariant of the ranking protocol.
class MetricsMonotoneProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricsMonotoneProperty, HrMonotoneInK) {
  const data::SyntheticWorld world =
      data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny());
  util::Rng rng(testhelpers::TestSeed(static_cast<std::uint64_t>(GetParam())));
  const auto split = data::SplitDataset(world.dataset.target, rng);
  MatrixFactorization mf;
  mf.Fit(split.train, 8, rng);
  util::Rng eval_rng(testhelpers::TestSeed(42));
  const auto metrics = EvaluateHeldOut(
      mf, world.dataset.target, split.test, {5, 10, 20}, 50, eval_rng);
  EXPECT_LE(metrics.at(5).hr, metrics.at(10).hr);
  EXPECT_LE(metrics.at(10).hr, metrics.at(20).hr);
  EXPECT_LE(metrics.at(5).ndcg, metrics.at(10).ndcg);
  EXPECT_LE(metrics.at(10).ndcg, metrics.at(20).ndcg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsMonotoneProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace copyattack::rec

namespace copyattack::rec {
namespace {

TEST_F(RecFixture, PinSagePopularityInterceptRanksColdItemsLow) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 12, rng);

  // Average score of the 5 most vs 5 least popular items across users:
  // the frozen intercept must give popular items a clear edge.
  const auto by_pop = split_.train.ItemsByPopularity();
  double popular_sum = 0.0, cold_sum = 0.0;
  for (data::UserId u = 0; u < 20; ++u) {
    for (int i = 0; i < 5; ++i) {
      popular_sum += model.Score(u, by_pop[i]);
      cold_sum += model.Score(u, by_pop[by_pop.size() - 1 - i]);
    }
  }
  EXPECT_GT(popular_sum, cold_sum);
}

TEST_F(RecFixture, PinSageInterceptFrozenUnderInjection) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 12, rng);

  // Pick a cold item and a neutral probe user; inject 10 users holding
  // only that item. With the intercept frozen, the score change must come
  // solely from the aggregation term (which these single-item profiles
  // leave bounded), not from an exploding popularity bias.
  const auto by_pop = split_.train.ItemsByPopularity();
  const data::ItemId cold = by_pop.back();
  data::Dataset polluted = split_.train;
  PinSageLite frozen_check = model;
  frozen_check.BeginServing(polluted);

  // Recreate the would-be intercept delta: log1p(10+n) vs log1p(n) is
  // large for a cold item, so if the intercept were live the score jump
  // would exceed the aggregation term's bound of (1 - alpha) * |p| * |z|.
  const float before = frozen_check.Score(0, cold);
  for (int i = 0; i < 10; ++i) {
    const data::UserId u = polluted.AddUser({cold});
    frozen_check.ObserveNewUser(polluted, u);
  }
  const float after = frozen_check.Score(0, cold);
  // The aggregation term is bounded by (1-alpha)*sqrt(count) with unit
  // user representations and |p| <= 1; allow that, but not the ~0.8*2.3
  // intercept jump a live bias would add on top.
  EXPECT_LT(std::abs(after - before), 2.0f);
}

TEST_F(RecFixture, PinSageCenteringMakesGenericProfilesWeak) {
  // A focused (single-cluster) injected profile should shift its items'
  // representations more than a long generic profile built from the most
  // popular items, because centering cancels the generic direction.
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 12, rng);

  const auto by_pop = split_.train.ItemsByPopularity();
  const data::ItemId cold = by_pop.back();

  auto shift_norm = [&](const data::Profile& extra) {
    PinSageLite clone = model;
    data::Dataset polluted = split_.train;
    clone.BeginServing(polluted);
    std::vector<float> before;
    clone.ItemRepresentation(cold, &before);
    data::Profile profile = {cold};
    for (const data::ItemId item : extra) {
      if (item != cold) profile.push_back(item);
    }
    const data::UserId u = polluted.AddUser(profile);
    clone.ObserveNewUser(polluted, u);
    std::vector<float> after;
    clone.ItemRepresentation(cold, &after);
    float diff = 0.0f;
    for (std::size_t d = 0; d < before.size(); ++d) {
      const float delta = after[d] - before[d];
      diff += delta * delta;
    }
    return std::sqrt(diff);
  };

  // Generic profile: the 20 most popular items (spans all clusters).
  data::Profile generic(by_pop.begin(), by_pop.begin() + 20);
  // Focused profile: a real source user's profile window (one session).
  const auto& holders = world_.dataset.SourceHolders(
      world_.dataset.OverlapItems().front());
  const double generic_shift = shift_norm(generic);
  const double focused_shift =
      holders.empty()
          ? generic_shift + 1.0
          : shift_norm(world_.dataset.source.UserProfile(holders[0]));
  // Both inject exactly one user; the shift magnitude is the per-user
  // unit direction divided by the neighborhood norm, so they are close —
  // but the *direction* of the generic one is near the centered-out mean.
  // We assert the focused shift is at least comparable (no collapse).
  EXPECT_GT(focused_shift, 0.25 * generic_shift);
}

TEST_F(RecFixture, PinSageMeanRecomputedAfterTrainEpoch) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.InitTraining(split_.train, rng);
  model.TrainEpoch(split_.train, rng);
  model.BeginServing(split_.train);
  const float early = model.Score(0, 0);
  // Further training must change serving scores (mean + embeddings move).
  for (int e = 0; e < 5; ++e) model.TrainEpoch(split_.train, rng);
  model.BeginServing(split_.train);
  const float later = model.Score(0, 0);
  EXPECT_NE(early, later);
}

TEST_F(RecFixture, PinSageCenteringCanBeDisabled) {
  PinSageConfig config;
  config.center_user_reps = false;
  PinSageLite model(config);
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 8, rng);
  // Sanity: scores finite, model still ranks above random.
  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics = EvaluateHeldOut(model, world_.dataset.target,
                                       split_.test, {10}, 50, eval_rng);
  EXPECT_GT(metrics.at(10).hr, 0.25);
}

}  // namespace
}  // namespace copyattack::rec

#include "rec/item_knn.h"

namespace copyattack::rec {
namespace {

TEST_F(RecFixture, ItemKnnBuildsSimilarityLists) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);
  // Some item must have neighbors, ordered by descending similarity.
  bool any = false;
  for (data::ItemId item = 0; item < split_.train.num_items(); ++item) {
    const auto& neighbors = knn.Neighbors(item);
    for (std::size_t i = 1; i < neighbors.size(); ++i) {
      EXPECT_GE(neighbors[i - 1].second, neighbors[i].second);
    }
    any = any || !neighbors.empty();
  }
  EXPECT_TRUE(any);
}

TEST_F(RecFixture, ItemKnnRanksAboveRandom) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);
  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics = EvaluateHeldOut(knn, world_.dataset.target,
                                       split_.test, {10}, 50, eval_rng);
  EXPECT_GT(metrics.at(10).hr, 0.28);
}

TEST_F(RecFixture, ItemKnnSimilarityListsAreFrozenUnderInjection) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);
  const auto before = knn.Neighbors(0);
  data::Dataset polluted = split_.train;
  const data::UserId u = polluted.AddUser({0, 1, 2});
  knn.ObserveNewUser(polluted, u);
  EXPECT_EQ(knn.Neighbors(0), before)
      << "ItemKNN has no inductive channel: lists change only on retrain";
}

TEST_F(RecFixture, ItemKnnRetrainIngestsInjectedCooccurrence) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);

  // Choose two items that never co-occur; inject users pairing them, then
  // retrain: each must appear in the other's neighbor list.
  data::ItemId a = data::kNoItem, b = data::kNoItem;
  for (data::ItemId i = 0; i < split_.train.num_items() && a == data::kNoItem;
       ++i) {
    for (data::ItemId j = i + 1; j < split_.train.num_items(); ++j) {
      bool cooccur = false;
      for (const auto& [n, s] : knn.Neighbors(i)) {
        (void)s;
        cooccur = cooccur || n == j;
      }
      if (!cooccur && !split_.train.ItemProfile(i).empty() &&
          !split_.train.ItemProfile(j).empty()) {
        a = i;
        b = j;
        break;
      }
    }
  }
  ASSERT_NE(a, data::kNoItem);

  data::Dataset polluted = split_.train;
  for (int k = 0; k < 10; ++k) {
    polluted.AddUser({a, b});
  }
  util::Rng retrain_rng(testhelpers::TestSeed(5));
  knn.TrainEpoch(polluted, retrain_rng);
  bool found = false;
  for (const auto& [n, s] : knn.Neighbors(a)) {
    (void)s;
    found = found || n == b;
  }
  EXPECT_TRUE(found) << "retraining must ingest injected co-occurrences";
}

TEST_F(RecFixture, ItemKnnScoreReflectsProfileOverlap) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);
  // A user scores an item they co-consumed neighbors of higher than a
  // random user with an empty intersection — weak but monotone sanity:
  // scores are non-negative and zero for isolated items.
  data::ItemId isolated = data::kNoItem;
  for (data::ItemId i = 0; i < split_.train.num_items(); ++i) {
    if (knn.Neighbors(i).empty()) {
      isolated = i;
      break;
    }
  }
  if (isolated != data::kNoItem) {
    EXPECT_FLOAT_EQ(knn.Score(0, isolated), 0.0f);
  }
  for (data::ItemId i = 0; i < 10; ++i) {
    EXPECT_GE(knn.Score(0, i), 0.0f);
  }
}

// --- BPR epochs over DrawBprTriples vs the fused single-thread loop ---------

/// A dataset of about 30k interactions (several 4096-triple ring chunks,
/// so the ring wraps), with a user whose profile is empty (the step is
/// skipped after the user draw) and a user who has every item (all 32
/// negative draws fail and the step is skipped).
data::Dataset MakeBprEpochDataset() {
  constexpr std::size_t kItems = 64;
  data::Dataset dataset(kItems);
  dataset.AddUser({});
  data::Profile everything;
  for (data::ItemId item = 0; item < kItems; ++item) {
    everything.push_back(item);
  }
  dataset.AddUser(everything);
  util::Rng rng(testhelpers::TestSeed(31));
  for (int u = 0; u < 1200; ++u) {
    data::Profile profile;
    for (const std::size_t item : rng.SampleWithoutReplacement(kItems, 25)) {
      profile.push_back(static_cast<data::ItemId>(item));
    }
    dataset.AddUser(profile);
  }
  return dataset;
}

/// The draw of one fused BPR step as MF and PinSageLite made it before the
/// draw/update split. Returns false when the step yields no triple.
bool ReferenceBprDraw(const data::Dataset& train, util::Rng& rng,
                      data::UserId* u, data::ItemId* pos, data::ItemId* neg) {
  *u = static_cast<data::UserId>(rng.UniformUint64(train.num_users()));
  const data::Profile& profile = train.UserProfile(*u);
  if (profile.empty()) return false;
  *pos = profile[rng.UniformUint64(profile.size())];
  *neg = *pos;
  for (std::size_t attempt = 0; attempt < 32; ++attempt) {
    const data::ItemId candidate =
        static_cast<data::ItemId>(rng.UniformUint64(train.num_items()));
    if (!train.HasInteraction(*u, candidate)) {
      *neg = candidate;
      break;
    }
  }
  return *neg != *pos;
}

/// MatrixFactorization::TrainEpoch as one fused draw-and-update loop.
void ReferenceMfEpoch(const data::Dataset& train, const MfConfig& config,
                      util::Rng& rng, math::Matrix& users,
                      math::Matrix& items) {
  const std::size_t dim = config.embedding_dim;
  const float lr = config.learning_rate;
  const float reg = config.regularization;
  for (std::size_t s = 0; s < train.num_interactions(); ++s) {
    data::UserId u = 0;
    data::ItemId pos = 0;
    data::ItemId neg = 0;
    if (!ReferenceBprDraw(train, rng, &u, &pos, &neg)) continue;
    float* pu = users.Row(u);
    float* qi = items.Row(pos);
    float* qj = items.Row(neg);
    const float x = math::Dot(pu, qi, dim) - math::Dot(pu, qj, dim);
    const float sigma = nn::Sigmoid(-x);
    for (std::size_t d = 0; d < dim; ++d) {
      const float pu_d = pu[d];
      const float qi_d = qi[d];
      const float qj_d = qj[d];
      pu[d] += lr * (sigma * (qi_d - qj_d) - reg * pu_d);
      qi[d] += lr * (sigma * pu_d - reg * qi_d);
      qj[d] += lr * (-sigma * pu_d - reg * qj_d);
    }
  }
}

/// PinSageLite::TrainEpoch as one fused draw-and-update loop.
void ReferencePinSageEpoch(const data::Dataset& train,
                           const PinSageConfig& config, util::Rng& rng,
                           math::Matrix& items) {
  const std::size_t dim = config.embedding_dim;
  const float lr = config.learning_rate;
  const float reg = config.regularization;
  std::vector<float> user_rep(dim);
  for (std::size_t s = 0; s < train.num_interactions(); ++s) {
    data::UserId u = 0;
    data::ItemId pos = 0;
    data::ItemId neg = 0;
    if (!ReferenceBprDraw(train, rng, &u, &pos, &neg)) continue;
    for (std::size_t d = 0; d < dim; ++d) user_rep[d] = 0.0f;
    std::size_t contributors = 0;
    for (const data::ItemId item : train.UserProfile(u)) {
      if (item == pos) continue;
      math::Axpy(1.0f, items.Row(item), user_rep.data(), dim);
      ++contributors;
    }
    if (contributors == 0) continue;
    const float inv = 1.0f / static_cast<float>(contributors);
    for (std::size_t d = 0; d < dim; ++d) user_rep[d] *= inv;
    float* qi = items.Row(pos);
    float* qj = items.Row(neg);
    const float x = math::Dot(user_rep.data(), qi, dim) -
                    math::Dot(user_rep.data(), qj, dim);
    const float sigma = nn::Sigmoid(-x);
    for (std::size_t d = 0; d < dim; ++d) {
      const float xu_d = user_rep[d];
      qi[d] += lr * (sigma * xu_d - reg * qi[d]);
      qj[d] += lr * (-sigma * xu_d - reg * qj[d]);
    }
  }
}

void ExpectBitEqual(const math::Matrix& actual, const math::Matrix& expected) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(float)),
            0);
}

void ExpectSameRngState(const util::Rng& actual, const util::Rng& expected) {
  const util::RngState a = actual.SaveState();
  const util::RngState b = expected.SaveState();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(a.words[w], b.words[w]) << w;
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
  EXPECT_EQ(std::memcmp(&a.cached_normal, &b.cached_normal, sizeof(double)),
            0);
}

TEST(BprEpochTest, DatasetSkipsStepsOnBothPaths) {
  const data::Dataset train = MakeBprEpochDataset();
  ASSERT_GT(train.num_interactions(), 6U * 4096U);
  util::Rng rng(testhelpers::TestSeed(37));
  std::size_t steps_left = train.num_interactions();
  std::vector<BprTriple> triples(train.num_interactions());
  const std::size_t drawn =
      DrawBprTriples(train, rng, &steps_left, triples.data(), triples.size());
  EXPECT_EQ(steps_left, 0U);
  EXPECT_LT(drawn, train.num_interactions());
  for (std::size_t t = 0; t < drawn; ++t) {
    EXPECT_NE(triples[t].user, 0U);  // empty profile: never a triple
    EXPECT_NE(triples[t].user, 1U);  // every item seen: no negative
  }
}

TEST(BprEpochTest, ChunkedDrawsEqualOneUninterruptedDraw) {
  const data::Dataset train = MakeBprEpochDataset();
  util::Rng whole_rng(testhelpers::TestSeed(41));
  util::Rng chunked_rng(testhelpers::TestSeed(41));
  std::size_t whole_left = train.num_interactions();
  std::vector<BprTriple> whole(train.num_interactions());
  whole.resize(DrawBprTriples(train, whole_rng, &whole_left, whole.data(),
                              whole.size()));

  std::size_t chunked_left = train.num_interactions();
  std::vector<BprTriple> chunked;
  BprTriple chunk[1000];
  while (chunked_left > 0) {
    const std::size_t count =
        DrawBprTriples(train, chunked_rng, &chunked_left, chunk, 1000);
    chunked.insert(chunked.end(), chunk, chunk + count);
  }
  ASSERT_EQ(chunked.size(), whole.size());
  for (std::size_t t = 0; t < whole.size(); ++t) {
    EXPECT_EQ(chunked[t].user, whole[t].user);
    EXPECT_EQ(chunked[t].pos, whole[t].pos);
    EXPECT_EQ(chunked[t].neg, whole[t].neg);
  }
  ExpectSameRngState(chunked_rng, whole_rng);
}

TEST(BprEpochTest, MfPipelinedEpochMatchesFusedLoop) {
  const data::Dataset train = MakeBprEpochDataset();
  const MfConfig config;
  MatrixFactorization model(config);
  util::Rng rng(testhelpers::TestSeed(43));
  model.InitTraining(train, rng);
  math::Matrix users = model.user_embeddings();
  math::Matrix items = model.item_embeddings();
  util::Rng reference_rng(testhelpers::TestSeed(0));
  reference_rng.RestoreState(rng.SaveState());
  for (int epoch = 0; epoch < 2; ++epoch) {
    model.TrainEpoch(train, rng);
    ReferenceMfEpoch(train, config, reference_rng, users, items);
    ExpectBitEqual(model.user_embeddings(), users);
    ExpectBitEqual(model.item_embeddings(), items);
    ExpectSameRngState(rng, reference_rng);
  }
}

TEST(BprEpochTest, PinSageEpochMatchesFusedLoop) {
  const data::Dataset train = MakeBprEpochDataset();
  const PinSageConfig config;
  PinSageLite model(config);
  util::Rng rng(testhelpers::TestSeed(47));
  model.InitTraining(train, rng);
  math::Matrix items = model.item_embeddings();
  util::Rng reference_rng(testhelpers::TestSeed(0));
  reference_rng.RestoreState(rng.SaveState());
  for (int epoch = 0; epoch < 2; ++epoch) {
    model.TrainEpoch(train, rng);
    ReferencePinSageEpoch(train, config, reference_rng, items);
    ExpectBitEqual(model.item_embeddings(), items);
    ExpectSameRngState(rng, reference_rng);
  }
}

TEST(BprEpochTest, UpdatesSeeEveryTripleInDrawOrder) {
  const data::Dataset train = MakeBprEpochDataset();
  util::Rng rng(testhelpers::TestSeed(53));
  util::Rng reference_rng(testhelpers::TestSeed(53));
  std::vector<BprTriple> seen;
  RunBprEpoch(train, rng, [&](const BprTriple* triples, std::size_t count) {
    seen.insert(seen.end(), triples, triples + count);
  });
  std::size_t steps_left = train.num_interactions();
  std::vector<BprTriple> expected(train.num_interactions());
  expected.resize(DrawBprTriples(train, reference_rng, &steps_left,
                                 expected.data(), expected.size()));
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t].user, expected[t].user);
    EXPECT_EQ(seen[t].pos, expected[t].pos);
    EXPECT_EQ(seen[t].neg, expected[t].neg);
  }
  ExpectSameRngState(rng, reference_rng);

  // An epoch with no steps still runs (and joins) its drawer.
  const data::Dataset empty(8);
  std::size_t calls = 0;
  RunBprEpoch(empty, rng, [&](const BprTriple*, std::size_t count) {
    EXPECT_EQ(count, 0U);
    ++calls;
  });
  EXPECT_EQ(calls, 1U);
  ExpectSameRngState(rng, reference_rng);
}

TEST(BprEpochTest, ThrowingUpdateRethrowsWithDrawerJoined) {
  const data::Dataset train = MakeBprEpochDataset();
  // The RNG state after each whole chunk of one uninterrupted draw. The
  // drawer stops only between chunks, so after an epoch cut short the RNG
  // must hold one of these states.
  std::vector<util::RngState> after_chunk;
  {
    util::Rng reference(testhelpers::TestSeed(61));
    std::size_t steps_left = train.num_interactions();
    std::vector<BprTriple> chunk(4096);
    while (steps_left > 0) {
      DrawBprTriples(train, reference, &steps_left, chunk.data(),
                     chunk.size());
      after_chunk.push_back(reference.SaveState());
    }
  }
  ASSERT_GE(after_chunk.size(), 7U);

  // The first chunk, and a middle one of the epoch.
  for (const std::size_t throw_at : {std::size_t{0}, std::size_t{3}}) {
    util::Rng rng(testhelpers::TestSeed(61));
    std::size_t calls = 0;
    try {
      RunBprEpoch(train, rng, [&](const BprTriple*, std::size_t) {
        if (calls++ == throw_at) {
          // Give the drawer time to fill the ring and block in its wait,
          // so cancelling has to wake it.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("update failed");
        }
      });
      ADD_FAILURE() << "RunBprEpoch returned; chunk " << throw_at;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "update failed");
    }
    EXPECT_EQ(calls, throw_at + 1);
    // Chunk `throw_at` is never released, so the drawer published chunks
    // up to at most `throw_at + 3` (a ring of 4) and was joined after.
    const util::RngState state = rng.SaveState();
    bool at_chunk_boundary = false;
    for (std::size_t c = throw_at; c < throw_at + 4; ++c) {
      at_chunk_boundary =
          at_chunk_boundary ||
          std::equal(state.words, state.words + 4, after_chunk[c].words);
    }
    EXPECT_TRUE(at_chunk_boundary) << "chunk " << throw_at;
  }
}

// --- PinSageLite cached neighbor weights ------------------------------------

/// score(u, i) as PinSageLite computed it before the weight cache: the
/// neighborhood sum rebuilt from `current` in the model's accumulation
/// order and its weight from a pow per score.
float PowFormulaScore(const PinSageLite& model, const PinSageConfig& config,
                      const data::Dataset& train,
                      const data::Dataset& current, data::UserId user,
                      data::ItemId item) {
  const std::size_t dim = config.embedding_dim;
  const float* p = model.UserRepresentation(user);
  const float alpha = config.self_weight;
  float score = alpha * math::Dot(p, model.item_embeddings().Row(item), dim);
  const std::vector<data::UserId>& neighbors = current.ItemProfile(item);
  if (!neighbors.empty()) {
    std::vector<float> sum(dim, 0.0f);
    for (const data::UserId v : neighbors) {
      math::Axpy(1.0f, model.UserRepresentation(v), sum.data(), dim);
    }
    const float w = (1.0f - alpha) /
                    std::pow(static_cast<float>(neighbors.size()),
                             config.neighbor_norm_exponent);
    score += w * math::Dot(p, sum.data(), dim);
  }
  score += config.popularity_bias *
           std::log1p(static_cast<float>(train.ItemPopularity(item)));
  return score;
}

/// Batch scores equal per-item `Score` and the pow formula, bit for bit,
/// for every user and item of `current`.
void ExpectScorerMatchesPowFormula(const PinSageLite& model,
                                   const PinSageConfig& config,
                                   const data::Dataset& train,
                                   const data::Dataset& current) {
  std::vector<data::ItemId> candidates(current.num_items());
  for (data::ItemId item = 0; item < current.num_items(); ++item) {
    candidates[item] = item;
  }
  std::vector<float> batch(candidates.size());
  std::size_t mismatches = 0;
  for (data::UserId user = 0; user < current.num_users(); ++user) {
    model.ScoreCandidatesInto(user, candidates, batch.data());
    for (const data::ItemId item : candidates) {
      const float single = model.Score(user, item);
      const float reference =
          PowFormulaScore(model, config, train, current, user, item);
      mismatches += std::memcmp(&batch[item], &single, sizeof(float)) != 0;
      mismatches += std::memcmp(&single, &reference, sizeof(float)) != 0;
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

TEST_F(RecFixture, PinSageCachedWeightsMatchPowFormulaThroughRollback) {
  const PinSageConfig config;
  PinSageLite model(config);
  util::Rng rng(testhelpers::TestSeed(59));
  model.Fit(split_.train, 3, rng);  // ends in BeginServing(train)
  data::Dataset current = split_.train;
  ExpectScorerMatchesPowFormula(model, config, split_.train, current);

  ASSERT_TRUE(model.CheckpointServing());
  const data::DatasetCheckpoint mark = current.Checkpoint();
  // Injected users pair the most popular items, so the rolled-back items
  // keep a neighborhood term and a stale weight would change their scores.
  const auto popular = split_.train.ItemsByPopularity();
  for (int i = 0; i < 4; ++i) {
    data::Profile profile;
    for (int j = 0; j < 6; ++j) profile.push_back(popular[i + j]);
    model.ObserveNewUser(current, current.AddUser(profile));
  }
  ExpectScorerMatchesPowFormula(model, config, split_.train, current);

  current.RollbackTo(mark);
  ASSERT_TRUE(model.RollbackServing());
  ExpectScorerMatchesPowFormula(model, config, split_.train, current);
}

TEST(PinSageScorerTest, WorldModelFactoryCloneMatchesPowFormula) {
  const testhelpers::TinyWorld& world = testhelpers::SharedTinyWorld();
  const std::unique_ptr<Recommender> clone = world.ModelFactory()();
  const auto* model = dynamic_cast<const PinSageLite*>(clone.get());
  ASSERT_NE(model, nullptr);
  ExpectScorerMatchesPowFormula(*model, PinSageConfig(), world.split.train,
                                world.split.train);
}

}  // namespace
}  // namespace copyattack::rec
