#include <algorithm>

#include <gtest/gtest.h>

#include "core/copy_attack.h"
#include "core/environment.h"
#include "core/proxy.h"
#include "rec/pinsage_lite.h"
#include "test_helpers.h"
#include "test_seed.h"

namespace copyattack::core {
namespace {

using testhelpers::SharedTinyWorld;

TEST(ProxyTest, SpliceInsertsAfterAnchor) {
  const data::Profile window = {1, 2, 3, 4};
  const data::Profile spliced = SpliceTargetIntoProfile(window, 2, 99);
  EXPECT_EQ(spliced, (data::Profile{1, 2, 99, 3, 4}));
}

TEST(ProxyTest, SpliceAppendsWhenAnchorMissing) {
  const data::Profile window = {1, 2};
  const data::Profile spliced = SpliceTargetIntoProfile(window, 7, 99);
  EXPECT_EQ(spliced, (data::Profile{1, 2, 99}));
}

TEST(ProxyTest, SpliceIsIdempotentForPresentTarget) {
  const data::Profile window = {1, 99, 2};
  EXPECT_EQ(SpliceTargetIntoProfile(window, 1, 99), window);
}

TEST(ProxyTest, FindsCooccurringOverlapItem) {
  // Hand-built world: target item 5 is not in the source domain; item 2
  // co-occurs with it heavily in the target domain and has source holders.
  data::CrossDomainDataset cd("proxy", 6);
  cd.overlap[2] = true;
  cd.overlap[3] = true;
  // Target-domain users: 5 always appears with 2; 3 appears elsewhere.
  cd.target.AddUser({5, 2});
  cd.target.AddUser({2, 5});
  cd.target.AddUser({5, 2, 0});
  cd.target.AddUser({3, 1});
  cd.source.AddUser({2});
  cd.source.AddUser({3});

  const data::ItemId proxy = FindProxyItem(cd, cd.target, 5);
  EXPECT_EQ(proxy, 2U);
}

TEST(ProxyTest, ReturnsNoItemWithoutCooccurrence) {
  data::CrossDomainDataset cd("proxy", 4);
  cd.overlap[0] = true;
  cd.target.AddUser({3});  // target item 3 co-occurs with nothing
  cd.source.AddUser({0});
  EXPECT_EQ(FindProxyItem(cd, cd.target, 3), data::kNoItem);
}

TEST(ProxyTest, CopyAttackUsesProxyForNonSourceItem) {
  const auto& tw = SharedTinyWorld();
  // Find a target-domain item that is NOT attackable directly (outside
  // the overlap or without source holders).
  data::ItemId orphan = data::kNoItem;
  for (data::ItemId item = 0; item < tw.dataset.target.num_items();
       ++item) {
    if (tw.dataset.SourceHolders(item).empty() &&
        !tw.dataset.target.ItemProfile(item).empty()) {
      orphan = item;
      break;
    }
  }
  ASSERT_NE(orphan, data::kNoItem)
      << "tiny world should contain a non-overlap target item";

  CopyAttackConfig config;
  config.allow_proxy = true;
  CopyAttack attack(&tw.dataset, &tw.artifacts.tree,
                    &tw.artifacts.mf.user_embeddings(),
                    &tw.artifacts.mf.item_embeddings(), config, 1);
  attack.BeginTargetItem(orphan);
  EXPECT_NE(attack.anchor_item(), orphan);
  EXPECT_FALSE(
      tw.dataset.SourceHolders(attack.anchor_item()).empty());
  EXPECT_FALSE(attack.candidates().empty());

  // A full episode must inject profiles that all contain the orphan item.
  rec::PinSageLite model = tw.model;
  EnvConfig env_config;
  env_config.budget = 6;
  env_config.num_pretend_users = 8;
  env_config.query_candidates = 40;
  env_config.seed = 5;
  AttackEnvironment env(tw.dataset, tw.split.train, &model,
                        env_config);
  env.Reset(orphan);
  util::Rng rng(testhelpers::TestSeed(3));
  attack.RunEpisode(env, rng);

  const data::Dataset& polluted = env.black_box().polluted();
  const std::size_t base =
      tw.split.train.num_users() + env.pretend_users().size();
  ASSERT_GT(polluted.num_users(), base);
  for (data::UserId u = static_cast<data::UserId>(base);
       u < polluted.num_users(); ++u) {
    EXPECT_TRUE(polluted.HasInteraction(u, orphan))
        << "proxy-built profiles must still contain the target item";
  }
}

TEST(DemotionTest, RewardIsComplementOfHitRatio) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite promote_model = tw.model;
  rec::PinSageLite demote_model = tw.model;

  EnvConfig promote_config;
  promote_config.budget = 6;
  promote_config.num_pretend_users = 10;
  promote_config.query_candidates = 40;
  promote_config.seed = 11;
  EnvConfig demote_config = promote_config;
  demote_config.goal = AttackGoal::kDemote;

  AttackEnvironment promote_env(tw.dataset, tw.split.train,
                                &promote_model, promote_config);
  AttackEnvironment demote_env(tw.dataset, tw.split.train,
                               &demote_model, demote_config);
  promote_env.Reset(tw.cold_target);
  demote_env.Reset(tw.cold_target);

  const double promote_reward = promote_env.QueryReward();
  const double demote_reward = demote_env.QueryReward();
  EXPECT_NEAR(promote_reward + demote_reward, 1.0, 1e-9);
}

TEST(DemotionTest, DemotingAPopularItemIsObservable) {
  // Statistical effect claim (dilution lowers a popular item's HR) —
  // only guaranteed on the controlled default world.
  if (testhelpers::SeedOverrideActive()) {
    GTEST_SKIP() << "effect size not guaranteed under COPYATTACK_TEST_SEED";
  }
  const auto& tw = SharedTinyWorld();
  // Pick the most popular overlapping item with holders.
  data::ItemId popular = data::kNoItem;
  for (const data::ItemId item :
       tw.split.train.ItemsByPopularity()) {
    if (tw.dataset.overlap[item] &&
        !tw.dataset.SourceHolders(item).empty()) {
      popular = item;
      break;
    }
  }
  ASSERT_NE(popular, data::kNoItem);

  rec::PinSageLite model = tw.model;
  EnvConfig config;
  config.goal = AttackGoal::kDemote;
  config.budget = 12;
  config.num_pretend_users = 10;
  config.query_candidates = 40;
  config.seed = 13;
  AttackEnvironment env(tw.dataset, tw.split.train, &model, config);
  env.Reset(popular);

  const double hr_before = env.RawHitRatio();
  // Inject long raw profiles of users NOT holding the popular item: their
  // representations dilute the item's neighborhood.
  util::Rng rng(testhelpers::TestSeed(17));
  while (!env.done()) {
    const data::UserId u = static_cast<data::UserId>(
        rng.UniformUint64(tw.dataset.source.num_users()));
    data::Profile profile = tw.dataset.source.UserProfile(u);
    if (profile.empty()) continue;
    if (!tw.dataset.source.HasInteraction(u, popular)) {
      profile.push_back(popular);  // interact, to enter its neighborhood
    }
    env.Step(std::move(profile));
  }
  const double hr_after = env.RawHitRatio();
  // Demotion is hard with implicit feedback; we only require that the
  // environment exposes the effect direction coherently (no increase).
  EXPECT_LE(hr_after, hr_before + 0.1);
}

}  // namespace
}  // namespace copyattack::core
