#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/crafting.h"
#include "defense/adaptive_detector.h"
#include "defense/detectors.h"
#include "defense/profile_features.h"
#include "rec/matrix_factorization.h"
#include "test_helpers.h"
#include "test_seed.h"

namespace copyattack::defense {
namespace {

using testhelpers::SharedTinyWorld;

/// Fixture: extractor over the tiny world's target domain plus MF item
/// embeddings.
class DefenseFixture : public ::testing::Test {
 protected:
  DefenseFixture() {
    const auto& tw = SharedTinyWorld();
    util::Rng rng(testhelpers::TestSeed(3));
    mf_.Fit(tw.dataset.target, 10, rng);
    extractor_ = std::make_unique<ProfileFeatureExtractor>(
        &tw.dataset.target, &mf_.item_embeddings());
  }

  std::vector<ProfileFeatures> RealFeatures(std::size_t count) {
    const auto& tw = SharedTinyWorld();
    util::Rng rng(testhelpers::TestSeed(5));
    std::vector<ProfileFeatures> features;
    for (std::size_t i = 0; i < count; ++i) {
      const data::UserId u = static_cast<data::UserId>(
          rng.UniformUint64(tw.dataset.target.num_users()));
      features.push_back(extractor_->Extract(
          tw.dataset.target.UserProfile(u), rng));
    }
    return features;
  }

  /// Fabricated shilling profiles: the target plus random filler.
  std::vector<ProfileFeatures> FabricatedFeatures(std::size_t count) {
    const auto& tw = SharedTinyWorld();
    util::Rng rng(testhelpers::TestSeed(7));
    std::vector<ProfileFeatures> features;
    for (std::size_t i = 0; i < count; ++i) {
      data::Profile fake = {tw.cold_target};
      while (fake.size() < 15) {
        const data::ItemId item = static_cast<data::ItemId>(
            rng.UniformUint64(tw.dataset.target.num_items()));
        bool dup = false;
        for (const data::ItemId existing : fake) {
          dup = dup || existing == item;
        }
        if (!dup) fake.push_back(item);
      }
      features.push_back(extractor_->Extract(fake, rng));
    }
    return features;
  }

  /// CopyAttack-style profiles: crafted windows of real source holders.
  std::vector<ProfileFeatures> CopiedFeatures() {
    const auto& tw = SharedTinyWorld();
    util::Rng rng(testhelpers::TestSeed(9));
    std::vector<ProfileFeatures> features;
    for (const data::ItemId item : tw.dataset.OverlapItems()) {
      for (const data::UserId holder : tw.dataset.SourceHolders(item)) {
        if (features.size() >= 80) return features;
        features.push_back(extractor_->Extract(
            core::ClipProfileAroundTarget(
                tw.dataset.source.UserProfile(holder), item, 0.5),
            rng));
      }
    }
    return features;
  }

  rec::MatrixFactorization mf_;
  std::unique_ptr<ProfileFeatureExtractor> extractor_;
};

TEST_F(DefenseFixture, FeatureNamesExist) {
  for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
    EXPECT_NE(ProfileFeatureName(i), nullptr);
  }
}

TEST_F(DefenseFixture, FeaturesAreFinite) {
  for (const ProfileFeatures& f : RealFeatures(30)) {
    for (const double v : f) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST_F(DefenseFixture, SingleItemProfileFeatures) {
  util::Rng rng(testhelpers::TestSeed(11));
  const ProfileFeatures f = extractor_->Extract({0}, rng);
  EXPECT_DOUBLE_EQ(f[0], 0.0);  // log length of 1
  EXPECT_DOUBLE_EQ(f[3], 1.0);  // coherence of a singleton is perfect
  EXPECT_DOUBLE_EQ(f[5], 0.0);  // no dispersion
}

TEST(RocAucTest, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(RocAuc({0.0, 0.1, 0.2}, {1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(RocAuc({1.0, 2.0}, {0.0, 0.1}), 0.0);
}

TEST(RocAucTest, IdenticalDistributionsGiveHalf) {
  EXPECT_DOUBLE_EQ(RocAuc({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 0.5);
}

TEST(RocAucTest, TiesCountHalf) {
  EXPECT_DOUBLE_EQ(RocAuc({1.0}, {1.0}), 0.5);
}

TEST_F(DefenseFixture, ZScoreFlagsFabricatedProfiles) {
  const auto real = RealFeatures(80);
  const auto fake = FabricatedFeatures(60);
  ZScoreDetector detector;
  detector.Fit(real);
  const DetectionReport report = EvaluateDetector(detector, real, fake);
  EXPECT_GT(report.auc, 0.75)
      << "fabricated shilling profiles must be clearly detectable";
}

TEST_F(DefenseFixture, CopiedProfilesEvadeDetectionBetter) {
  const auto real = RealFeatures(80);
  const auto fake = FabricatedFeatures(60);
  const auto copied = CopiedFeatures();
  ASSERT_GE(copied.size(), 20U);

  ZScoreDetector detector;
  detector.Fit(real);
  const DetectionReport fake_report = EvaluateDetector(detector, real, fake);
  const DetectionReport copied_report =
      EvaluateDetector(detector, real, copied);
  // The paper's core premise: copied real profiles look far more genuine
  // than fabricated ones.
  EXPECT_LT(copied_report.auc, fake_report.auc - 0.1);
}

TEST_F(DefenseFixture, KnnDetectorAlsoSeparatesFabricated) {
  const auto real = RealFeatures(80);
  const auto fake = FabricatedFeatures(60);
  KnnDetector detector(5);
  detector.Fit(real);
  const DetectionReport report = EvaluateDetector(detector, real, fake);
  EXPECT_GT(report.auc, 0.7);
}

TEST_F(DefenseFixture, RecallRespectsFprBudget) {
  const auto real = RealFeatures(100);
  ZScoreDetector detector;
  detector.Fit(real);
  // Evaluating genuine vs genuine: recall at 5% FPR should be near 5%.
  const DetectionReport report =
      EvaluateDetector(detector, real, RealFeatures(100), 0.05);
  EXPECT_LT(report.recall_at_fpr, 0.25);
}

TEST(DetectorDeathTest, ScoreBeforeFitAborts) {
  ZScoreDetector detector;
  ProfileFeatures f{};
  EXPECT_DEATH(detector.Score(f), "Fit must be called");
}

TEST_F(DefenseFixture, AdaptiveDetectorSeparatesItsTrainingAttacker) {
  const auto real = RealFeatures(80);
  const auto fake = FabricatedFeatures(60);
  // Train on one half of the attack profiles, evaluate on the other —
  // the arms-race protocol, so the detector is never scored on rows it
  // trained on.
  std::vector<ProfileFeatures> fit_half, eval_half;
  for (std::size_t i = 0; i < fake.size(); ++i) {
    (i % 2 == 0 ? fit_half : eval_half).push_back(fake[i]);
  }
  AdaptiveDetector adaptive;
  adaptive.FitAdaptive(real, fit_half);
  EXPECT_TRUE(adaptive.supervised());

  const DetectionReport supervised_report =
      EvaluateDetector(adaptive, real, eval_half);
  ZScoreDetector zscore;
  zscore.Fit(real);
  const DetectionReport zscore_report =
      EvaluateDetector(zscore, real, eval_half);
  // Retraining on the attacker's own profiles must not LOSE separability
  // relative to the unsupervised baseline (the defender's second move).
  EXPECT_GT(supervised_report.auc, 0.75);
  EXPECT_GE(supervised_report.auc, zscore_report.auc - 0.05);
}

TEST_F(DefenseFixture, AdaptiveDetectorFitIsDeterministic) {
  const auto real = RealFeatures(60);
  const auto fake = FabricatedFeatures(40);
  AdaptiveDetector a, b;
  a.FitAdaptive(real, fake);
  b.FitAdaptive(real, fake);
  ASSERT_EQ(a.weights().size(), b.weights().size());
  for (std::size_t i = 0; i < a.weights().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.weights()[i], b.weights()[i]);
  }
  EXPECT_DOUBLE_EQ(a.bias(), b.bias());
}

TEST_F(DefenseFixture, AdaptiveDetectorFallsBackToUnsupervised) {
  const auto real = RealFeatures(80);
  AdaptiveDetector adaptive;
  adaptive.Fit(real);  // no attack profiles yet: z-score semantics
  EXPECT_FALSE(adaptive.supervised());
  const auto fake = FabricatedFeatures(40);
  ZScoreDetector zscore;
  zscore.Fit(real);
  const DetectionReport fallback = EvaluateDetector(adaptive, real, fake);
  const DetectionReport baseline = EvaluateDetector(zscore, real, fake);
  EXPECT_DOUBLE_EQ(fallback.auc, baseline.auc);
}

TEST(AdaptiveDetectorDeathTest, ScoreBeforeFitAborts) {
  AdaptiveDetector detector;
  ProfileFeatures f{};
  EXPECT_DEATH(detector.Score(f), "Fit");
}

}  // namespace
}  // namespace copyattack::defense
