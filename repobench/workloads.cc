#include "workloads.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/parallel_runner.h"
#include "core/runner.h"
#include "data/io.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "fault/fault_injector.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rec/evaluator.h"
#include "rec/matrix_factorization.h"
#include "rec/pinsage_lite.h"
#include "rec/trainer.h"
#include "serve/attack_server.h"
#include "serve/job_queue.h"
#include "util/rng.h"

namespace repobench {

namespace ca = copyattack;
namespace fs = std::filesystem;

namespace {

// Workload shapes. The values follow the `copyattack attack` and
// `attack-server` defaults except where a workload names its own.
constexpr std::size_t kBudget = 30;
constexpr std::size_t kLargeTargets = 10;
constexpr std::size_t kLargeEpisodes = 15;
constexpr std::size_t kServeJobs = 50;
constexpr std::size_t kServeTargets = 3;
constexpr std::size_t kServeEpisodes = 5;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kRestartTargets = 8;
constexpr std::size_t kRestartEpisodes = 10;
constexpr std::size_t kColdMaxInteractions = 10;
constexpr std::size_t kTreeDepth = 3;
constexpr double kMinSpanCoverage = 0.95;
// Membership probes per `Dataset::HasInteraction` timing pass, per domain.
constexpr std::size_t kHasInteractionProbes = std::size_t{1} << 19;

const char* const kWorldPrefix = "world";
const char* const kJobsFile = "jobs.csv";

/// The loaded, trained world every workload starts from: what `copyattack
/// attack` builds before its first campaign.
struct World {
  ca::data::CrossDomainDataset dataset{"", 1};
  std::optional<ca::data::TrainValidTestSplit> split;
  ca::rec::PinSageLite model;
  ca::rec::TrainReport train;
  std::optional<ca::core::SourceArtifacts> artifacts;

  ca::core::ModelFactory ModelFactory() const {
    return [this] { return std::make_unique<ca::rec::PinSageLite>(model); };
  }
};

/// Checks made while a workload runs; every check is one attempted
/// operation.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  /// Work items (jobs, target items): `done` of `wanted` completed.
  void Count(std::size_t wanted, std::size_t done, const std::string& what) {
    attempted += wanted;
    if (done < wanted) {
      failed += wanted - done;
      failures.push_back(what + ": " + std::to_string(done) + " of " +
                         std::to_string(wanted) + " completed");
    }
  }
};

/// Everything one pass of a workload measured.
struct Iteration {
  int root = -1;  ///< the pass's root span
  double wall_s = 0.0;
  double setup_s = 0.0;
  double campaign_s = 0.0;
  std::size_t targets = 0;    ///< target items completed
  std::vector<double> job_s;  ///< latency of each job
  double target_hr10 = 0.0;
  double hr20 = 0.0;
  std::size_t rows = 0;            ///< interactions loaded
  std::size_t episodes = 0;        ///< episodes played (runner records)
  std::size_t expected_episodes = 0;
  /// Target items evaluated without attack: each resets the environment
  /// once, so `env.episodes` counts them next to the campaign episodes.
  std::size_t clean_targets = 0;
  std::size_t checkpoint_bytes = 0;
  std::map<std::string, std::vector<double>> job_s_by_method;
  Digest digest;
  Checks checks;
};

/// Seconds spent in spans named `name` under `root`.
double SpanSeconds(const std::vector<Span>& spans, int root,
                   const std::string& name) {
  double total = 0.0;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    if (spans[i].name != name) continue;
    for (int p = i; p != -1; p = spans[p].parent) {
      if (p == root) {
        total += spans[i].seconds();
        break;
      }
    }
  }
  return total;
}

std::size_t DirectoryBytes(const std::string& dir) {
  std::size_t bytes = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

void ResetDirectory(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

void AddResult(Digest& digest, const std::string& prefix,
               const ca::core::CampaignResult& result) {
  digest.Add(prefix + ".method", result.method);
  digest.Add(prefix + ".targets",
             static_cast<std::uint64_t>(result.num_target_items));
  for (const auto& [k, m] : result.metrics) {
    const std::string key = prefix + ".k" + std::to_string(k);
    digest.Add(key + ".hr", m.hr);
    digest.Add(key + ".ndcg", m.ndcg);
    digest.Add(key + ".count", static_cast<std::uint64_t>(m.count));
  }
  digest.Add(prefix + ".items_per_profile", result.avg_items_per_profile);
  digest.Add(prefix + ".profiles_injected", result.avg_profiles_injected);
  digest.Add(prefix + ".query_rounds", result.avg_query_rounds);
  digest.Add(prefix + ".final_reward", result.avg_final_reward);
}

double Hr20(const ca::core::CampaignResult& result) {
  const auto it = result.metrics.find(20);
  return it == result.metrics.end() ? 0.0 : it->second.hr;
}

std::size_t EpisodesPlayed(const ca::core::ParallelCampaignResult& result) {
  std::size_t episodes = 0;
  for (const auto& shard : result.shards) episodes += shard.episodes_played;
  return episodes;
}

/// Loads the world files, splits, trains the target model and prepares
/// the source artifacts, as `copyattack attack` does, with one span per
/// call.
std::unique_ptr<World> LoadAndTrain(SpanRecorder& recorder,
                                    const std::string& prefix) {
  auto world = std::make_unique<World>();
  {
    ScopedSpan span(recorder, "data.LoadCrossDomain", "data");
    ca::data::IoError error;
    if (!ca::data::LoadCrossDomain(prefix, &world->dataset, &error)) {
      throw std::runtime_error("cannot load " + prefix + ": " +
                               error.Format());
    }
  }
  {
    ScopedSpan span(recorder, "data.SplitDataset", "data");
    ca::util::Rng split_rng(11);
    world->split.emplace(
        ca::data::SplitDataset(world->dataset.target, split_rng));
  }
  {
    ScopedSpan span(recorder, "rec.TrainWithEarlyStopping", "rec");
    ca::util::Rng train_rng(13);
    world->train = ca::rec::TrainWithEarlyStopping(
        world->model, *world->split, world->dataset.target,
        ca::rec::TrainOptions{}, train_rng);
  }
  {
    ScopedSpan span(recorder, "core.PrepareSourceArtifacts", "core");
    ca::core::SourceArtifactOptions options;
    options.tree_depth = kTreeDepth;
    world->artifacts.emplace(
        ca::core::PrepareSourceArtifacts(world->dataset, options));
  }
  return world;
}

std::vector<ca::data::ItemId> SampleTargets(SpanRecorder& recorder,
                                            const World& world,
                                            std::size_t count,
                                            std::uint64_t seed) {
  ScopedSpan span(recorder, "data.SampleColdTargetItems", "data");
  ca::util::Rng rng(seed);
  return ca::data::SampleColdTargetItems(world.dataset, count,
                                         kColdMaxInteractions, rng);
}

ca::serve::StrategySpec MakeFactory(SpanRecorder& recorder,
                                    const World& world,
                                    const std::string& method) {
  ScopedSpan span(recorder, "attack.MakeStrategyFactory:" + method,
                  "attack");
  return ca::serve::MakeStrategyFactory(world.dataset, *world.artifacts,
                                        method);
}

ca::core::CampaignResult CleanEval(
    SpanRecorder& recorder, const World& world,
    const std::vector<ca::data::ItemId>& targets,
    const ca::core::CampaignConfig& campaign) {
  ScopedSpan span(recorder, "core.EvaluateWithoutAttack", "core");
  return ca::core::EvaluateWithoutAttack(world.dataset, world.split->train,
                                         world.ModelFactory(), targets,
                                         campaign);
}

ca::core::ParallelCampaignResult RunCampaign(
    SpanRecorder& recorder, const World& world,
    const ca::core::StrategyFactory& factory,
    const ca::core::ParallelRunnerOptions& options,
    const std::vector<ca::data::ItemId>& targets,
    const ca::core::CampaignConfig& campaign) {
  ScopedSpan span(recorder, "core.ParallelCampaignRunner::Run", "core");
  const ca::core::ParallelCampaignRunner runner(
      world.dataset, world.split->train, world.ModelFactory(), factory,
      options);
  return runner.Run(targets, campaign);
}

/// A workload: one pass over its inputs, run once per process.
class Workload {
 public:
  explicit Workload(const RunOptions& options) : options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Runs one pass under a root span; keeps its world for the probes.
  virtual Iteration RunIteration(SpanRecorder& recorder) = 0;

  /// Whether the workload serves jobs through `AttackServer::RunJob`
  /// itself (otherwise the per-method job times come from a probe).
  virtual bool Serves() const { return false; }
  /// Whether the workload calls `EvaluateWithoutAttack` itself.
  virtual bool EvaluatesClean() const { return true; }

  /// The world of the pass.
  const World& world() const { return *world_; }

 protected:
  std::string WorldPrefix() const {
    return (fs::path(options_.input_dir) / kWorldPrefix).string();
  }
  std::string Scratch(const std::string& name) const {
    return (fs::path(options_.scratch_dir) / name).string();
  }

  const RunOptions& options_;
  std::unique_ptr<World> world_;
};

void AddTrain(Digest& digest, const World& world) {
  digest.Add("train.epochs",
             static_cast<std::uint64_t>(world.train.epochs_run));
  digest.Add("train.valid_hr", world.train.best_valid_hr);
  digest.Add("train.test_hr", world.train.test_hr);
  digest.Add("train.test_ndcg", world.train.test_ndcg);
}

/// Fills the fields every workload shares once its root span is closed.
void FinishIteration(const SpanRecorder& recorder, const World& world,
                     Iteration& it) {
  it.wall_s = recorder.spans()[it.root].seconds();
  it.target_hr10 = world.train.test_hr;
  AddTrain(it.digest, world);
}

/// One `copyattack attack --jobs 1`-shaped run on the LargeCross world:
/// setup is most of it, so this is where setup work shows.
class AttackLarge final : public Workload {
 public:
  using Workload::Workload;

  Iteration RunIteration(SpanRecorder& recorder) override {
    Iteration it;
    ca::core::CampaignConfig campaign;
    ca::core::CampaignResult clean;
    ca::core::ParallelCampaignResult attacked;
    int setup = -1;
    int run = -1;
    {
      ScopedSpan root(recorder, "workload.attack-large", "bench");
      it.root = root.index();
      std::vector<ca::data::ItemId> targets;
      ca::serve::StrategySpec spec;
      {
        ScopedSpan setup_span(recorder, "setup", "bench");
        setup = setup_span.index();
        world_ = LoadAndTrain(recorder, WorldPrefix());
        targets =
            SampleTargets(recorder, *world_, kLargeTargets, options_.seed);
        spec = MakeFactory(recorder, *world_, "CopyAttack");
      }
      campaign.env.budget = kBudget;
      campaign.episodes = spec.learns ? kLargeEpisodes : 1;
      campaign.seed = options_.seed;
      clean = CleanEval(recorder, *world_, targets, campaign);
      ca::core::ParallelRunnerOptions runner;
      runner.jobs = 1;
      run = static_cast<int>(recorder.spans().size());
      attacked = RunCampaign(recorder, *world_, spec.factory, runner,
                             targets, campaign);
    }
    FinishIteration(recorder, *world_, it);
    it.setup_s = recorder.spans()[setup].seconds();
    it.campaign_s = recorder.spans()[run].seconds();
    it.job_s.push_back(it.campaign_s);
    it.targets = attacked.aggregate.num_target_items;
    it.hr20 = Hr20(attacked.aggregate);
    it.rows = world_->dataset.source.num_interactions() +
              world_->dataset.target.num_interactions();
    it.episodes = EpisodesPlayed(attacked);
    it.expected_episodes = kLargeTargets * campaign.episodes;
    it.clean_targets = clean.num_target_items;
    it.checks.Count(kLargeTargets, it.targets, "attack-large target items");
    it.checks.Count(1, attacked.aggregate.aborted ? 0 : 1,
                    "attack-large campaign");
    it.checks.Expect(it.episodes == it.expected_episodes,
                     "attack-large episodes " + std::to_string(it.episodes) +
                         " != " + std::to_string(it.expected_episodes));
    AddResult(it.digest, "clean", clean);
    AddResult(it.digest, "attack", attacked.aggregate);
    return it;
  }
};

/// The attack server draining a preloaded queue of jobs that cycle
/// through every registered method: campaign, per-job factory and
/// checkpoint work dominate, setup is a small share.
class ServeSmall final : public Workload {
 public:
  using Workload::Workload;

  bool Serves() const override { return true; }
  bool EvaluatesClean() const override { return false; }

  Iteration RunIteration(SpanRecorder& recorder) override {
    Iteration it;
    const std::string checkpoint_root = Scratch("serve");
    ResetDirectory(checkpoint_root);
    std::vector<ca::serve::PromotionJob> jobs;
    std::map<std::string, bool> learns;
    std::vector<ca::serve::JobReport> reports;
    std::vector<int> job_spans;
    int setup = -1;
    {
      ScopedSpan root(recorder, "workload.serve-small", "bench");
      it.root = root.index();
      std::unique_ptr<ca::serve::AttackServer> server;
      ca::serve::JobQueue queue;
      {
        ScopedSpan setup_span(recorder, "setup", "bench");
        setup = setup_span.index();
        world_ = LoadAndTrain(recorder, WorldPrefix());
        {
          ScopedSpan span(recorder, "serve.ParseJobsCsv", "serve");
          std::ifstream in(fs::path(options_.input_dir) / kJobsFile);
          std::string error;
          if (!in || !ca::serve::ParseJobsCsv(in, &jobs, &error)) {
            throw std::runtime_error("cannot parse the job queue: " + error);
          }
        }
        // Every method of the queue is resolved before serving, so an
        // unknown one fails the run before the first job.
        for (const ca::serve::PromotionJob& job : jobs) {
          if (learns.count(job.method) != 0) continue;
          const ca::serve::StrategySpec spec =
              MakeFactory(recorder, *world_, job.method);
          if (!spec.factory) throw std::runtime_error(spec.error);
          learns[job.method] = spec.learns;
        }
        ca::serve::ServerConfig config;
        config.runner.jobs = kServeWorkers;
        config.checkpoint_root = checkpoint_root;
        config.checkpoint_every = 1;
        server = std::make_unique<ca::serve::AttackServer>(
            world_->dataset, world_->split->train, world_->ModelFactory(),
            *world_->artifacts, config);
        for (const ca::serve::PromotionJob& job : jobs) queue.Push(job);
        queue.Close();
      }
      ScopedSpan drain(recorder, "serve.drain", "bench");
      ca::serve::PromotionJob job;
      while (queue.Pop(&job)) {
        ScopedSpan span(recorder, "serve.AttackServer::RunJob", "serve");
        job_spans.push_back(span.index());
        reports.push_back(server->RunJob(job));
      }
    }
    FinishIteration(recorder, *world_, it);
    it.setup_s = recorder.spans()[setup].seconds();
    it.rows = world_->dataset.source.num_interactions() +
              world_->dataset.target.num_interactions();
    std::size_t ok_jobs = 0;
    std::size_t wanted_targets = 0;
    double hr20_sum = 0.0;
    for (std::size_t j = 0; j < reports.size(); ++j) {
      const ca::serve::JobReport& report = reports[j];
      const double latency = recorder.spans()[job_spans[j]].seconds();
      it.job_s.push_back(latency);
      it.job_s_by_method[report.job.method].push_back(latency);
      wanted_targets += report.job.num_targets;
      if (!report.ok) {
        it.checks.failures.push_back("job " + report.job.id + ": " +
                                     report.error);
        continue;
      }
      ++ok_jobs;
      const ca::core::CampaignResult& aggregate = report.result.aggregate;
      it.targets += aggregate.num_target_items;
      hr20_sum += Hr20(aggregate) *
                  static_cast<double>(aggregate.num_target_items);
      const std::size_t played = EpisodesPlayed(report.result);
      const std::size_t expected =
          report.job.num_targets *
          (learns.at(report.job.method) ? report.job.episodes : 1);
      it.episodes += played;
      it.expected_episodes += expected;
      it.checks.Expect(played == expected,
                       "job " + report.job.id + " episodes " +
                           std::to_string(played) + " != " +
                           std::to_string(expected));
      AddResult(it.digest, "job_" + report.job.id, aggregate);
    }
    it.campaign_s = 0.0;
    for (const double latency : it.job_s) it.campaign_s += latency;
    it.hr20 = it.targets == 0 ? 0.0
                              : hr20_sum / static_cast<double>(it.targets);
    it.checks.Count(jobs.size(), ok_jobs, "serve-small jobs");
    it.checks.Count(wanted_targets, it.targets, "serve-small target items");
    it.checks.Expect(jobs.size() >= kServeJobs && reports.size() == jobs.size(),
                     "serve-small drained " + std::to_string(reports.size()) +
                         " of " + std::to_string(jobs.size()) + " jobs");
    it.checkpoint_bytes = DirectoryBytes(checkpoint_root);
    std::error_code ec;
    fs::remove_all(checkpoint_root, ec);
    return it;
  }
};

/// An attack run under the light fault schedule that is cut at half its
/// episodes, then started again over the same files and resumed from its
/// checkpoints to completion.
class RestartSmall final : public Workload {
 public:
  using Workload::Workload;

  Iteration RunIteration(SpanRecorder& recorder) override {
    Iteration it;
    const std::string checkpoint_dir = Scratch("restart");
    ResetDirectory(checkpoint_dir);
    ca::core::CampaignConfig campaign;
    ca::core::ParallelCampaignResult runs[2];
    ca::core::CampaignResult clean;
    ca::serve::StrategySpec spec;
    std::vector<ca::data::ItemId> targets;
    std::size_t clean_targets = 0;
    int setups[2] = {-1, -1};
    int run_spans[2] = {-1, -1};
    {
      ScopedSpan root(recorder, "workload.restart-small", "bench");
      it.root = root.index();
      for (int invocation = 0; invocation < 2; ++invocation) {
        ScopedSpan span(recorder,
                        "invocation." + std::to_string(invocation + 1),
                        "bench");
        {
          ScopedSpan setup(recorder, "setup", "bench");
          setups[invocation] = setup.index();
          world_ = LoadAndTrain(recorder, WorldPrefix());
          targets = SampleTargets(recorder, *world_, kRestartTargets,
                                  options_.seed);
          spec = MakeFactory(recorder, *world_, "CopyAttack");
        }
        campaign = Campaign(spec.learns);
        clean = CleanEval(recorder, *world_, targets, campaign);
        clean_targets += clean.num_target_items;
        ca::core::ParallelRunnerOptions runner;
        runner.jobs = 1;
        runner.checkpoint.dir = checkpoint_dir;
        runner.checkpoint.every_episodes = 1;
        if (invocation == 0) {
          runner.checkpoint.abort_after_episodes =
              targets.size() * campaign.episodes / 2;
        } else {
          runner.checkpoint.resume = true;
        }
        run_spans[invocation] = static_cast<int>(recorder.spans().size());
        runs[invocation] = RunCampaign(recorder, *world_, spec.factory,
                                       runner, targets, campaign);
        if (invocation == 0) world_.reset();  // the first process exits
      }
    }
    FinishIteration(recorder, *world_, it);
    const auto& spans = recorder.spans();
    it.setup_s = spans[setups[0]].seconds() + spans[setups[1]].seconds();
    it.campaign_s =
        spans[run_spans[0]].seconds() + spans[run_spans[1]].seconds();
    it.job_s.push_back(it.campaign_s);
    const ca::core::CampaignResult& final_result = runs[1].aggregate;
    it.targets = final_result.num_target_items;
    it.hr20 = Hr20(final_result);
    it.rows = 2 * (world_->dataset.source.num_interactions() +
                   world_->dataset.target.num_interactions());
    it.episodes = EpisodesPlayed(runs[0]) + EpisodesPlayed(runs[1]);
    // A target's last episode is checkpointed only when the target
    // commits, so a cut right after it is replayed on resume.
    const std::size_t cut = targets.size() * campaign.episodes / 2;
    it.expected_episodes = kRestartTargets * campaign.episodes +
                           (cut % campaign.episodes == 0 ? 1 : 0);
    it.clean_targets = clean_targets;
    it.checkpoint_bytes = DirectoryBytes(checkpoint_dir);

    it.checks.Count(kRestartTargets, it.targets, "restart-small target items");
    it.checks.Count(1, final_result.aborted ? 0 : 1, "restart-small campaign");
    it.checks.Expect(runs[0].aggregate.aborted,
                     "restart-small: the first invocation was not cut");
    it.checks.Expect(runs[1].aggregate.resumed_from !=
                         ca::core::CheckpointSource::kNone,
                     "restart-small: the second invocation did not resume");
    it.checks.Expect(it.episodes == it.expected_episodes,
                     "restart-small episodes " + std::to_string(it.episodes) +
                         " != " + std::to_string(it.expected_episodes));

    // The resumed aggregate must equal an uninterrupted run of the same
    // configuration, bit for bit. The reference is computed outside the
    // timed region, once per checkout and seed.
    Digest resumed;
    AddResult(resumed, "final", final_result);
    const fs::path reference_file =
        fs::path(options_.state_dir) / "digests" /
        ("restart-small-seed" + std::to_string(options_.seed) + ".reference");
    std::string reference;
    std::ifstream(reference_file) >> reference;
    if (reference.empty()) {
      SpanRecorder untimed;
      ca::core::ParallelRunnerOptions plain;
      plain.jobs = 1;
      Digest uninterrupted;
      AddResult(uninterrupted, "final",
                RunCampaign(untimed, *world_, spec.factory, plain, targets,
                            campaign)
                    .aggregate);
      reference = uninterrupted.Hex();
      std::error_code ec;
      fs::create_directories(reference_file.parent_path(), ec);
      std::ofstream(reference_file, std::ios::trunc) << reference << '\n';
    }
    it.checks.Expect(resumed.Hex() == reference,
                     "restart-small: resumed aggregate " + resumed.Hex() +
                         " differs from the uninterrupted run's " + reference);
    AddResult(it.digest, "clean", clean);
    AddResult(it.digest, "final", final_result);
    std::error_code ec;
    fs::remove_all(checkpoint_dir, ec);
    return it;
  }

 private:
  ca::core::CampaignConfig Campaign(bool learns) const {
    ca::core::CampaignConfig campaign;
    campaign.env.budget = kBudget;
    campaign.episodes = learns ? kRestartEpisodes : 1;
    campaign.seed = options_.seed;
    const std::uint64_t fault_seed =
        ca::util::DeriveStreamSeed(options_.seed, 1);
    campaign.env.fault = ca::fault::FaultScheduleConfig::Light(fault_seed);
    // As `copyattack attack --faults light`: a faulty oracle is always
    // paired with the resilient client.
    campaign.env.resilience.enabled = true;
    campaign.env.resilience.seed = fault_seed ^ 0x5EEDULL;
    return campaign;
  }
};

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "attack-large") {
    return std::make_unique<AttackLarge>(options);
  }
  if (options.workload == "serve-small") {
    return std::make_unique<ServeSmall>(options);
  }
  if (options.workload == "restart-small") {
    return std::make_unique<RestartSmall>(options);
  }
  throw std::runtime_error("unknown workload " + options.workload);
}

/// Runs `call` under a span and returns the span's seconds.
template <typename Call>
double Timed(SpanRecorder& recorder, const std::string& name,
             const std::string& layer, Call&& call) {
  int index = -1;
  {
    ScopedSpan span(recorder, name, layer);
    index = span.index();
    call();
  }
  return recorder.spans()[index].seconds();
}

/// Per-layer numbers that need calls of their own, made on the
/// pass's world after the timed workload (so they never count in its
/// wall time): the functions a workload does not call itself, and the
/// pieces of `PrepareSourceArtifacts` it cannot time from outside.
struct Probes {
  double has_interaction_ns = 0.0;
  std::uint64_t has_interaction_hits = 0;
  double heldout_eval_s = 0.0;
  double mf_fit_s = 0.0;
  double tree_build_s = 0.0;
  double clean_eval_s = 0.0;  ///< only for workloads without a clean eval
  std::map<std::string, double> factory_s;
  std::map<std::string, double> job_s;  ///< only for non-serving workloads
};

Probes RunProbes(const Workload& workload, const RunOptions& options,
                 SpanRecorder& recorder, Checks& checks) {
  Probes probes;
  const World& world = workload.world();
  ScopedSpan root(recorder, "probes", "bench");

  {
    // A fixed batch of (user, item) pairs over both domains.
    ca::util::Rng rng(0x4A5D1CEULL);
    std::vector<std::pair<const ca::data::Dataset*,
                          std::pair<ca::data::UserId, ca::data::ItemId>>>
        pairs;
    pairs.reserve(2 * kHasInteractionProbes);
    for (const ca::data::Dataset* domain :
         {&world.dataset.source, &world.dataset.target}) {
      for (std::size_t i = 0; i < kHasInteractionProbes; ++i) {
        const auto user = static_cast<ca::data::UserId>(
            rng.UniformUint64(domain->num_users()));
        const auto item = static_cast<ca::data::ItemId>(
            rng.UniformUint64(domain->num_items()));
        pairs.push_back({domain, {user, item}});
      }
    }
    std::vector<double> ns_per_call;
    for (int pass = 0; pass < 5; ++pass) {
      ScopedSpan span(recorder, "data.Dataset::HasInteraction", "data");
      std::uint64_t hits = 0;
      const std::int64_t start = NowNs();
      for (const auto& [domain, pair] : pairs) {
        hits += domain->HasInteraction(pair.first, pair.second) ? 1 : 0;
      }
      ns_per_call.push_back(static_cast<double>(NowNs() - start) /
                            static_cast<double>(pairs.size()));
      checks.Expect(pass == 0 || hits == probes.has_interaction_hits,
                    "HasInteraction answered a fixed batch differently");
      probes.has_interaction_hits = hits;
    }
    probes.has_interaction_ns = Median(ns_per_call);
  }
  probes.heldout_eval_s = Timed(recorder, "rec.EvaluateHeldOut", "rec", [&] {
    const ca::rec::TrainOptions train;
    ca::util::Rng rng(train.eval_seed);
    ca::rec::EvaluateHeldOut(world.model, world.dataset.target,
                             world.split->valid, {train.eval_k},
                             train.num_negatives, rng);
  });
  {
    // The two halves of PrepareSourceArtifacts, with its options.
    const ca::core::SourceArtifactOptions options_used = [] {
      ca::core::SourceArtifactOptions o;
      o.tree_depth = kTreeDepth;
      return o;
    }();
    ca::rec::MfConfig mf_config;
    mf_config.embedding_dim = options_used.embedding_dim;
    ca::rec::MatrixFactorization mf(mf_config);
    probes.mf_fit_s =
        Timed(recorder, "rec.MatrixFactorization::Fit", "rec", [&] {
          ca::util::Rng rng(options_used.seed);
          mf.Fit(world.dataset.source, options_used.mf_epochs, rng);
        });
    probes.tree_build_s = Timed(
        recorder, "cluster.HierarchicalTree::BuildWithDepth", "cluster", [&] {
          ca::util::Rng rng(options_used.seed ^ 0x1234567ULL);
          ca::cluster::HierarchicalTree::BuildWithDepth(
              mf.user_embeddings(), options_used.tree_depth, rng);
        });
  }
  for (const std::string& method : ca::serve::RegisteredMethods()) {
    const int index = static_cast<int>(recorder.spans().size());
    const ca::serve::StrategySpec spec = MakeFactory(recorder, world, method);
    probes.factory_s[method] = recorder.spans()[index].seconds();
    checks.Expect(spec.factory != nullptr, "no factory for " + method);
  }
  if (!workload.EvaluatesClean()) {
    const std::vector<ca::data::ItemId> targets =
        SampleTargets(recorder, world, kServeTargets, options.seed);
    const int index = static_cast<int>(recorder.spans().size());
    CleanEval(recorder, world, targets, ca::core::CampaignConfig{});
    probes.clean_eval_s = recorder.spans()[index].seconds();
  }
  if (!workload.Serves()) {
    ca::serve::ServerConfig config;
    config.runner.jobs = 1;
    ca::serve::AttackServer server(world.dataset, world.split->train,
                                   world.ModelFactory(), *world.artifacts,
                                   config);
    for (const std::string& method : ca::serve::RegisteredMethods()) {
      ca::serve::PromotionJob job;
      job.id = "probe";
      job.method = method;
      job.num_targets = 1;
      job.budget = kBudget;
      job.episodes = 1;
      job.seed = options.seed;
      ca::serve::JobReport report;
      probes.job_s[method] =
          Timed(recorder, "serve.AttackServer::RunJob", "serve",
                [&] { report = server.RunJob(job); });
      checks.Expect(report.ok, "probe job " + method + ": " + report.error);
    }
  }
  return probes;
}

std::uint64_t CounterValue(const ca::obs::MetricsSnapshot& snapshot,
                           const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

/// Mean of a latency histogram: its exact sum over its count. The
/// histograms' 1-2-5 buckets are too coarse for an interpolated median to
/// move with anything but a bucket-sized change.
double HistogramMean(const ca::obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == name) return histogram.Mean();
  }
  return 0.0;
}

/// Mean latency of one oracle call: a batched query round under
/// `rec::BatchedBlackBox`, or a single Top-k query where faults make the
/// batching wrapper forward query by query.
double QueryMeanUs(const ca::obs::MetricsSnapshot& snapshot) {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "blackbox.query_batch_us" ||
        histogram.name == "blackbox.query_topk_us") {
      sum += histogram.sum;
      count += histogram.count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

void WriteSpans(const fs::path& path, const std::vector<Span>& spans,
                int traced_root) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"workload_root\": " << traced_root << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "  {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"layer\": \"" << s.layer
        << "\", \"start_ns\": " << (s.start_ns - origin)
        << ", \"end_ns\": " << (s.end_ns - origin) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
}

std::string FormatSeconds(double seconds) {
  std::ostringstream out;
  out.precision(4);
  out << std::fixed << seconds << " s";
  return out.str();
}

}  // namespace

bool Generate(const std::string& workload, std::uint64_t seed,
              const std::string& dir, std::string* error) {
  ca::data::SyntheticConfig config;
  if (workload == "attack-large") {
    config = ca::data::SyntheticConfig::LargeCross();
  } else if (workload == "serve-small" || workload == "restart-small") {
    config = ca::data::SyntheticConfig::SmallCross();
  } else {
    *error = "unknown workload '" + workload + "'";
    return false;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  // The world is the preset's own (its generator seed is fixed): the world
  // decides how long early stopping trains, and so most of setup time. The
  // benchmark seed picks what each campaign attacks.
  const ca::data::SyntheticWorld world =
      ca::data::GenerateSyntheticWorld(config);
  const std::string prefix = (fs::path(dir) / kWorldPrefix).string();
  if (!ca::data::SaveCrossDomain(world.dataset, prefix)) {
    *error = "cannot write " + prefix + ".*.csv";
    return false;
  }
  if (workload == "serve-small") {
    const std::vector<std::string>& methods = ca::serve::RegisteredMethods();
    std::vector<ca::serve::PromotionJob> jobs;
    for (std::size_t i = 0; i < kServeJobs; ++i) {
      ca::serve::PromotionJob job;
      job.id = "job" + std::to_string(100 + i);
      job.method = methods[i % methods.size()];
      job.num_targets = kServeTargets;
      job.budget = kBudget;
      job.episodes = kServeEpisodes;
      job.seed = ca::util::DeriveStreamSeed(seed, i);
      jobs.push_back(job);
    }
    std::ofstream out(fs::path(dir) / kJobsFile, std::ios::trunc);
    ca::serve::WriteJobsCsv(jobs, out);
    if (!out) {
      *error = "cannot write the job queue";
      return false;
    }
  }
  return true;
}

RunResult Run(const RunOptions& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  SpanRecorder recorder;
  if (options.trace) {
    ca::obs::MetricsRegistry::Global().ResetAll();
    ca::obs::TraceRecorder::Global().Clear();
    ca::obs::SetEnabled(true);
  }
  Iteration it = workload->RunIteration(recorder);
  ca::obs::SetEnabled(false);

  RunResult result;
  result.wall_s = it.wall_s;
  result.setup_s = it.setup_s;
  result.campaign_s = it.campaign_s;
  result.targets = it.targets;
  result.job_s = it.job_s;
  result.target_hr10 = it.target_hr10;
  result.hr20 = it.hr20;
  result.digest = it.digest.Hex();
  Checks& checks = it.checks;
  if (!options.trace) {
    result.attempted = checks.attempted;
    result.failed = checks.failed;
    result.failures = checks.failures;
    return result;
  }

  // Traced: program counters and histograms come from the registry
  // snapshot, never from the trace ring, which wraps.
  const ca::obs::MetricsSnapshot snapshot =
      ca::obs::MetricsRegistry::Global().Snapshot();
  const std::uint64_t ring_overwritten =
      ca::obs::TraceRecorder::Global().overwritten();
  const std::vector<Span>& spans = recorder.spans();
  const double coverage = Coverage(spans, it.root);
  checks.Expect(coverage >= kMinSpanCoverage,
                "spans cover " + std::to_string(coverage) +
                    " of the traced wall time (< 0.95)");
  for (const Gap& gap : UncoveredGaps(spans, it.root)) {
    if (gap.seconds < 1e-4) break;
    result.notes.push_back("uncovered: " + FormatSeconds(gap.seconds) +
                           " between " + gap.after + " and " + gap.before);
  }
  const std::map<std::string, LayerTime> layers = TimeByLayer(spans, it.root);
  for (const auto& [layer, time] : layers) {
    result.notes.push_back("layer " + layer + ": total " +
                           FormatSeconds(time.total_s) + ", self " +
                           FormatSeconds(time.self_s) + " over " +
                           std::to_string(time.spans) + " spans");
  }
  const auto self_s = [&layers](const std::string& layer) {
    const auto found = layers.find(layer);
    return found == layers.end() ? 0.0 : found->second.self_s;
  };
  const auto counter = [&snapshot](const std::string& name) {
    return static_cast<double>(CounterValue(snapshot, name));
  };

  const std::size_t resets = it.expected_episodes + it.clean_targets;
  checks.Expect(counter("env.episodes") == static_cast<double>(resets),
                "env.episodes " + std::to_string(counter("env.episodes")) +
                    " != configured episodes + clean targets " +
                    std::to_string(resets));
  // An episode ends at its budget or, at a query round, on success; with
  // a budget that is a multiple of the query interval every episode's
  // steps are whole query rounds.
  const double steps = counter("env.steps");
  const std::size_t interval = ca::core::EnvConfig{}.query_interval;
  checks.Expect(steps >= static_cast<double>(it.expected_episodes) &&
                    steps <= static_cast<double>(it.expected_episodes *
                                                 kBudget),
                "env.steps " + std::to_string(steps) +
                    " outside [episodes, episodes x budget]");
  checks.Expect(kBudget % interval != 0 ||
                    counter("env.query_rounds") * interval == steps,
                "env.query_rounds " +
                    std::to_string(counter("env.query_rounds")) +
                    " x query interval != env.steps " +
                    std::to_string(steps));

  const Probes probes = RunProbes(*workload, options, recorder, checks);

  // Counts that must repeat exactly across runs of this workload and seed.
  Digest counts;
  for (const char* name :
       {"env.episodes", "env.steps", "env.query_rounds", "blackbox.queries",
        "campaign.checkpoint_saves", "fault.retries", "rec.train_epochs",
        "attack.surrogate_epochs", "server.jobs"}) {
    counts.Add(name, CounterValue(snapshot, name));
  }
  counts.Add("has_interaction_hits", probes.has_interaction_hits);
  result.counts_digest = counts.Hex();

  const double all_resets =
      counter("env.reset_fast") + counter("env.reset_full");
  const double queries = counter("blackbox.queries");
  double factory_total = 0.0;
  for (const auto& [method, seconds] : probes.factory_s) {
    factory_total += seconds;
  }
  double fault_injected = 0.0;
  for (const char* name :
       {"fault.inject_dropped", "fault.inject_transient",
        "fault.query_rate_limited", "fault.query_stale", "fault.query_timeout",
        "fault.query_transient", "fault.query_truncated"}) {
    fault_injected += counter(name);
  }
  const auto add = [&result](const std::string& name, double value,
                             const std::string& unit) {
    result.metrics.push_back({name, value, unit});
  };
  add("data.load_s", SpanSeconds(spans, it.root, "data.LoadCrossDomain"), "s");
  add("data.rows", static_cast<double>(it.rows), "count");
  add("data.has_interaction_ns", probes.has_interaction_ns, "ns");
  add("data.self_s", self_s("data"), "s");
  add("rec.train_s", SpanSeconds(spans, it.root, "rec.TrainWithEarlyStopping"),
      "s");
  add("rec.train_epochs", counter("rec.train_epochs"), "count");
  add("rec.heldout_eval_s", probes.heldout_eval_s, "s");
  add("rec.epoch_us_mean", HistogramMean(snapshot, "rec.train_epoch_us"), "us");
  add("rec.query_us_mean", QueryMeanUs(snapshot), "us");
  add("rec.queries", queries, "count");
  add("rec.self_s", self_s("rec"), "s");
  add("source.artifacts_s",
      SpanSeconds(spans, it.root, "core.PrepareSourceArtifacts"), "s");
  add("source.mf_fit_s", probes.mf_fit_s, "s");
  add("cluster.tree_build_s", probes.tree_build_s, "s");
  add("core.clean_eval_s",
      workload->EvaluatesClean()
          ? SpanSeconds(spans, it.root, "core.EvaluateWithoutAttack")
          : probes.clean_eval_s,
      "s");
  add("core.campaign_s", it.campaign_s, "s");
  add("core.episodes", counter("env.episodes"), "count");
  add("core.env_steps", counter("env.steps"), "count");
  add("core.query_rounds", counter("env.query_rounds"), "count");
  add("core.inject_us_mean", HistogramMean(snapshot, "env.inject_us"), "us");
  add("core.query_round_us_mean",
      HistogramMean(snapshot, "env.query_round_us"), "us");
  add("core.reset_fast_frac",
      all_resets == 0.0 ? 0.0 : counter("env.reset_fast") / all_resets, "frac");
  add("core.checkpoint_saves", counter("campaign.checkpoint_saves"), "count");
  add("core.checkpoint_bytes", static_cast<double>(it.checkpoint_bytes),
      "bytes");
  add("core.self_s", self_s("core"), "s");
  add("attack.factory_s", factory_total, "s");
  for (const auto& [method, seconds] : probes.factory_s) {
    add("attack.factory_s." + method, seconds, "s");
  }
  add("attack.surrogate_epochs", counter("attack.surrogate_epochs"), "count");
  add("attack.self_s", self_s("attack"), "s");
  add("serve.jobs", counter("server.jobs"), "count");
  add("serve.jobs_failed", counter("server.job_failures"), "count");
  for (const std::string& method : ca::serve::RegisteredMethods()) {
    const auto found = it.job_s_by_method.find(method);
    add("serve.job_s." + method,
        found != it.job_s_by_method.end() ? Median(found->second)
                                          : probes.job_s.at(method),
        "s");
  }
  add("fault.injected", fault_injected, "count");
  add("fault.retries", counter("fault.retries"), "count");
  add("fault.retries_per_query",
      queries == 0.0 ? 0.0 : counter("fault.retries") / queries, "frac");
  add("obs.ring_overwritten", static_cast<double>(ring_overwritten), "count");
  add("obs.span_coverage", coverage, "frac");
  add("obs.uncovered_s", self_s("bench"), "s");
  add("hr20", it.hr20, "frac");

  const fs::path spans_file =
      fs::path(options.state_dir) / "spans" /
      (options.workload + "-seed" + std::to_string(options.seed) + ".json");
  WriteSpans(spans_file, spans, it.root);
  result.notes.push_back("spans written to " + spans_file.string());

  result.attempted = checks.attempted;
  result.failed = checks.failed;
  result.failures = checks.failures;
  return result;
}

}  // namespace repobench
