#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli.h"

namespace copyattack::tools {
namespace {

/// Runs the CLI with the given arguments and captures stdout text.
int RunTool(const std::vector<std::string>& args, std::string* output) {
  std::vector<const char*> argv = {"copyattack"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  const int code = RunCli(static_cast<int>(argv.size()), argv.data(), out);
  *output = out.str();
  return code;
}

std::string TempPrefix(const char* name) {
  return testing::TempDir() + "/" + name;
}

void RemoveWorld(const std::string& prefix) {
  for (const char* suffix : {".meta.csv", ".target.csv", ".source.csv"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(CliTest, HelpListsCommandsAndFlags) {
  std::string output;
  EXPECT_EQ(RunTool({"help"}, &output), 0);
  EXPECT_NE(output.find("generate"), std::string::npos);
  EXPECT_NE(output.find("--budget"), std::string::npos);
}

TEST(CliTest, NoCommandPrintsHelp) {
  std::string output;
  EXPECT_EQ(RunTool({}, &output), 0);
  EXPECT_NE(output.find("usage"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string output;
  EXPECT_NE(RunTool({"frobnicate"}, &output), 0);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownFlagFails) {
  std::string output;
  EXPECT_NE(RunTool({"stats", "--bogus=1"}, &output), 0);
  EXPECT_NE(output.find("unknown flag"), std::string::npos);
}

TEST(CliTest, GenerateStatsRoundTrip) {
  const std::string prefix = TempPrefix("cli_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  EXPECT_NE(output.find("written:"), std::string::npos);

  ASSERT_EQ(RunTool({"stats", "--data", prefix}, &output), 0);
  EXPECT_NE(output.find("# of Users"), std::string::npos);
  EXPECT_NE(output.find("Tiny"), std::string::npos);
  RemoveWorld(prefix);
}

TEST(CliTest, GenerateRejectsBadConfig) {
  std::string output;
  EXPECT_NE(RunTool({"generate", "--config=huge", "--out=/tmp/x"}, &output), 0);
  EXPECT_NE(output.find("unknown --config"), std::string::npos);
}

TEST(CliTest, StatsFailsOnMissingData) {
  std::string output;
  EXPECT_NE(RunTool({"stats", "--data=/nonexistent/prefix"}, &output), 0);
  EXPECT_NE(output.find("could not load"), std::string::npos);
}

TEST(CliTest, TrainReportsQuality) {
  const std::string prefix = TempPrefix("cli_train_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  ASSERT_EQ(RunTool({"train", "--data", prefix, "--max-epochs=5",
                 "--patience=2"},
                &output),
            0);
  EXPECT_NE(output.find("test  HR@10"), std::string::npos);
  RemoveWorld(prefix);
}

/// The text after `label` on its line of `output` (empty if absent).
std::string ValueAfter(const std::string& output, const std::string& label) {
  const std::size_t at = output.find(label);
  if (at == std::string::npos) return "";
  const std::size_t begin = output.find_first_not_of(' ', at + label.size());
  return output.substr(begin, output.find('\n', begin) - begin);
}

TEST(CliTest, TrainAndAttackTrainTheSameTargetModel) {
  const std::string prefix = TempPrefix("cli_same_model_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output),
            0);
  ASSERT_EQ(RunTool({"train", "--data", prefix, "--max-epochs=3"}, &output),
            0);
  const std::string trained = ValueAfter(output, "test  HR@10:");
  ASSERT_EQ(RunTool({"attack", "--data", prefix, "--max-epochs=3",
                     "--method=RandomAttack", "--targets=1", "--budget=3"},
                    &output),
            0);
  const std::string attacked =
      ValueAfter(output, "target model test HR@10:");
  ASSERT_FALSE(trained.empty());
  EXPECT_EQ(trained, attacked);
  RemoveWorld(prefix);
}

TEST(CliTest, AttackRunsEndToEnd) {
  const std::string prefix = TempPrefix("cli_attack_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  ASSERT_EQ(RunTool({"attack", "--data", prefix, "--method=TargetAttack40",
                 "--targets=2", "--budget=6"},
                &output),
            0);
  EXPECT_NE(output.find("WithoutAttack"), std::string::npos);
  EXPECT_NE(output.find("TargetAttack40"), std::string::npos);
  RemoveWorld(prefix);
}

TEST(CliTest, JobsFlagRejectsNonPositiveValues) {
  for (const char* bad : {"--jobs=0", "--jobs=-3", "--jobs=two"}) {
    std::string output;
    EXPECT_EQ(RunTool({"attack", bad}, &output), 2) << bad;
    EXPECT_NE(output.find("expects a positive integer"), std::string::npos)
        << output;
    EXPECT_NE(output.find("--jobs"), std::string::npos) << output;
  }
}

TEST(CliTest, AttackWithJobsRoutesThroughShardedRunner) {
  const std::string prefix = TempPrefix("cli_jobs_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  ASSERT_EQ(RunTool({"attack", "--data", prefix, "--method=TargetAttack40",
                 "--targets=2", "--budget=6", "--jobs=2"},
                &output),
            0);
  EXPECT_NE(output.find("TargetAttack40"), std::string::npos);
  EXPECT_NE(output.find("throughput:"), std::string::npos);
  EXPECT_NE(output.find("2 jobs"), std::string::npos);
  RemoveWorld(prefix);
}

/// The attacked method's table row with the trailing Wall(s) column cut.
std::string RowWithoutWall(const std::string& output,
                           const std::string& method) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(method + " ", 0) == 0) {
      return line.substr(0, line.find_last_of(' '));
    }
  }
  return "";
}

TEST(CliTest, AttackCheckpointResumeReproducesRow) {
  const std::string prefix = TempPrefix("cli_resume_world");
  const std::string ckpt = TempPrefix("cli_resume_ckpt");
  std::filesystem::remove_all(ckpt);
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  const std::vector<std::string> attack = {
      "attack",       "--data",     prefix,         "--method=CopyAttack",
      "--targets=2",  "--budget=6", "--episodes=2", "--checkpoint_dir=" + ckpt};
  ASSERT_EQ(RunTool(attack, &output), 0);
  const std::string first = RowWithoutWall(output, "CopyAttack");
  ASSERT_FALSE(first.empty()) << output;
  EXPECT_EQ(output.find("resumed from"), std::string::npos) << output;
  EXPECT_TRUE(std::filesystem::exists(ckpt + "/shard_0_of_1/campaign.ckpt"));

  std::vector<std::string> resume = attack;
  resume.push_back("--resume=1");
  ASSERT_EQ(RunTool(resume, &output), 0);
  EXPECT_EQ(RowWithoutWall(output, "CopyAttack"), first);
  EXPECT_NE(output.find("resumed from primary"), std::string::npos)
      << output;
  std::filesystem::remove_all(ckpt);
  RemoveWorld(prefix);
}

TEST(CliTest, AttackServerDrainsQueueCsvAndReportsFailures) {
  const std::string prefix = TempPrefix("cli_server_world");
  const std::string queue_path = TempPrefix("cli_server_jobs.csv");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  {
    std::ofstream queue(queue_path);
    queue << "id,method,targets,budget,episodes,seed\n"
          << "promo-a,TargetAttack40,2,5,1,9\n"
          << "promo-b,NoSuchMethod,2,5,1,9\n";
  }

  EXPECT_EQ(RunTool({"attack-server", "--data", prefix,
                 "--queue", queue_path},
                &output),
            1);
  EXPECT_NE(output.find("serving 2 promotion jobs"), std::string::npos);
  EXPECT_NE(output.find("promo-a:TargetAttack40"), std::string::npos);
  EXPECT_NE(output.find("campaigns/s"), std::string::npos);
  EXPECT_NE(output.find("unknown --method 'NoSuchMethod'"), std::string::npos);
  // The rejection must teach: it lists every registered method name.
  EXPECT_NE(output.find("registered methods:"), std::string::npos);
  EXPECT_NE(output.find("SurrogateTransfer"), std::string::npos);
  EXPECT_NE(output.find("served 1 jobs, 1 failed"), std::string::npos);
  std::remove(queue_path.c_str());
  RemoveWorld(prefix);
}

TEST(CliTest, AttackServerFailsOnMalformedQueue) {
  const std::string prefix = TempPrefix("cli_server_bad_world");
  const std::string queue_path = TempPrefix("cli_server_bad_jobs.csv");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  {
    std::ofstream queue(queue_path);
    queue << "promo-a,TargetAttack40,2,5\n";  // too few fields
  }
  EXPECT_EQ(RunTool({"attack-server", "--data", prefix,
                 "--queue", queue_path},
                &output),
            2);
  EXPECT_NE(output.find("expected 6 fields"), std::string::npos);

  EXPECT_EQ(RunTool({"attack-server", "--data", prefix,
                 "--queue=/nonexistent/queue.csv"},
                &output),
            1);
  EXPECT_NE(output.find("could not open"), std::string::npos);
  std::remove(queue_path.c_str());
  RemoveWorld(prefix);
}

TEST(CliTest, AttackRejectsUnknownMethod) {
  const std::string prefix = TempPrefix("cli_method_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  EXPECT_NE(RunTool({"attack", "--data", prefix, "--method=VoodooAttack"},
                &output),
            0);
  EXPECT_NE(output.find("unknown --method"), std::string::npos);
  RemoveWorld(prefix);
}

}  // namespace
}  // namespace copyattack::tools
