// The per-round sink (Registry::SetRoundSink) and the run-directory files it
// streams: rounds.csv and tiers.csv are the run's progress record, so they
// must be current at every round barrier, byte-identical to the end-of-run
// rewrite, and complete up to the last finished round when a run dies.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "support/temp_dir.h"

namespace mhbench::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

std::vector<std::vector<std::string>> ParseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    while (std::getline(fields, cell, ',')) cells.push_back(cell);
    rows.push_back(cells);
  }
  return rows;
}

TEST(RoundSinkTest, StreamsPublishedRows) {
  Registry reg;
  std::vector<Registry::RoundRow> seen;
  std::vector<std::size_t> rounds_visible_in_sink;
  reg.SetRoundSink([&](const Registry::RoundRow& row) {
    seen.push_back(row);
    // The sink runs outside the registry lock, so it may call back into
    // serial-phase accessors — exactly what the rounds.csv streamer does.
    rounds_visible_in_sink.push_back(reg.rounds().size());
  });

  reg.AddNamed("bytes_up", 10);
  reg.EndRound("fedavg", 0);
  reg.AddNamed("bytes_up", 5);
  reg.EndRound("fedavg", 1);
  reg.SetRoundSink(nullptr);
  reg.EndRound("fedavg", 2);  // uninstalled: not streamed

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].round, 0);
  EXPECT_EQ(seen[0].counters.at("bytes_up"), 10);
  EXPECT_EQ(seen[1].round, 1);
  EXPECT_EQ(seen[1].counters.at("bytes_up"), 5);
  EXPECT_EQ(rounds_visible_in_sink, (std::vector<std::size_t>{1u, 2u}));
}

TEST(RoundSinkTest, StreamedRoundsCsvMatchesFinalRewrite) {
  const testsupport::TempDir dir = testsupport::MakeTempDir();
  Registry reg;
  reg.SetRoundSink([&](const Registry::RoundRow&) {
    WriteRoundsCsv(dir.path, reg);
  });
  reg.AddNamed("bytes_up", 10);
  reg.SetGauge("global_acc", 0.5);
  reg.EndRound("fedavg", 0);
  reg.AddNamed("bytes_up", 7);
  reg.EndRound("fedavg", 1);
  reg.SetRoundSink(nullptr);

  const std::string streamed = ReadFile(dir.File("rounds.csv"));
  ASSERT_FALSE(streamed.empty());

  // The end-of-run rewrite must be byte-identical to the last streamed
  // state: streaming only changes when the file appears, not what it says.
  const testsupport::TempDir dir2 = testsupport::MakeTempDir();
  WriteRoundsCsv(dir2.path, reg);
  EXPECT_EQ(streamed, ReadFile(dir2.File("rounds.csv")));
}

// Forwards every call to a real algorithm, except that RunClient throws in
// round `fail_round` — a crash in the middle of client training.
class FailingAlgorithm : public fl::MhflAlgorithm {
 public:
  FailingAlgorithm(std::unique_ptr<fl::MhflAlgorithm> inner, int fail_round)
      : inner_(std::move(inner)), fail_round_(fail_round) {}

  std::string name() const override { return inner_->name(); }
  void Setup(const fl::FlContext& ctx, Rng& rng) override {
    inner_->Setup(ctx, rng);
  }
  void BeginRound(int round, const std::vector<int>& participants) override {
    inner_->BeginRound(round, participants);
  }
  void RunClient(int client_id, int round, Rng& rng) override {
    if (round == fail_round_) throw std::runtime_error("client crashed");
    inner_->RunClient(client_id, round, rng);
  }
  void FinishRound(int round, Rng& rng) override {
    inner_->FinishRound(round, rng);
  }
  void PrepareEvaluation() override { inner_->PrepareEvaluation(); }
  Tensor GlobalLogits(const Tensor& x) override {
    return inner_->GlobalLogits(x);
  }
  Tensor ClientLogits(int client_id, const Tensor& x) override {
    return inner_->ClientLogits(client_id, x);
  }

 private:
  std::unique_ptr<fl::MhflAlgorithm> inner_;
  int fail_round_;
};

// The guarantee the run directory gives a watcher and a post-mortem: a run
// that dies in round k leaves rounds.csv with exactly rounds 0..k-1 and a
// tiers.csv that still parses, both written by the CLI's sink pattern.
TEST(RoundSinkTest, RunDyingInRoundKLeavesExactlyRoundsBeforeIt) {
  constexpr int kFailRound = 3;
  data::TaskConfig tcfg;
  tcfg.train_samples = 120;
  tcfg.test_samples = 60;
  tcfg.num_clients = 4;
  const data::Task task = data::MakeTask("harbox", tcfg);
  const auto tm = models::MakeTaskModels("harbox");
  FailingAlgorithm alg(algorithms::MakeAlgorithm("fedavg", tm), kFailRound);

  std::vector<fl::ClientAssignment> assign =
      fl::UniformCapacityAssignments(tcfg.num_clients, {0.5, 1.0});
  for (std::size_t i = 0; i < assign.size(); ++i) {
    assign[i].system.device_tier = i % 2 == 0 ? "cpu" : "mem4g";
  }

  for (const int threads : {1, 2}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    const testsupport::TempDir dir = testsupport::MakeTempDir();
    Registry reg;
    reg.SetRoundSink([&](const Registry::RoundRow&) {
      WriteRoundsCsv(dir.path, reg);
      WriteTiersCsv(dir.path, reg);
    });

    fl::FlConfig cfg;
    cfg.rounds = 6;
    cfg.eval_every = 2;
    cfg.eval_max_samples = 32;
    cfg.stability_max_samples = 16;
    cfg.num_threads = threads;
    cfg.obs.registry = &reg;
    fl::FlEngine engine(task, cfg, assign, alg);
    EXPECT_THROW(engine.Run(), std::runtime_error);

    const auto rounds = ParseCsv(ReadFile(dir.File("rounds.csv")));
    ASSERT_EQ(rounds.size(), 1u + kFailRound) << "header + one row a round";
    ASSERT_GE(rounds[0].size(), 2u);
    EXPECT_EQ(rounds[0][0], "run");
    EXPECT_EQ(rounds[0][1], "round");
    for (int r = 0; r < kFailRound; ++r) {
      const auto& row = rounds[static_cast<std::size_t>(r) + 1];
      ASSERT_EQ(row.size(), rounds[0].size()) << "round " << r;
      EXPECT_EQ(row[1], std::to_string(r));
    }

    const auto tiers = ParseCsv(ReadFile(dir.File("tiers.csv")));
    ASSERT_GE(tiers.size(), 2u);
    ASSERT_GE(tiers[0].size(), 3u);
    EXPECT_EQ(tiers[0][2], "tier");
    int last_round = -1;
    for (std::size_t i = 1; i < tiers.size(); ++i) {
      ASSERT_EQ(tiers[i].size(), tiers[0].size()) << "tiers.csv row " << i;
      const int round = std::stoi(tiers[i][1]);
      EXPECT_GE(round, last_round) << "rounds out of order";
      EXPECT_LT(round, kFailRound);
      last_round = round;
    }
    EXPECT_EQ(last_round, kFailRound - 1);
  }
}

}  // namespace
}  // namespace mhbench::obs
