#include "fl/engine.h"

#include <cmath>

#include <gtest/gtest.h>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "models/zoo.h"

namespace mhbench::fl {
namespace {

data::Task SmallTask(const std::string& name = "cifar10") {
  data::TaskConfig cfg;
  cfg.train_samples = 240;
  cfg.test_samples = 120;
  cfg.num_clients = 6;
  return data::MakeTask(name, cfg);
}

FlConfig FastConfig(int rounds = 10) {
  FlConfig cfg;
  cfg.rounds = rounds;
  cfg.sample_fraction = 0.5;
  cfg.eval_every = rounds;  // evaluate once at the end
  cfg.eval_max_samples = 120;
  cfg.stability_max_samples = 60;
  return cfg;
}

TEST(FlEngineTest, FedAvgLearnsAboveChance) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  FlEngine engine(task, FastConfig(12), {}, *alg);
  const RunResult result = engine.Run();
  // 10 classes -> chance 0.1.
  EXPECT_GT(result.final_accuracy, 0.3);
  EXPECT_EQ(static_cast<int>(result.client_accuracies.size()), 6);
}

TEST(FlEngineTest, DeterministicAcrossRuns) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto run_once = [&]() {
    auto alg = algorithms::MakeAlgorithm("sheterofl", tm);
    std::vector<ClientAssignment> assign =
        UniformCapacityAssignments(6, {0.25, 0.5, 1.0});
    FlEngine engine(task, FastConfig(4), assign, *alg);
    return engine.Run().final_accuracy;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(FlEngineTest, SimulatedClockAdvancesByMaxClientTime) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  std::vector<ClientAssignment> assign(6);
  for (auto& a : assign) {
    a.system.compute_time_s = 10.0;
    a.system.comm_time_s = 5.0;
  }
  FlConfig cfg = FastConfig(3);
  cfg.sample_fraction = 0.5;
  FlEngine engine(task, cfg, assign, *alg);
  const RunResult result = engine.Run();
  EXPECT_DOUBLE_EQ(result.total_sim_time_s, 3 * 15.0);
}

TEST(FlEngineTest, TimeToAccuracyInfWhenNeverReached) {
  RunResult r;
  r.curve = {{0, 10.0, 0.2}, {1, 20.0, 0.5}};
  EXPECT_DOUBLE_EQ(r.TimeToAccuracy(0.4), 20.0);
  EXPECT_DOUBLE_EQ(r.TimeToAccuracy(0.1), 10.0);
  EXPECT_TRUE(std::isinf(r.TimeToAccuracy(0.9)));
}

TEST(FlEngineTest, StabilityVarianceMath) {
  RunResult r;
  r.client_accuracies = {0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(r.StabilityVariance(), 0.0);
  r.client_accuracies = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(r.StabilityVariance(), 0.25);
  EXPECT_DOUBLE_EQ(r.MeanClientAccuracy(), 0.5);
}

TEST(FlEngineTest, NaturalTaskUsesUserPartition) {
  data::TaskConfig cfg;
  cfg.train_samples = 300;
  cfg.test_samples = 100;
  cfg.num_clients = 8;
  const data::Task task = data::MakeTask("ucihar", cfg);
  EXPECT_TRUE(task.natural);
  const auto tm = models::MakeTaskModels("ucihar");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  FlEngine engine(task, FastConfig(3), {}, *alg);
  // Clients == users with data (some users may have no samples).
  EXPECT_LE(engine.context().num_clients(), 8);
  EXPECT_GT(engine.context().num_clients(), 0);
  const RunResult result = engine.Run();
  EXPECT_GE(result.final_accuracy, 0.0);
}

TEST(FlEngineTest, DirichletPartitionRuns) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  FlConfig cfg = FastConfig(3);
  cfg.partition = PartitionKind::kDirichlet;
  cfg.dirichlet_alpha = 0.5;
  FlEngine engine(task, cfg, {}, *alg);
  EXPECT_GE(engine.Run().final_accuracy, 0.0);
}

TEST(FlEngineTest, AssignmentCountMismatchThrows) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedavg", tm);
  std::vector<ClientAssignment> assign(2);  // 6 clients expected
  EXPECT_THROW(FlEngine(task, FastConfig(2), assign, *alg), Error);
}

// Invalid settings fail at engine entry with an error naming the field,
// instead of a mid-run failure (eval_every, batch_size) or a run that
// completes with a meaningless result (sample_fraction, sample caps).
void ExpectConfigRejected(const FlConfig& cfg, const std::string& field) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("depthfl", tm);
  try {
    FlEngine engine(task, cfg, {}, *alg);
    ADD_FAILURE() << field << " accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("FlConfig." + field),
              std::string::npos)
        << e.what();
  }
}

TEST(FlEngineTest, RejectsNonPositiveEvalEvery) {
  FlConfig cfg = FastConfig(2);
  cfg.eval_every = 0;
  ExpectConfigRejected(cfg, "eval_every");
}

TEST(FlEngineTest, RejectsNegativeEvalMaxSamples) {
  FlConfig cfg = FastConfig(2);
  cfg.eval_max_samples = -1;
  ExpectConfigRejected(cfg, "eval_max_samples");
}

TEST(FlEngineTest, RejectsNegativeStabilityMaxSamples) {
  FlConfig cfg = FastConfig(2);
  cfg.stability_max_samples = -5;
  ExpectConfigRejected(cfg, "stability_max_samples");
}

TEST(FlEngineTest, RejectsNegativeRounds) {
  FlConfig cfg = FastConfig(2);
  cfg.rounds = -1;
  ExpectConfigRejected(cfg, "rounds");
}

TEST(FlEngineTest, RejectsSampleFractionOutsideUnitInterval) {
  for (const double f : {-0.5, 0.0, 1.5}) {
    FlConfig cfg = FastConfig(2);
    cfg.sample_fraction = f;
    ExpectConfigRejected(cfg, "sample_fraction");
  }
}

TEST(FlEngineTest, RejectsNegativeMinSampled) {
  FlConfig cfg = FastConfig(2);
  cfg.min_sampled = -1;
  ExpectConfigRejected(cfg, "min_sampled");
}

TEST(FlEngineTest, RejectsNonPositiveLocalEpochs) {
  FlConfig cfg = FastConfig(2);
  cfg.local_epochs = 0;
  ExpectConfigRejected(cfg, "local_epochs");
}

TEST(FlEngineTest, RejectsNonPositiveBatchSize) {
  FlConfig cfg = FastConfig(2);
  cfg.batch_size = 0;
  ExpectConfigRejected(cfg, "batch_size");
}

TEST(FlEngineTest, RejectsNegativeRoundDeadline) {
  FlConfig cfg = FastConfig(2);
  cfg.round_deadline_s = -1.0;
  ExpectConfigRejected(cfg, "round_deadline_s");
}

TEST(FlEngineTest, RejectsNonPositiveNumThreads) {
  FlConfig cfg = FastConfig(2);
  cfg.num_threads = 0;
  ExpectConfigRejected(cfg, "num_threads");
}

TEST(FlEngineTest, RejectsNegativeCheckpointEvery) {
  FlConfig cfg = FastConfig(2);
  cfg.checkpoint_every = -1;
  ExpectConfigRejected(cfg, "checkpoint_every");
}

// rounds == 0 stays legal: a resume configured with it must reach the
// snapshot's rewind check, which a constructor rejection would mask.
TEST(FlEngineTest, AcceptsZeroRounds) {
  const data::Task task = SmallTask();
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("depthfl", tm);
  FlConfig cfg = FastConfig(2);
  cfg.rounds = 0;
  EXPECT_NO_THROW(FlEngine(task, cfg, {}, *alg));
}

TEST(UniformCapacityTest, CyclesCapacities) {
  const auto a = UniformCapacityAssignments(5, {0.25, 1.0});
  ASSERT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a[0].capacity, 0.25);
  EXPECT_DOUBLE_EQ(a[1].capacity, 1.0);
  EXPECT_DOUBLE_EQ(a[4].capacity, 0.25);
}

}  // namespace
}  // namespace mhbench::fl
