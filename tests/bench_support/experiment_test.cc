#include "bench_support/experiment.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "core/error.h"
#include "obs/det_audit.h"

namespace mhbench::bench_support {
namespace {

BenchPreset TinyPreset() {
  BenchPreset p = BenchPreset::FromEnv();
  p.rounds = 4;
  p.clients = 6;
  p.train_samples = 180;
  p.test_samples = 90;
  p.eval_every = 2;
  p.eval_max_samples = 90;
  p.stability_max_samples = 30;
  return p;
}

TEST(ExperimentTest, RunOneProducesBundle) {
  SuiteOptions options;
  options.constraint = "computation";
  options.task = "cifar10";
  options.preset = TinyPreset();
  const auto bundle = RunOne("sheterofl", options);
  EXPECT_EQ(bundle.algorithm, "sheterofl");
  EXPECT_EQ(bundle.task, "cifar10");
  EXPECT_EQ(bundle.constraint, "computation");
  EXPECT_GE(bundle.global_accuracy, 0.0);
  EXPECT_LE(bundle.global_accuracy, 1.0);
  EXPECT_FALSE(bundle.curve_accuracy.empty());
  EXPECT_EQ(bundle.curve_accuracy.size(), bundle.curve_time_s.size());
  EXPECT_GT(bundle.total_sim_time_s, 0.0);
}

TEST(ExperimentTest, RunSuiteFillsEffectivenessAndTarget) {
  SuiteOptions options;
  options.constraint = "memory";
  options.task = "cifar100";
  options.preset = TinyPreset();
  const auto bundles = RunSuite({"sheterofl", "depthfl"}, options);
  ASSERT_EQ(bundles.size(), 3u);  // baseline + 2
  EXPECT_EQ(bundles[0].algorithm, "fedavg-small");
  EXPECT_DOUBLE_EQ(bundles[0].effectiveness, 0.0);
  const double target = bundles[0].target_accuracy;
  EXPECT_GT(target, 0.0);
  for (const auto& b : bundles) {
    EXPECT_DOUBLE_EQ(b.target_accuracy, target);
    EXPECT_NEAR(b.effectiveness,
                b.global_accuracy - bundles[0].global_accuracy, 1e-12);
  }
}

TEST(ExperimentTest, NonIidOptionRuns) {
  SuiteOptions options;
  options.constraint = "computation";
  options.task = "cifar10";
  options.preset = TinyPreset();
  options.dirichlet_alpha = 0.5;
  const auto bundle = RunOne("fedrolex", options);
  EXPECT_GE(bundle.global_accuracy, 0.0);
}

TEST(ExperimentTest, AllConstraintNamesAccepted) {
  SuiteOptions options;
  options.task = "cifar10";
  options.preset = TinyPreset();
  options.preset.rounds = 2;
  for (const char* c : {"none", "computation", "communication", "memory",
                        "comm+mem", "comp+comm+mem"}) {
    options.constraint = c;
    EXPECT_GE(RunOne("sheterofl", options).global_accuracy, 0.0) << c;
  }
  options.constraint = "gravity";
  EXPECT_THROW(RunOne("sheterofl", options), Error);
}

TEST(ExperimentTest, DeterministicAcrossCalls) {
  SuiteOptions options;
  options.constraint = "computation";
  options.task = "ucihar";
  options.preset = TinyPreset();
  const auto a = RunOne("depthfl", options);
  const auto b = RunOne("depthfl", options);
  EXPECT_DOUBLE_EQ(a.global_accuracy, b.global_accuracy);
  EXPECT_DOUBLE_EQ(a.stability_variance, b.stability_variance);
}

// Each entry check must fire before any engine work: the options name an
// unknown task, so reaching the fedavg-small baseline (or the requested
// run) would fail with a different error.
void ExpectRejectedAtEntry(const SuiteOptions& options,
                           const std::string& field) {
  for (bool suite : {true, false}) {
    try {
      if (suite) {
        RunSuite({"sheterofl"}, options);
      } else {
        RunOne("sheterofl", options);
      }
      ADD_FAILURE() << field << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("SuiteOptions." + field),
                std::string::npos)
          << e.what();
    }
  }
}

SuiteOptions UnrunnableOptions() {
  SuiteOptions options;
  options.task = "no-such-task";
  options.preset = TinyPreset();
  return options;
}

// Sets MHB_REPEATS for one scope.
class RepeatsEnv {
 public:
  explicit RepeatsEnv(const char* value) { setenv("MHB_REPEATS", value, 1); }
  ~RepeatsEnv() { unsetenv("MHB_REPEATS"); }
};

TEST(ValidateOptionsTest, RejectsRepeatsWithDetAudit) {
  RepeatsEnv repeats("2");
  obs::DetAuditor audit;
  SuiteOptions options = UnrunnableOptions();
  options.obs.det_audit = &audit;
  ExpectRejectedAtEntry(options, "obs.det_audit");
}

TEST(ValidateOptionsTest, RejectsRepeatsWithCheckpointOrResume) {
  RepeatsEnv repeats("2");
  SuiteOptions options = UnrunnableOptions();
  options.checkpoint_every = 2;
  ExpectRejectedAtEntry(options, "checkpoint_every/resume_path");
  options.checkpoint_every = 0;
  options.resume_path = "round_000002.mhbsnap";
  ExpectRejectedAtEntry(options, "checkpoint_every/resume_path");
}

TEST(ValidateOptionsTest, RejectsNegativeDirichletAlpha) {
  SuiteOptions options = UnrunnableOptions();
  options.dirichlet_alpha = -1.0;
  ExpectRejectedAtEntry(options, "dirichlet_alpha");
}

TEST(ValidateOptionsTest, RejectsTargetFractionOutsideUnitInterval) {
  SuiteOptions options = UnrunnableOptions();
  for (double bad : {0.0, -0.5, 1.5}) {
    options.target_fraction = bad;
    ExpectRejectedAtEntry(options, "target_fraction");
  }
}

TEST(ValidateOptionsTest, RejectsNegativeCheckpointEvery) {
  SuiteOptions options = UnrunnableOptions();
  options.checkpoint_every = -1;
  ExpectRejectedAtEntry(options, "checkpoint_every");
}

TEST(ValidateOptionsTest, RejectsUnknownEvalPrecision) {
  SuiteOptions options = UnrunnableOptions();
  options.preset.eval_precision = "fp8";
  ExpectRejectedAtEntry(options, "preset.eval_precision");
}

TEST(ValidateOptionsTest, AcceptsSingleRunDetAuditAndBoundaryValues) {
  // Repeats of 1 keep det-audit and checkpointing legal, and alpha 0 /
  // target 1 sit on the accepted edges: these reach the task lookup.
  obs::DetAuditor audit;
  SuiteOptions options = UnrunnableOptions();
  options.obs.det_audit = &audit;
  options.checkpoint_every = 2;
  options.dirichlet_alpha = 0.0;
  options.target_fraction = 1.0;
  try {
    RunOne("sheterofl", options);
    ADD_FAILURE() << "unknown task accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("SuiteOptions."), std::string::npos)
        << e.what();
  }
}

TEST(PresetTest, EnvOverrides) {
  setenv("MHB_ROUNDS", "99", 1);
  setenv("MHB_CLIENTS", "33", 1);
  const BenchPreset p = BenchPreset::FromEnv();
  EXPECT_EQ(p.rounds, 99);
  EXPECT_EQ(p.clients, 33);
  unsetenv("MHB_ROUNDS");
  unsetenv("MHB_CLIENTS");
  const BenchPreset q = BenchPreset::FromEnv();
  EXPECT_EQ(q.rounds, 20);
  EXPECT_EQ(q.clients, 10);
}

}  // namespace
}  // namespace mhbench::bench_support
