// The checkpoint/resume contract: for every algorithm in the zoo,
// `run 2k rounds` and `run k rounds, snapshot, resume k rounds` produce
// bit-identical RunResults — same accuracy curve, same simulated clock,
// same skip counters, same counter/histogram totals — at 1, 2, and 4
// worker threads, and the resumed run's own end-of-run snapshot matches
// the uninterrupted run's byte for byte.  Plus the reject paths: resuming
// into a mismatched config, a foreign version, or a corrupted file must
// throw instead of silently diverging.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "fl/checkpoint.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/det_audit.h"
#include "obs/registry.h"
#include "support/temp_dir.h"

namespace mhbench::fl {
namespace {

struct Case {
  std::string algorithm;
  std::string task;
};

class ResumeDeterminismTest : public ::testing::TestWithParam<Case> {};

// Every algorithm must round-trip its full persistent state: the shared
// store family, InclusiveFl's pre-round copy, FedProto's personal models +
// prototypes, FedEt's group models + server ensemble.
INSTANTIATE_TEST_SUITE_P(
    Algorithms, ResumeDeterminismTest,
    ::testing::ValuesIn(std::vector<Case>{
        {"fedavg", "cifar10"},
        {"fjord", "cifar10"},
        {"sheterofl", "cifar10"},
        {"fedrolex", "cifar10"},
        {"depthfl", "ucihar"},
        {"inclusivefl", "cifar10"},
        {"fedepth", "cifar10"},
        {"fedproto", "cifar10"},
        {"fedet", "cifar10"},
    }),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.algorithm;
    });

// Same scenario as the parallel determinism suite: a capacity ladder with
// flaky devices (offline skips) and a compute spread crossing the round
// deadline (straggler drops), so the resumed half replays every skip path.
std::vector<ClientAssignment> HeterogeneousAssignments(int n) {
  std::vector<ClientAssignment> assign =
      UniformCapacityAssignments(n, {0.25, 0.5, 0.75, 1.0});
  for (int i = 0; i < n; ++i) {
    auto& a = assign[static_cast<std::size_t>(i)];
    a.arch_index = i;
    a.system.compute_time_s = 5.0 + 7.0 * (i % 4);
    a.system.comm_time_s = 2.0;
    a.system.availability = (i % 3 == 0) ? 0.5 : 1.0;
    a.system.comm_mb = 4.0 + i;
    a.system.train_gflops = 1.0 + 0.5 * i;
  }
  return assign;
}

struct RunSpec {
  int num_threads = 1;
  int checkpoint_every = 0;
  std::string checkpoint_dir;
  std::string resume_path;
  obs::Registry* registry = nullptr;
  obs::DetAuditor* det_audit = nullptr;
};

RunResult RunCase(const Case& c, const data::Task& task, const RunSpec& spec) {
  const auto tm = models::MakeTaskModels(c.task);
  auto alg = algorithms::MakeAlgorithm(c.algorithm, tm);

  FlConfig cfg;
  cfg.rounds = 4;
  cfg.sample_fraction = 0.8;
  cfg.eval_every = 2;
  cfg.eval_max_samples = 96;
  cfg.stability_max_samples = 48;
  cfg.round_deadline_s = 25.0;
  cfg.num_threads = spec.num_threads;
  cfg.checkpoint_every = spec.checkpoint_every;
  if (!spec.checkpoint_dir.empty()) cfg.checkpoint_dir = spec.checkpoint_dir;
  cfg.resume_path = spec.resume_path;
  cfg.obs.registry = spec.registry;
  cfg.obs.det_audit = spec.det_audit;

  FlEngine engine(task, cfg, HeterogeneousAssignments(6), *alg);
  return engine.Run();
}

// Bit-identical comparison: exact double equality, field by field.
void ExpectIdentical(const RunResult& want, const RunResult& got,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(want.final_accuracy, got.final_accuracy);
  EXPECT_EQ(want.total_sim_time_s, got.total_sim_time_s);
  EXPECT_EQ(want.straggler_drops, got.straggler_drops);
  EXPECT_EQ(want.offline_skips, got.offline_skips);
  EXPECT_EQ(want.total_participations, got.total_participations);

  ASSERT_EQ(want.curve.size(), got.curve.size());
  for (std::size_t i = 0; i < want.curve.size(); ++i) {
    EXPECT_EQ(want.curve[i].round, got.curve[i].round);
    EXPECT_EQ(want.curve[i].sim_time_s, got.curve[i].sim_time_s);
    EXPECT_EQ(want.curve[i].global_acc, got.curve[i].global_acc);
  }

  ASSERT_EQ(want.client_accuracies.size(), got.client_accuracies.size());
  for (std::size_t i = 0; i < want.client_accuracies.size(); ++i) {
    EXPECT_EQ(want.client_accuracies[i], got.client_accuracies[i])
        << "client " << i;
  }
}

// Counter totals with the run-shape-dependent entries removed: pool_tasks
// counts helper tasks (a function of the worker count), and the
// checkpoint_* instrumentation differs between runs that snapshot/resume
// and the uninterrupted reference (asserted separately below).
std::map<std::string, std::int64_t> DeterministicTotals(
    const obs::Registry& reg) {
  auto totals = reg.Totals();
  totals.erase("pool_tasks");
  for (auto it = totals.begin(); it != totals.end();) {
    it = it->first.rfind("checkpoint_", 0) == 0 ? totals.erase(it)
                                                : std::next(it);
  }
  return totals;
}

TEST_P(ResumeDeterminismTest, ResumeIsBitIdentical) {
  const Case c = GetParam();
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask(c.task, tcfg);
  const auto dir = testsupport::MakeTempDir();

  // A: the uninterrupted serial reference, counters attached.
  obs::Registry reg_full;
  RunSpec full_spec;
  full_spec.registry = &reg_full;
  const RunResult full = RunCase(c, task, full_spec);
  // The scenario must actually exercise the skip paths it claims to cover.
  EXPECT_GT(full.offline_skips, 0) << "availability<1 never skipped";
  EXPECT_GT(full.straggler_drops, 0) << "deadline never dropped";
  ASSERT_FALSE(full.curve.empty());
  const auto full_totals = DeterministicTotals(reg_full);

  // B: same run, snapshotting every 2 rounds.  Writing snapshots must be
  // pure observation — results and counters unchanged.
  obs::Registry reg_ckpt;
  RunSpec ckpt_spec;
  ckpt_spec.registry = &reg_ckpt;
  ckpt_spec.checkpoint_every = 2;
  ckpt_spec.checkpoint_dir = dir.File("ckpt");
  const RunResult ckpt = RunCase(c, task, ckpt_spec);
  ExpectIdentical(full, ckpt, "checkpointing run");
  EXPECT_EQ(DeterministicTotals(reg_ckpt), full_totals);

  // The snapshot writes themselves are instrumented (fl/checkpoint.cc):
  // two snapshots with a positive byte count and wall write time, and the
  // uninterrupted reference never registered any checkpoint counter.
  EXPECT_EQ(reg_full.Total("checkpoint_writes"), 0);
  EXPECT_EQ(reg_ckpt.Total("checkpoint_writes"), 2);
  EXPECT_GT(reg_ckpt.Total("checkpoint_bytes"), 0);
  EXPECT_GT(reg_ckpt.Total("checkpoint_write_us"), 0);

  const std::string mid = ckpt_spec.checkpoint_dir + "/round_000002.mhbsnap";
  const std::string end = ckpt_spec.checkpoint_dir + "/round_000004.mhbsnap";
  ASSERT_TRUE(std::filesystem::exists(mid));
  ASSERT_TRUE(std::filesystem::exists(end));
  const SnapshotReader end_snap = SnapshotReader::FromFile(end);

  // C: resume the second half from the mid-run snapshot at 1/2/4 threads.
  std::int64_t resumed_ckpt_bytes = 0;
  for (const int threads : {1, 2, 4}) {
    obs::Registry reg_resumed;
    RunSpec resume_spec;
    resume_spec.registry = &reg_resumed;
    resume_spec.num_threads = threads;
    resume_spec.resume_path = mid;
    resume_spec.checkpoint_every = 2;
    resume_spec.checkpoint_dir = dir.File("resume_t" + std::to_string(threads));
    const RunResult resumed = RunCase(c, task, resume_spec);
    ExpectIdentical(full, resumed,
                    "resumed num_threads=" + std::to_string(threads));

    // Counter totals restore + replay to exactly the uninterrupted totals.
    EXPECT_EQ(DeterministicTotals(reg_resumed), full_totals)
        << "counter totals diverged at num_threads=" << threads;

    // Checkpoint instrumentation: one snapshot written by the resumed half
    // (round 4), the restore read counted, and the written byte count —
    // unlike the wall-clock write time — identical at every thread count
    // (the snapshot obs section includes zero deltas precisely so its size
    // cannot depend on which counters a given pool shape touched).
    EXPECT_EQ(reg_resumed.Total("checkpoint_writes"), 1);
    EXPECT_GT(reg_resumed.Total("checkpoint_read_bytes"), 0);
    EXPECT_GT(reg_resumed.Total("checkpoint_write_us"), 0);
    if (threads == 1) {
      resumed_ckpt_bytes = reg_resumed.Total("checkpoint_bytes");
      EXPECT_GT(resumed_ckpt_bytes, 0);
    } else {
      EXPECT_EQ(reg_resumed.Total("checkpoint_bytes"), resumed_ckpt_bytes)
          << "checkpoint size diverged at num_threads=" << threads;
    }

    // Deterministic histograms too (client_wall_us is wall-clock noise and
    // is deliberately excluded from the contract).
    for (const char* name : {"client_bytes_up", "client_train_mflops"}) {
      SCOPED_TRACE(name);
      const auto want = reg_full.HistogramTotals(name);
      const auto got = reg_resumed.HistogramTotals(name);
      EXPECT_EQ(got.buckets, want.buckets);
      EXPECT_EQ(got.sum, want.sum);
      EXPECT_EQ(got.min, want.min);
      EXPECT_EQ(got.max, want.max);
    }

    // The resumed run snapshots round 4 itself; its learned state must be
    // byte-identical to the uninterrupted run's round-4 snapshot.
    const SnapshotReader resumed_snap = SnapshotReader::FromFile(
        resume_spec.checkpoint_dir + "/round_000004.mhbsnap");
    EXPECT_EQ(resumed_snap.SectionPayload("engine"),
              end_snap.SectionPayload("engine"))
        << "engine section diverged at num_threads=" << threads;
    EXPECT_EQ(resumed_snap.SectionPayload("algorithm"),
              end_snap.SectionPayload("algorithm"))
        << "algorithm section diverged at num_threads=" << threads;
  }
}

// Determinism auditor across resume (obs/det_audit.h, DESIGN.md §5k): on a
// conv algorithm, the per-round component hashes the resumed half records
// must equal the uninterrupted run's at the same rounds, at 1, 2 and 4
// threads.  Per-component, not the chain: the chain folds from round 0 and
// a resumed ledger legitimately starts at the restored round.  Auditable
// totals deliberately exclude checkpoint_* counters — they differ by
// construction between a snapshotting and a plain run — which this test
// exercises for real, unlike the thread-sweep where both runs checkpoint
// identically.
TEST(ResumeDeterminismTest, AuditComponentsMatchAcrossResume) {
  const Case c{"sheterofl", "cifar10"};
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = 6;
  const data::Task task = data::MakeTask(c.task, tcfg);
  const auto dir = testsupport::MakeTempDir();

  // Uninterrupted reference, snapshotting at round 2 so the halves below
  // have something to resume from.
  obs::Registry reg_full;
  obs::DetAuditor audit_full;
  RunSpec full_spec;
  full_spec.registry = &reg_full;
  full_spec.det_audit = &audit_full;
  full_spec.checkpoint_every = 2;
  full_spec.checkpoint_dir = dir.File("ckpt");
  RunCase(c, task, full_spec);
  ASSERT_EQ(audit_full.rounds().size(), 4u);
  const std::string mid = full_spec.checkpoint_dir + "/round_000002.mhbsnap";
  ASSERT_TRUE(std::filesystem::exists(mid));

  for (const int threads : {1, 2, 4}) {
    obs::Registry reg_resumed;
    obs::DetAuditor audit_resumed;
    RunSpec resume_spec;
    resume_spec.registry = &reg_resumed;
    resume_spec.det_audit = &audit_resumed;
    resume_spec.num_threads = threads;
    resume_spec.resume_path = mid;
    RunCase(c, task, resume_spec);
    // The resumed half records exactly rounds 2 and 3.
    ASSERT_EQ(audit_resumed.rounds().size(), 2u);
    for (const auto& got : audit_resumed.rounds()) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads) + " round " +
                   std::to_string(got.round));
      const auto& want =
          audit_full.rounds()[static_cast<std::size_t>(got.round)];
      ASSERT_EQ(want.round, got.round);
      ASSERT_EQ(want.components.size(), got.components.size());
      for (std::size_t k = 0; k < want.components.size(); ++k) {
        EXPECT_EQ(want.components[k].first, got.components[k].first);
        EXPECT_EQ(want.components[k].second, got.components[k].second)
            << "component " << want.components[k].first;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reject paths: a snapshot that does not match the run configuration, or
// whose bytes are damaged, must throw from Run() instead of resuming.

// One small sheterofl snapshot shared per test (cheap config: 4 uniform
// clients, 2 rounds, snapshot after round 1).
struct RejectFixture {
  testsupport::TempDir dir = testsupport::MakeTempDir();
  data::Task task;
  std::string snap_path;

  RejectFixture() {
    data::TaskConfig tcfg;
    tcfg.train_samples = 160;
    tcfg.test_samples = 80;
    tcfg.num_clients = 4;
    task = data::MakeTask("cifar10", tcfg);
    Run("sheterofl", /*resume_path=*/"", /*checkpoint=*/true);
    snap_path = dir.path + "/ckpt/round_000001.mhbsnap";
    EXPECT_TRUE(std::filesystem::exists(snap_path));
  }

  RunResult Run(const std::string& algorithm, const std::string& resume_path,
                bool checkpoint, int rounds = 2, std::uint64_t seed = 1) {
    const auto tm = models::MakeTaskModels("cifar10");
    auto alg = algorithms::MakeAlgorithm(algorithm, tm);
    FlConfig cfg;
    cfg.seed = seed;
    cfg.rounds = rounds;
    cfg.sample_fraction = 1.0;
    cfg.eval_every = 2;
    cfg.eval_max_samples = 80;
    cfg.stability_max_samples = 20;
    cfg.checkpoint_every = checkpoint ? 1 : 0;
    cfg.checkpoint_dir = dir.path + "/ckpt";
    cfg.resume_path = resume_path;
    FlEngine engine(task, cfg, UniformCapacityAssignments(4, {1.0}), *alg);
    return engine.Run();
  }

  // Writes a mutated copy of the snapshot and returns its path.
  std::string Mutated(const std::string& name,
                      const std::vector<std::uint8_t>& bytes) const {
    const std::string path = dir.File(name);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  std::vector<std::uint8_t> SnapshotBytes() const {
    std::ifstream in(snap_path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }
};

TEST(ResumeRejectTest, WrongAlgorithmRejected) {
  RejectFixture f;
  EXPECT_THROW(f.Run("fedavg", f.snap_path, false), Error);
}

TEST(ResumeRejectTest, WrongSeedRejected) {
  RejectFixture f;
  EXPECT_THROW(f.Run("sheterofl", f.snap_path, false, 2, /*seed=*/7), Error);
}

TEST(ResumeRejectTest, FewerRoundsThanSnapshotRejected) {
  RejectFixture f;
  // The snapshot's next round is 1; a run configured to end before that
  // (rounds=0) would have to rewind history and must be rejected.
  EXPECT_THROW(f.Run("sheterofl", f.snap_path, false, /*rounds=*/0), Error);
}

TEST(ResumeRejectTest, ResumeAtFinalRoundIsANoOpRun) {
  RejectFixture f;
  // next_round == rounds: legal, trains nothing, still evaluates.
  const RunResult r = f.Run("sheterofl", f.snap_path, false, /*rounds=*/1);
  EXPECT_GE(r.final_accuracy, 0.0);
}

TEST(ResumeRejectTest, ForeignVersionRejected) {
  RejectFixture f;
  for (const std::uint32_t version : {0u, 2u, 0xFFFFFFFFu}) {
    auto bytes = f.SnapshotBytes();
    ASSERT_GE(bytes.size(), 12u);
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    const std::string path =
        f.Mutated("ver_" + std::to_string(version) + ".mhbsnap", bytes);
    EXPECT_THROW(f.Run("sheterofl", path, false), Error)
        << "version " << version;
  }
}

TEST(ResumeRejectTest, CorruptedBytesRejected) {
  RejectFixture f;
  const auto bytes = f.SnapshotBytes();
  ASSERT_GT(bytes.size(), 64u);
  // Sample positions across the whole file (header, name tables, payloads);
  // the exhaustive every-byte sweep lives in snapshot_format_test.
  const std::size_t step = bytes.size() / 7 + 1;
  for (std::size_t pos = 0; pos < bytes.size(); pos += step) {
    auto mutated = bytes;
    mutated[pos] ^= 0x01;
    const std::string path =
        f.Mutated("flip_" + std::to_string(pos) + ".mhbsnap", mutated);
    EXPECT_THROW(f.Run("sheterofl", path, false), Error) << "byte " << pos;
  }
}

TEST(ResumeRejectTest, TruncatedFileRejected) {
  RejectFixture f;
  auto bytes = f.SnapshotBytes();
  bytes.resize(bytes.size() / 2);
  const std::string path = f.Mutated("truncated.mhbsnap", bytes);
  EXPECT_THROW(f.Run("sheterofl", path, false), Error);
}

TEST(ResumeRejectTest, MissingFileRejected) {
  RejectFixture f;
  EXPECT_THROW(f.Run("sheterofl", f.dir.File("absent.mhbsnap"), false), Error);
}

}  // namespace
}  // namespace mhbench::fl
