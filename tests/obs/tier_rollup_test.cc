// Per-device-tier cohort rollups (DESIGN.md §5j): tier-keyed counters and
// histograms (`<base>@<tier>` registry names) and the client event journal
// must be bit-identical across thread counts and exporter on/off — the
// tier twins come from the same serial fold of the staged per-client rows
// at the round barrier as the untiered counters — and the per-tier totals
// must exactly partition the untiered ones.  Also covers the journal's engine-side contract: one
// block per round barrier, the taxonomy in every record, and per-round
// (not per-run) memory bounds on the drain path.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "data/tasks.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/journal.h"
#include "obs/live.h"
#include "obs/obs_config.h"
#include "obs/registry.h"
#include "support/temp_dir.h"

namespace mhbench::obs {
namespace {

constexpr int kClients = 8;
constexpr int kRounds = 4;

// Two clients per taxonomy tier, with the fourth slot left blank to
// exercise the engine's "untiered" fallback; flaky availability and a
// deadline-crossing compute spread make every drop path hit every tier
// family over the run.
std::vector<fl::ClientAssignment> TieredAssignments() {
  std::vector<fl::ClientAssignment> assign =
      fl::UniformCapacityAssignments(kClients, {0.25, 0.5, 0.75, 1.0});
  static const char* const kAssigned[] = {"cpu", "mem4g", "mem16g", ""};
  for (int i = 0; i < kClients; ++i) {
    auto& a = assign[static_cast<std::size_t>(i)];
    // Deliberately co-prime with the tier cycle below, so every tier gets
    // both trainable clients and deadline-crossing stragglers.
    a.system.compute_time_s = 5.0 + 7.0 * (i % 5);  // 5..33 s
    a.system.comm_time_s = 2.0;  // 26 + 2 crosses the 25 s deadline
    a.system.availability = (i % 3 == 0) ? 0.5 : 1.0;
    a.system.comm_mb = 4.0 + i;
    a.system.train_gflops = 1.0 + 0.5 * i;
    a.system.memory_mb = 512.0 * (1 + i % 4);
    a.system.device_tier = kAssigned[i % 4];
  }
  return assign;
}

struct TieredRun {
  fl::RunResult result;
  std::map<std::string, std::int64_t> totals;
  std::map<std::string, Registry::HistogramData> hists;
  std::vector<std::uint8_t> journal_bytes;
  std::int64_t journal_blocks = 0;
  std::size_t journal_peak = 0;
  std::vector<std::size_t> drained_batch_sizes;
  std::string metrics_text;
  std::string status_json;
};

TieredRun RunTiered(const data::Task& task, int threads, bool with_live) {
  const auto tm = models::MakeTaskModels("cifar10");
  auto alg = algorithms::MakeAlgorithm("fedrolex", tm);
  fl::FlConfig cfg;
  cfg.rounds = kRounds;
  cfg.sample_fraction = 0.8;
  cfg.eval_every = 2;
  cfg.eval_max_samples = 96;
  cfg.stability_max_samples = 48;
  cfg.round_deadline_s = 25.0;
  cfg.num_threads = threads;

  const testsupport::TempDir dir = testsupport::MakeTempDir();
  Registry registry;
  ClientJournalWriter::Options jopts;
  jopts.sample_seed = 7;
  ClientJournalWriter journal(dir.File("clients.mhbj"), jopts);
  TieredRun out;
  registry.SetClientRowSink([&](std::vector<Registry::ClientRow>&& rows) {
    out.drained_batch_sizes.push_back(rows.size());
    journal.Append(rows);
  });

  ObsConfig obs;
  obs.registry = &registry;
  std::unique_ptr<LiveExporter> live;
  if (with_live) {
    LiveConfig lcfg;
    lcfg.http_port = 0;  // ephemeral loopback server, polled by nobody —
                         // attaching it alone must not change a byte
    lcfg.heartbeat_every_s = 0.02;
    lcfg.heartbeat_path = dir.File("heartbeat.jsonl");
    lcfg.watchdog_stall_s = 120.0;
    lcfg.run_id = "tier-rollup";
    lcfg.rounds_total = cfg.rounds;
    live = std::make_unique<LiveExporter>(lcfg, &registry);
    obs.live = live.get();
  }
  cfg.obs = obs;

  fl::FlEngine engine(task, cfg, TieredAssignments(), *alg);
  out.result = engine.Run();
  if (live != nullptr) {
    out.metrics_text = live->MetricsText();
    out.status_json = live->StatusJson();
    live->Stop();
    EXPECT_EQ(live->stall_count(), 0);
  }
  registry.SetClientRowSink(nullptr);
  journal.Close();
  out.journal_blocks = journal.blocks_written();
  out.journal_peak = journal.peak_block_bytes();
  out.totals = registry.Totals();
  out.hists = registry.Histograms();

  std::ifstream in(dir.File("clients.mhbj"), std::ios::binary);
  EXPECT_TRUE(in.good());
  out.journal_bytes.assign((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  return out;
}

const char* const kTierNames[] = {"cpu", "mem4g", "mem16g", "untiered"};

TEST(TierRollupTest, TotalsAndJournalBitIdenticalAcrossThreadsAndExporter) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = kClients;
  const data::Task task = data::MakeTask("cifar10", tcfg);

  const TieredRun ref = RunTiered(task, 1, true);
  ASSERT_FALSE(ref.journal_bytes.empty());
  EXPECT_EQ(ref.journal_blocks, kRounds);
  // The scenario exercises tiers and drop paths for real.
  EXPECT_GT(ref.totals.at("clients_trained@cpu"), 0);
  EXPECT_GT(ref.totals.at("clients_trained@untiered"), 0);
  EXPECT_GT(ref.totals.at("clients_dropped"), 0);
  EXPECT_GT(ref.totals.at("clients_offline"), 0);

  auto comparable_totals = [](const TieredRun& r) {
    auto totals = r.totals;
    totals.erase("pool_tasks");  // helper-task count tracks the pool size
    return totals;
  };
  // Deterministic histograms only: client_wall_us (untiered and per-tier)
  // is measured wall time, legitimately different every run.
  auto comparable_hists = [](const TieredRun& r) {
    std::map<std::string, std::pair<std::int64_t, std::int64_t>> h;
    for (const auto& [name, data] : r.hists) {
      if (name.rfind("client_wall_us", 0) == 0) continue;
      h[name] = {data.count(), data.sum};
    }
    return h;
  };

  for (const int threads : {2, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    const TieredRun run = RunTiered(task, threads, true);
    EXPECT_EQ(run.result.final_accuracy, ref.result.final_accuracy);
    EXPECT_EQ(run.result.total_sim_time_s, ref.result.total_sim_time_s);
    EXPECT_EQ(comparable_totals(run), comparable_totals(ref));
    EXPECT_EQ(comparable_hists(run), comparable_hists(ref));
    EXPECT_EQ(run.journal_bytes, ref.journal_bytes)
        << "journal bytes diverged at num_threads=" << threads;
  }

  const TieredRun no_exporter = RunTiered(task, 1, false);
  EXPECT_EQ(comparable_totals(no_exporter), comparable_totals(ref));
  EXPECT_EQ(no_exporter.journal_bytes, ref.journal_bytes)
      << "attaching the live exporter changed the journal bytes";
}

TEST(TierRollupTest, TierRollupsExactlyPartitionTheUntieredTotals) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = kClients;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const TieredRun run = RunTiered(task, 2, false);

  for (const char* base : {"clients_selected", "clients_offline",
                           "clients_dropped", "clients_trained", "bytes_up",
                           "bytes_down", "train_mflops"}) {
    std::int64_t tier_sum = 0;
    for (const char* tier : kTierNames) {
      tier_sum += run.totals.at(std::string(base) + "@" + tier);
    }
    EXPECT_EQ(tier_sum, run.totals.at(base))
        << "per-tier " << base << " rollups do not partition the total";
  }
  // Every tier was actually selected at some point over the run.
  for (const char* tier : kTierNames) {
    EXPECT_GT(run.totals.at(std::string("clients_selected@") + tier), 0)
        << tier;
  }

  // Deterministic histograms partition the same way (count and sum; the
  // buckets follow because both sides observe identical value streams).
  for (const char* base : {"client_bytes_up", "client_train_mflops"}) {
    std::int64_t count_sum = 0, value_sum = 0;
    for (const char* tier : kTierNames) {
      const auto& h = run.hists.at(std::string(base) + "@" + tier);
      count_sum += h.count();
      value_sum += h.sum;
    }
    EXPECT_EQ(count_sum, run.hists.at(base).count()) << base;
    EXPECT_EQ(value_sum, run.hists.at(base).sum) << base;
  }
}

TEST(TierRollupTest, ExporterSurfacesCarryTierRollups) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = kClients;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const TieredRun run = RunTiered(task, 2, true);

  // /metrics: tier-keyed entries render as a Prometheus `tier` label on
  // the base family, untiered entries keep their label-free form, and each
  // family gets exactly one TYPE header.
  EXPECT_NE(run.metrics_text.find("mhb_counter_clients_trained{tier=\"cpu\"}"),
            std::string::npos)
      << run.metrics_text;
  EXPECT_NE(run.metrics_text.find("mhb_counter_bytes_up{tier=\"mem16g\"}"),
            std::string::npos);
  EXPECT_NE(run.metrics_text.find(
                "mhb_hist_client_bytes_up{tier=\"mem4g\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(run.metrics_text.find("\nmhb_counter_bytes_up "),
            std::string::npos)
      << "untiered rendering must be unchanged";
  const std::string type_line = "# TYPE mhb_counter_bytes_up counter\n";
  const std::size_t first = run.metrics_text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(run.metrics_text.find(type_line, first + 1), std::string::npos)
      << "duplicate TYPE header for a tiered metric family";
  EXPECT_EQ(run.metrics_text.find('@'), std::string::npos)
      << "raw @-names leaked into the Prometheus exposition";

  // /status.json: flat counters/histograms stay tier-free (schema
  // stability for existing pollers); the rollups live under "tiers".
  EXPECT_NE(run.status_json.find("\"tiers\": {"), std::string::npos)
      << run.status_json;
  EXPECT_NE(run.status_json.find("\"cpu\": {\"counters\": {"),
            std::string::npos);
  EXPECT_NE(run.status_json.find("\"mem16g\""), std::string::npos);
  EXPECT_EQ(run.status_json.find('@'), std::string::npos)
      << "raw @-names leaked into /status.json";
}

TEST(TierRollupTest, JournalCarriesTheTaxonomyAndDrainsEveryBarrier) {
  data::TaskConfig tcfg;
  tcfg.train_samples = 240;
  tcfg.test_samples = 120;
  tcfg.num_clients = kClients;
  const data::Task task = data::MakeTask("cifar10", tcfg);
  const TieredRun run = RunTiered(task, 2, false);

  // One drain per round barrier, each bounded by the round's cohort — the
  // registry never accumulates rows across rounds.
  ASSERT_EQ(run.drained_batch_sizes.size(), static_cast<std::size_t>(kRounds));
  std::size_t journaled = 0;
  for (const std::size_t batch : run.drained_batch_sizes) {
    EXPECT_GT(batch, 0u);
    EXPECT_LE(batch, static_cast<std::size_t>(kClients));
    journaled += batch;
  }
  EXPECT_EQ(run.journal_blocks, kRounds);
  // The reusable block buffer is the journal's only per-round state; for
  // this fleet it stays a few hundred bytes no matter how many rounds ran.
  EXPECT_LT(run.journal_peak, 4096u);

  const testsupport::TempDir dir = testsupport::MakeTempDir();
  const std::string path = dir.File("replay.mhbj");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(run.journal_bytes.data()),
              static_cast<std::streamsize>(run.journal_bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const ClientJournalContents contents = ReadClientJournal(path);
  ASSERT_EQ(contents.records.size(), journaled);

  // Every record carries a taxonomy tier, and the journal's drop ledger
  // reconciles exactly with the tier-keyed counter rollups.
  const std::set<std::string> known(std::begin(kTierNames),
                                    std::end(kTierNames));
  std::map<std::string, std::int64_t> trained, offline, straggler;
  for (const auto& rec : contents.records) {
    ASSERT_TRUE(known.count(rec.device_tier) != 0u) << rec.device_tier;
    if (rec.drop_reason.empty()) {
      ++trained[rec.device_tier];
    } else if (rec.drop_reason == "offline") {
      ++offline[rec.device_tier];
    } else {
      ASSERT_EQ(rec.drop_reason, "straggler");
      ++straggler[rec.device_tier];
    }
  }
  for (const char* tier : kTierNames) {
    EXPECT_EQ(trained[tier],
              run.totals.at(std::string("clients_trained@") + tier))
        << tier;
    EXPECT_EQ(offline[tier],
              run.totals.at(std::string("clients_offline@") + tier))
        << tier;
    EXPECT_EQ(straggler[tier],
              run.totals.at(std::string("clients_dropped@") + tier))
        << tier;
  }
}

}  // namespace
}  // namespace mhbench::obs
