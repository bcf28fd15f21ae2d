// Observability layer: span collection/nesting, JSON escaping and export,
// the disabled (null-tracer) zero-cost path, the counter registry's
// staged adds, client-row fold and round snapshots, and the run-manifest
// writer.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/thread_pool.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace mhbench::obs {
namespace {

TEST(TracerTest, RecordsNestedSpansWithinParentBounds) {
  Tracer tracer;
  {
    Span parent(&tracer, "parent", "test");
    {
      Span child(&tracer, "child", "test");
      child.Arg("k", static_cast<std::int64_t>(7));
    }
  }
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Events complete in child-first order; look them up by name.
  const auto& child = events[0].name == "child" ? events[0] : events[1];
  const auto& parent = events[0].name == "parent" ? events[0] : events[1];
  ASSERT_EQ(child.name, "child");
  ASSERT_EQ(parent.name, "parent");
  // The child span is contained within the parent's interval.
  EXPECT_LE(parent.ts_us, child.ts_us);
  EXPECT_GE(parent.ts_us + parent.dur_us, child.ts_us + child.dur_us);
  // Same thread -> same lane.
  EXPECT_EQ(parent.tid, child.tid);
  ASSERT_EQ(child.num_args.size(), 1u);
  EXPECT_EQ(child.num_args[0].first, "k");
  EXPECT_EQ(child.num_args[0].second, "7");
}

TEST(TracerTest, JsonEscaping) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(TracerTest, ChromeJsonContainsEscapedNamesAndBothTracks) {
  Tracer tracer;
  {
    Span s(&tracer, "quoted \"name\"", "cat");
    s.Arg("note", std::string("with\nnewline"));
  }
  tracer.RecordSim("sim span", "sim", 1.5, 2.0, 3);
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("quoted \\\"name\\\""), std::string::npos);
  EXPECT_NE(json.find("with\\nnewline"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // Sim timestamps are simulated seconds in microseconds.
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(TracerTest, JsonlHasOneObjectPerLine) {
  Tracer tracer;
  { Span a(&tracer, "a", "t"); }
  { Span b(&tracer, "b", "t"); }
  std::istringstream lines(tracer.ToJsonl());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(TracerTest, DisabledSpanIsInert) {
  // The disabled state is a null tracer: construction must not allocate,
  // record, or crash, and all member calls are no-ops.
  Span span(nullptr, "never", "never");
  EXPECT_FALSE(static_cast<bool>(span));
  span.Arg("k", static_cast<std::int64_t>(1));
  span.Arg("d", 2.0);
  span.Arg("s", std::string("x"));
  span.End();
  span.End();  // idempotent

  // A default-constructed span is the same disabled state.
  Span def;
  EXPECT_FALSE(static_cast<bool>(def));

  // A tight loop of disabled spans must complete trivially (zero events
  // anywhere to record them, no tracer to observe them).
  for (int i = 0; i < 100000; ++i) {
    Span s(nullptr, "hot", "loop");
    s.Arg("i", static_cast<std::int64_t>(i));
  }
  SUCCEED();
}

TEST(TracerTest, SpanEndBeforeDestructionRecordsOnce) {
  Tracer tracer;
  Span s(&tracer, "once", "t");
  s.End();
  s.End();
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(TracerTest, ConcurrentSpansLandInDistinctLanes) {
  Tracer tracer;
  core::ThreadPool pool(3);
  core::ParallelFor(&pool, 64, [&](std::size_t i) {
    Span s(&tracer, "work", "mt");
    s.Arg("i", static_cast<std::int64_t>(i));
  });
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (const auto& e : events) {
    EXPECT_GE(e.tid, 0);
    EXPECT_LT(e.tid, 4);  // 3 workers + the calling thread
  }
}

TEST(RegistryTest, CountersAccumulateAndSnapshotPerRound) {
  Registry reg;
  const auto bytes = reg.Counter("bytes");
  const auto drops = reg.Counter("drops");
  reg.Add(bytes, 100);
  reg.Add(drops, 1);
  reg.SetGauge("acc", 0.5);
  reg.EndRound("alg", 0);
  reg.Add(bytes, 50);
  reg.EndRound("alg", 1);

  EXPECT_EQ(reg.Total("bytes"), 150);
  EXPECT_EQ(reg.Total("drops"), 1);
  EXPECT_EQ(reg.Total("unregistered"), 0);

  const auto& rounds = reg.rounds();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].run, "alg");
  EXPECT_EQ(rounds[0].round, 0);
  EXPECT_EQ(rounds[0].counters.at("bytes"), 100);
  EXPECT_EQ(rounds[0].counters.at("drops"), 1);
  EXPECT_DOUBLE_EQ(rounds[0].gauges.at("acc"), 0.5);
  // Round 1: only the delta, and the gauge was not re-set.
  EXPECT_EQ(rounds[1].counters.at("bytes"), 50);
  EXPECT_EQ(rounds[1].counters.count("drops"), 0u);
  EXPECT_EQ(rounds[1].gauges.count("acc"), 0u);
}

TEST(RegistryTest, ConcurrentAddsGiveOrderIndependentTotals) {
  Registry reg;
  const auto c = reg.Counter("c");
  core::ThreadPool pool(4);
  core::ParallelFor(&pool, 1000, [&](std::size_t i) {
    reg.Add(c, static_cast<std::int64_t>(i));
  });
  reg.Flush();
  EXPECT_EQ(reg.Total("c"), 999 * 1000 / 2);
}

TEST(RegistryTest, CounterRegistrationIsIdempotent) {
  Registry reg;
  EXPECT_EQ(reg.Counter("x"), reg.Counter("x"));
  reg.AddNamed("x", 2);
  reg.AddNamed("x", 3);
  reg.Flush();
  EXPECT_EQ(reg.Total("x"), 5);
}

TEST(RegistryTest, TierKeyRoundTrips) {
  EXPECT_EQ(TierKey("bytes_up", "mem4g"), "bytes_up@mem4g");
  const TierKeyParts tiered = SplitTierKey("bytes_up@mem4g");
  EXPECT_EQ(tiered.base, "bytes_up");
  EXPECT_EQ(tiered.tier, "mem4g");
  const TierKeyParts untiered = SplitTierKey("bytes_up");
  EXPECT_EQ(untiered.base, "bytes_up");
  EXPECT_EQ(untiered.tier, "");
}

// One trained, one offline and one straggler client across two tiers:
// EndRound must derive every client-scoped counter and histogram, untiered
// and per tier, from the staged rows alone, put the same deltas in the
// round row, and register nothing when no rows are staged.
TEST(RegistryTest, EndRoundFoldsStagedClientRowsPerTier) {
  Registry reg;
  reg.EndRound("alg", 0);
  EXPECT_TRUE(reg.Totals().empty());
  EXPECT_TRUE(reg.Histograms().empty());

  Registry::ClientRow trained;
  trained.client = 3;
  trained.device_tier = "mem4g";
  trained.wall_ms = 2.5;
  trained.bytes_up = 1000;
  trained.bytes_down = 1200;
  trained.train_mflops = 70;
  Registry::ClientRow offline;
  offline.client = 5;
  offline.device_tier = "cpu";
  offline.drop_reason = "offline";
  Registry::ClientRow straggler;
  straggler.client = 7;
  straggler.device_tier = "mem4g";
  straggler.drop_reason = "straggler";
  for (const auto& row : {trained, offline, straggler}) {
    Registry::ClientRow staged = row;
    staged.run = "alg";
    staged.round = 1;
    reg.AddClientRow(staged);
  }
  reg.EndRound("alg", 1);

  const std::map<std::string, std::int64_t> want_counters = {
      {"clients_selected", 3},       {"clients_offline", 1},
      {"clients_dropped", 1},        {"clients_trained", 1},
      {"bytes_up", 1000},            {"bytes_down", 1200},
      {"train_mflops", 70},          {"clients_selected@mem4g", 2},
      {"clients_offline@mem4g", 0},  {"clients_dropped@mem4g", 1},
      {"clients_trained@mem4g", 1},  {"bytes_up@mem4g", 1000},
      {"bytes_down@mem4g", 1200},    {"train_mflops@mem4g", 70},
      {"clients_selected@cpu", 1},   {"clients_offline@cpu", 1},
      {"clients_dropped@cpu", 0},    {"clients_trained@cpu", 0},
      {"bytes_up@cpu", 0},           {"bytes_down@cpu", 0},
      {"train_mflops@cpu", 0}};
  EXPECT_EQ(reg.Totals(), want_counters);

  // Only the trained client is observed; the cpu tier's histograms exist
  // but stay empty.
  const std::map<std::string, std::int64_t> want_observed = {
      {"client_wall_us", 2500},
      {"client_bytes_up", 1000},
      {"client_train_mflops", 70}};
  const auto hists = reg.Histograms();
  EXPECT_EQ(hists.size(), 3u * want_observed.size());
  for (const auto& [base, value] : want_observed) {
    for (const std::string& name : {base, TierKey(base, "mem4g")}) {
      ASSERT_EQ(hists.count(name), 1u) << name;
      const Registry::HistogramData& h = hists.at(name);
      EXPECT_EQ(h.count(), 1) << name;
      EXPECT_EQ(h.sum, value) << name;
      EXPECT_EQ(h.min, value) << name;
      EXPECT_EQ(h.max, value) << name;
    }
    ASSERT_EQ(hists.count(TierKey(base, "cpu")), 1u) << base;
    EXPECT_TRUE(hists.at(TierKey(base, "cpu")).empty()) << base;
  }

  // The round row carries the same (non-zero) deltas.
  ASSERT_EQ(reg.rounds().size(), 2u);
  const Registry::RoundRow& row = reg.rounds()[1];
  std::map<std::string, std::int64_t> want_row;
  for (const auto& [name, value] : want_counters) {
    if (value != 0) want_row[name] = value;
  }
  EXPECT_EQ(row.counters, want_row);
  EXPECT_EQ(row.hists.size(), 2u * want_observed.size());
  for (const auto& [name, h] : row.hists) {
    EXPECT_EQ(h.buckets, hists.at(name).buckets) << name;
    EXPECT_EQ(h.sum, hists.at(name).sum) << name;
  }

  // A barrier with nothing staged adds no name and an empty row.
  reg.EndRound("alg", 2);
  EXPECT_EQ(reg.Totals(), want_counters);
  EXPECT_EQ(reg.Histograms().size(), hists.size());
  ASSERT_EQ(reg.rounds().size(), 3u);
  EXPECT_TRUE(reg.rounds()[2].counters.empty());
  EXPECT_TRUE(reg.rounds()[2].hists.empty());
}

// Pre-registering the fleet's tiers lists every client-scoped name at zero
// before any row is staged; folding a row of a registered tier then adds
// no name.
TEST(RegistryTest, RegisterClientTiersFixesTheNameSet) {
  Registry reg;
  reg.RegisterClientTiers({"cpu", "untiered"});
  const auto totals = reg.Totals();
  EXPECT_EQ(totals.size(), 3u * 7u);
  for (const auto& [name, value] : totals) EXPECT_EQ(value, 0) << name;
  EXPECT_EQ(reg.Histograms().size(), 3u * 3u);

  Registry::ClientRow row;
  row.device_tier = "cpu";
  row.bytes_up = 5;
  reg.AddClientRow(row);
  reg.EndRound("alg", 0);
  EXPECT_EQ(reg.Totals().size(), totals.size());
  EXPECT_EQ(reg.Total("bytes_up@cpu"), 5);
  EXPECT_EQ(reg.Total("clients_trained@untiered"), 0);
}

TEST(ManifestTest, SanitizeRunId) {
  EXPECT_EQ(SanitizeRunId("cifar10-comp_v1.2"), "cifar10-comp_v1.2");
  EXPECT_EQ(SanitizeRunId("a/b c"), "a_b_c");
  EXPECT_EQ(SanitizeRunId(".."), "run");
  EXPECT_EQ(SanitizeRunId(""), "run");
}

TEST(ManifestTest, WritesManifestJsonAndRoundsCsv) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mhb_manifest_test" /
      std::to_string(::getpid());
  fs::remove_all(dir);

  Registry reg;
  reg.AddNamed("bytes_up", 42);
  reg.SetGauge("sim_time_s", 1.25);
  reg.EndRound("fedavg", 0);
  reg.AddNamed("bytes_up", 8);
  reg.EndRound("fedavg", 1);

  RunManifest m;
  m.run_id = "unit/test run";  // must be sanitized
  m.tool = "tracer_test";
  m.git_describe = "deadbeef";
  m.created_utc = IsoTimestampUtc();
  m.seed = 7;
  m.threads = 2;
  m.config = {{"task", "cifar10"}, {"quote", "needs \"escaping\""}};
  m.metrics = {{"final_accuracy", 0.5}};

  const std::string run_dir = WriteRunManifest(dir.string(), m, &reg);
  EXPECT_NE(run_dir.find("unit_test_run"), std::string::npos);

  std::ifstream manifest(fs::path(run_dir) / "manifest.json");
  ASSERT_TRUE(manifest.good());
  std::stringstream manifest_text;
  manifest_text << manifest.rdbuf();
  const std::string mt = manifest_text.str();
  EXPECT_NE(mt.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(mt.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(mt.find("\"git_describe\": \"deadbeef\""), std::string::npos);
  EXPECT_NE(mt.find("needs \\\"escaping\\\""), std::string::npos);
  EXPECT_NE(mt.find("\"bytes_up\": 50"), std::string::npos);
  EXPECT_NE(mt.find("\"rounds\": 2"), std::string::npos);

  std::ifstream rounds(fs::path(run_dir) / "rounds.csv");
  ASSERT_TRUE(rounds.good());
  std::string header, row0, row1;
  ASSERT_TRUE(std::getline(rounds, header));
  ASSERT_TRUE(std::getline(rounds, row0));
  ASSERT_TRUE(std::getline(rounds, row1));
  EXPECT_NE(header.find("run"), std::string::npos);
  EXPECT_NE(header.find("round"), std::string::npos);
  EXPECT_NE(header.find("bytes_up"), std::string::npos);
  EXPECT_NE(header.find("sim_time_s"), std::string::npos);
  EXPECT_NE(row0.find("fedavg"), std::string::npos);
  EXPECT_NE(row0.find("42"), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace mhbench::obs
