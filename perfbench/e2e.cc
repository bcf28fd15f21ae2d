// End-to-end MHFL run benchmark runner.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--short]
//   perfbench_e2e --self-test --work-dir DIR
//   perfbench_e2e --describe
//
// One invocation runs one workload in this process: a warm-up engine run,
// set-up samples (inputs built and MhflAlgorithm::Setup run, no rounds),
// then repeated engine runs ("reps") until S seconds have passed (and at
// least a minimum number of reps).  Every rep builds its inputs from the
// seed through the public APIs, runs fl::FlEngine with the algorithm
// wrapped in a timing proxy (timed_algorithm.h), and checks the outputs.
// The last stdout line is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (where traced reps, which
// attach the per-op profiler, alternate with untraced ones so the tracing
// overhead is measured too).  perfbench/README.md explains every metric.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/registry.h"
#include "constraints/communication_limited.h"
#include "constraints/computation_limited.h"
#include "data/tasks.h"
#include "device/ima_fleet.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/journal.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "tensor/gemm.h"
#include "tensor/scratch.h"
#include "timed_algorithm.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace mhbench;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  const char* task;
  const char* algorithm;
  const char* constraint;  // "computation" or "communication"
  int clients;
  int train_samples;  // whole training set; 0 = the task's default
  int test_samples;
  double sample_fraction;
  int eval_every;
  int rounds;
  int threads;
  // Attach what `mhbench run --manifest-dir` attaches: a registry whose
  // round sink rewrites rounds.csv + tiers.csv, a client journal, the
  // per-op profiler, and a manifest written when the run ends.
  bool run_dir;
  // Output check: final_acc (the mean of the final per-client accuracies)
  // must reach it on every seed.
  double acc_floor;
  int short_rounds;  // rounds of the shortened self-test version
};

constexpr int kEvalMaxSamples = 200;
constexpr int kSetupSamples = 21;
constexpr int kStabilityMaxSamples = 96;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"cv-width-fleet", "cifar10", "sheterofl", "computation", 100, 4000, 200,
       0.10, 5, 12, 4, false, 0.35, 5},
      {"text-topology", "agnews", "fedproto", "computation", 50, 2000, 200,
       0.20, 20, 40, 4, false, 0.27, 4},
      {"har-depth-rundir", "harbox", "depthfl", "communication", 30, 180,
       100, 0.30, 2, 240, 1, true, 0.6, 6},
  };
  return kWorkloads;
}

// Task, fleet, engine and algorithm seeds derived from the workload seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0x7FFFFFFFull;  // small enough for every seed field
}

int SampleCount(double fraction, int clients) {
  const fl::FlConfig defaults;
  return std::min(clients,
                  std::max(defaults.min_sampled,
                           static_cast<int>(std::lround(fraction * clients))));
}

int ExpectedEvals(int rounds, int eval_every) {
  int n = 0;
  for (int r = 0; r < rounds; ++r) {
    if ((r + 1) % eval_every == 0 || r + 1 == rounds) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// One engine run

struct RepOptions {
  int rounds = 0;
  int threads = 1;
  bool proxy = true;    // false: the engine gets the bare algorithm
  bool profile = false; // attach obs::Profiler (traced reps)
  // Stop after MhflAlgorithm::Setup (called here the way Run calls it):
  // a set-up sample for setup_s, with no rounds run.
  bool setup_only = false;
  int index = 0;
  std::string work_dir;
};

struct Rep {
  std::string error;  // non-empty: the engine run threw
  fl::RunResult result;
  std::vector<CallRecord> calls;
  std::int64_t t0_ns = 0;
  std::int64_t setup_end_ns = 0;  // set-up samples only
  std::int64_t end_ns = 0;
  std::uint64_t gemm_flops = 0;
  std::uint64_t chunk_allocs = 0;
  // Largest scratch high-water mark of any live thread arena, read right
  // after Run while the pool threads still exist.  Arenas never reset
  // their peak, so the main thread's part carries over from earlier reps.
  std::size_t scratch_peak_bytes = 0;
  std::map<std::string, obs::Profiler::OpStats> ops;
  std::int64_t sink_bytes = 0;
  std::int64_t counter_series = 0;
  std::int64_t histogram_series = 0;
  // Share of the machine's CPU time the hypervisor gave to other guests
  // while this rep ran (/proc/stat "steal"); explains noisy reps.
  double steal_share = 0.0;
  // Workload properties, read from the engine context.
  int clients = 0;
  int sample_count = 0;
  int local_epochs = 1;
  std::vector<int> shard_sizes;
  int distinct_eval_specs = 0;
};

std::int64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size)
                                        : 0;
}

// Total and stolen CPU ticks over all CPUs, from /proc/stat.
std::pair<double, double> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

Rep RunRep(const Workload& w, std::uint64_t seed, const RepOptions& o) {
  Rep rep;
  const auto ticks0 = CpuTicks();
  CallLog log;
  const std::uint64_t gemm0 = kernels::TotalGemmFlops();
  const std::uint64_t chunks0 = kernels::ScratchChunkAllocs();
  std::string run_dir;
  rep.t0_ns = NowNs();
  try {
    data::TaskConfig tcfg;
    tcfg.seed = DeriveSeed(seed, 1);
    tcfg.num_clients = w.clients;
    tcfg.train_samples = w.train_samples;
    tcfg.test_samples = w.test_samples;
    data::Task task;
    {
      TimedCall t(log, Layer::kMakeTask);
      task = data::MakeTask(w.task, tcfg);
    }
    device::Fleet fleet;
    {
      TimedCall t(log, Layer::kSampleFleet);
      device::FleetConfig fcfg;
      fcfg.num_clients = w.clients;
      fcfg.seed = DeriveSeed(seed, 2);
      fleet = device::SampleFleet(fcfg);
    }
    constraints::BuiltAssignments built;
    {
      TimedCall t(log, Layer::kBuildAssignments);
      constraints::ConstraintOptions copts;
      copts.ratio_ladder = algorithms::RatioLadder();
      built = std::string(w.constraint) == "communication"
                  ? constraints::BuildCommunicationLimited(w.algorithm, w.task,
                                                           fleet, copts)
                  : constraints::BuildComputationLimited(w.algorithm, w.task,
                                                         fleet, copts);
    }
    models::TaskModels tm;
    {
      TimedCall t(log, Layer::kMakeTaskModels);
      tm = models::MakeTaskModels(w.task);
    }
    std::unique_ptr<fl::MhflAlgorithm> algorithm;
    {
      TimedCall t(log, Layer::kMakeAlgorithm);
      algorithms::AlgorithmOptions aopts;
      aopts.seed = DeriveSeed(seed, 4);
      algorithm = algorithms::MakeAlgorithm(w.algorithm, tm, aopts);
    }
    TimedAlgorithm proxy(*algorithm, log);

    std::unique_ptr<obs::Profiler> profiler;
    std::unique_ptr<obs::Registry> registry;
    std::unique_ptr<obs::ClientJournalWriter> journal;
    if (o.profile || w.run_dir) profiler = std::make_unique<obs::Profiler>();
    const std::string manifest_root = o.work_dir + "/runs";
    const std::string run_id = std::string(w.name) + "-seed" +
                               std::to_string(seed) + "-rep" +
                               std::to_string(o.index);
    if (w.run_dir) {
      run_dir = (fs::path(manifest_root) / obs::SanitizeRunId(run_id)).string();
      fs::create_directories(run_dir);
      registry = std::make_unique<obs::Registry>();
      registry->SetRoundSink([&log, &rep, &run_dir, reg = registry.get()](
                                 const obs::Registry::RoundRow& row) {
        TimedCall t(log, Layer::kRoundSink, row.round);
        obs::WriteRoundsCsv(run_dir, *reg);
        obs::WriteTiersCsv(run_dir, *reg);
        rep.sink_bytes += FileSize(run_dir + "/rounds.csv") +
                          FileSize(run_dir + "/tiers.csv");
      });
      obs::ClientJournalWriter::Options jopts;
      jopts.sample_rate = 1.0;
      jopts.sample_seed = seed;
      journal = std::make_unique<obs::ClientJournalWriter>(
          run_dir + "/clients.mhbj", jopts);
      registry->SetClientRowSink(
          [&log, jw = journal.get()](
              std::vector<obs::Registry::ClientRow>&& rows) {
            TimedCall t(log, Layer::kJournalAppend,
                        rows.empty() ? -1 : rows.front().round);
            jw->Append(rows);
          });
    }

    // The fields bench_support::RunWith sets.
    fl::FlConfig cfg;
    cfg.rounds = o.rounds;
    cfg.sample_fraction = w.sample_fraction;
    cfg.eval_every = w.eval_every;
    cfg.eval_max_samples = kEvalMaxSamples;
    cfg.stability_max_samples = kStabilityMaxSamples;
    cfg.seed = DeriveSeed(seed, 3);
    cfg.num_threads = o.threads;
    cfg.threaded_gemm = false;
    cfg.eval_precision = kernels::EvalPrecision::kF32;
    cfg.round_deadline_s = 0.0;
    cfg.obs.registry = registry.get();
    cfg.obs.profiler = profiler.get();

    std::unique_ptr<fl::FlEngine> engine;
    {
      TimedCall t(log, Layer::kEngineInit);
      fl::MhflAlgorithm& used = o.proxy ? proxy : *algorithm;
      engine = std::make_unique<fl::FlEngine>(task, cfg, built.assignments,
                                              used);
    }
    if (o.setup_only) {
      Rng root(cfg.seed);
      Rng setup_rng = root.Fork(1);
      proxy.Setup(engine->context(), setup_rng);
      rep.setup_end_ns = NowNs();
    } else {
      TimedCall t(log, Layer::kRun);
      rep.result = engine->Run();
    }
    rep.scratch_peak_bytes = kernels::ScratchPeakBytesAllThreads();
    if (w.run_dir && !o.setup_only) {
      TimedCall t(log, Layer::kFinalize);
      registry->SetRoundSink(nullptr);
      registry->SetClientRowSink(nullptr);
      journal->Close();
      obs::RunManifest m;
      m.run_id = run_id;
      m.tool = "perfbench";
      m.git_describe = "unknown";
      m.created_utc = obs::IsoTimestampUtc();
      m.seed = seed;
      m.threads = o.threads;
      m.config = {{"task", w.task},
                  {"constraint", w.constraint},
                  {"algorithm", w.algorithm},
                  {"rounds", std::to_string(o.rounds)},
                  {"clients", std::to_string(w.clients)},
                  {"kernel_backend", kernels::KernelBackendName()}};
      m.metrics = {{w.algorithm + std::string(".global_accuracy"),
                    rep.result.final_accuracy}};
      obs::WriteRunManifest(manifest_root, m, registry.get(), profiler.get());
    }

    const fl::FlContext& ctx = engine->context();
    rep.clients = ctx.num_clients();
    rep.sample_count = SampleCount(w.sample_fraction, rep.clients);
    rep.local_epochs = cfg.local_epochs;
    std::set<std::pair<double, int>> specs;
    for (int c = 0; c < ctx.num_clients(); ++c) {
      rep.shard_sizes.push_back(
          static_cast<int>(ctx.shards[static_cast<std::size_t>(c)].size()));
      const auto& a = ctx.assignments[static_cast<std::size_t>(c)];
      specs.insert({a.capacity, a.arch_index});
    }
    rep.distinct_eval_specs = static_cast<int>(specs.size());
    if (profiler != nullptr) rep.ops = profiler->TotalsByName();
    if (registry != nullptr) {
      rep.counter_series = static_cast<std::int64_t>(registry->Totals().size());
      rep.histogram_series =
          static_cast<std::int64_t>(registry->Histograms().size());
    }
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  rep.end_ns = NowNs();
  rep.calls = log.Take();
  rep.gemm_flops = kernels::TotalGemmFlops() - gemm0;
  rep.chunk_allocs = kernels::ScratchChunkAllocs() - chunks0;
  const auto ticks1 = CpuTicks();
  if (ticks1.first > ticks0.first) {
    rep.steal_share =
        (ticks1.second - ticks0.second) / (ticks1.first - ticks0.first);
  }
  if (!run_dir.empty()) {
    std::error_code ec;
    fs::remove_all(run_dir, ec);
  }
  return rep;
}

// FNV-1a over the curve, the client accuracies and final_acc.
std::uint64_t Fingerprint(const fl::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& rec : r.curve) {
    mix(&rec.round, sizeof rec.round);
    mix(&rec.sim_time_s, sizeof rec.sim_time_s);
    mix(&rec.global_acc, sizeof rec.global_acc);
  }
  for (double a : r.client_accuracies) mix(&a, sizeof a);
  mix(&r.final_accuracy, sizeof r.final_accuracy);
  return h;
}

// The output check.  Returns "" when the rep is correct, else the reason.
// `floor` < 0 skips the accuracy floor (shortened self-test runs).
std::string CheckRep(const Rep& rep, const Workload& w, int rounds,
                     double floor, bool proxy) {
  if (!rep.error.empty()) return "engine threw: " + rep.error;
  const fl::RunResult& r = rep.result;
  auto valid = [](double a) { return std::isfinite(a) && a >= 0 && a <= 1; };
  if (!valid(r.final_accuracy)) return "global accuracy out of [0,1]";
  for (const auto& rec : r.curve) {
    if (!valid(rec.global_acc)) return "curve accuracy out of [0,1]";
  }
  if (static_cast<int>(r.client_accuracies.size()) != rep.clients) {
    return "client accuracy count != clients";
  }
  for (double a : r.client_accuracies) {
    if (!valid(a)) return "client accuracy out of [0,1]";
  }
  if (floor >= 0 && r.MeanClientAccuracy() < floor) {
    return "final_acc " + std::to_string(r.MeanClientAccuracy()) +
           " below floor " + std::to_string(floor);
  }
  if (static_cast<int>(r.curve.size()) != ExpectedEvals(rounds, w.eval_every)) {
    return "eval count != config";
  }
  const int expected = rounds * rep.sample_count;
  if (r.total_participations != expected) return "participations != config";
  if (!proxy) return "";
  int trained = 0, begins = 0, finishes = 0;
  std::set<int> scored;
  for (const auto& c : rep.calls) {
    if (c.layer == Layer::kRunClient) ++trained;
    if (c.layer == Layer::kBeginRound) ++begins;
    if (c.layer == Layer::kFinishRound) ++finishes;
    if (c.layer == Layer::kClientLogits) scored.insert(c.client);
  }
  if (trained + r.straggler_drops + r.offline_skips != expected) {
    return "trained + dropped client-rounds != config";
  }
  if (begins != rounds || finishes != rounds) return "round calls != rounds";
  if (static_cast<int>(scored.size()) != rep.clients) {
    return "stability eval did not score every client";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Interval arithmetic over one rep's calls

// The calls that delimit a rep's phases (present in every checked rep).
struct Phases {
  const CallRecord* run = nullptr;
  const CallRecord* setup = nullptr;
  const CallRecord* prep = nullptr;
  std::vector<const CallRecord*> begin, finish;  // per round
  // Per evaluated round: first GlobalLogits start, last GlobalLogits end.
  std::map<int, std::pair<std::int64_t, std::int64_t>> global_eval;
  std::int64_t stability_end = 0;  // last ClientLogits end

  // A round runs from its BeginRound to the next one; the last round ends
  // where the stability phase starts.
  std::int64_t RoundEnd(int r) const {
    return r + 1 < static_cast<int>(begin.size())
               ? begin[static_cast<std::size_t>(r) + 1]->start_ns
               : prep->start_ns;
  }
};

Phases FindPhases(const Rep& rep, int rounds) {
  Phases p;
  p.begin.resize(static_cast<std::size_t>(rounds));
  p.finish.resize(static_cast<std::size_t>(rounds));
  for (const auto& c : rep.calls) {
    const auto r = static_cast<std::size_t>(std::max(c.round, 0));
    switch (c.layer) {
      case Layer::kRun: p.run = &c; break;
      case Layer::kSetup: p.setup = &c; break;
      case Layer::kPrepareEval: p.prep = &c; break;
      case Layer::kBeginRound: p.begin[r] = &c; break;
      case Layer::kFinishRound: p.finish[r] = &c; break;
      case Layer::kGlobalLogits: {
        auto [it, fresh] =
            p.global_eval.try_emplace(c.round, c.start_ns, c.end_ns);
        if (!fresh) it->second.second = std::max(it->second.second, c.end_ns);
        break;
      }
      case Layer::kClientLogits:
        p.stability_end = std::max(p.stability_end, c.end_ns);
        break;
      default: break;
    }
  }
  return p;
}

double Ms(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

// Calls the engine makes from its own thread, one at a time, in an order
// fixed by the config: Setup, then per round BeginRound, FinishRound,
// GlobalLogits (eval rounds) and the obs sinks, then PrepareEvaluation.
bool SerialCall(Layer layer) {
  switch (layer) {
    case Layer::kSetup:
    case Layer::kBeginRound:
    case Layer::kFinishRound:
    case Layer::kGlobalLogits:
    case Layer::kPrepareEval:
    case Layer::kRoundSink:
    case Layer::kJournalAppend:
      return true;
    default:
      return false;
  }
}

std::vector<const CallRecord*> SerialCalls(const Rep& rep,
                                           const CallRecord& run) {
  std::vector<const CallRecord*> out;
  for (const auto& c : rep.calls) {
    if (SerialCall(c.layer) && c.start_ns >= run.start_ns &&
        c.end_ns <= run.end_ns) {
      out.push_back(&c);
    }
  }
  return out;
}

// The names of a rep's serial calls in order.  Every rep of one seed must
// give the same, so that their timelines line up.
std::string SerialOrder(const Rep& rep) {
  std::string order;
  for (const auto& c : rep.calls) {
    if (c.layer != Layer::kRun) continue;
    for (const CallRecord* s : SerialCalls(rep, c)) {
      order += LayerName(s->layer);
      order += ';';
    }
  }
  return order;
}

// Run cut at the start and end of every serial call.  Segment i runs from
// cut i to cut i + 1 and covers the same work in every rep of a seed.
// Phases are ranges [first, last) of segments.
struct Timeline {
  using Range = std::pair<int, int>;
  std::vector<double> seg_ms;  // Setup's own segment reads 0
  std::vector<Range> round, dispatch, global_eval;  // per round
  Range prepare;
};

Timeline BuildTimeline(const Rep& rep, const Phases& p, int rounds) {
  Timeline t;
  std::vector<std::int64_t> cuts = {p.run->start_ns};
  std::map<const CallRecord*, int> at;  // a call's start cut
  t.global_eval.assign(static_cast<std::size_t>(rounds), {0, 0});
  for (const CallRecord* c : SerialCalls(rep, *p.run)) {
    const int i = static_cast<int>(cuts.size());
    at[c] = i;
    cuts.push_back(c->start_ns);
    cuts.push_back(c->end_ns);
    if (c->layer == Layer::kGlobalLogits) {
      auto& range = t.global_eval[static_cast<std::size_t>(c->round)];
      if (range.second == 0) range.first = i;
      range.second = i + 1;
    }
  }
  cuts.push_back(p.run->end_ns);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    t.seg_ms.push_back(Ms(cuts[i], cuts[i + 1]));
  }
  t.seg_ms[static_cast<std::size_t>(at[p.setup])] = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const int end = r + 1 < rounds ? at[p.begin[i + 1]] : at[p.prep];
    t.round.push_back({at[p.begin[i]], end});
    t.dispatch.push_back({at[p.begin[i]] + 1, at[p.finish[i]]});
  }
  t.prepare = {at[p.prep], at[p.prep] + 1};
  return t;
}

// Everything reported about one rep.  All scalars are doubles so that
// RunBenchmark can take the median (or, for the end-to-end timings, the
// fastest) of any field over reps.
struct RepStats {
  // End-to-end.
  double run_s = 0;  // Run wall - algorithms.setup (+ finalize)
  // Training samples (shard size x epochs, over trained client-rounds) and
  // test samples scored (global + stability).
  double train_samples = 0, eval_samples = 0;
  Timeline timeline;
  // fl phases, from the proxy intervals.
  double dispatch_ms = 0, dispatch_efficiency = 0;
  double stability_ms = 0, stability_efficiency = 0;
  double global_eval_ms = 0;
  double serial_calls_ms = 0;  // BeginRound, FinishRound, Prepare, GlobalLogits
  double serial_ms = 0;        // run - dispatch - stability - serial calls
  double dispatch_share = 0, stability_share = 0, serial_calls_share = 0;
  double serial_share = 0, eval_share = 0;
  double clients_dropped = 0;
  // Algorithm calls.
  double alg_setup_ms = 0, begin_round_ms = 0, finish_round_ms = 0;
  double prepare_eval_ms = 0, global_logits_ms = 0, client_logits_ms = 0;
  double run_client_ms = 0;
  double run_client_calls = 0, global_logits_calls = 0, client_logits_calls = 0;
  std::vector<double> run_client_each_ms;
  // Set-up layers.
  double make_task_ms = 0, sample_fleet_ms = 0, build_assignments_ms = 0;
  double make_task_models_ms = 0, make_algorithm_ms = 0, engine_init_ms = 0;
  // Kernel counters.
  double gemm_gflop = 0, gemm_gflop_per_busy_s = 0;
  double scratch_chunk_allocs = 0;
  // obs sinks.
  double round_sink_ms = 0, sink_bytes_written = 0, journal_append_ms = 0;
  double finalize_ms = 0, counter_series = 0, histogram_series = 0;
};

RepStats Analyze(const Rep& rep, int rounds, int threads) {
  RepStats s;
  for (const auto& c : rep.calls) {
    const double ms = c.ms();
    switch (c.layer) {
      case Layer::kMakeTask: s.make_task_ms += ms; break;
      case Layer::kSampleFleet: s.sample_fleet_ms += ms; break;
      case Layer::kBuildAssignments: s.build_assignments_ms += ms; break;
      case Layer::kMakeTaskModels: s.make_task_models_ms += ms; break;
      case Layer::kMakeAlgorithm: s.make_algorithm_ms += ms; break;
      case Layer::kEngineInit: s.engine_init_ms += ms; break;
      case Layer::kRun: break;
      case Layer::kSetup: s.alg_setup_ms += ms; break;
      case Layer::kBeginRound: s.begin_round_ms += ms; break;
      case Layer::kFinishRound: s.finish_round_ms += ms; break;
      case Layer::kRunClient:
        s.run_client_ms += ms;
        s.run_client_each_ms.push_back(ms);
        ++s.run_client_calls;
        s.train_samples += static_cast<double>(
            rep.shard_sizes[static_cast<std::size_t>(c.client)] *
            rep.local_epochs);
        break;
      case Layer::kGlobalLogits:
        s.global_logits_ms += ms;
        ++s.global_logits_calls;
        s.eval_samples += c.rows;
        break;
      case Layer::kPrepareEval: s.prepare_eval_ms += ms; break;
      case Layer::kClientLogits:
        s.client_logits_ms += ms;
        ++s.client_logits_calls;
        s.eval_samples += c.rows;
        break;
      case Layer::kRoundSink: s.round_sink_ms += ms; break;
      case Layer::kJournalAppend: s.journal_append_ms += ms; break;
      case Layer::kFinalize: s.finalize_ms += ms; break;
    }
  }
  const Phases p = FindPhases(rep, rounds);
  for (int r = 0; r < rounds; ++r) {
    const auto i = static_cast<std::size_t>(r);
    s.dispatch_ms += Ms(p.begin[i]->end_ns, p.finish[i]->start_ns);
  }
  for (const auto& [round, span] : p.global_eval) {
    s.global_eval_ms += Ms(span.first, span.second);
  }
  s.stability_ms = Ms(p.prep->end_ns, p.stability_end);
  s.timeline = BuildTimeline(rep, p, rounds);
  const double run_ms = p.run->ms() - s.alg_setup_ms + s.finalize_ms;
  s.run_s = run_ms / 1e3;
  s.serial_calls_ms = s.begin_round_ms + s.finish_round_ms +
                      s.prepare_eval_ms + s.global_logits_ms;
  s.serial_ms = run_ms - s.dispatch_ms - s.stability_ms - s.serial_calls_ms;
  const double eval_ms = s.global_eval_ms + s.prepare_eval_ms + s.stability_ms;
  s.dispatch_efficiency = s.run_client_ms / (threads * s.dispatch_ms);
  s.stability_efficiency = s.client_logits_ms / (threads * s.stability_ms);
  s.dispatch_share = s.dispatch_ms / run_ms;
  s.stability_share = s.stability_ms / run_ms;
  s.serial_calls_share = s.serial_calls_ms / run_ms;
  s.serial_share = s.serial_ms / run_ms;
  s.eval_share = eval_ms / run_ms;
  s.clients_dropped = rep.result.straggler_drops + rep.result.offline_skips;

  s.gemm_gflop = static_cast<double>(rep.gemm_flops) / 1e9;
  const double busy_s =
      (s.run_client_ms + s.global_logits_ms + s.client_logits_ms) / 1e3;
  s.gemm_gflop_per_busy_s = s.gemm_gflop / busy_s;
  s.scratch_chunk_allocs = static_cast<double>(rep.chunk_allocs);
  s.sink_bytes_written = static_cast<double>(rep.sink_bytes);
  s.counter_series = static_cast<double>(rep.counter_series);
  s.histogram_series = static_cast<double>(rep.histogram_series);
  return s;
}

// ---------------------------------------------------------------------------
// Spans (traced reps)

struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  std::int64_t start_ns = 0, end_ns = 0;
  int round = -1, client = -1, thread = 0;
};

// Builds the span tree of one rep from its calls: setup layers, the run,
// and inside it one span per round (with its dispatch and global-eval
// phases) and the stability phase, each call under its phase.
std::vector<Span> BuildSpans(const Rep& rep, int rounds) {
  std::vector<Span> spans;
  auto add = [&spans](std::string name, int parent, std::int64_t start,
                      std::int64_t end, int round = -1, int client = -1,
                      int thread = 0) {
    const int id = static_cast<int>(spans.size());
    spans.push_back({id, parent, std::move(name), start, end, round, client,
                     thread});
    return id;
  };
  const Phases p = FindPhases(rep, rounds);
  const int root = add("rep", -1, rep.t0_ns, rep.end_ns);
  const int run_id = add("fl.run", root, p.run->start_ns, p.run->end_ns);
  std::vector<int> round_id, dispatch_id;
  std::map<int, int> eval_id;
  for (int r = 0; r < rounds; ++r) {
    const auto i = static_cast<std::size_t>(r);
    round_id.push_back(
        add("fl.round", run_id, p.begin[i]->start_ns, p.RoundEnd(r), r));
    dispatch_id.push_back(add("fl.dispatch", round_id.back(),
                              p.begin[i]->end_ns, p.finish[i]->start_ns, r));
    auto it = p.global_eval.find(r);
    if (it != p.global_eval.end()) {
      eval_id[r] = add("fl.global_eval", round_id.back(), it->second.first,
                       it->second.second, r);
    }
  }
  const int stability_id =
      add("fl.stability", run_id, p.prep->start_ns,
          std::max(p.stability_end, p.prep->end_ns));
  for (const auto& c : rep.calls) {
    int parent = root;
    const bool in_round = c.round >= 0 && c.round < rounds;
    switch (c.layer) {
      case Layer::kRun: continue;
      case Layer::kSetup: parent = run_id; break;
      case Layer::kBeginRound:
      case Layer::kFinishRound:
      case Layer::kRoundSink:
      case Layer::kJournalAppend:
        parent =
            in_round ? round_id[static_cast<std::size_t>(c.round)] : run_id;
        break;
      case Layer::kRunClient:
        parent = dispatch_id[static_cast<std::size_t>(c.round)];
        break;
      case Layer::kGlobalLogits: parent = eval_id[c.round]; break;
      case Layer::kPrepareEval:
      case Layer::kClientLogits: parent = stability_id; break;
      default: break;
    }
    add(LayerName(c.layer), parent, c.start_ns, c.end_ns, c.round, c.client,
        c.thread);
  }
  return spans;
}

// Self time per span name: duration minus the union of its children's
// intervals (children may overlap when they ran on several threads).
std::map<std::string, double> SelfMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    auto& iv = kids[static_cast<std::size_t>(s.id)];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

// Chrome trace-event JSON (chrome://tracing, Perfetto): one process per
// traced rep, one track per recording thread; args carry id/parent/round/
// client.  Also embeds the per-name self times.
void WriteTrace(const std::string& path,
                const std::vector<std::vector<Span>>& reps,
                const std::map<std::string, double>& self_ms) {
  std::ofstream out(path);
  if (!out) return;
  const std::int64_t base =
      reps.empty() || reps[0].empty() ? 0 : reps[0][0].start_ns;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (std::size_t p = 0; p < reps.size(); ++p) {
    for (const auto& s : reps[p]) {
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                    "\"parent\":%d,"
                    "\"round\":%d,\"client\":%d}}",
                    first ? "" : ",", s.name.c_str(), p, s.thread,
                    static_cast<double>(s.start_ns - base) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                    s.parent, s.round, s.client);
      out << buf;
      first = false;
    }
  }
  out << "\n],\"self_ms_median\":{";
  first = true;
  for (const auto& [name, ms] : self_ms) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.6f", first ? "" : ",",
                  name.c_str(), ms);
    out << buf;
    first = false;
  }
  out << "}}\n";
}

// ---------------------------------------------------------------------------
// Statistics and output

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, int pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// The highest whole percentile that leaves at least 10 samples beyond it
// in a pool of `min_pool` samples.  Fixed per workload and mode (from the
// minimum rep count), so it does not drift with how many reps fit.
int TailPercentile(int min_pool) {
  if (min_pool <= 10) return 50;
  return std::clamp(static_cast<int>(std::floor(100.0 * (min_pool - 10) /
                                                min_pool)),
                    50, 99);
}

// round_ms_tail: this percentile of the run's per-round times.
constexpr int kRoundTailPct = 90;

// The end-to-end timings of a run, from its untraced reps.  The reps of one
// seed line up segment by segment (Timeline), and each segment counts with
// its fastest time over the reps.  Other tenants of a shared host slow the
// machine for fractions of a second at a time; the fastest time drops
// those slow spells wherever they fall in each rep.
struct Profile {
  double run_ms = 0, dispatch_ms = 0, eval_ms = 0;
  std::vector<double> round_ms;
};

Profile FastestSegments(const std::vector<RepStats>& reps) {
  Profile p;
  if (reps.empty()) return p;
  const Timeline& t = reps[0].timeline;
  std::vector<double> seg = t.seg_ms;
  double finalize = reps[0].finalize_ms, stability = reps[0].stability_ms;
  for (const auto& s : reps) {
    for (std::size_t i = 0; i < seg.size(); ++i) {
      seg[i] = std::min(seg[i], s.timeline.seg_ms[i]);
    }
    finalize = std::min(finalize, s.finalize_ms);
    stability = std::min(stability, s.stability_ms);
  }
  auto sum = [&seg](Timeline::Range r) {
    double total = 0;
    for (int i = r.first; i < r.second; ++i) {
      total += seg[static_cast<std::size_t>(i)];
    }
    return total;
  };
  p.run_ms = sum({0, static_cast<int>(seg.size())}) + finalize;
  for (std::size_t r = 0; r < t.round.size(); ++r) {
    p.round_ms.push_back(sum(t.round[r]));
    p.dispatch_ms += sum(t.dispatch[r]);
    p.eval_ms += sum(t.global_eval[r]);
  }
  p.eval_ms += sum(t.prepare) + stability;
  return p;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

bool OptimizedBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  return kOptimized && (type == "Release" || type == "RelWithDebInfo");
}

void PrintProvenance() {
  std::printf(
      "provenance {\"git_describe\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\", "
      "\"kernel_backend\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"optimized\": %s}\n",
      JsonEscape(obs::GitDescribe()).c_str(),
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      kernels::KernelBackendName(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      kOptimized ? "true" : "false");
}

// Operation names the per-op profiler records (src/nn, src/fl/client.cc).
const std::vector<std::string>& NnOps() {
  static const std::vector<std::string> kOps = {
      "conv2d_fwd",    "conv2d_bwd",  "batchnorm_fwd", "batchnorm_bwd",
      "linear_fwd",    "linear_bwd",  "attention_fwd", "attention_bwd",
      "layernorm_fwd", "embedding_fwd", "avgpool2d_fwd", "opt_step"};
  return kOps;
}
// The ones that run GEMMs, so their GFLOP/s is defined.
bool GemmOp(const std::string& op) {
  return op.rfind("conv2d", 0) == 0 || op.rfind("linear", 0) == 0 ||
         op.rfind("attention", 0) == 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".";
  bool short_run = false;
  bool self_test = false;
  bool describe = false;
};

int Fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  return 2;
}

int RunBenchmark(const Args& args, const Workload& w) {
  const int rounds = args.short_run ? w.short_rounds : w.rounds;
  const double floor = args.short_run ? -1.0 : w.acc_floor;
  // Minimum measured reps: 3 untraced (trace 0), or 3 traced + 3 untraced
  // (trace 1).
  const int min_reps = args.short_run ? 1 : 3;
  const double hard_stop_s = 120.0;  // stays inside the 180 s exit limit

  PrintProvenance();
  std::fflush(stdout);
  fs::create_directories(args.work_dir + "/runs");

  int attempted = 0, failed = 0;
  // Process-wide scratch high-water mark: the max over every rep, warm-up
  // included (see Rep::scratch_peak_bytes).
  std::size_t scratch_hwm = 0;
  std::uint64_t reference = 0;
  std::string reference_order;
  bool have_reference = false;
  std::vector<Rep> untraced, traced;
  auto run_one = [&](bool profile) {
    RepOptions o;
    o.rounds = rounds;
    o.threads = w.threads;
    o.profile = profile;
    o.index = attempted;
    o.work_dir = args.work_dir;
    Rep rep = RunRep(w, args.seed, o);
    ++attempted;
    scratch_hwm = std::max(scratch_hwm, rep.scratch_peak_bytes);
    std::string why = CheckRep(rep, w, rounds, floor, /*proxy=*/true);
    const std::uint64_t fp = Fingerprint(rep.result);
    if (why.empty()) {
      if (!have_reference) {
        reference = fp;
        reference_order = SerialOrder(rep);
        have_reference = true;
      } else if (fp != reference) {
        why = "fingerprint differs from the first rep of this seed";
      } else if (SerialOrder(rep) != reference_order) {
        why = "serial call order differs from the first rep of this seed";
      }
    }
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: rep %d failed: %s\n", attempted - 1,
                   why.c_str());
      return;
    }
    std::fprintf(stderr, "perfbench: rep %d %s wall %.3f s, cpu steal %.3f\n",
                 attempted - 1, profile ? "traced" : "untraced",
                 static_cast<double>(rep.end_ns - rep.t0_ns) / 1e9,
                 rep.steal_share);
    (profile ? traced : untraced).push_back(std::move(rep));
  };

  const std::int64_t start = NowNs();
  run_one(false);  // warm-up: checked, not timed
  untraced.clear();
  // setup_s is the median of set-up samples taken after the warm-up: a
  // sample is cheap, so there are many more of them than reps.
  std::vector<double> setup_samples;
  for (int i = 0; args.trace == 0 && i < kSetupSamples; ++i) {
    RepOptions o;
    o.rounds = rounds;
    o.threads = w.threads;
    o.setup_only = true;
    o.index = attempted;
    o.work_dir = args.work_dir;
    const Rep rep = RunRep(w, args.seed, o);
    ++attempted;
    if (!rep.error.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: set-up sample failed: %s\n",
                   rep.error.c_str());
      continue;
    }
    setup_samples.push_back(
        static_cast<double>(rep.setup_end_ns - rep.t0_ns) / 1e9);
  }
  const std::int64_t measure_from = NowNs();
  auto elapsed_s = [](std::int64_t since) {
    return static_cast<double>(NowNs() - since) / 1e9;
  };
  for (int i = 0;; ++i) {
    const bool enough = static_cast<int>(untraced.size()) >= min_reps &&
                        (args.trace == 0 ||
                         static_cast<int>(traced.size()) >= min_reps);
    if ((enough && elapsed_s(measure_from) >= args.seconds) ||
        elapsed_s(start) >= hard_stop_s || attempted > 1000) {
      break;
    }
    run_one(args.trace != 0 && i % 2 == 1);
  }

  std::vector<RepStats> us, ts;
  for (const auto& r : untraced) us.push_back(Analyze(r, rounds, w.threads));
  for (const auto& r : traced) ts.push_back(Analyze(r, rounds, w.threads));
  if (us.empty() || (args.trace != 0 && ts.empty())) {
    failed = std::max(failed, 1);
  }
  auto med = [](const std::vector<RepStats>& v, double RepStats::*field) {
    std::vector<double> xs;
    for (const auto& s : v) xs.push_back(s.*field);
    return Median(xs);
  };
  auto pool = [](const std::vector<RepStats>& v,
                 std::vector<double> RepStats::*field) {
    std::vector<double> xs;
    for (const auto& s : v) {
      xs.insert(xs.end(), (s.*field).begin(), (s.*field).end());
    }
    return xs;
  };
  const Rep* sample = !untraced.empty() ? &untraced.front()
                      : !traced.empty() ? &traced.front()
                                        : nullptr;
  const double repeat_spec_share =
      sample == nullptr
          ? 0.0
          : 1.0 - static_cast<double>(sample->distinct_eval_specs) /
                      sample->clients;

  // Workload properties and the output check's numbers (every mode).
  if (sample != nullptr) {
    std::vector<double> shards(sample->shard_sizes.begin(),
                               sample->shard_sizes.end());
    std::vector<double> steal;
    for (const auto* reps : {&untraced, &traced}) {
      for (const auto& r : *reps) steal.push_back(r.steal_share);
    }
    std::printf(
        "workload {\"name\": \"%s\", \"seed\": %llu, \"rounds\": %d, "
        "\"threads\": %d, \"clients\": %d, \"sampled_per_round\": %d, "
        "\"shard_size_min\": %g, \"shard_size_median\": %g, "
        "\"shard_size_max\": %g, \"distinct_eval_specs\": %d, "
        "\"repeat_eval_spec_share\": %.4f, \"reps_untraced\": %zu, "
        "\"reps_traced\": %zu, \"cpu_steal_share\": %.4f}\n",
        w.name, static_cast<unsigned long long>(args.seed), rounds, w.threads,
        sample->clients, sample->sample_count,
        *std::min_element(shards.begin(), shards.end()), Median(shards),
        *std::max_element(shards.begin(), shards.end()),
        sample->distinct_eval_specs, repeat_spec_share, untraced.size(),
        traced.size(), Median(steal));
    const fl::RunResult& r = sample->result;
    std::printf("quality {\"final_acc\": %.4f, \"global_acc\": %.4f, "
                "\"stability_variance\": %.6f, \"fingerprint\": "
                "\"%016llx\"}\n",
                r.MeanClientAccuracy(), r.final_accuracy,
                r.StabilityVariance(),
                static_cast<unsigned long long>(Fingerprint(r)));
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const Profile prof = FastestSegments(us);
    std::printf("timings: fastest of %zu reps for each of %zu segments; "
                "round_ms_tail is p%d of %zu rounds; setup_s is the median "
                "of %zu samples\n",
                us.size(), us.empty() ? 0 : us[0].timeline.seg_ms.size(),
                kRoundTailPct, prof.round_ms.size(), setup_samples.size());
    const double train_samples = us.empty() ? 0.0 : us[0].train_samples;
    const double eval_samples = us.empty() ? 0.0 : us[0].eval_samples;
    metrics = {
        {"run_s", prof.run_ms / 1e3, "s"},
        {"setup_s", Median(setup_samples), "s"},
        {"round_ms_p50", Percentile(prof.round_ms, 50), "ms"},
        {"round_ms_tail", Percentile(prof.round_ms, kRoundTailPct), "ms"},
        {"train_samples_per_s", train_samples / (prof.dispatch_ms / 1e3), "1/s"},
        {"eval_samples_per_s", eval_samples / (prof.eval_ms / 1e3), "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"final_acc", sample ? sample->result.MeanClientAccuracy() : 0.0,
         "fraction"},
    };
  } else {
    // Spans and self times.
    std::vector<std::vector<Span>> span_reps;
    std::map<std::string, std::vector<double>> self_all;
    std::size_t span_count = 0;
    for (const auto& r : traced) {
      span_reps.push_back(BuildSpans(r, rounds));
      span_count += span_reps.back().size();
      for (const auto& [name, ms] : SelfMs(span_reps.back())) {
        self_all[name].push_back(ms);
      }
    }
    std::map<std::string, double> self_ms;
    for (const auto& [name, xs] : self_all) self_ms[name] = Median(xs);
    fs::create_directories(args.work_dir + "/traces");
    const std::string trace_path = args.work_dir + "/traces/" + w.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".trace.json";
    WriteTrace(trace_path, span_reps, self_ms);
    std::printf("trace written to %s (%zu spans, %zu traced reps)\n",
                trace_path.c_str(), span_count, traced.size());
    std::printf("self time per layer (median over traced reps, ms):\n");
    for (const auto& [name, ms] : self_ms) {
      std::printf("  %-32s %12.3f\n", name.c_str(), ms);
    }
    // Dispatch, stability, the serial algorithm calls and the serial
    // remainder partition run_s; eval overlaps the last two.  Each share is
    // printed as median [min, max] over the reps, for the traced reps and
    // for the untraced ones (no profiler attached).
    for (const auto* reps : {&ts, &us}) {
      if (reps->empty()) continue;
      auto share = [&](double RepStats::*field) {
        std::vector<double> xs;
        for (const auto& s : *reps) xs.push_back(s.*field);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.3f [%.3f, %.3f]", Median(xs),
                      *std::min_element(xs.begin(), xs.end()),
                      *std::max_element(xs.begin(), xs.end()));
        return std::string(buf);
      };
      std::printf(
          "shares of run_s (%s, %zu reps): dispatch %s + stability %s + "
          "serial algorithm calls %s + serial %s; eval (global + stability) "
          "%s\n",
          reps == &ts ? "traced" : "untraced", reps->size(),
          share(&RepStats::dispatch_share).c_str(),
          share(&RepStats::stability_share).c_str(),
          share(&RepStats::serial_calls_share).c_str(),
          share(&RepStats::serial_share).c_str(),
          share(&RepStats::eval_share).c_str());
    }
    const std::vector<double> client_pool =
        pool(ts, &RepStats::run_client_each_ms);
    const int client_tail = TailPercentile(
        min_reps * (ts.empty() ? 0 : static_cast<int>(ts[0].run_client_calls)));
    std::printf("run_client_ms_tail is p%d of %zu pooled calls\n", client_tail,
                client_pool.size());

    // Per-op profiler totals: wall ms, or GEMM GFLOP per wall second.
    auto op_med = [&](const std::string& op, bool gflops) {
      std::vector<double> xs;
      for (const auto& r : traced) {
        auto it = r.ops.find(op);
        const double wall_ns =
            it == r.ops.end() ? 0.0 : static_cast<double>(it->second.wall_ns);
        if (!gflops) {
          xs.push_back(wall_ns / 1e6);
        } else {
          xs.push_back(wall_ns > 0 ? static_cast<double>(
                                         it->second.gemm_flops) / wall_ns
                                   : 0.0);
        }
      }
      return Median(xs);
    };
    struct Field {
      const char* name;
      double RepStats::*field;
      const char* unit;
    };
    const std::vector<Field> fields = {
        {"fl.dispatch_ms", &RepStats::dispatch_ms, "ms"},
        {"fl.dispatch_efficiency", &RepStats::dispatch_efficiency, "share"},
        {"fl.stability_ms", &RepStats::stability_ms, "ms"},
        {"fl.stability_efficiency", &RepStats::stability_efficiency, "share"},
        {"fl.global_eval_ms", &RepStats::global_eval_ms, "ms"},
        {"fl.serial_ms", &RepStats::serial_ms, "ms"},
        {"fl.dispatch_share", &RepStats::dispatch_share, "share"},
        {"fl.eval_share", &RepStats::eval_share, "share"},
        {"fl.serial_share", &RepStats::serial_share, "share"},
        {"fl.stability_share", &RepStats::stability_share, "share"},
        {"fl.client_rounds", &RepStats::run_client_calls, "count"},
        {"fl.clients_dropped", &RepStats::clients_dropped, "count"},
        {"fl.engine_init_ms", &RepStats::engine_init_ms, "ms"},
        {"algorithms.setup_ms", &RepStats::alg_setup_ms, "ms"},
        {"algorithms.make_algorithm_ms", &RepStats::make_algorithm_ms, "ms"},
        {"algorithms.run_client_ms", &RepStats::run_client_ms, "ms"},
        {"algorithms.run_client_calls", &RepStats::run_client_calls, "count"},
        {"algorithms.begin_round_ms", &RepStats::begin_round_ms, "ms"},
        {"algorithms.finish_round_ms", &RepStats::finish_round_ms, "ms"},
        {"algorithms.global_logits_ms", &RepStats::global_logits_ms, "ms"},
        {"algorithms.global_logits_calls", &RepStats::global_logits_calls,
         "count"},
        {"algorithms.client_logits_ms", &RepStats::client_logits_ms, "ms"},
        {"algorithms.client_logits_calls", &RepStats::client_logits_calls,
         "count"},
        {"algorithms.prepare_eval_ms", &RepStats::prepare_eval_ms, "ms"},
        {"tensor.gemm_gflop", &RepStats::gemm_gflop, "GFLOP"},
        {"tensor.gemm_gflop_per_busy_s", &RepStats::gemm_gflop_per_busy_s,
         "GFLOP/s"},
        {"tensor.scratch_chunk_allocs", &RepStats::scratch_chunk_allocs,
         "count"},
        {"data.make_task_ms", &RepStats::make_task_ms, "ms"},
        {"device.sample_fleet_ms", &RepStats::sample_fleet_ms, "ms"},
        {"constraints.build_assignments_ms", &RepStats::build_assignments_ms,
         "ms"},
        {"models.make_task_models_ms", &RepStats::make_task_models_ms, "ms"},
        {"obs.round_sink_ms", &RepStats::round_sink_ms, "ms"},
        {"obs.sink_bytes_written", &RepStats::sink_bytes_written, "bytes"},
        {"obs.journal_append_ms", &RepStats::journal_append_ms, "ms"},
        {"obs.finalize_ms", &RepStats::finalize_ms, "ms"},
        {"obs.counter_series", &RepStats::counter_series, "count"},
        {"obs.histogram_series", &RepStats::histogram_series, "count"},
    };
    for (const auto& f : fields) {
      metrics.push_back({f.name, med(ts, f.field), f.unit});
    }
    metrics.push_back(
        {"algorithms.run_client_ms_p50", Percentile(client_pool, 50), "ms"});
    metrics.push_back({"algorithms.run_client_ms_tail",
                       Percentile(client_pool, client_tail), "ms"});
    for (const auto& op : NnOps()) {
      metrics.push_back({"nn." + op + "_ms", op_med(op, false), "ms"});
      if (GemmOp(op)) {
        metrics.push_back(
            {"nn." + op + "_gflop_per_s", op_med(op, true), "GFLOP/s"});
      }
    }
    metrics.push_back({"fl.aggregate_accumulate_ms",
                       op_med("aggregate_accumulate", false), "ms"});
    metrics.push_back(
        {"fl.aggregate_apply_ms", op_med("aggregate_apply", false), "ms"});
    metrics.push_back(
        {"models.extract_update_ms", op_med("extract_update", false), "ms"});
    metrics.push_back({"tensor.scratch_peak_mb",
                       static_cast<double>(scratch_hwm) / (1024.0 * 1024.0),
                       "MB"});
    const double clients = sample ? sample->clients : 0;
    const std::vector<Metric> tail = {
        {"workload.clients", clients, "count"},
        {"workload.sampled_per_round",
         sample ? static_cast<double>(sample->sample_count) : 0.0, "count"},
        {"workload.distinct_eval_specs",
         sample ? static_cast<double>(sample->distinct_eval_specs) : 0.0,
         "count"},
        {"workload.repeat_eval_spec_share", repeat_spec_share, "share"},
        {"trace.overhead_s",
         med(ts, &RepStats::run_s) - med(us, &RepStats::run_s), "s"},
        {"trace.spans", static_cast<double>(span_count), "count"},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());
  }

  bool finite = true;
  for (auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      finite = false;
      m.value = 0.0;
    }
  }
  if (!finite) {
    std::fprintf(stderr, "perfbench: a metric was not finite\n");
    failed = std::max(failed, 1);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              MetricsJson(metrics).c_str());
  return 0;
}

// Shortened workloads: fingerprints must match at 1 and 4 threads, and
// with the proxy versus the bare algorithm.
int SelfTest(const Args& args) {
  int bad = 0;
  for (const auto& w : Workloads()) {
    std::vector<std::pair<std::string, std::uint64_t>> fps;
    for (const auto& [label, threads, proxy] :
         std::vector<std::tuple<std::string, int, bool>>{
             {"proxy@1", 1, true},
             {"proxy@4", 4, true},
             {"bare@4", 4, false}}) {
      RepOptions o;
      o.rounds = w.short_rounds;
      o.threads = threads;
      o.proxy = proxy;
      o.work_dir = args.work_dir;
      const Rep rep = RunRep(w, 1, o);
      const std::string why = CheckRep(rep, w, w.short_rounds, -1.0, proxy);
      if (!why.empty()) {
        std::printf("selftest %s %s: FAIL %s\n", w.name, label.c_str(),
                    why.c_str());
        ++bad;
      }
      fps.push_back({label, Fingerprint(rep.result)});
    }
    bool same = true;
    for (const auto& [label, fp] : fps) same = same && fp == fps.front().second;
    std::printf("selftest %s fingerprints:", w.name);
    for (const auto& [label, fp] : fps) {
      std::printf(" %s=%016llx", label.c_str(),
                  static_cast<unsigned long long>(fp));
    }
    std::printf(" %s\n", same ? "equal" : "DIFFER");
    if (!same) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

int Describe() {
  std::printf("[");
  bool first = true;
  for (const auto& w : Workloads()) {
    std::printf("%s{\"name\": \"%s\", \"task\": \"%s\", \"algorithm\": \"%s\", "
                "\"constraint\": \"%s\", \"clients\": %d, \"rounds\": %d, "
                "\"threads\": %d, \"acc_floor\": %g}",
                first ? "" : ", ", w.name, w.task, w.algorithm, w.constraint,
                w.clients, w.rounds, w.threads, w.acc_floor);
    first = false;
  }
  std::printf("]\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed")
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds")
      args.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") args.trace = std::atoi(value().c_str());
    else if (a == "--work-dir") args.work_dir = value();
    else if (a == "--short") args.short_run = true;
    else if (a == "--self-test") args.self_test = true;
    else if (a == "--describe") args.describe = true;
    else return Fail("unknown argument " + a);
  }
  if (args.describe) return Describe();
  if (!OptimizedBuild()) {
    return Fail(std::string("refusing to report from an unoptimized build (") +
                PERFBENCH_BUILD_TYPE + ")");
  }
  try {
    if (args.self_test) return SelfTest(args);
    for (const auto& w : Workloads()) {
      if (args.workload == w.name) return RunBenchmark(args, w);
    }
    return Fail("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
}
