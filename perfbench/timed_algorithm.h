// Call recording for the end-to-end benchmark: a per-thread log of timed
// calls into each layer, and a transparent MhflAlgorithm proxy that times
// every virtual the engine calls.
//
// The engine only ever talks to its algorithm through the MhflAlgorithm
// virtuals and never downcasts it, so forwarding each call unchanged cannot
// change a run's results (the self-test checks the fingerprints).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fl/engine.h"

namespace perfbench {

// Every boundary the benchmark times.  Setup layers are called by the
// runner, algorithm calls by the engine through the proxy, obs calls by the
// registry through the sinks the runner installs.
enum class Layer : std::uint8_t {
  kMakeTask,
  kSampleFleet,
  kBuildAssignments,
  kMakeTaskModels,
  kMakeAlgorithm,
  kEngineInit,
  kRun,
  kSetup,
  kBeginRound,
  kRunClient,
  kFinishRound,
  kGlobalLogits,
  kPrepareEval,
  kClientLogits,
  kRoundSink,
  kJournalAppend,
  kFinalize,
};

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kMakeTask: return "data.make_task";
    case Layer::kSampleFleet: return "device.sample_fleet";
    case Layer::kBuildAssignments: return "constraints.build_assignments";
    case Layer::kMakeTaskModels: return "models.make_task_models";
    case Layer::kMakeAlgorithm: return "algorithms.make_algorithm";
    case Layer::kEngineInit: return "fl.engine_init";
    case Layer::kRun: return "fl.run";
    case Layer::kSetup: return "algorithms.setup";
    case Layer::kBeginRound: return "algorithms.begin_round";
    case Layer::kRunClient: return "algorithms.run_client";
    case Layer::kFinishRound: return "algorithms.finish_round";
    case Layer::kGlobalLogits: return "algorithms.global_logits";
    case Layer::kPrepareEval: return "algorithms.prepare_eval";
    case Layer::kClientLogits: return "algorithms.client_logits";
    case Layer::kRoundSink: return "obs.round_sink";
    case Layer::kJournalAppend: return "obs.journal_append";
    case Layer::kFinalize: return "obs.finalize";
  }
  return "?";
}

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CallRecord {
  Layer layer = Layer::kRun;
  int round = -1;   // -1: not tied to a round
  int client = -1;  // -1: not a client call
  int rows = 0;     // batch rows scored (logits calls)
  int thread = 0;   // index of the recording thread in this log
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// Calls from any thread.  Each thread appends to its own log; the lock is
// taken only to find (or create) that log, never while appending.  Take()
// is for serial points, after every recording thread has been joined.
class CallLog {
 public:
  CallLog() = default;
  CallLog(const CallLog&) = delete;
  CallLog& operator=(const CallLog&) = delete;

  void Add(CallRecord record) {
    ThreadLog& log = Mine();
    record.thread = log.index;
    log.records.push_back(record);
  }

  // All records so far, sorted by start time; empties the log.
  std::vector<CallRecord> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<CallRecord> out;
    for (auto& log : logs_) {
      out.insert(out.end(), log->records.begin(), log->records.end());
      log->records.clear();
    }
    std::sort(out.begin(), out.end(),
              [](const CallRecord& a, const CallRecord& b) {
                return a.start_ns < b.start_ns;
              });
    return out;
  }

 private:
  struct ThreadLog {
    std::thread::id owner;
    int index = 0;
    std::vector<CallRecord> records;
  };

  ThreadLog& Mine() {
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& log : logs_) {
      if (log->owner == self) return *log;
    }
    auto log = std::make_unique<ThreadLog>();
    log->owner = self;
    log->index = static_cast<int>(logs_.size());
    logs_.push_back(std::move(log));
    return *logs_.back();
  }

  std::mutex mu_;
  // Thread logs never move once created (Add appends through a stable
  // reference without the lock).
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// Records one call on destruction, so a call that throws is recorded too.
class TimedCall {
 public:
  TimedCall(CallLog& log, Layer layer, int round = -1, int client = -1,
            int rows = 0)
      : log_(log), record_{layer, round, client, rows, 0, NowNs(), 0} {}
  ~TimedCall() {
    record_.end_ns = NowNs();
    log_.Add(record_);
  }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  CallLog& log_;
  CallRecord record_;
};

// Forwards every MhflAlgorithm virtual to `inner` and times it.
class TimedAlgorithm final : public mhbench::fl::MhflAlgorithm {
 public:
  TimedAlgorithm(mhbench::fl::MhflAlgorithm& inner, CallLog& log)
      : inner_(inner), log_(log) {}

  std::string name() const override { return inner_.name(); }

  void Setup(const mhbench::fl::FlContext& ctx, mhbench::Rng& rng) override {
    TimedCall t(log_, Layer::kSetup);
    inner_.Setup(ctx, rng);
  }
  void BeginRound(int round, const std::vector<int>& participants) override {
    round_ = round;
    TimedCall t(log_, Layer::kBeginRound, round);
    inner_.BeginRound(round, participants);
  }
  void RunClient(int client_id, int round, mhbench::Rng& rng) override {
    TimedCall t(log_, Layer::kRunClient, round, client_id);
    inner_.RunClient(client_id, round, rng);
  }
  void FinishRound(int round, mhbench::Rng& rng) override {
    TimedCall t(log_, Layer::kFinishRound, round);
    inner_.FinishRound(round, rng);
  }
  void PrepareEvaluation() override {
    TimedCall t(log_, Layer::kPrepareEval);
    inner_.PrepareEvaluation();
  }
  mhbench::Tensor GlobalLogits(const mhbench::Tensor& x) override {
    // Serial, after FinishRound of the round being evaluated.
    TimedCall t(log_, Layer::kGlobalLogits, round_, -1, x.dim(0));
    return inner_.GlobalLogits(x);
  }
  mhbench::Tensor ClientLogits(int client_id,
                               const mhbench::Tensor& x) override {
    TimedCall t(log_, Layer::kClientLogits, -1, client_id, x.dim(0));
    return inner_.ClientLogits(client_id, x);
  }
  void SaveState(mhbench::fl::SnapshotWriter& writer) const override {
    inner_.SaveState(writer);
  }
  void LoadState(mhbench::fl::SnapshotReader& reader) override {
    inner_.LoadState(reader);
  }

 private:
  mhbench::fl::MhflAlgorithm& inner_;
  CallLog& log_;
  int round_ = -1;  // written by BeginRound, read by GlobalLogits (serial)
};

}  // namespace perfbench
