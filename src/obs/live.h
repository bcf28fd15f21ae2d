// Live telemetry exporter (DESIGN.md §5h): a background thread that
// periodically snapshots the obs Registry's *published* state and
//
//   (a) serves it over a loopback HTTP server — `/metrics` (Prometheus
//       text exposition), `/status.json` (round progress, accuracy-curve
//       tail, counters, histogram quantiles, checkpoint info), `/healthz`;
//   (b) appends a heartbeat.jsonl line every N seconds so crashed or
//       killed runs leave a partial progress record next to the manifest;
//   (c) runs a stall watchdog that flags (log + `watchdog_stalls`
//       exporter counter, optional hard exit) when no round barrier has
//       been crossed for a configurable wall-time budget.
//
// Determinism contract: the exporter is strictly READ-ONLY on obs state.
// It reads only through Registry::SnapshotTotals(), which returns
// published round-barrier totals under the registry lock and never reads
// staged adds; it never writes a counter, gauge or histogram into the
// registry (the stall counter lives on the exporter itself precisely so a
// watchdog firing cannot change registry totals); and nothing it computes
// feeds back into engine execution.  Enabling it therefore cannot change
// results, counters or histograms at any --threads — the parallel/resume
// determinism tests run with it attached to enforce exactly that.
//
// Wall-clock use is intentional and confined to this file plus the
// manifest writer's timestamp helper (the lint rules scope the wall-clock
// bans to everything else; see tools/lint_rules.json).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "obs/http.h"
#include "obs/registry.h"

namespace mhbench::obs {

struct LiveConfig {
  // >= 0 starts the HTTP server on 127.0.0.1:<http_port> (0 = ephemeral);
  // -1 disables it.
  int http_port = -1;
  // > 0 appends a JSONL heartbeat line to `heartbeat_path` every this many
  // wall seconds (plus one final line at Stop); <= 0 disables.
  double heartbeat_every_s = 0.0;
  std::string heartbeat_path;
  // > 0 flags a stall when no NotifyProgress arrives for this many wall
  // seconds; <= 0 disables the watchdog.
  double watchdog_stall_s = 0.0;
  // On a stall, terminate the process (after logging) instead of only
  // counting.  For unattended campaigns where a hung run should fail fast.
  bool watchdog_abort = false;
  // Test seam: when set, runs instead of the process exit on an aborting
  // stall.  Invoked on the exporter thread.
  std::function<void()> on_watchdog_abort;
  // Display-only context for /status.json and the heartbeat.
  std::string run_id;
  int rounds_total = 0;  // 0 = unknown
};

class LiveExporter {
 public:
  // Starts the loop thread (heartbeat/watchdog) and, when configured, the
  // HTTP server.  `registry` may be null (endpoints then serve only
  // exporter-local state).  HTTP bind failures are logged and leave
  // http_port() at -1 rather than failing the run: losing telemetry must
  // never lose the benchmark.
  LiveExporter(LiveConfig config, const Registry* registry);
  ~LiveExporter();

  LiveExporter(const LiveExporter&) = delete;
  LiveExporter& operator=(const LiveExporter&) = delete;

  // Stops watchdog + heartbeat + HTTP server and joins their threads.
  // Writes the final heartbeat line.  Idempotent.
  void Stop();

  // The HTTP server's bound port, or -1 when disabled/unavailable.
  int http_port() const;

  // Engine hooks, called from serial round-barrier phases only.
  // NotifyProgress marks round `completed_round` done (resets the
  // watchdog); NotifyCheckpoint records a snapshot written for resumption
  // at `next_round`.
  void NotifyProgress(int completed_round, double sim_time_s)
      MHB_EXCLUDES(mu_);
  void NotifyCheckpoint(int next_round, const std::string& path)
      MHB_EXCLUDES(mu_);

  // Rendered documents — exactly what /metrics and /status.json serve.
  // Thread-safe; also useful for tests and non-HTTP consumers.
  std::string MetricsText() const MHB_EXCLUDES(mu_);
  std::string StatusJson() const MHB_EXCLUDES(mu_);

  // Watchdog / heartbeat observability (exporter-local state; never
  // written into the registry — see the file comment).
  bool stalled() const MHB_EXCLUDES(mu_);
  std::int64_t stall_count() const MHB_EXCLUDES(mu_);
  std::int64_t heartbeat_count() const MHB_EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  void Loop();
  HttpResponse Handle(const std::string& path) const;
  void CheckWatchdogLocked(Clock::time_point now) MHB_REQUIRES(mu_);
  void WriteHeartbeatLocked(Clock::time_point now) MHB_REQUIRES(mu_);
  std::string MetricsTextLocked() const MHB_REQUIRES(mu_);
  std::string StatusJsonLocked() const MHB_REQUIRES(mu_);

  const LiveConfig config_;
  const Registry* const registry_;  // read-only; may be null
  const Clock::time_point start_;

  mutable core::Mutex mu_;
  std::condition_variable cv_;
  bool stop_ MHB_GUARDED_BY(mu_) = false;
  // Progress state written by the engine at round barriers.
  int last_round_ MHB_GUARDED_BY(mu_) = -1;
  double sim_time_s_ MHB_GUARDED_BY(mu_) = 0.0;
  Clock::time_point last_progress_ MHB_GUARDED_BY(mu_);
  // Watchdog + heartbeat state (exporter-local).
  bool stalled_ MHB_GUARDED_BY(mu_) = false;
  std::int64_t stalls_ MHB_GUARDED_BY(mu_) = 0;
  std::int64_t heartbeats_ MHB_GUARDED_BY(mu_) = 0;
  Clock::time_point last_heartbeat_ MHB_GUARDED_BY(mu_);
  // Checkpoint info for /status.json.
  std::int64_t checkpoints_written_ MHB_GUARDED_BY(mu_) = 0;
  int checkpoint_next_round_ MHB_GUARDED_BY(mu_) = -1;
  std::string checkpoint_path_ MHB_GUARDED_BY(mu_);

  std::thread loop_thread_;
  std::unique_ptr<HttpServer> server_;
};

}  // namespace mhbench::obs
