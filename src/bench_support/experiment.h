// Shared experiment driver: (constraint, task, algorithm set) -> metric
// bundles, with the effectiveness baseline and common time-to-accuracy
// target handled per the paper's methodology.
#pragma once

#include <string>
#include <vector>

#include "bench_support/presets.h"
#include "metrics/recorder.h"
#include "obs/obs_config.h"

namespace mhbench::bench_support {

// Constraint case names accepted by RunSuite/RunOne: "none",
// "computation", "communication", "memory", "comm+mem", "comp+comm+mem".
struct SuiteOptions {
  std::string constraint = "computation";
  std::string task = "cifar100";
  BenchPreset preset = BenchPreset::FromEnv();
  // Dirichlet alpha for non-IID partitioning of IID tasks; 0 keeps IID.
  double dirichlet_alpha = 0.0;
  // Synchronous round deadline in simulated seconds (0 disables): sampled
  // clients slower than this are dropped as stragglers.
  double round_deadline_s = 0.0;
  // Fraction of the best final accuracy used as the common
  // time-to-accuracy target.
  double target_fraction = 0.7;
  std::uint64_t fleet_seed = 11;
  // Observability hooks threaded into every engine run of the suite
  // (tracer / registry / profiler pointers; all-null disables
  // collection).  Every engine run of the suite — baseline included —
  // reports into them, so a registry's round sink streams the whole
  // suite's rounds into the run directory, not just the requested
  // algorithm's.  Exception: obs.det_audit (obs/det_audit.h) reaches only
  // the requested algorithm's run — its ledger header names one run, so
  // the FedAvg reference run is excluded — and requires MHB_REPEATS=1.
  obs::ObsConfig obs;
  // Checkpoint/resume, forwarded into the engine config of the *requested*
  // algorithm's run only — never the fedavg-small effectiveness baseline.
  // Requires MHB_REPEATS=1: a snapshot names exactly one engine run, and
  // averaging repeats would silently mix resumed and fresh runs.
  int checkpoint_every = 0;
  std::string checkpoint_dir = "checkpoints";
  std::string resume_path;
};

// Runs one algorithm under the options (no effectiveness/TTA filled).
metrics::MetricBundle RunOne(const std::string& algorithm,
                             const SuiteOptions& options);

// Runs the named algorithms plus the smallest-homogeneous FedAvg baseline,
// fills effectiveness and the common-target time-to-accuracy, and returns
// the bundles in input order (baseline first under name "fedavg-small").
std::vector<metrics::MetricBundle> RunSuite(
    const std::vector<std::string>& algorithms, const SuiteOptions& options);

}  // namespace mhbench::bench_support
