#include "bench_support/experiment.h"

#include <algorithm>

#include "algorithms/registry.h"
#include "constraints/combined.h"
#include "constraints/communication_limited.h"
#include "constraints/computation_limited.h"
#include "constraints/memory_limited.h"
#include "core/env.h"
#include "core/error.h"
#include "core/logging.h"
#include "data/tasks.h"
#include "device/calibration.h"
#include "device/cost_model.h"
#include "device/tier.h"
#include "fl/engine.h"
#include "models/zoo.h"

namespace mhbench::bench_support {
namespace {

// Assignments for the "none" constraint: the literature's proportional
// splitting — cycle the ratio ladder over clients blind to the device.
// Execution still happens on the client's real hardware, so system costs
// are charged at each client's own speed/bandwidth (this is exactly the
// unfairness the paper's constraint cases eliminate).
constraints::BuiltAssignments ProportionalAssignments(
    const std::string& algorithm, const std::string& task,
    const device::Fleet& fleet, const std::vector<double>& ladder) {
  const device::PaperTaskDescs descs = device::PaperDescsForTask(task);

  constraints::BuiltAssignments out;
  out.assignments.reserve(fleet.size());
  const bool topology =
      device::AxisOf(algorithm) == device::ScaleAxis::kFull;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    device::DeviceProfile own;
    own.name = "fleet-client";
    own.gflops = fleet[i].gflops;
    own.bandwidth_mbps = fleet[i].bandwidth_mbps;
    own.memory_mb = fleet[i].memory_mb;
    own.has_gpu = fleet[i].has_gpu;

    fl::ClientAssignment a;
    if (topology) {
      a.capacity = 1.0;
      a.arch_index = static_cast<int>(i % descs.topology.size());
      device::CostModel cm(
          descs.topology[static_cast<std::size_t>(a.arch_index)]);
      const auto cost = cm.Cost(algorithm, 1.0, own);
      a.system.compute_time_s = cost.train_time_s;
      a.system.comm_time_s = cost.comm_time_s;
      a.system.memory_mb = cost.memory_mb;
      a.system.comm_mb = cost.comm_mb;
      a.system.train_gflops = cost.gflops_fwd;
    } else {
      a.capacity = ladder[i % ladder.size()];
      device::CostModel cm(descs.primary);
      const auto cost = cm.Cost(algorithm, a.capacity, own);
      a.system.compute_time_s = cost.train_time_s;
      a.system.comm_time_s = cost.comm_time_s;
      a.system.memory_mb = cost.memory_mb;
      a.system.comm_mb = cost.comm_mb;
      a.system.train_gflops = cost.gflops_fwd;
    }
    a.system.device_tier =
        device::DeviceTierName(fleet[i].memory_mb, fleet[i].has_gpu);
    out.assignments.push_back(a);
  }
  return out;
}

constraints::BuiltAssignments BuildAssignments(
    const std::string& algorithm, const SuiteOptions& options,
    const device::Fleet& fleet, const std::vector<double>& ladder) {
  constraints::ConstraintOptions copts;
  copts.ratio_ladder = ladder;
  const std::string& c = options.constraint;
  if (c == "none") {
    return ProportionalAssignments(algorithm, options.task, fleet, ladder);
  }
  if (c == "computation") {
    return constraints::BuildComputationLimited(algorithm, options.task,
                                                fleet, copts);
  }
  if (c == "communication") {
    return constraints::BuildCommunicationLimited(algorithm, options.task,
                                                  fleet, copts);
  }
  if (c == "memory") {
    return constraints::BuildMemoryLimited(algorithm, options.task, fleet,
                                           copts);
  }
  if (c == "comm+mem") {
    return constraints::BuildCommMemLimited(algorithm, options.task, fleet,
                                            copts);
  }
  if (c == "comp+comm+mem") {
    return constraints::BuildCompCommMemLimited(algorithm, options.task,
                                                fleet, copts);
  }
  throw Error("unknown constraint case: " + c);
}

int Repeats() { return std::max(1, EnvInt("MHB_REPEATS", 1)); }

bool Checkpointing(const SuiteOptions& options) {
  return options.checkpoint_every > 0 || !options.resume_path.empty();
}

void Reject(const std::string& field, const std::string& rule,
            const std::string& got) {
  throw Error("SuiteOptions." + field + " must be " + rule + ", got " + got);
}

kernels::EvalPrecision ParsedEvalPrecision(const BenchPreset& preset) {
  kernels::EvalPrecision ep = kernels::EvalPrecision::kF32;
  if (!kernels::ParseEvalPrecision(preset.eval_precision.c_str(), &ep)) {
    Reject("preset.eval_precision", "f32|bf16|int8",
           "'" + preset.eval_precision + "'");
  }
  return ep;
}

// Rejects options no run can honor, at RunOne/RunSuite entry: otherwise the
// fedavg-small baseline trains in full before the requested run fails, or
// a bad value silently runs something else (a negative alpha runs IID).
void ValidateOptions(const SuiteOptions& options) {
  const int repeats = Repeats();
  if (repeats > 1 && options.obs.det_audit != nullptr) {
    Reject("obs.det_audit", "unset when MHB_REPEATS > 1 (the ledger chains "
           "one engine run's round barriers)",
           "MHB_REPEATS=" + std::to_string(repeats));
  }
  if (repeats > 1 && Checkpointing(options)) {
    Reject("checkpoint_every/resume_path",
           "unset when MHB_REPEATS > 1 (a snapshot names one engine run)",
           "MHB_REPEATS=" + std::to_string(repeats));
  }
  if (!(options.dirichlet_alpha >= 0.0)) {
    Reject("dirichlet_alpha", ">= 0 (0 keeps IID)",
           std::to_string(options.dirichlet_alpha));
  }
  if (!(options.target_fraction > 0.0 && options.target_fraction <= 1.0)) {
    Reject("target_fraction", "in (0, 1]",
           std::to_string(options.target_fraction));
  }
  if (options.checkpoint_every < 0) {
    Reject("checkpoint_every", ">= 0",
           std::to_string(options.checkpoint_every));
  }
  ParsedEvalPrecision(options.preset);
}

metrics::MetricBundle RunWith(const std::string& algorithm,
                              const SuiteOptions& options,
                              const std::vector<double>& ladder,
                              double fedavg_ratio, bool allow_checkpoint) {
  const BenchPreset& p = options.preset;
  const int repeats = Repeats();
  const bool checkpointing = allow_checkpoint && Checkpointing(options);

  metrics::MetricBundle bundle;
  bundle.algorithm = algorithm;
  bundle.task = options.task;
  bundle.constraint = options.constraint;

  for (int rep = 0; rep < repeats; ++rep) {
    data::TaskConfig tcfg;
    tcfg.train_samples = p.train_samples;
    tcfg.test_samples = p.test_samples;
    tcfg.num_clients = p.clients;
    tcfg.seed = p.seed + static_cast<std::uint64_t>(rep);
    const data::Task task = data::MakeTask(options.task, tcfg);

    device::FleetConfig fcfg;
    fcfg.num_clients = p.clients;
    fcfg.seed = options.fleet_seed + static_cast<std::uint64_t>(rep);
    const device::Fleet fleet = device::SampleFleet(fcfg);

    constraints::BuiltAssignments built =
        BuildAssignments(algorithm, options, fleet, ladder);

    const models::TaskModels tm = models::MakeTaskModels(options.task);
    algorithms::AlgorithmOptions aopts;
    aopts.fedavg_ratio = fedavg_ratio;
    aopts.seed = p.seed + static_cast<std::uint64_t>(rep) * 31;
    auto alg = algorithms::MakeAlgorithm(algorithm, tm, aopts);

    fl::FlConfig fcfg2;
    fcfg2.rounds = p.rounds;
    fcfg2.sample_fraction = p.sample_fraction;
    fcfg2.eval_every = p.eval_every;
    fcfg2.eval_max_samples = p.eval_max_samples;
    fcfg2.stability_max_samples = p.stability_max_samples;
    fcfg2.seed = p.seed + static_cast<std::uint64_t>(rep) * 17;
    fcfg2.num_threads = p.threads;
    fcfg2.threaded_gemm = p.threaded_gemm != 0;
    fcfg2.eval_precision = ParsedEvalPrecision(p);
    if (options.dirichlet_alpha > 0) {
      fcfg2.partition = fl::PartitionKind::kDirichlet;
      fcfg2.dirichlet_alpha = options.dirichlet_alpha;
    }
    fcfg2.round_deadline_s = options.round_deadline_s;
    fcfg2.obs = options.obs;
    if (!allow_checkpoint) {
      // The det-audit ledger names one engine run (its header carries that
      // run's algorithm/seed/rounds); the hidden FedAvg reference run must
      // not interleave rows into it.
      fcfg2.obs.det_audit = nullptr;
    }
    if (checkpointing) {
      fcfg2.checkpoint_every = options.checkpoint_every;
      fcfg2.checkpoint_dir = options.checkpoint_dir;
      fcfg2.resume_path = options.resume_path;
    }

    fl::FlEngine engine(task, fcfg2, built.assignments, *alg);
    const fl::RunResult run = engine.Run();

    bundle.global_accuracy += run.final_accuracy / repeats;
    bundle.stability_variance += run.StabilityVariance() / repeats;
    bundle.total_sim_time_s += run.total_sim_time_s / repeats;
    bundle.mean_client_accuracy += run.MeanClientAccuracy() / repeats;
    // Raw straggler provenance: the counters sum over rounds and repeats;
    // the drop *rate* is derived at report time (metrics/report.cc).
    bundle.clients_dropped += run.straggler_drops;
    bundle.clients_selected += run.total_participations;
    if (rep == 0) {
      for (const auto& r : run.curve) {
        bundle.curve_time_s.push_back(r.sim_time_s);
        bundle.curve_accuracy.push_back(r.global_acc);
      }
    }
  }
  MHB_LOG_INFO << options.constraint << "/" << options.task << "/"
               << algorithm << ": acc=" << bundle.global_accuracy
               << " stability=" << bundle.stability_variance;
  return bundle;
}

}  // namespace

metrics::MetricBundle RunOne(const std::string& algorithm,
                             const SuiteOptions& options) {
  ValidateOptions(options);
  return RunWith(algorithm, options, algorithms::RatioLadder(),
                 /*fedavg_ratio=*/1.0, /*allow_checkpoint=*/true);
}

std::vector<metrics::MetricBundle> RunSuite(
    const std::vector<std::string>& algorithms_list,
    const SuiteOptions& options) {
  ValidateOptions(options);
  // Effectiveness baseline: the smallest model any device would be given
  // under this constraint, trained homogeneously everywhere (FedAvg).
  const double min_ratio = [&] {
    device::FleetConfig fcfg;
    fcfg.num_clients = options.preset.clients;
    fcfg.seed = options.fleet_seed;
    const device::Fleet fleet = device::SampleFleet(fcfg);
    const auto built = BuildAssignments("fedavg", options, fleet,
                                        algorithms::RatioLadder());
    double m = 1.0;
    for (const auto& a : built.assignments) m = std::min(m, a.capacity);
    return m;
  }();

  std::vector<metrics::MetricBundle> bundles;
  {
    metrics::MetricBundle baseline =
        RunWith("fedavg", options, {min_ratio}, min_ratio,
                /*allow_checkpoint=*/false);
    baseline.algorithm = "fedavg-small";
    bundles.push_back(std::move(baseline));
  }
  for (const auto& name : algorithms_list) {
    bundles.push_back(RunOne(name, options));
  }

  const double target = metrics::CommonTarget(bundles, options.target_fraction);
  const double baseline_acc = bundles.front().global_accuracy;
  for (auto& b : bundles) {
    b.target_accuracy = target;
    b.time_to_accuracy_s = b.TimeTo(target);
    b.effectiveness = b.global_accuracy - baseline_acc;
  }
  return bundles;
}

}  // namespace mhbench::bench_support
