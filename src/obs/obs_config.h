// Observability wiring carried through FlConfig into the engine and the
// algorithms.  All pointers are non-owning and may be null; a null field
// disables that collector at zero cost (a branch) in the hot paths.
#pragma once

namespace mhbench::obs {

class Tracer;
class Registry;
class Profiler;
class DetAuditor;

struct ObsConfig {
  // Wall-clock span tracing (round / dispatch / per-client / merge / eval).
  Tracer* tracer = nullptr;
  // Counter + gauge + histogram collection (bytes, FLOPs, drops, latency
  // distributions, pool utilization).
  Registry* registry = nullptr;
  // Per-op profiling (layer fwd/bwd wall time, FLOPs, scratch, allocs).
  // The engine installs it on every thread that runs client work.
  Profiler* profiler = nullptr;
  // Also emit simulated-clock spans (one lane per client) on the tracer's
  // sim track.  Requires `tracer`.
  bool sim_spans = false;
  // Determinism divergence auditor (obs/det_audit.h): the engine records a
  // per-component barrier hash chain at every round barrier.  Read-only
  // over engine state, so attaching it cannot change results
  // (DESIGN.md §5k).
  DetAuditor* det_audit = nullptr;
};

}  // namespace mhbench::obs
