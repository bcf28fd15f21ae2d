// mhb-lint: path(src/fl/fixture_barrier_phase.cc)
// Registry mutations outside a declared phase, serial-only calls under a
// 'parallel' annotation, a 'serial' claim inside a pool lambda, and an
// unknown phase name.
#include "core/thread_pool.h"
#include "obs/registry.h"

namespace mhbench {

void Unannotated(obs::Registry* reg) {
  reg->AddNamed("x", 1);  // expect: barrier-phase-writes
}

// mhb-obs-phase: parallel
void WrongPhase(obs::Registry* reg, std::size_t id) {
  reg->Add(id, 1);           // legal: concurrent-safe add
  reg->EndRound("algo", 0);  // expect: barrier-phase-writes
}

// mhb-obs-phase: serial
void LyingAnnotation(core::ThreadPool* pool, obs::Registry* reg,
                     std::size_t id) {
  core::ParallelFor(pool, 4, [&](std::size_t i) {
    reg->Add(id, static_cast<std::int64_t>(i));  // expect: barrier-phase-writes
  });
}

// mhb-obs-phase: later   // expect: barrier-phase-writes
void Tail() {}

}  // namespace mhbench
