// PhasedRunner: the generic SPMD pass/phase orchestrator.
//
// Owns the pass loop every phased workload shares: the barrier sequence, the
// per-phase timing stamps (barrier release to barrier release, so phase
// times tile the pass exactly), kPass/kPhase trace spans on the phase track,
// kBarrier arrival instants on each participant's node track, invariant
// hooks, and the completion coordinator that halts the simulation once the
// last barrier releases (memory servers and monitors run forever by
// design).
//
// The runner does NOT own world construction — sched::World builds the
// cluster, servers, brokers and fault plan, and the workload its stores
// (sched::PhasedJob starts the runner on the job's slots). The caller
// spawns its daemons, calls start(), then sim.run().
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "obs/trace.hpp"
#include "runtime/phase.hpp"
#include "runtime/workload.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace rms::runtime {

struct RunnerConfig {
  /// SPMD participants; participant i's trace track is node id i (or
  /// tracks[i] when a mapping is set).
  std::size_t participants = 1;
  /// Participant -> trace-track (node id) mapping for runs whose
  /// participants do not execute on nodes 0..N-1 (scheduled jobs on slot
  /// nodes). Empty: participant i uses track i, the single-job default.
  std::vector<std::int32_t> tracks;
  /// First phased pass number (HPA: 2 — pass 1 is the prologue). The
  /// prologue, when the workload has one, is numbered first_pass - 1.
  std::size_t first_pass = 1;
  /// Last pass number to attempt (inclusive); done() can stop earlier.
  std::size_t max_pass = 1;
  /// Call Workload::check_invariants after every phase/report barrier.
  bool validate_invariants = false;
  /// Timeout before the first barrier (HPA: 10 ms so the first
  /// availability broadcasts land before any swap decision).
  Time warmup = 0;
  /// Completion poll interval of the coordinator process.
  Time poll_interval = msec(100);
  /// Optional event sink for pass/phase spans and barrier instants.
  obs::TraceRecorder* trace = nullptr;
  /// Completion hook. Unset (the single-job default): the coordinator
  /// halts the simulation once the final barrier releases. Set (scheduled
  /// jobs sharing one simulation): the coordinator calls it instead — the
  /// world must keep running for the other tenants.
  std::function<void()> on_finished;
};

class PhasedRunner {
 public:
  /// Registers the workload's phases (and their trace names when a
  /// recorder is configured). The workload and config must outlive run().
  PhasedRunner(sim::Simulation& sim, Workload& workload,
               const RunnerConfig& cfg);

  PhasedRunner(const PhasedRunner&) = delete;
  PhasedRunner& operator=(const PhasedRunner&) = delete;

  /// Spawn the participant processes and the coordinator. The caller still
  /// drives sim.run() (after spawning its own daemons).
  void start();

  /// True once every participant passed the final barrier (check after
  /// sim.run() returns: false means the simulation drained early).
  bool finished() const { return finished_; }
  /// Virtual completion time (the final barrier's release).
  Time total_time() const { return total_time_; }
  /// Barrier-aligned timing of every completed pass, prologue included.
  const std::vector<PassTiming>& passes() const { return passes_; }
  const PhaseRegistry& phases() const { return phases_; }

 private:
  sim::Process participant(std::size_t idx);
  sim::Process coordinator();
  void record_pass(std::size_t pass);
  void barrier_instant(std::size_t idx, std::size_t pass);

  sim::Simulation& sim_;
  Workload& workload_;
  const RunnerConfig cfg_;
  PhaseRegistry phases_;
  /// TraceRecorder phase ids per local PhaseId (the recorder's name table
  /// is process-wide; ids can differ from the workload-local ones).
  std::vector<std::int64_t> trace_phase_ids_;
  std::unique_ptr<sim::Barrier> barrier_;

  // Participant-0 timing stamps for the pass in flight.
  Time pass_start_ = 0;
  std::vector<Time> phase_start_;
  std::vector<Time> phase_end_;

  std::vector<PassTiming> passes_;
  Time total_time_ = 0;
  bool finished_ = false;
};

}  // namespace rms::runtime
