// rms::sched job model: the contract between the multi-tenant scheduler and
// the workloads it runs.
//
// A job is a workload from the runtime catalog (hpa, hash_join,
// hash_aggregate) executing on a set of application-node slots inside a
// sched::World: slots leased at admission from a world it shares with
// every other running job, or every slot of a single-job world of its own
// (the standalone run_*() entry points). The world (cluster, memory
// servers, availability monitors, per-slot brokers, clients and failure
// detectors) outlives the job; a JobRuntime owns only the job-local state —
// database partitions, hash-line stores, the PhasedRunner — and registers
// its stores in the world's SlotTable so world daemons (shortage-triggered
// migration, failure verdicts) can reach whatever store currently lives on
// a slot.
//
// The scheduler knows nothing about concrete workloads: each workload
// module exposes a make_*_job factory returning a JobRuntime, and the bench
// wires specs to factories. Every workload derives from PhasedJob, and its
// config from PhasedConfig, which hold the part of the contract they share:
// the config checks, the store, runner and single-job world configs, the
// standalone run and its result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "core/failover.hpp"
#include "core/hash_line_store.hpp"
#include "core/integrity.hpp"
#include "core/policy.hpp"
#include "net/network.hpp"
#include "runtime/workload.hpp"
#include "sim/task.hpp"

namespace rms::cluster {
class Cluster;
class Node;
}
namespace rms::obs {
class MetricsSampler;
class ProfileHook;
class TraceRecorder;
struct RunSection;
}
namespace rms::runtime {
class PhasedRunner;
}
namespace rms::placement {
class MemoryBroker;
}
namespace rms::sim {
class Simulation;
}

namespace rms::sched {

struct WorldConfig;

/// Slot -> live hash-line store bindings. World daemons hold a reference to
/// the table; jobs bind their stores at launch and unbind at harvest, so a
/// shortage broadcast always reaches the store currently executing on the
/// slot (or nothing, between jobs).
class SlotTable {
 public:
  using StoreGetter = std::function<core::HashLineStore*()>;

  void bind(net::NodeId slot, StoreGetter getter) {
    getters_[slot] = std::move(getter);
  }
  void unbind(net::NodeId slot) { getters_.erase(slot); }

  /// The store currently bound to `slot`; null when the slot is idle (or
  /// the bound job has not created its store yet).
  core::HashLineStore* store_at(net::NodeId slot) const {
    const auto it = getters_.find(slot);
    return it == getters_.end() ? nullptr : it->second();
  }

 private:
  std::unordered_map<net::NodeId, StoreGetter> getters_;
};

/// Everything a job needs from the shared world, fixed at admission.
struct JobEnv {
  sim::Simulation* sim = nullptr;
  cluster::Cluster* cluster = nullptr;
  /// This job's application execution slots, in participant order
  /// (participant i runs on app_nodes[i]).
  std::vector<net::NodeId> app_nodes;
  /// World-owned placement brokers, one per slot, same order. The
  /// scheduler has already attached the job's tenant ledger.
  std::vector<placement::MemoryBroker*> brokers;
  SlotTable* slots = nullptr;
};

/// The settings every phased workload shares. HpaConfig,
/// HashAggregateConfig and HashJoinConfig derive from it and set their own
/// defaults in their constructors; PhasedJob checks these fields and turns
/// them into the store, runner and single-job world configs.
struct PhasedConfig {
  std::size_t app_nodes = 4;     // participants: one slot and store each
  std::size_t memory_nodes = 4;  // donor pool of a standalone run's world

  /// Per-node memory limit for the job's hash-line stores; -1 disables. A
  /// limit needs a swap policy, and a remote policy needs a memory node.
  std::int64_t memory_limit_bytes = -1;
  core::SwapPolicy policy = core::SwapPolicy::kNoLimit;
  /// kTiered only: per-node byte budget for primary copies parked in remote
  /// memory; evictions past it spill to the local disk (-1 = unlimited).
  std::int64_t tiered_remote_budget_bytes = -1;

  /// Debug: run HashLineStore::check_invariants() (residency core plus the
  /// active backend's replica/holder/batch bookkeeping) at every phase
  /// barrier. Pure assertions — no virtual-time effect.
  bool validate_invariants = false;

  // ---- observability (all null by default: zero-cost when disabled) ----
  /// Trace sink: swap/RPC/failover spans plus per-pass phase spans. Must
  /// outlive the run. Recording is passive — virtual-time results are
  /// bit-identical with or without it.
  obs::TraceRecorder* trace = nullptr;
  /// Gauge sampler: PhasedJob's per-node residency/RPC/staleness gauge
  /// set, sampled at the world's monitor interval; the gauges are dropped
  /// when the job ends. Standalone runs only.
  obs::MetricsSampler* metrics = nullptr;
  /// Profiler sink: every node feeds CPU and disk busy intervals directly
  /// to it (bypassing the trace ring) so per-pass attribution stays exact
  /// even when the ring drops events. Stamped by obs::RunObserver; pair
  /// with `trace`. Standalone runs only.
  obs::ProfileHook* profiler = nullptr;
};

/// What the scheduler records about a finished (or torn down) job.
struct JobReport {
  bool completed = false;  // the runner's final barrier released
  bool exact = false;      // workload result matches its scalar reference
  /// One workload-specific headline figure ("groups=842", "large=57").
  std::string summary;

  /// Virtual time of the runner's final barrier (absolute; the job's
  /// makespan is total_time minus its admission time).
  Time total_time = 0;
  std::vector<runtime::PassTiming> passes;
  std::vector<std::string> phase_names;

  // Store counters summed over the job's slots.
  std::int64_t pagefaults = 0;
  std::int64_t swap_outs = 0;
  std::int64_t updates_sent = 0;
  std::int64_t degraded_evictions = 0;
};

/// One job's runtime: owns the job-local state and the runner. Lifecycle:
/// launch() (spawn processes into the world's simulation; no virtual time
/// passes) -> on_done fires at the runner's final barrier -> harvest()
/// (collect the report, unbind slots). The runtime stays alive after
/// harvest — a reclaim may still be suspended in its store machinery — and
/// is destroyed after the simulation shut down.
class JobRuntime {
 public:
  virtual ~JobRuntime() = default;

  /// The runtime catalog name ("hpa", "hash_aggregate", "hash_join").
  virtual const char* workload_name() const = 0;

  /// Create the job-local world (partitions, stores) and spawn the phased
  /// runner's processes into env.sim. Called once, at admission; must not
  /// advance virtual time. `on_done` fires (synchronously, from the
  /// runner's coordinator) when the job's final barrier releases.
  virtual void launch(const JobEnv& env, std::function<void()> on_done) = 0;

  /// Scheduler-driven revocation: recall up to `target_bytes` of this
  /// job's donated lines (spilling them to the slots' local swap disks)
  /// and return the bytes actually freed. Safe to race the job's own
  /// collection or completion — the store machinery settles in-flight
  /// lines before either side touches them.
  virtual sim::Task<std::int64_t> reclaim(std::int64_t target_bytes) = 0;

  /// Current donated footprint: bytes of primary copies this job's stores
  /// hold on memory nodes right now.
  virtual std::int64_t donated_bytes() const = 0;

  /// Collect the report and unbind the job's slots. Call after on_done
  /// fired, or at teardown for a job that never finished.
  virtual JobReport harvest() = 0;
};

using JobRuntimePtr = std::unique_ptr<JobRuntime>;

/// What every standalone phased run returns besides the workload's own
/// figures. HashJoinResult and HashAggregateResult derive from it; run_hpa
/// copies the parts HpaResult shares (its passes carry HPA's own counts).
struct PhasedResult {
  /// Virtual time of the runner's final barrier.
  Time total_time = 0;
  /// Barrier-aligned timing of every pass, with phase times indexed like
  /// phase_names (the runtime phase registry).
  std::vector<runtime::PassTiming> passes;
  std::vector<std::string> phase_names;

  // Summed over every store the job had, retired or still alive.
  std::int64_t pagefaults = 0;
  std::int64_t swap_outs = 0;
  std::int64_t updates_sent = 0;
  /// Failover accounting (all zero when no fault-handling machinery fired).
  core::FailoverStats failover;
  /// Line-integrity accounting (checksums, repair, re-replication); all
  /// zero when nothing corrupted and redundancy held.
  core::IntegrityStats integrity;

  /// Merged counters from every node, disk, the network, the stores'
  /// backends and the placement brokers.
  StatsRegistry stats;
};

/// The run-artifact section of a completed phased run: the workload name,
/// total time, phase names, and every pass's duration and phase times.
/// Callers add the configuration and the workload's own figures.
obs::RunSection phased_run_section(
    std::string workload, Time total_time,
    const std::vector<runtime::PassTiming>& passes,
    std::vector<std::string> phase_names);

/// The same for a standalone run's result, with its store faults, merged
/// counters and both fault ledgers. Callers add the description and
/// exactness.
obs::RunSection phased_run_section(std::string workload,
                                   const PhasedResult& result);

/// The part of a JobRuntime every phased workload shares: the config
/// checks; one hash-line store per participant, bound to the participant's
/// slot; the PhasedRunner on those slots; the scheduler's reclaim,
/// donated_bytes and harvest over the stores; the stores' invariant sweep;
/// the gauge set a MetricsSampler records; and the standalone run on a
/// single-job world. A workload derives from it, implements the
/// runtime::Workload hooks and launch(), and adds its own figures in
/// fill_report().
class PhasedJob : public JobRuntime, public runtime::Workload {
 public:
  /// Drops the gauges start_runner registered (they capture the job; the
  /// recorded series stays).
  ~PhasedJob() override;

  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes) final;
  std::int64_t donated_bytes() const final;
  /// Completion and timing from the runner, the counters of every store
  /// the job had, the workload's fill_report(), then the slots unbind.
  JobReport harvest() final;

  /// HashLineStore::check_invariants on the participant's live store.
  void check_invariants(std::size_t idx) final;

 protected:
  /// Keeps the shared part of the workload's config, which must have a
  /// participant, a swap policy under a limit, and a memory node under a
  /// remote policy.
  explicit PhasedJob(const PhasedConfig& cfg);

  /// Adopt the world handles (one slot and broker per participant) and
  /// bind each slot to its participant's store.
  void attach(const JobEnv& env);
  /// A store config for `num_lines` local lines under the job's limit,
  /// swap policy, tiered budget and trace sink. A workload sets its own
  /// store fields on it before create_store().
  core::HashLineStore::Config store_config(std::size_t num_lines) const;
  /// Create participant `idx`'s store on its slot, against the slot's
  /// broker.
  void create_store(std::size_t idx, const core::HashLineStore::Config& scfg);
  /// Fold participant `idx`'s store counters and fault ledgers into the
  /// job's totals, then destroy the store (a workload that rebuilds its
  /// stores every pass calls this at the pass end).
  void retire_store(std::size_t idx);
  /// When the config has a metrics sampler, register the gauge set on it;
  /// then start the phased runner on the attached slots for passes
  /// first_pass..max_pass after `warmup`. `on_done` fires at the runner's
  /// final barrier.
  void start_runner(std::size_t first_pass, std::size_t max_pass, Time warmup,
                    std::function<void()> on_done);
  /// Run this job alone: a single-job world with the config's nodes and
  /// sinks plus the world-only fields of `wcfg`, the job launched on every
  /// slot and run to its final barrier. Returns the shared result; the
  /// simulation has shut down.
  PhasedResult run_standalone(WorldConfig wcfg);

  /// The workload's part of harvest(): exactness and summary.
  virtual void fill_report(JobReport& rep) = 0;

  net::NodeId app_id(std::size_t idx) const { return env_.app_nodes[idx]; }
  cluster::Node& app_node(std::size_t idx) const;
  sim::Simulation& sim() const { return *env_.sim; }

  JobEnv env_;
  std::vector<std::unique_ptr<core::HashLineStore>> stores_;

 private:
  /// Register the gauge set on `sampler` and sample it at its interval:
  /// per participant resident_bytes, remote_held_bytes, lines_resident,
  /// lines_remote, lines_disk, outstanding_rpcs, rpc_window and
  /// heartbeat_staleness_s; per memory node donated_bytes; and the
  /// kernel's executed_events (node -1). Stores may come and go per pass,
  /// so every store gauge reads 0 while its store is absent.
  void start_sampling(obs::MetricsSampler& sampler);
  /// Counters and fault ledgers of every store the job had: the retired
  /// ones plus the live ones (the result's stats hold the stores' own
  /// registries, merged).
  PhasedResult store_totals() const;

  const PhasedConfig phased_cfg_;
  std::unique_ptr<runtime::PhasedRunner> runner_;
  /// The stores retire_store() destroyed, folded as store_totals() folds.
  PhasedResult retired_;
  obs::MetricsSampler* sampler_ = nullptr;
};

}  // namespace rms::sched
