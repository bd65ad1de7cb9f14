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
// wires specs to factories. Every workload derives from PhasedJob, which
// holds the part of the contract they share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "net/network.hpp"
#include "runtime/workload.hpp"
#include "sim/task.hpp"

namespace rms::cluster {
class Cluster;
class Node;
}
namespace rms::core {
class HashLineStore;
}
namespace rms::obs {
class MetricsSampler;
struct RunSection;
}
namespace rms::runtime {
class PhasedRunner;
struct RunnerConfig;
}
namespace rms::placement {
class MemoryBroker;
}
namespace rms::sim {
class Simulation;
}

namespace rms::sched {

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
/// is destroyed after the simulation shut down, before the world.
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

/// The run-artifact section of a completed phased run: the workload name,
/// total time, phase names, and every pass's duration and phase times.
/// Callers add the configuration and the workload's own figures.
obs::RunSection phased_run_section(
    std::string workload, Time total_time,
    const std::vector<runtime::PassTiming>& passes,
    std::vector<std::string> phase_names);

/// The part of a JobRuntime every phased workload shares: one hash-line
/// store per participant, bound to the participant's slot; the
/// PhasedRunner on those slots; the scheduler's reclaim, donated_bytes and
/// harvest over the stores; the stores' invariant sweep; and the gauge set
/// a MetricsSampler records. A workload derives from it, implements the
/// runtime::Workload hooks and launch(), and adds its own figures in
/// fill_report().
class PhasedJob : public JobRuntime, public runtime::Workload {
 public:
  /// Drops the gauges start_sampling registered (they capture the job; the
  /// recorded series stays).
  ~PhasedJob() override;

  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes) final;
  std::int64_t donated_bytes() const final;
  /// Completion and timing from the runner, the workload's fill_report(),
  /// then the slots unbind.
  JobReport harvest() final;

  /// HashLineStore::check_invariants on the participant's live store.
  void check_invariants(std::size_t idx) final;

 protected:
  PhasedJob();

  /// Adopt the world handles (one slot and broker per participant) and
  /// bind each slot to its participant's store.
  void attach(const JobEnv& env, std::size_t participants);
  /// Start the phased runner on the attached slots; `on_done` fires at its
  /// final barrier.
  void start_runner(runtime::RunnerConfig rcfg, std::function<void()> on_done);
  /// Register the gauge set on `sampler` and sample it every `interval`:
  /// per participant resident_bytes, remote_held_bytes, lines_resident,
  /// lines_remote, lines_disk, outstanding_rpcs, rpc_window and
  /// heartbeat_staleness_s; per memory node donated_bytes; and the
  /// kernel's executed_events (node -1). Stores may come and go per pass,
  /// so every store gauge reads 0 while its store is absent.
  void start_sampling(obs::MetricsSampler& sampler, Time interval);

  /// The workload's part of harvest(): counters, exactness, summary.
  virtual void fill_report(JobReport& rep) = 0;
  /// Add the live stores' fault, swap-out, update and degraded-eviction
  /// counters to `rep`.
  void add_store_counters(JobReport& rep) const;
  /// The live stores' counter registries, merged.
  StatsRegistry store_stats() const;

  net::NodeId app_id(std::size_t idx) const { return env_.app_nodes[idx]; }
  cluster::Node& app_node(std::size_t idx) const;
  sim::Simulation& sim() const { return *env_.sim; }
  const runtime::PhasedRunner& runner() const { return *runner_; }

  JobEnv env_;
  std::vector<std::unique_ptr<core::HashLineStore>> stores_;
  std::unique_ptr<runtime::PhasedRunner> runner_;

 private:
  obs::MetricsSampler* sampler_ = nullptr;
};

}  // namespace rms::sched
