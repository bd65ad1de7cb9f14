// sched::World — the one builder of the simulated cluster.
//
// One simulation, one cluster, one donor pool, one or many jobs. Every
// entry point builds its world here: the multi-tenant JobScheduler, and
// the standalone run_hpa / run_hash_aggregate / run_hash_join, which run a
// single job on a world of their own (PhasedJob::run_standalone, through
// run_one_job). Two node layouts:
//
//   kScheduled (JobScheduler worlds)
//     node 0                      — the scheduler (admission broker)
//     nodes 1 .. app_nodes        — application execution slots, leased
//                                   to jobs at admission
//     nodes app_nodes+1 .. +mem   — memory-available nodes (donor pool)
//
//   kSingleJob (standalone runs)
//     nodes 0 .. app_nodes-1      — the job's application nodes
//     nodes app_nodes .. +mem     — memory-available nodes
//
// The single-job layout keeps the node ids every standalone run has
// always used; disk seeds and broker rng streams are keyed by node id, so
// it is what keeps standalone results byte-identical.
//
// The world owns everything that outlives a job: the memory servers and
// their availability monitors, one placement broker + availability client
// per slot (brokers persist across jobs; the scheduler attaches the running
// tenant's ledger at admission and detaches it at completion), and, in the
// scheduled layout, the scheduler's own broker on node 0 — its
// availability view is the admission gate's estimate of free donor memory,
// refreshed by the same broadcasts the slots see. Shortage broadcasts and
// failure-detector verdicts dispatch through the SlotTable to whatever
// store currently runs on the slot.
//
// Failure detectors (suspect_after_misses > 0) and fault injection
// (withdrawals, crashes, loss bursts, corruption) are spawned by start()
// when the config asks for them; standalone HPA runs with a remote policy
// do. The multi-tenant world runs fault-free so far (docs/SCHEDULER.md
// discusses composing the two subsystems).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fault.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "placement/placement.hpp"
#include "sched/job.hpp"

namespace rms::core {
class MemoryServer;
}
namespace rms::obs {
class TraceRecorder;
class ProfileHook;
}

namespace rms::sched {

struct WorldConfig {
  enum class Layout { kScheduled, kSingleJob };
  /// Node layout (see the header comment). kSingleJob worlds have no
  /// scheduler node and no scheduler broker.
  Layout layout = Layout::kScheduled;

  std::size_t app_nodes = 8;    // execution slots
  std::size_t memory_nodes = 8; // donor pool

  std::int64_t message_block_bytes = 4096;
  Time monitor_interval = sec(3);
  std::int64_t shortage_threshold_bytes = 256 << 10;
  placement::PolicyKind placement = placement::PolicyKind::kPaperRoundRobin;
  /// Slot brokers stop sending swap-outs to donors whose last report is
  /// older than this many monitor intervals (0 = never expire).
  int stale_after_intervals = 0;
  /// Sliding window for the memory servers' migration pushes (1: the
  /// paper's synchronous behaviour).
  int rpc_window = 1;
  /// > 0: one failure detector per slot declares a donor dead after this
  /// many missed heartbeats and hands the verdict to the slot's store.
  /// 0: no detectors.
  int suspect_after_misses = 0;

  /// Link, disk and cost parameters of every node. The world sets
  /// num_nodes (from the layout) and seed (from `seed` below).
  cluster::ClusterConfig cluster;
  std::uint64_t seed = 1;

  // ---- fault injection on the donor pool (memory-node indices) ----
  /// At `at`, memory-available node #`memory_node_index` loses all its
  /// free memory (the migration experiment, Figure 5).
  struct Withdrawal {
    std::size_t memory_node_index = 0;
    Time at = 0;
  };
  /// Crash-stop memory-available node #`memory_node_index` at `at` (its
  /// stored lines vanish); optionally restart it at `restart_at`.
  struct Crash {
    std::size_t memory_node_index = 0;
    Time at = 0;
    Time restart_at = -1;  // < 0: stays down
  };
  /// Payload-corruption episode. While active, line payloads on the wire
  /// flip a count bit with probability `flip_rate` per payload (focused on
  /// one memory node's links when `memory_node_index` >= 0, cluster-wide at
  /// -1); `rest_flip_rate` corrupts stored lines at rest on the matching
  /// memory servers once at `at`; `scrub` schedules a server verify pass at
  /// `at + duration` that drops mismatched copies.
  struct Corruption {
    Time at = 0;
    Time duration = 0;
    double flip_rate = 0.0;
    double rest_flip_rate = 0.0;
    std::ptrdiff_t memory_node_index = -1;  // -1: every node / link
    bool scrub = false;
  };
  std::vector<Withdrawal> withdrawals;
  std::vector<Crash> crashes;
  /// Scripted periods of elevated message loss on every link.
  std::vector<cluster::FaultPlan::LossBurst> loss_bursts;
  std::vector<Corruption> corruption;

  /// Shared event sink for every world daemon and job (null: tracing off).
  obs::TraceRecorder* trace = nullptr;
  /// Profiler sink fed directly by every node's CPU and disks (null: off).
  obs::ProfileHook* profiler = nullptr;
};

class World {
 public:
  World(sim::Simulation& sim, WorldConfig cfg);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Spawn the world daemons (servers, monitors, clients, detectors) and
  /// install the fault plan. Call once, before any job runs.
  void start();

  /// Single-job layout: start the world, launch `job` on every slot, and
  /// run the simulation until the job's final barrier stops it. The caller
  /// then reads its results and calls sim().shutdown() while the job is
  /// still alive: suspended daemon frames may reference its stores.
  void run_one_job(JobRuntime& job);

  /// A one-job run's merged counters: every node with both its disks, the
  /// network, the nonzero "backend.*" counters of `store_stats` (the job's
  /// stores) and the slot brokers' nonzero "placement.*" counters.
  StatsRegistry merged_stats(const StatsRegistry& store_stats);

  // ---- topology ----
  bool has_scheduler() const {
    return cfg_.layout == WorldConfig::Layout::kScheduled;
  }
  net::NodeId scheduler_node() const {
    RMS_CHECK_MSG(has_scheduler(), "a single-job world has no scheduler");
    return 0;
  }
  net::NodeId app_node(std::size_t slot) const {
    return static_cast<net::NodeId>(first_slot() + slot);
  }
  net::NodeId memory_node(std::size_t i) const {
    return static_cast<net::NodeId>(first_slot() + cfg_.app_nodes + i);
  }
  std::size_t num_slots() const { return cfg_.app_nodes; }
  const std::vector<net::NodeId>& memory_ids() const { return memory_ids_; }

  sim::Simulation& sim() { return sim_; }
  cluster::Cluster& cluster() { return *cluster_; }
  const WorldConfig& config() const { return cfg_; }
  SlotTable& slots() { return slots_; }

  /// The slot's persistent placement broker (tenant ledgers attach here).
  placement::MemoryBroker& broker_at(std::size_t slot) {
    return *brokers_[slot];
  }
  /// The scheduler's availability view on node 0 (scheduled layout).
  placement::MemoryBroker& scheduler_broker() {
    RMS_CHECK_MSG(sched_broker_ != nullptr,
                  "a single-job world has no scheduler");
    return *sched_broker_;
  }

  core::MemoryServer& server_at(std::size_t i) { return *servers_[i]; }

  /// Admission estimate: free donor bytes as the scheduler currently sees
  /// them (sum of the last availability reports; 0 until the first
  /// broadcasts land, ~one monitor interval after start()).
  std::int64_t pool_free_bytes() const;

  /// Actual donated bytes currently parked on the servers (exact, not
  /// broadcast-delayed; reports and tests).
  std::int64_t pool_donated_bytes();

 private:
  std::size_t first_slot() const { return has_scheduler() ? 1 : 0; }
  void install_faults();

  sim::Simulation& sim_;
  WorldConfig cfg_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::vector<net::NodeId> memory_ids_;
  std::vector<net::NodeId> slot_ids_;

  std::vector<std::unique_ptr<core::MemoryServer>> servers_;
  std::vector<std::unique_ptr<placement::MemoryBroker>> brokers_;
  std::unique_ptr<placement::MemoryBroker> sched_broker_;
  SlotTable slots_;
  /// At-rest corruption draws (FaultPlan episodes); a fixed stream, so
  /// identical configs corrupt identically.
  Pcg32 corrupt_rest_rng_{0xa27e57, 0x11};
  bool started_ = false;
};

}  // namespace rms::sched
