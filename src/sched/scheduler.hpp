// JobScheduler — multi-tenant admission, arbitration, and reclamation over
// one dynamic remote-memory pool.
//
// The scheduler runs as a process on the world's node 0. It admits jobs
// from an arrival queue onto free application-node slots when the donor
// pool (as seen through its availability view — the same broadcasts the
// paper's §4.2 mechanism feeds every node) reports enough free memory for
// the job's declared demand. Admission is priority-ordered with backfill:
// the highest-priority queued job is considered first, but a lower-priority
// job that fits may start while a bigger one waits for capacity.
//
// When the head-of-line job is blocked on pool bytes and lower-priority
// tenants are holding donated capacity, the scheduler *reclaims*: it caps
// the victim's tenant quota at its post-reclaim footprint (so the freed
// bytes cannot be re-donated while the high-priority job needs them) and
// recalls lines through JobRuntime::reclaim — the store spills them to the
// victim's local swap disks via the existing TieredBackend/disk path, the
// donors release them immediately, and the next monitor broadcast shows the
// recovered capacity to the admission gate. Victim quotas are restored when
// a job completes and returns its share to the pool.
//
// Jobs not admitted within their deadline are shed (counted, traced); jobs
// with no deadline wait indefinitely. Everything is deterministic: one
// virtual clock, arrivals at fixed instants (or a seeded poisson trace),
// ties broken by (priority desc, arrival asc, submission order).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "placement/placement.hpp"
#include "sched/job.hpp"
#include "sched/world.hpp"
#include "sim/process.hpp"

namespace rms::sched {

/// A job submitted to the scheduler: the workload factory plus the
/// scheduling contract (tenant, priority, arrival, resource demand).
struct JobSpec {
  std::string name;      // unique per run; artifact section key
  std::string workload;  // catalog name (reporting only)
  std::int64_t tenant = 0;
  /// Higher preempts lower for pool capacity (reclamation); equal
  /// priorities never reclaim from each other.
  int priority = 0;
  /// Virtual arrival time (overwritten by a generated arrival trace).
  Time arrival = 0;
  /// Application-node slots the job needs (== its participant count).
  std::size_t slots = 1;
  /// Donor-pool bytes the admission gate requires free. A declared
  /// estimate, not a reservation — enforcement is the tenant quota.
  std::int64_t demand_bytes = 0;
  /// Tenant quota while the job runs (-1: unlimited). Reclamation may cap
  /// it lower until a completion returns capacity.
  std::int64_t quota_bytes = -1;
  /// Shed the job if not admitted within this much time after arrival
  /// (0: wait forever).
  Time admission_deadline = 0;
  /// Builds the job's runtime at admission.
  std::function<JobRuntimePtr()> make;
};

enum class JobState { kQueued, kRunning, kCompleted, kShed };

const char* job_state_name(JobState state);

struct JobRecord {
  std::size_t id = 0;  // submission order
  JobSpec spec;
  JobState state = JobState::kQueued;
  Time admitted = -1;
  Time finished = -1;
  /// Leased slot indices (world slot numbers) while running.
  std::vector<std::size_t> slot_indices;
  JobRuntimePtr runtime;
  placement::TenantLedger ledger;
  /// Reclamation pressure this job suffered as a victim.
  std::int64_t reclaimed_bytes = 0;
  int reclaim_events = 0;
  JobReport report;
};

/// A scheduled job's run-artifact section: the job markers, its spec as
/// the configuration (after `description`), and once it completed, its
/// report. The world's registries are shared, so the stats hold only the
/// job's store counters and no fault ledgers.
obs::RunSection job_run_section(const JobRecord& job, std::string description);

struct SchedulerConfig {
  /// Queue re-examination period between arrival/completion events.
  Time poll_interval = msec(200);
  /// Reclaim donated capacity from lower-priority tenants when the
  /// head-of-line job is blocked on pool bytes.
  bool reclaim_enabled = true;
  /// Safety horizon: abort the run if the scheduler is still waiting past
  /// this virtual time (0: none). Catches a wedged world in tests.
  Time horizon = 0;
  obs::TraceRecorder* trace = nullptr;
};

class JobScheduler {
 public:
  JobScheduler(World& world, SchedulerConfig cfg);

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Queue a job before run(). Returns its id (submission order).
  std::size_t submit(JobSpec spec);

  /// The scheduler process: drives admissions until every job is completed
  /// or shed, then stops the simulation. Spawn once; the caller runs
  /// world.sim().run().
  sim::Process run();

  const std::vector<JobRecord>& jobs() const { return jobs_; }

  struct Stats {
    int admitted = 0;
    int completed = 0;
    int shed = 0;
    int reclaim_events = 0;        // reclaim() calls that freed bytes
    std::int64_t reclaimed_bytes = 0;
    int admission_waits = 0;       // polls where a queued job stayed blocked
    std::size_t peak_queue_depth = 0;
    std::size_t peak_running = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// True when every submitted job reached a terminal state.
  bool drained() const;
  /// Queued job ids in admission order: priority desc, arrival asc, id asc.
  std::vector<std::size_t> admission_order(Time now) const;
  void shed_expired(Time now);
  /// Try to admit `job` now; true on admission.
  bool try_admit(JobRecord& job, Time now);
  void launch(JobRecord& job, Time now);
  void on_job_finished(std::size_t id);
  /// Reclaim up to `deficit` bytes from tenants with priority strictly
  /// below `priority`, lowest first. Returns bytes freed at the donors.
  sim::Task<std::int64_t> reclaim_for(int priority, std::int64_t deficit);

  World& world_;
  SchedulerConfig cfg_;
  std::vector<JobRecord> jobs_;
  std::vector<char> slot_busy_;  // world slot index -> leased
  Stats stats_;
  bool running_ = false;
};

}  // namespace rms::sched
