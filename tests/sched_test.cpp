// Multi-tenant scheduler tests: admission on slots and pool bytes,
// simultaneous arrivals at one virtual instant, deadline shedding,
// priority reclamation (including a reclaim racing the victim's own
// completion), tenant-quota degradation, full capacity release between
// jobs, and arrival-trace determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "hpa/hpa.hpp"
#include "mining/apriori.hpp"
#include "mining/generator.hpp"
#include "sched/arrivals.hpp"
#include "sched/scheduler.hpp"
#include "sched/world.hpp"
#include "sim/simulation.hpp"
#include "workloads/hash_aggregate.hpp"
#include "workloads/hash_join.hpp"

namespace rms::sched {
namespace {

WorldConfig small_world(std::size_t app_nodes, std::size_t memory_nodes) {
  WorldConfig cfg;
  cfg.app_nodes = app_nodes;
  cfg.memory_nodes = memory_nodes;
  cfg.monitor_interval = msec(500);
  return cfg;
}

/// Shrink every donor to exactly `free_bytes` of reported free memory by
/// modelling the rest as foreign load, so pool arithmetic in the tests is
/// exact.
void set_donor_free(World& world, std::int64_t free_bytes) {
  for (std::size_t i = 0; i < world.config().memory_nodes; ++i) {
    cluster::HostMemoryModel& mem =
        world.cluster().node(world.memory_node(i)).memory();
    mem.external_bytes = std::max<std::int64_t>(
        0, mem.total_bytes - mem.base_bytes - free_bytes);
  }
}

/// A small two-node join that finishes in a few virtual seconds and swaps
/// part of its build table to the donor pool.
workloads::HashJoinConfig small_join() {
  workloads::HashJoinConfig cfg;
  cfg.app_nodes = 2;
  cfg.build_rows = 4'000;
  cfg.probe_rows = 4'000;
  cfg.keys = 1'000;
  cfg.memory_limit_bytes = 24'000;
  cfg.policy = core::SwapPolicy::kRemoteSwap;
  return cfg;
}

/// A two-node group-by whose table mostly lives in the donor pool (tight
/// limit, one-way updates park the lines remotely) — the reclamation victim.
workloads::HashAggregateConfig small_aggregate() {
  workloads::HashAggregateConfig cfg;
  cfg.app_nodes = 2;
  cfg.workload = mining::QuestParams::paper_experiment(0.01);
  cfg.hash_lines = 1024;
  cfg.memory_limit_bytes = 8 * 1024;
  cfg.policy = core::SwapPolicy::kRemoteUpdate;
  return cfg;
}

JobSpec join_spec(const char* name, std::int64_t tenant, int priority,
                  Time arrival, workloads::HashJoinConfig cfg) {
  JobSpec s;
  s.name = name;
  s.workload = "hash_join";
  s.tenant = tenant;
  s.priority = priority;
  s.arrival = arrival;
  s.slots = cfg.app_nodes;
  s.make = [cfg] { return workloads::make_hash_join_job(cfg); };
  return s;
}

JobSpec aggregate_spec(const char* name, std::int64_t tenant, int priority,
                       Time arrival, workloads::HashAggregateConfig cfg) {
  JobSpec s;
  s.name = name;
  s.workload = "hash_aggregate";
  s.tenant = tenant;
  s.priority = priority;
  s.arrival = arrival;
  s.slots = cfg.app_nodes;
  s.make = [cfg] { return workloads::make_hash_aggregate_job(cfg); };
  return s;
}

SchedulerConfig guarded() {
  SchedulerConfig cfg;
  cfg.horizon = sec(600);  // a wedged world aborts instead of hanging
  return cfg;
}

TEST(Scheduler, SimultaneousArrivalsAdmitByPriorityThenSubmissionOrder) {
  sim::Simulation sim;
  World world(sim, small_world(4, 2));
  set_donor_free(world, 256 << 10);
  JobScheduler scheduler(world, guarded());

  // Three 2-slot jobs all arriving at the same virtual instant; capacity
  // for two. The two priority-5 jobs win, tie broken by submission order;
  // the priority-1 job waits for a completion.
  scheduler.submit(join_spec("low", 1, 1, sec(1), small_join()));
  scheduler.submit(join_spec("hi-a", 2, 5, sec(1), small_join()));
  scheduler.submit(join_spec("hi-b", 3, 5, sec(1), small_join()));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  const std::vector<JobRecord>& jobs = scheduler.jobs();
  for (const JobRecord& j : jobs) {
    EXPECT_EQ(j.state, JobState::kCompleted) << j.spec.name;
    EXPECT_TRUE(j.report.exact) << j.spec.name << ": " << j.report.summary;
  }
  // Two concurrent swapping tenants on shared donors stay loss-free: no
  // congestion-induced false death verdicts (which would orphan lines).
  for (net::NodeId n = 1; n <= 4; ++n) {
    EXPECT_EQ(world.cluster().node(n).stats().counter("store.suspicions"), 0)
        << "node " << n;
  }
  EXPECT_EQ(jobs[1].admitted, sec(1));
  EXPECT_EQ(jobs[2].admitted, sec(1));
  // Deterministic slot leases: first admitted job gets the lowest slots.
  EXPECT_EQ(jobs[1].slot_indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(jobs[2].slot_indices, (std::vector<std::size_t>{2, 3}));
  // The low-priority job waited for a slot pair to free up.
  EXPECT_GE(jobs[0].admitted,
            std::min(jobs[1].finished, jobs[2].finished));
  EXPECT_EQ(scheduler.stats().admitted, 3);
  EXPECT_EQ(scheduler.stats().peak_running, 2u);
}

TEST(Scheduler, ZeroCapacityPoolShedsAtDeadline) {
  sim::Simulation sim;
  World world(sim, small_world(2, 2));
  set_donor_free(world, 0);  // donors exist but report nothing free
  JobScheduler scheduler(world, guarded());

  JobSpec spec = join_spec("starved", 1, 1, sec(1), small_join());
  spec.demand_bytes = 1;  // any demand at all is unsatisfiable
  spec.admission_deadline = sec(2);
  scheduler.submit(std::move(spec));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  const JobRecord& job = scheduler.jobs()[0];
  EXPECT_EQ(job.state, JobState::kShed);
  EXPECT_EQ(job.admitted, -1);
  EXPECT_EQ(job.finished, sec(3));  // shed exactly at arrival + deadline
  EXPECT_EQ(scheduler.stats().admitted, 0);
  EXPECT_EQ(scheduler.stats().shed, 1);
  EXPECT_GT(scheduler.stats().admission_waits, 0);
  EXPECT_EQ(world.pool_free_bytes(), 0);
}

TEST(Scheduler, ZeroDemandAdmitsOnSlotsAlone) {
  sim::Simulation sim;
  World world(sim, small_world(2, 2));
  set_donor_free(world, 0);  // an empty pool does not block demand 0
  JobScheduler scheduler(world, guarded());

  workloads::HashJoinConfig cfg = small_join();
  cfg.memory_limit_bytes = -1;  // nothing to swap: no pool bytes needed
  cfg.policy = core::SwapPolicy::kNoLimit;
  scheduler.submit(join_spec("local-only", 1, 1, 0, cfg));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  const JobRecord& job = scheduler.jobs()[0];
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_EQ(job.admitted, 0);
  EXPECT_TRUE(job.report.exact);
}

TEST(Scheduler, ReclaimFreesLowPriorityDonationsForHighPriority) {
  sim::Simulation sim;
  World world(sim, small_world(4, 2));
  const std::int64_t donor_free = 128 << 10;
  set_donor_free(world, donor_free);
  JobScheduler scheduler(world, guarded());

  scheduler.submit(aggregate_spec("victim", 1, 1, 0, small_aggregate()));
  // The high-priority job demands all but 8 KB of the pool, so any donated
  // footprint beyond that blocks it and must be reclaimed.
  JobSpec hi = join_spec("preemptor", 2, 5, sec(1), small_join());
  hi.demand_bytes = 2 * donor_free - (8 << 10);
  scheduler.submit(std::move(hi));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  const JobRecord& victim = scheduler.jobs()[0];
  const JobRecord& preemptor = scheduler.jobs()[1];
  EXPECT_EQ(victim.state, JobState::kCompleted);
  EXPECT_EQ(preemptor.state, JobState::kCompleted);
  EXPECT_TRUE(victim.report.exact);
  EXPECT_TRUE(preemptor.report.exact);
  // Reclamation hit the low-priority tenant, never the high-priority one.
  EXPECT_GT(scheduler.stats().reclaim_events, 0);
  EXPECT_GT(victim.reclaimed_bytes, 0);
  EXPECT_EQ(preemptor.reclaimed_bytes, 0);
  EXPECT_EQ(scheduler.stats().reclaimed_bytes, victim.reclaimed_bytes);
  // The victim's spilled lines degraded to its local swap disks.
  EXPECT_GT(victim.report.degraded_evictions, 0);
  EXPECT_GT(preemptor.admitted, sec(1));
  EXPECT_EQ(world.pool_donated_bytes(), 0);
}

TEST(Scheduler, ReclaimRacingVictimCompletionIsSafe) {
  // Measure the victim's solo finish time, then rerun with a high-priority
  // job arriving just before it: the reclaim sweep overlaps the victim's
  // own collect phase fetching the same lines home. The line state machine
  // settles in-flight lines before either side touches them, so both jobs
  // stay exact whatever the interleaving.
  Time solo_finish = 0;
  {
    sim::Simulation sim;
    World world(sim, small_world(4, 2));
    set_donor_free(world, 128 << 10);
    JobScheduler scheduler(world, guarded());
    scheduler.submit(aggregate_spec("victim", 1, 1, 0, small_aggregate()));
    world.start();
    sim.spawn(scheduler.run());
    sim.run();
    ASSERT_EQ(scheduler.jobs()[0].state, JobState::kCompleted);
    solo_finish = scheduler.jobs()[0].finished;
    ASSERT_GT(solo_finish, msec(400));
  }

  sim::Simulation sim;
  World world(sim, small_world(4, 2));
  const std::int64_t donor_free = 128 << 10;
  set_donor_free(world, donor_free);
  JobScheduler scheduler(world, guarded());
  scheduler.submit(aggregate_spec("victim", 1, 1, 0, small_aggregate()));
  JobSpec hi = join_spec("preemptor", 2, 5, solo_finish - msec(200),
                         small_join());
  hi.demand_bytes = 2 * donor_free - (8 << 10);
  scheduler.submit(std::move(hi));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  for (const JobRecord& j : scheduler.jobs()) {
    EXPECT_EQ(j.state, JobState::kCompleted) << j.spec.name;
    EXPECT_TRUE(j.report.exact) << j.spec.name;
  }
  EXPECT_EQ(world.pool_donated_bytes(), 0);
}

TEST(Scheduler, TenantQuotaDegradesEvictionsToDisk) {
  sim::Simulation sim;
  World world(sim, small_world(2, 2));
  set_donor_free(world, 128 << 10);
  JobScheduler scheduler(world, guarded());

  JobSpec spec = aggregate_spec("capped", 1, 1, 0, small_aggregate());
  spec.quota_bytes = 16 << 10;  // far below the table's donated footprint
  scheduler.submit(std::move(spec));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  const JobRecord& job = scheduler.jobs()[0];
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_TRUE(job.report.exact);  // spilling to disk never loses data
  EXPECT_GT(job.report.degraded_evictions, 0);
  // Everything charged against the quota was released at completion.
  EXPECT_EQ(job.ledger.charged_bytes, 0);
  EXPECT_EQ(world.pool_donated_bytes(), 0);
}

TEST(Scheduler, SecondJobSeesFullCapacityAfterFirstCompletes) {
  sim::Simulation sim;
  World world(sim, small_world(2, 2));
  const std::int64_t donor_free = 128 << 10;
  set_donor_free(world, donor_free);
  JobScheduler scheduler(world, guarded());

  // The first job donates heavily; the second demands the ENTIRE pool, so
  // it can only admit if every line and broker debit of the first was
  // released at its completion.
  scheduler.submit(aggregate_spec("first", 1, 1, 0, small_aggregate()));
  JobSpec second = join_spec("second", 2, 1, sec(1), small_join());
  second.demand_bytes = 2 * donor_free;
  scheduler.submit(std::move(second));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  const JobRecord& first = scheduler.jobs()[0];
  const JobRecord& second_rec = scheduler.jobs()[1];
  EXPECT_EQ(first.state, JobState::kCompleted);
  EXPECT_EQ(second_rec.state, JobState::kCompleted);
  EXPECT_TRUE(first.report.exact);
  EXPECT_TRUE(second_rec.report.exact);
  EXPECT_EQ(first.ledger.charged_bytes, 0);
  // Same-priority tenants never reclaim from each other: the second job
  // simply waited for the first to finish and return its share.
  EXPECT_EQ(scheduler.stats().reclaim_events, 0);
  EXPECT_GE(second_rec.admitted, first.finished);
  EXPECT_EQ(world.pool_donated_bytes(), 0);
}

TEST(Scheduler, SizeCappedHpaJobIsCheckedAgainstACappedReference) {
  // At minsup 0.002 this database has large 3-itemsets, so an uncapped
  // re-mine finds more large itemsets than a job stopped at max_k = 2
  // mines. The job's exactness check must re-mine with the same cap.
  const mining::TransactionDb db =
      mining::QuestGenerator(mining::QuestParams::paper_experiment(0.01))
          .generate();
  constexpr double kMinSupport = 0.002;
  mining::AprioriOptions capped;
  capped.max_k = 2;
  const std::size_t want = mining::apriori(db, kMinSupport, capped)
                               .support.size();
  ASSERT_LT(want, mining::apriori(db, kMinSupport).support.size());

  sim::Simulation sim;
  World world(sim, small_world(2, 1));
  JobScheduler scheduler(world, guarded());
  hpa::HpaConfig cfg;
  cfg.app_nodes = 2;
  cfg.shared_db = &db;
  cfg.min_support = kMinSupport;
  cfg.hash_lines = 20'000;
  cfg.max_k = 2;
  JobSpec spec;
  spec.name = "hpa-k2";
  spec.workload = "hpa";
  spec.tenant = 1;
  spec.slots = cfg.app_nodes;
  spec.make = [cfg] { return hpa::make_hpa_job(cfg); };
  scheduler.submit(std::move(spec));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  const JobRecord& job = scheduler.jobs()[0];
  ASSERT_EQ(job.state, JobState::kCompleted);
  EXPECT_EQ(job.report.summary, "large=" + std::to_string(want));
  EXPECT_TRUE(job.report.exact);
}

TEST(World, SingleJobLayoutKeepsStandaloneNodeIds) {
  sim::Simulation sim;
  WorldConfig cfg = small_world(3, 2);
  cfg.layout = WorldConfig::Layout::kSingleJob;
  World world(sim, cfg);
  EXPECT_FALSE(world.has_scheduler());
  EXPECT_EQ(world.cluster().size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.app_node(i), static_cast<net::NodeId>(i));
  }
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(world.memory_node(j), static_cast<net::NodeId>(3 + j));
  }
  EXPECT_EQ(world.memory_ids(), (std::vector<net::NodeId>{3, 4}));
  EXPECT_DEATH(world.scheduler_broker(), "no scheduler");
}

TEST(World, DefaultLayoutPutsTheSchedulerOnNodeZero) {
  sim::Simulation sim;
  World world(sim, small_world(3, 2));
  EXPECT_TRUE(world.has_scheduler());
  EXPECT_EQ(world.scheduler_node(), 0);
  EXPECT_EQ(world.cluster().size(), 6u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(world.app_node(s), static_cast<net::NodeId>(1 + s));
  }
  EXPECT_EQ(world.memory_ids(), (std::vector<net::NodeId>{4, 5}));
  EXPECT_EQ(world.scheduler_broker().memory_nodes(), world.memory_ids());
}

TEST(Arrivals, PoissonTraceIsDeterministicSortedAndSeedSensitive) {
  const std::vector<Time> a = poisson_arrivals(16, msec(2000), 7);
  const std::vector<Time> b = poisson_arrivals(16, msec(2000), 7);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_GT(a.front(), 0);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i], a[i - 1]);  // interarrival gaps clamp to >= 1 tick
  }
  EXPECT_NE(poisson_arrivals(16, msec(2000), 8), a);
  const std::vector<Time> offset = poisson_arrivals(16, msec(2000), 7, sec(5));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(offset[i], a[i] + sec(5));
  }
}

TEST(Arrivals, CatalogNamesRoundTrip) {
  for (ArrivalTrace trace : all_arrival_traces()) {
    const auto parsed = parse_arrival_trace(arrival_trace_name(trace));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, trace);
  }
  EXPECT_FALSE(parse_arrival_trace("bogus").has_value());
}

}  // namespace
}  // namespace rms::sched
