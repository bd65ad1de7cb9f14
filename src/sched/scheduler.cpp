#include "sched/scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/memory_server.hpp"
#include "obs/artifact.hpp"
#include "obs/trace.hpp"

namespace rms::sched {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kShed:
      return "shed";
  }
  RMS_CHECK(false);
  return "";
}

obs::RunSection job_run_section(const JobRecord& job,
                                std::string description) {
  const JobReport& r = job.report;
  obs::RunSection run =
      r.completed ? phased_run_section(job.spec.workload, r.total_time,
                                       r.passes, r.phase_names)
                  : obs::RunSection{};
  run.label = job.spec.name;
  run.workload = job.spec.workload;
  run.description = std::move(description);
  run.config = {
      {"slots", static_cast<std::uint64_t>(job.spec.slots)},
      {"priority", static_cast<std::int64_t>(job.spec.priority)},
      {"demand_bytes", job.spec.demand_bytes}};
  run.job = obs::RunSection::Job{static_cast<std::uint64_t>(job.id),
                                 job.spec.tenant, r.summary,
                                 r.total_time - job.admitted};
  run.exact = r.exact;
  run.stats.bump("store.pagefaults", r.pagefaults);
  run.stats.bump("store.swap_outs", r.swap_outs);
  run.stats.bump("store.updates_sent", r.updates_sent);
  run.stats.bump("store.degraded_evictions", r.degraded_evictions);
  return run;
}

JobScheduler::JobScheduler(World& world, SchedulerConfig cfg)
    : world_(world), cfg_(cfg) {
  RMS_CHECK_MSG(world_.has_scheduler(),
                "the scheduler needs the scheduled world layout");
  slot_busy_.assign(world_.num_slots(), 0);
}

std::size_t JobScheduler::submit(JobSpec spec) {
  RMS_CHECK_MSG(!running_, "submit jobs before the scheduler runs");
  RMS_CHECK(spec.slots >= 1 && spec.slots <= world_.num_slots());
  RMS_CHECK(spec.make != nullptr);
  JobRecord rec;
  rec.id = jobs_.size();
  rec.spec = std::move(spec);
  jobs_.push_back(std::move(rec));
  return jobs_.back().id;
}

bool JobScheduler::drained() const {
  for (const JobRecord& j : jobs_) {
    if (j.state == JobState::kQueued || j.state == JobState::kRunning) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> JobScheduler::admission_order(Time now) const {
  std::vector<std::size_t> order;
  for (const JobRecord& j : jobs_) {
    if (j.state == JobState::kQueued && j.spec.arrival <= now) {
      order.push_back(j.id);
    }
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    const JobSpec& sa = jobs_[a].spec;
    const JobSpec& sb = jobs_[b].spec;
    if (sa.priority != sb.priority) return sa.priority > sb.priority;
    if (sa.arrival != sb.arrival) return sa.arrival < sb.arrival;
    return a < b;
  });
  return order;
}

void JobScheduler::shed_expired(Time now) {
  for (JobRecord& j : jobs_) {
    if (j.state != JobState::kQueued || j.spec.admission_deadline <= 0) {
      continue;
    }
    if (now >= j.spec.arrival + j.spec.admission_deadline) {
      j.state = JobState::kShed;
      j.finished = now;
      ++stats_.shed;
      if (cfg_.trace != nullptr) {
        cfg_.trace->instant(obs::EventKind::kJobShed,
                            world_.scheduler_node(), now,
                            static_cast<std::int64_t>(j.id), j.spec.tenant);
      }
    }
  }
}

bool JobScheduler::try_admit(JobRecord& job, Time now) {
  std::size_t free_slots = 0;
  for (char busy : slot_busy_) free_slots += busy == 0;
  if (free_slots < job.spec.slots) return false;
  if (world_.pool_free_bytes() < job.spec.demand_bytes) return false;
  launch(job, now);
  return true;
}

void JobScheduler::launch(JobRecord& job, Time now) {
  // Lease the lowest free slot indices (deterministic placement).
  job.slot_indices.clear();
  for (std::size_t s = 0;
       s < world_.num_slots() && job.slot_indices.size() < job.spec.slots;
       ++s) {
    if (slot_busy_[s] == 0) {
      slot_busy_[s] = 1;
      job.slot_indices.push_back(s);
    }
  }
  RMS_CHECK(job.slot_indices.size() == job.spec.slots);

  job.ledger = placement::TenantLedger{};
  job.ledger.tenant = job.spec.tenant;
  job.ledger.quota_bytes = job.spec.quota_bytes;

  JobEnv env;
  env.sim = &world_.sim();
  env.cluster = &world_.cluster();
  env.slots = &world_.slots();
  for (std::size_t s : job.slot_indices) {
    env.app_nodes.push_back(world_.app_node(s));
    placement::MemoryBroker& broker = world_.broker_at(s);
    broker.set_tenant_ledger(&job.ledger);
    env.brokers.push_back(&broker);
  }

  job.runtime = job.spec.make();
  RMS_CHECK(job.runtime != nullptr);
  job.state = JobState::kRunning;
  job.admitted = now;
  ++stats_.admitted;
  std::size_t running = 0;
  for (const JobRecord& j : jobs_) running += j.state == JobState::kRunning;
  stats_.peak_running = std::max(stats_.peak_running, running);
  if (cfg_.trace != nullptr) {
    cfg_.trace->instant(obs::EventKind::kJobAdmit, world_.scheduler_node(),
                        now, static_cast<std::int64_t>(job.id),
                        job.spec.tenant);
  }

  const std::size_t id = job.id;
  job.runtime->launch(env, [this, id] { on_job_finished(id); });
}

void JobScheduler::on_job_finished(std::size_t id) {
  JobRecord& job = jobs_[id];
  RMS_CHECK(job.state == JobState::kRunning);
  const Time now = world_.sim().now();

  // Harvest first (it unbinds the job's slots from the SlotTable), then
  // return every resource the job leased.
  job.report = job.runtime->harvest();
  job.state = JobState::kCompleted;
  job.finished = now;
  ++stats_.completed;

  for (std::size_t s : job.slot_indices) {
    world_.broker_at(s).set_tenant_ledger(nullptr);
    slot_busy_[s] = 0;
    // Straggler copies (normally none: a completed job fetched everything
    // home) return to the donor pool immediately.
    for (std::size_t m = 0; m < world_.config().memory_nodes; ++m) {
      world_.server_at(m).release_owner(world_.app_node(s));
    }
  }

  // The tenant's share is back in the pool: lift any reclamation caps so
  // the survivors can grow into the freed capacity again.
  for (JobRecord& other : jobs_) {
    if (other.state == JobState::kRunning) {
      other.ledger.quota_bytes = other.spec.quota_bytes;
    }
  }

  if (cfg_.trace != nullptr) {
    cfg_.trace->instant(obs::EventKind::kJobDone, world_.scheduler_node(),
                        now, static_cast<std::int64_t>(job.id),
                        job.spec.tenant);
  }
}

sim::Task<std::int64_t> JobScheduler::reclaim_for(int priority,
                                                  std::int64_t deficit) {
  // Victims: running tenants with strictly lower priority, poorest claim
  // first (priority asc, then submission order) — equal priorities never
  // reclaim from each other.
  std::vector<std::size_t> victims;
  for (const JobRecord& j : jobs_) {
    if (j.state == JobState::kRunning && j.spec.priority < priority) {
      victims.push_back(j.id);
    }
  }
  std::sort(victims.begin(), victims.end(),
            [this](std::size_t a, std::size_t b) {
              const int pa = jobs_[a].spec.priority;
              const int pb = jobs_[b].spec.priority;
              if (pa != pb) return pa < pb;
              return a < b;
            });

  std::int64_t freed = 0;
  for (std::size_t id : victims) {
    if (freed >= deficit) break;
    JobRecord& victim = jobs_[id];
    // A victim can finish while an earlier recall was in flight.
    if (victim.state != JobState::kRunning) continue;
    const std::int64_t donated = victim.runtime->donated_bytes();
    if (donated <= 0) continue;
    const std::int64_t want = std::min(deficit - freed, donated);
    // Cap the victim's quota below its current footprint BEFORE recalling,
    // so the freed bytes cannot be re-donated while the admission gate
    // waits for the next broadcast to show them.
    victim.ledger.quota_bytes =
        std::max<std::int64_t>(0, victim.ledger.charged_bytes - want);
    const std::int64_t got = co_await victim.runtime->reclaim(want);
    if (got > 0) {
      // Tighten to the footprint that actually remains (the recall may
      // have freed more or less than asked).
      if (victim.state == JobState::kRunning) {
        victim.ledger.quota_bytes = victim.ledger.charged_bytes;
      }
      freed += got;
      victim.reclaimed_bytes += got;
      ++victim.reclaim_events;
      ++stats_.reclaim_events;
      stats_.reclaimed_bytes += got;
    }
  }
  co_return freed;
}

sim::Process JobScheduler::run() {
  RMS_CHECK_MSG(!running_, "JobScheduler::run is once-only");
  running_ = true;
  sim::Simulation& sim = world_.sim();

  while (!drained()) {
    const Time now = sim.now();
    RMS_CHECK_MSG(cfg_.horizon <= 0 || now <= cfg_.horizon,
                  "scheduler horizon exceeded: a job is wedged");
    shed_expired(now);

    // Admission sweep: strict priority at the head, backfill behind it.
    const std::vector<std::size_t> order = admission_order(now);
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      JobRecord& job = jobs_[order[k]];
      if (job.state != JobState::kQueued) continue;  // shed this sweep
      if (try_admit(job, now)) continue;
      ++stats_.admission_waits;
      if (k == 0 && cfg_.reclaim_enabled) {
        // Head-of-line blocked: reclaim the pool-byte deficit from
        // lower-priority tenants if slots are not the bottleneck.
        std::size_t free_slots = 0;
        for (char busy : slot_busy_) free_slots += busy == 0;
        const std::int64_t deficit =
            job.spec.demand_bytes - world_.pool_free_bytes();
        if (free_slots >= job.spec.slots && deficit > 0) {
          co_await reclaim_for(job.spec.priority, deficit);
          // Admission waits for the next monitor broadcast to report the
          // recovered capacity — the same availability lag every other
          // placement decision in the system lives with.
        }
      }
    }
    if (drained()) break;

    // Sleep to the next interesting instant: an arrival, a deadline, or
    // the periodic re-poll (completions are observed on the next sweep).
    Time next = now + cfg_.poll_interval;
    for (const JobRecord& j : jobs_) {
      if (j.state != JobState::kQueued) continue;
      if (j.spec.arrival > now) next = std::min(next, j.spec.arrival);
      if (j.spec.admission_deadline > 0) {
        const Time dl = j.spec.arrival + j.spec.admission_deadline;
        if (dl > now) next = std::min(next, dl);
      }
    }
    co_await sim.timeout(std::max<Time>(1, next - now));
  }

  sim.request_stop();
}

}  // namespace rms::sched
