#include "sched/job.hpp"

#include "cluster/cluster.hpp"
#include "core/hash_line_store.hpp"
#include "runtime/runner.hpp"

namespace rms::sched {

PhasedJob::PhasedJob() = default;
PhasedJob::~PhasedJob() = default;

void PhasedJob::attach(const JobEnv& env, std::size_t participants) {
  RMS_CHECK(env.sim != nullptr && env.cluster != nullptr);
  RMS_CHECK_MSG(env.app_nodes.size() == participants,
                "slot lease must match the job's participant count");
  RMS_CHECK(env.brokers.size() == participants);
  env_ = env;
  // Stores may be rebuilt each pass; bind the slots to getters so world
  // daemons always reach whatever store the slot carries right now.
  stores_.resize(participants);
  if (env_.slots != nullptr) {
    for (std::size_t i = 0; i < participants; ++i) {
      env_.slots->bind(app_id(i), [this, i]() -> core::HashLineStore* {
        return stores_[i].get();
      });
    }
  }
}

void PhasedJob::start_runner(runtime::RunnerConfig rcfg,
                             std::function<void()> on_done) {
  rcfg.tracks.assign(env_.app_nodes.begin(), env_.app_nodes.end());
  rcfg.on_finished = std::move(on_done);
  runner_ = std::make_unique<runtime::PhasedRunner>(sim(), *this, rcfg);
  runner_->start();
}

cluster::Node& PhasedJob::app_node(std::size_t idx) const {
  return env_.cluster->node(app_id(idx));
}

sim::Task<std::int64_t> PhasedJob::reclaim(std::int64_t target_bytes) {
  std::int64_t freed = 0;
  for (auto& store : stores_) {
    if (freed >= target_bytes) break;
    if (store) freed += co_await store->reclaim(target_bytes - freed);
  }
  co_return freed;
}

std::int64_t PhasedJob::donated_bytes() const {
  std::int64_t sum = 0;
  for (const auto& store : stores_) {
    if (store) sum += store->remote_held_bytes();
  }
  return sum;
}

JobReport PhasedJob::harvest() {
  JobReport rep;
  rep.completed = runner_ != nullptr && runner_->finished();
  if (runner_ != nullptr) {
    rep.total_time = runner_->total_time();
    rep.passes = runner_->passes();
    rep.phase_names = runner_->phases().names();
  }
  fill_report(rep);
  if (env_.slots != nullptr) {
    for (net::NodeId id : env_.app_nodes) env_.slots->unbind(id);
  }
  return rep;
}

void PhasedJob::add_store_counters(JobReport& rep) const {
  for (const auto& store : stores_) {
    if (!store) continue;
    rep.pagefaults += store->pagefaults();
    rep.swap_outs += store->swap_outs();
    rep.updates_sent += store->updates_sent();
    rep.degraded_evictions += store->failover().degraded_evictions;
  }
}

StatsRegistry PhasedJob::store_stats() const {
  StatsRegistry out;
  for (const auto& store : stores_) {
    if (store) out.merge(store->stats());
  }
  return out;
}

}  // namespace rms::sched
