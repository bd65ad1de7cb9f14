#include "sched/job.hpp"

#include "cluster/cluster.hpp"
#include "core/hash_line_store.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "placement/placement.hpp"
#include "runtime/runner.hpp"
#include "sim/simulation.hpp"

namespace rms::sched {

obs::RunSection phased_run_section(
    std::string workload, Time total_time,
    const std::vector<runtime::PassTiming>& passes,
    std::vector<std::string> phase_names) {
  obs::RunSection run;
  run.workload = std::move(workload);
  run.completed = true;
  run.total_time = total_time;
  for (const runtime::PassTiming& p : passes) {
    obs::PassSection& out = run.passes.emplace_back();
    out.k = p.pass;
    out.duration = p.duration();
    for (std::size_t i = 0; i < p.phase_end.size(); ++i) {
      out.phase_time.push_back(p.phase_time(i));
    }
  }
  run.phase_names = std::move(phase_names);
  return run;
}

PhasedJob::PhasedJob() = default;

PhasedJob::~PhasedJob() {
  if (sampler_ != nullptr) sampler_->clear_gauges();
}

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

void PhasedJob::start_sampling(obs::MetricsSampler& sampler, Time interval) {
  sampler_ = &sampler;
  sampler.set_interval(interval);
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    const auto node = static_cast<std::int32_t>(app_id(i));
    const auto store_gauge = [&sampler, node, this, i](const char* name,
                                                       auto read) {
      sampler.add_gauge(name, node, [this, i, read]() -> double {
        return stores_[i] ? static_cast<double>(read(*stores_[i])) : 0.0;
      });
    };
    using Store = const core::HashLineStore&;
    store_gauge("resident_bytes", [](Store s) { return s.resident_bytes(); });
    store_gauge("remote_held_bytes",
                [](Store s) { return s.remote_held_bytes(); });
    store_gauge("lines_resident", [](Store s) { return s.resident_lines(); });
    store_gauge("lines_remote", [](Store s) { return s.remote_lines(); });
    store_gauge("lines_disk", [](Store s) { return s.disk_lines(); });
    store_gauge("outstanding_rpcs",
                [](Store s) { return s.outstanding_rpcs(); });
    store_gauge("rpc_window", [](Store s) { return s.rpc_window(); });
    sampler.add_gauge("heartbeat_staleness_s", node, [this, i]() -> double {
      return to_seconds(env_.brokers[i]->oldest_report_age(sim().now()));
    });
  }
  // Per memory node: how much RAM it is lending out.
  for (net::NodeId id : env_.brokers[0]->memory_nodes()) {
    sampler.add_gauge("donated_bytes", static_cast<std::int32_t>(id),
                      [this, id]() -> double {
                        return static_cast<double>(
                            env_.cluster->node(id).memory().donated_bytes);
                      });
  }
  // Cluster-wide: kernel event throughput (a cheap progress heartbeat).
  sampler.add_gauge("executed_events", -1, [this]() -> double {
    return static_cast<double>(sim().executed_events());
  });
  sim().spawn(obs::sample_process(sim(), sampler));
}

void PhasedJob::check_invariants(std::size_t idx) {
  if (stores_[idx]) stores_[idx]->check_invariants();
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
