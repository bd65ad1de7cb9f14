#include "sched/job.hpp"

#include "cluster/cluster.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "placement/placement.hpp"
#include "runtime/runner.hpp"
#include "sched/world.hpp"
#include "sim/simulation.hpp"

namespace rms::sched {
namespace {

/// Add `store`'s counters, fault ledgers and counter registry to `totals`.
void add_store(PhasedResult& totals, const core::HashLineStore& store) {
  totals.pagefaults += store.pagefaults();
  totals.swap_outs += store.swap_outs();
  totals.updates_sent += store.updates_sent();
  totals.failover.merge(store.failover());
  totals.integrity.merge(store.integrity());
  totals.stats.merge(store.stats());
}

}  // namespace

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

obs::RunSection phased_run_section(std::string workload,
                                   const PhasedResult& result) {
  obs::RunSection run =
      phased_run_section(std::move(workload), result.total_time,
                         result.passes, result.phase_names);
  run.pagefaults = result.pagefaults;
  run.stats = result.stats;
  run.failover = result.failover;
  run.integrity = result.integrity;
  return run;
}

PhasedJob::PhasedJob(const PhasedConfig& cfg) : phased_cfg_(cfg) {
  RMS_CHECK(cfg.app_nodes >= 1);
  RMS_CHECK_MSG(cfg.memory_limit_bytes < 0 ||
                    cfg.policy != core::SwapPolicy::kNoLimit,
                "a memory limit needs a swap policy");
  RMS_CHECK_MSG(cfg.memory_limit_bytes < 0 ||
                    !core::uses_remote_memory(cfg.policy) ||
                    cfg.memory_nodes > 0,
                "remote policies need at least one memory-available node");
}

PhasedJob::~PhasedJob() {
  if (sampler_ != nullptr) sampler_->clear_gauges();
}

void PhasedJob::attach(const JobEnv& env) {
  const std::size_t participants = phased_cfg_.app_nodes;
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

core::HashLineStore::Config PhasedJob::store_config(
    std::size_t num_lines) const {
  core::HashLineStore::Config scfg;
  scfg.num_lines = num_lines;
  scfg.memory_limit_bytes = phased_cfg_.memory_limit_bytes;
  scfg.policy = phased_cfg_.policy;
  scfg.tiered_remote_budget_bytes = phased_cfg_.tiered_remote_budget_bytes;
  scfg.trace = phased_cfg_.trace;
  return scfg;
}

void PhasedJob::create_store(std::size_t idx,
                             const core::HashLineStore::Config& scfg) {
  stores_[idx] = std::make_unique<core::HashLineStore>(app_node(idx), scfg,
                                                       env_.brokers[idx]);
}

void PhasedJob::retire_store(std::size_t idx) {
  add_store(retired_, *stores_[idx]);
  stores_[idx].reset();
}

void PhasedJob::start_runner(std::size_t first_pass, std::size_t max_pass,
                             Time warmup, std::function<void()> on_done) {
  if (phased_cfg_.metrics != nullptr) start_sampling(*phased_cfg_.metrics);
  runtime::RunnerConfig rcfg;
  rcfg.participants = phased_cfg_.app_nodes;
  rcfg.tracks.assign(env_.app_nodes.begin(), env_.app_nodes.end());
  rcfg.first_pass = first_pass;
  rcfg.max_pass = max_pass;
  rcfg.validate_invariants = phased_cfg_.validate_invariants;
  rcfg.warmup = warmup;
  rcfg.trace = phased_cfg_.trace;
  rcfg.on_finished = std::move(on_done);
  runner_ = std::make_unique<runtime::PhasedRunner>(sim(), *this, rcfg);
  runner_->start();
}

PhasedResult PhasedJob::run_standalone(WorldConfig wcfg) {
  wcfg.layout = WorldConfig::Layout::kSingleJob;
  wcfg.app_nodes = phased_cfg_.app_nodes;
  wcfg.memory_nodes = phased_cfg_.memory_nodes;
  wcfg.trace = phased_cfg_.trace;
  wcfg.profiler = phased_cfg_.profiler;
  // The gauges sample at the monitors' cadence.
  if (phased_cfg_.metrics != nullptr) {
    phased_cfg_.metrics->set_interval(wcfg.monitor_interval);
  }
  sim::Simulation sim;
  World world(sim, std::move(wcfg));
  world.run_one_job(*this);
  PhasedResult result = store_totals();
  result.total_time = runner_->total_time();
  result.passes = runner_->passes();
  result.phase_names = runner_->phases().names();
  result.stats = world.merged_stats(result.stats);
  // Destroy still-suspended frames (daemons, in-flight store calls) while
  // the world and the job's stores they reference are alive.
  sim.shutdown();
  return result;
}

void PhasedJob::start_sampling(obs::MetricsSampler& sampler) {
  sampler_ = &sampler;
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
  const PhasedResult totals = store_totals();
  rep.pagefaults = totals.pagefaults;
  rep.swap_outs = totals.swap_outs;
  rep.updates_sent = totals.updates_sent;
  rep.degraded_evictions = totals.failover.degraded_evictions;
  fill_report(rep);
  if (env_.slots != nullptr) {
    for (net::NodeId id : env_.app_nodes) env_.slots->unbind(id);
  }
  return rep;
}

PhasedResult PhasedJob::store_totals() const {
  PhasedResult totals = retired_;
  for (const auto& store : stores_) {
    if (store) add_store(totals, *store);
  }
  return totals;
}

}  // namespace rms::sched
