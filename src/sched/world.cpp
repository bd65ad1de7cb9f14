#include "sched/world.hpp"

#include "core/availability.hpp"
#include "core/hash_line_store.hpp"
#include "core/integrity.hpp"
#include "core/memory_server.hpp"
#include "obs/trace.hpp"

namespace rms::sched {

World::World(sim::Simulation& sim, WorldConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  RMS_CHECK(cfg_.app_nodes >= 1);
  RMS_CHECK(!has_scheduler() || cfg_.memory_nodes >= 1);
  cluster::ClusterConfig ccfg = cfg_.cluster;
  ccfg.num_nodes = first_slot() + cfg_.app_nodes + cfg_.memory_nodes;
  ccfg.seed = cfg_.seed;
  cluster_ = std::make_unique<cluster::Cluster>(sim_, ccfg);
  if (cfg_.profiler != nullptr) {
    for (std::size_t i = 0; i < cluster_->size(); ++i) {
      cluster_->node(static_cast<net::NodeId>(i))
          .set_profile_hook(cfg_.profiler);
    }
  }

  for (std::size_t i = 0; i < cfg_.memory_nodes; ++i) {
    memory_ids_.push_back(memory_node(i));
  }
  for (std::size_t s = 0; s < cfg_.app_nodes; ++s) {
    slot_ids_.push_back(app_node(s));
  }

  // Persistent per-slot brokers; rng streams keyed by node id.
  brokers_.resize(cfg_.app_nodes);
  for (std::size_t s = 0; s < cfg_.app_nodes; ++s) {
    brokers_[s] = std::make_unique<placement::MemoryBroker>(
        memory_ids_, cfg_.placement,
        static_cast<std::uint64_t>(app_node(s)));
    if (cfg_.stale_after_intervals > 0) {
      brokers_[s]->set_max_age(cfg_.monitor_interval *
                               cfg_.stale_after_intervals);
    }
    if (cfg_.trace != nullptr) {
      brokers_[s]->set_trace(cfg_.trace,
                             static_cast<std::int32_t>(app_node(s)));
    }
  }
  if (has_scheduler()) {
    sched_broker_ = std::make_unique<placement::MemoryBroker>(
        memory_ids_, cfg_.placement,
        static_cast<std::uint64_t>(scheduler_node()));
  }
}

World::~World() = default;

void World::start() {
  RMS_CHECK_MSG(!started_, "World::start is once-only");
  started_ = true;

  // Every slot (and the scheduler) subscribes to the monitors' broadcasts.
  std::vector<net::NodeId> subscribers = slot_ids_;
  if (has_scheduler()) subscribers.push_back(scheduler_node());

  servers_.resize(cfg_.memory_nodes);
  for (std::size_t i = 0; i < cfg_.memory_nodes; ++i) {
    cluster::Node& node = cluster_->node(memory_node(i));
    core::MemoryServer::Config mscfg;
    mscfg.message_block_bytes = cfg_.message_block_bytes;
    mscfg.rpc_window = cfg_.rpc_window;
    mscfg.trace = cfg_.trace;
    servers_[i] = std::make_unique<core::MemoryServer>(node, mscfg);
    sim_.spawn(servers_[i]->serve());
    sim_.spawn(core::availability_monitor(
        node, core::MonitorConfig{cfg_.monitor_interval, subscribers}));
  }

  // Per slot: an availability client refreshing the slot's broker and,
  // when asked for, a failure detector over the same view. Shortages and
  // suspicions dispatch to whatever store currently runs on the slot.
  for (std::size_t s = 0; s < cfg_.app_nodes; ++s) {
    core::ClientConfig clcfg;
    clcfg.shortage_threshold_bytes = cfg_.shortage_threshold_bytes;
    const net::NodeId slot = app_node(s);
    sim_.spawn(core::availability_client(
        cluster_->node(slot), *brokers_[s], clcfg,
        [this, slot](net::NodeId holder) -> sim::Task<> {
          if (core::HashLineStore* store = slots_.store_at(slot)) {
            co_await store->migrate_away(holder);
          }
        }));
    if (cfg_.suspect_after_misses > 0) {
      core::DetectorConfig dcfg;
      dcfg.expected_interval = cfg_.monitor_interval;
      dcfg.miss_threshold = cfg_.suspect_after_misses;
      sim_.spawn(core::failure_detector(
          cluster_->node(slot), *brokers_[s], dcfg,
          [this, slot](net::NodeId suspect) -> sim::Task<> {
            if (core::HashLineStore* store = slots_.store_at(slot)) {
              co_await store->handle_holder_failure(suspect);
            }
          }));
    }
  }

  if (has_scheduler()) {
    // The scheduler's own view on node 0; shortages are the slots' problem.
    core::ClientConfig clcfg;
    clcfg.shortage_threshold_bytes = 0;  // available() is never negative
    sim_.spawn(core::availability_client(
        cluster_->node(scheduler_node()), *sched_broker_, clcfg,
        [](net::NodeId) -> sim::Task<> { co_return; }));
  }

  install_faults();
}

void World::install_faults() {
  // Withdrawals of memory-available nodes (Figure 5).
  for (const WorldConfig::Withdrawal& w : cfg_.withdrawals) {
    RMS_CHECK(w.memory_node_index < cfg_.memory_nodes);
    cluster::Node& victim = cluster_->node(memory_node(w.memory_node_index));
    sim_.call_at(w.at, [&victim] {
      victim.memory().external_bytes = victim.memory().total_bytes;
    });
  }

  // Crash-stops, loss bursts, and corruption episodes.
  cluster::FaultPlan plan;
  for (const WorldConfig::Crash& c : cfg_.crashes) {
    RMS_CHECK(c.memory_node_index < cfg_.memory_nodes);
    plan.crashes.push_back(cluster::FaultPlan::Crash{
        memory_node(c.memory_node_index), c.at, c.restart_at});
  }
  plan.loss_bursts = cfg_.loss_bursts;
  bool any_wire_corruption = false;
  for (const WorldConfig::Corruption& c : cfg_.corruption) {
    net::NodeId focus = -1;
    if (c.memory_node_index >= 0) {
      RMS_CHECK(static_cast<std::size_t>(c.memory_node_index) <
                cfg_.memory_nodes);
      focus = memory_node(static_cast<std::size_t>(c.memory_node_index));
    }
    plan.corruption.push_back(cluster::FaultPlan::Corruption{
        c.at, c.duration, c.flip_rate, c.rest_flip_rate, focus, c.scrub});
    if (c.flip_rate > 0.0) any_wire_corruption = true;
  }
  // The corruptor is installed only when an episode needs it: with no
  // injection the delivery path never draws from the corruption RNG and
  // results stay bit-identical with pre-integrity builds.
  if (any_wire_corruption) {
    cluster_->network().set_corruptor(core::corrupt_line_payloads);
  }
  cluster::CorruptionHooks hooks;
  if (!cfg_.corruption.empty()) {
    hooks.at_rest = [this](net::NodeId node, double rate) {
      for (auto& server : servers_) {
        if (node >= 0 && server->node().id() != node) continue;
        server->corrupt_stored(rate, corrupt_rest_rng_);
      }
    };
    hooks.scrub = [this](net::NodeId node) {
      for (auto& server : servers_) {
        if (node >= 0 && server->node().id() != node) continue;
        server->verify_stored();
      }
    };
  }
  plan.install(*cluster_, hooks);
}

void World::run_one_job(JobRuntime& job) {
  RMS_CHECK_MSG(!has_scheduler(), "a one-job run needs the single-job layout");
  start();
  JobEnv env;
  env.sim = &sim_;
  env.cluster = cluster_.get();
  env.app_nodes = slot_ids_;
  for (const auto& broker : brokers_) env.brokers.push_back(broker.get());
  env.slots = &slots_;
  bool finished = false;
  job.launch(env, [this, &finished] {
    finished = true;
    sim_.request_stop();
  });
  sim_.run();
  RMS_CHECK_MSG(finished, "simulation drained before the job finished");
}

StatsRegistry World::merged_stats(const StatsRegistry& store_stats) {
  StatsRegistry out;
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    cluster::Node& node = cluster_->node(static_cast<net::NodeId>(i));
    out.merge(node.stats());
    out.merge(node.data_disk().stats());
    out.merge(node.swap_disk().stats());
  }
  out.merge(cluster_->network().stats());
  // "store.*" keys in the stores' registries duplicate node-level bumps
  // already merged above, so only the "backend."-namespaced ones export.
  for (const auto& [name, value] : store_stats.counters()) {
    if (value != 0 && name.starts_with("backend.")) out.bump(name, value);
  }
  // Zero-valued placement counters are pre-registered scratch; skipping
  // them keeps disk-only runs free of placement keys.
  for (const auto& broker : brokers_) {
    for (const auto& [name, value] : broker->stats().counters()) {
      if (value != 0) out.bump(name, value);
    }
  }
  return out;
}

std::int64_t World::pool_free_bytes() const {
  RMS_CHECK(sched_broker_ != nullptr);
  std::int64_t sum = 0;
  for (net::NodeId id : memory_ids_) sum += sched_broker_->available(id);
  return sum;
}

std::int64_t World::pool_donated_bytes() {
  std::int64_t sum = 0;
  for (net::NodeId id : memory_ids_) {
    sum += cluster_->node(id).memory().donated_bytes;
  }
  return sum;
}

}  // namespace rms::sched
