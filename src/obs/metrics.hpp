// MetricsSampler: per-node gauge time-series driven off the simulation clock.
//
// Counters tell you how much happened; they cannot show the *shape* of a run
// — resident bytes ramping into the limit, the tiered remote budget filling,
// outstanding RPCs spiking during a retry storm. The sampler polls a set of
// registered gauges (cheap `double()` callbacks reading component state) at a
// fixed virtual-time interval, mirroring the paper's monitoring-server
// cadence (`monitor_interval`), and keeps the result as a compact columnar
// series: one timestamp vector plus one row of doubles per sample.
//
// Like tracing, sampling is passive — the sampling process only advances the
// virtual clock by suspending on `timeout`, it charges no compute — and a
// null `MetricsSampler*` disables the whole layer.
//
// Lifetime rule: gauges capture references into job/store state. Callers
// MUST `clear_gauges()` (or begin a new run) before that state dies;
// `sched::PhasedJob` does this when the job that registered them ends.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace rms::obs {

class MetricsSampler {
 public:
  struct Series {
    std::string name;     // metric name, e.g. "resident_bytes"
    std::int32_t node;    // node id, or -1 for cluster-wide gauges
  };

  /// One run section: the gauge layout is fixed for a run, so samples are
  /// rows of `series.size()` doubles taken at the times in `at`.
  struct Run {
    std::string label;
    std::vector<Series> series;
    std::vector<Time> at;
    std::vector<std::vector<double>> rows;
  };

  explicit MetricsSampler(Time interval = sec(3)) : interval_(interval) {}

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  Time interval() const { return interval_; }
  void set_interval(Time interval) { interval_ = interval; }

  /// Open a new run section; clears registered gauges (their captures are
  /// about to die with the previous run's state).
  void begin_run(const std::string& label);

  /// Register a gauge for the current run. `fn` must stay valid until
  /// clear_gauges()/the next begin_run.
  void add_gauge(const std::string& name, std::int32_t node,
                 std::function<double()> fn);

  /// Poll every gauge once at virtual time `now`.
  void sample(Time now);

  /// Drop gauge callbacks (keeps the recorded series). Call before the state
  /// the callbacks capture is destroyed.
  void clear_gauges() { gauges_.clear(); }

  std::size_t num_gauges() const { return gauges_.size(); }
  const std::vector<Run>& runs() const { return runs_; }

  /// Serialize all runs to JSON ({"schema":"rmswap.metrics/v1",...}).
  std::string json() const;
  bool write_json(const std::string& path) const;

  void clear();

 private:
  Run& current_run();

  Time interval_;
  std::vector<std::function<double()>> gauges_;
  std::vector<Run> runs_;
};

/// Daemon process: samples forever at the sampler's interval (first sample
/// at t = spawn time). Killed by Simulation::shutdown like other daemons.
sim::Process sample_process(sim::Simulation& sim, MetricsSampler& sampler);

}  // namespace rms::obs
