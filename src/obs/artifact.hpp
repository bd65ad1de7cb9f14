// RunObserver / run-artifact export: machine-readable results for the bench
// harnesses.
//
// The benches print paper-style tables; trajectory tracking (BENCH_*.json,
// CI smoke checks, plotting) needs the same data as stable JSON. A
// RunObserver owns the optional TraceRecorder, MetricsSampler and
// PassProfiler for a bench invocation, stamps them into each run's config,
// collects one RunSection per run, and at exit writes up to four files:
//
//   --trace-out    Chrome trace_event JSON (chrome://tracing / Perfetto)
//   --metrics-out  per-node gauge time-series ("rmswap.metrics/v1")
//   --json-out     run artifact ("rmswap.run_artifact/v2"): per-pass
//                  reports (phase breakdowns keyed by the runtime phase
//                  registry), StatsRegistry counters / summaries / histogram
//                  percentiles, failover stats, the sampled time-series,
//                  and the per-pass attribution profile
//   --profile-out  standalone attribution profile ("rmswap.profile/v2")
//
// The run section is workload-neutral: each workload module renders its own
// (hpa::run_section, sched::job_run_section, ...) and this layer only
// writes them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "core/failover.hpp"
#include "core/integrity.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace rms::obs {

class JsonWriter;

/// One parameter of a run's `config` object.
struct ConfigField {
  std::string key;
  std::variant<std::string, bool, std::int64_t, std::uint64_t, double> value;
};

/// One pass of a run section.
struct PassSection {
  std::size_t k = 0;
  Time duration = 0;
  /// Phase times indexed like the run's phase_names; empty for a phase-less
  /// pass (HPA's pass 1), which then has no `phases` object.
  std::vector<Time> phase_time;

  /// HPA's candidate/large counts (paper Table 2) and per-node vectors.
  struct Counts {
    std::int64_t candidates = 0;
    std::int64_t large = 0;
    std::int64_t max_pagefaults = 0;
    std::vector<std::int64_t> candidates_per_node;
    std::vector<std::int64_t> pagefaults_per_node;
    std::vector<std::int64_t> swap_outs_per_node;
    std::vector<std::int64_t> updates_per_node;
  };
  std::optional<Counts> counts;
};

/// One run of the artifact's `runs` array, whatever the workload.
struct RunSection {
  std::string label;
  std::string workload;
  /// The `config` object: a one-line description, then the parameters the
  /// workload reports.
  std::string description;
  std::vector<ConfigField> config;

  /// A scheduled job's markers: its scheduler id and tenant, its headline
  /// figure, and its makespan from admission to the final barrier.
  struct Job {
    std::uint64_t id = 0;
    std::int64_t tenant = 0;
    std::string summary;
    Time makespan = 0;
  };
  std::optional<Job> job;

  /// Nothing below is written for a run that did not complete.
  bool completed = false;
  Time total_time = 0;
  std::optional<bool> exact;
  std::optional<std::int64_t> pagefaults;
  std::vector<std::string> phase_names;
  std::vector<PassSection> passes;
  StatsRegistry stats;
  /// Absent when the workload keeps no fault ledgers of its own: the
  /// `failover` object is then empty and `integrity` is omitted.
  std::optional<core::FailoverStats> failover;
  std::optional<core::IntegrityStats> integrity;
};

class RunObserver {
 public:
  struct Paths {
    std::string trace;     // chrome trace file (optional)
    std::string metrics;   // metrics series file (optional)
    std::string artifact;  // run-artifact file (optional)
    std::string profile;   // standalone attribution-profile file (optional)
  };

  explicit RunObserver(Paths paths);

  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  /// Null unless at least one output path was requested.
  static std::unique_ptr<RunObserver> from_paths(Paths paths);

  /// Open a run section labelled `label` and stamp the sinks into `cfg`
  /// (any config with trace / metrics / profiler pointers).
  template <typename Config>
  void begin_run(Config& cfg, const std::string& label) {
    open_run(label);
    cfg.trace = trace_.get();
    cfg.metrics = metrics_.get();
    cfg.profiler = profiler_.get();
  }

  /// Close the open run section with the run's record; the section keeps
  /// the label begin_run gave it.
  void end_run(RunSection run);

  /// Append the section of a run this observer's sinks did not observe on
  /// their own: a scheduled job, whose world's sinks every tenant shares.
  void add_run(RunSection run);

  /// Writes top-level artifact sections ahead of `runs` (the multi-tenant
  /// bench's `scheduler`).
  using HeadWriter = std::function<void(JsonWriter&)>;

  /// Emit every requested file; prints one line per file written. Returns
  /// false if any write failed.
  bool write(const HeadWriter& head = {}) const;

  /// The artifact JSON (exposed for tests).
  std::string artifact_json(const HeadWriter& head = {}) const;

  TraceRecorder* trace() { return trace_.get(); }
  MetricsSampler* metrics() { return metrics_.get(); }
  PassProfiler* profiler() { return profiler_.get(); }
  /// The finished profile of the most recent run (for print_report); null
  /// when profiling is off or no run has ended.
  const RunProfile* last_profile() const {
    return profiler_ && !profiler_->runs().empty() ? &profiler_->runs().back()
                                                   : nullptr;
  }

 private:
  struct Record {
    RunSection run;
    /// Index into the sampler's and profiler's runs; empty for add_run.
    std::optional<std::size_t> sink_run;
  };

  void open_run(const std::string& label);

  Paths paths_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsSampler> metrics_;
  std::unique_ptr<PassProfiler> profiler_;
  /// trace_->dropped() at the current run's begin (per-run drop delta).
  std::uint64_t drop_mark_ = 0;
  std::size_t opened_ = 0;
  std::vector<Record> runs_;
};

}  // namespace rms::obs
