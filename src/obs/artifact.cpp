#include "obs/artifact.hpp"

#include <cstdio>
#include <utility>

#include "obs/json.hpp"

namespace rms::obs {
namespace {

/// Serialize a StatsRegistry: counters (non-zero), summaries, and histogram
/// percentiles (p50/p95/p99/max), as three keyed objects appended to the
/// currently-open JSON object.
void stats_json(JsonWriter& w, const StatsRegistry& stats) {
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : stats.counters()) {
    if (value == 0) continue;
    w.kv(name, value);
  }
  w.end_object();

  w.key("summaries");
  w.begin_object();
  for (const auto& [name, s] : stats.summaries()) {
    if (s.count() == 0) continue;
    w.key(name);
    w.begin_object();
    w.kv("count", s.count());
    w.kv("sum", s.sum());
    w.kv("min", s.min());
    w.kv("max", s.max());
    w.kv("mean", s.mean());
    w.end_object();
  }
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : stats.histograms()) {
    if (h.count() == 0) continue;
    w.key(name);
    w.begin_object();
    w.kv("count", h.count());
    w.kv("p50", h.percentile(0.50));
    w.kv("p95", h.percentile(0.95));
    w.kv("p99", h.percentile(0.99));
    w.kv("mean", h.summary().mean());
    w.kv("max", h.summary().max());
    w.end_object();
  }
  w.end_object();
}

void per_node_json(JsonWriter& w, std::string_view key,
                   const std::vector<std::int64_t>& values) {
  w.key(key);
  w.begin_array();
  for (const std::int64_t v : values) w.value(v);
  w.end_array();
}

void pass_json(JsonWriter& w, const PassSection& p,
               const std::vector<std::string>& phase_names) {
  w.begin_object();
  w.kv("k", static_cast<std::uint64_t>(p.k));
  if (p.counts) {
    w.kv("candidates", p.counts->candidates);
    w.kv("large", p.counts->large);
  }
  w.kv("duration_s", to_seconds(p.duration));
  if (!p.phase_time.empty()) {
    // Keyed by the runtime phase registry so the artifact cannot drift
    // from the phases the workload actually ran (empty for pass 1).
    w.key("phases");
    w.begin_object();
    for (std::size_t i = 0; i < p.phase_time.size(); ++i) {
      const std::string name =
          i < phase_names.size() ? phase_names[i]
                                 : "phase" + std::to_string(i);
      w.kv(name + "_s", to_seconds(p.phase_time[i]));
    }
    w.end_object();
  }
  if (p.counts) {
    w.kv("max_pagefaults", p.counts->max_pagefaults);
    per_node_json(w, "candidates_per_node", p.counts->candidates_per_node);
    per_node_json(w, "pagefaults_per_node", p.counts->pagefaults_per_node);
    per_node_json(w, "swap_outs_per_node", p.counts->swap_outs_per_node);
    per_node_json(w, "updates_per_node", p.counts->updates_per_node);
  }
  w.end_object();
}

void failover_json(JsonWriter& w, const core::FailoverStats& f) {
  w.begin_object();
  w.kv("suspicions", f.suspicions);
  w.kv("rpc_retries", f.rpc_retries);
  w.kv("deadline_misses", f.deadline_misses);
  w.kv("orphaned_lines", f.orphaned_lines);
  w.kv("orphaned_entries", f.orphaned_entries);
  w.kv("promoted_lines", f.promoted_lines);
  w.kv("degraded_evictions", f.degraded_evictions);
  w.kv("replicas_stored", f.replicas_stored);
  w.kv("updates_mirrored", f.updates_mirrored);
  w.kv("lost_update_ops", f.lost_update_ops);
  w.end_object();
}

void integrity_json(JsonWriter& w, const core::IntegrityStats& g) {
  w.begin_object();
  w.kv("checksum_mismatches", g.checksum_mismatches);
  w.kv("repaired_from_replica", g.repaired_from_replica);
  w.kv("repaired_from_disk", g.repaired_from_disk);
  w.kv("lines_lost", g.lines_lost);
  w.kv("re_replications", g.re_replications);
  w.kv("quarantines", g.quarantines);
  w.end_object();
}

void metrics_run_json(JsonWriter& w, const MetricsSampler::Run& run) {
  w.begin_object();
  w.key("series");
  w.begin_array();
  for (const MetricsSampler::Series& s : run.series) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("node", s.node);
    w.end_object();
  }
  w.end_array();
  w.key("t_s");
  w.begin_array();
  for (const Time t : run.at) w.value(to_seconds(t));
  w.end_array();
  w.key("samples");
  w.begin_array();
  for (const std::vector<double>& row : run.rows) {
    w.begin_array();
    for (const double v : row) w.value(v);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

void run_section_json(JsonWriter& w, const RunSection& run) {
  w.kv("label", run.label);
  w.kv("workload", run.workload);
  if (run.job) {
    w.kv("job", run.job->id);
    w.kv("tenant", run.job->tenant);
  }
  w.key("config");
  w.begin_object();
  w.kv("description", run.description);
  for (const ConfigField& field : run.config) {
    w.key(field.key);
    std::visit([&w](const auto& v) { w.value(v); }, field.value);
  }
  w.end_object();
  w.kv("completed", run.completed);
  if (!run.completed) return;
  w.kv("total_time_s", to_seconds(run.total_time));
  if (run.job) w.kv("makespan_s", to_seconds(run.job->makespan));
  if (run.exact) w.kv("exact", *run.exact);
  if (run.pagefaults) w.kv("pagefaults", *run.pagefaults);
  if (run.job) w.kv("summary", run.job->summary);
  w.key("phase_names");
  w.begin_array();
  for (const std::string& name : run.phase_names) w.value(name);
  w.end_array();
  w.key("passes");
  w.begin_array();
  for (const PassSection& p : run.passes) pass_json(w, p, run.phase_names);
  w.end_array();
  stats_json(w, run.stats);
  w.key("failover");
  if (run.failover) {
    failover_json(w, *run.failover);
  } else {
    w.begin_object();
    w.end_object();
  }
  if (run.integrity) {
    w.key("integrity");
    integrity_json(w, *run.integrity);
  }
}

}  // namespace

RunObserver::RunObserver(Paths paths) : paths_(std::move(paths)) {
  if (!paths_.trace.empty()) trace_ = std::make_unique<TraceRecorder>();
}

std::unique_ptr<RunObserver> RunObserver::from_paths(Paths paths) {
  if (paths.trace.empty() && paths.metrics.empty() && paths.artifact.empty() &&
      paths.profile.empty()) {
    return nullptr;
  }
  return std::make_unique<RunObserver>(std::move(paths));
}

void RunObserver::open_run(const std::string& label) {
  // The artifact embeds each opened run's attribution profile and sampled
  // series, so --json-out alone enables the profiler and the sampler. They
  // start with the first opened run: runs added with add_run share a world
  // no per-run sink can attribute. The profiler needs the recorder as its
  // event source (the ring is never read for it — events are tapped at
  // push time).
  if (!profiler_ && (!paths_.artifact.empty() || !paths_.profile.empty())) {
    if (!trace_) trace_ = std::make_unique<TraceRecorder>();
    profiler_ = std::make_unique<PassProfiler>();
    trace_->set_profile_hook(profiler_.get());
  }
  // Gauge reads are O(nodes) per interval — cheap.
  if (!metrics_ && (!paths_.metrics.empty() || !paths_.artifact.empty())) {
    metrics_ = std::make_unique<MetricsSampler>();
  }
  if (trace_) trace_->begin_run(label);
  if (metrics_) metrics_->begin_run(label);
  if (profiler_) {
    profiler_->begin_run(label);
    drop_mark_ = trace_->dropped();
  }
  Record rec;
  rec.run.label = label;
  rec.sink_run = opened_++;
  runs_.push_back(std::move(rec));
}

void RunObserver::end_run(RunSection run) {
  RMS_CHECK_MSG(!runs_.empty() && runs_.back().sink_run,
                "end_run without begin_run");
  if (profiler_) profiler_->end_run(trace_->dropped() - drop_mark_);
  run.label = std::move(runs_.back().run.label);
  runs_.back().run = std::move(run);
}

void RunObserver::add_run(RunSection run) {
  runs_.push_back(Record{std::move(run), std::nullopt});
}

std::string RunObserver::artifact_json(const HeadWriter& head) const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "rmswap.run_artifact/v2");
  if (head) head(w);
  w.key("runs");
  w.begin_array();
  for (const Record& rec : runs_) {
    w.begin_object();
    run_section_json(w, rec.run);
    if (rec.sink_run) {
      const std::size_t i = *rec.sink_run;
      if (metrics_ && i < metrics_->runs().size()) {
        w.key("metrics");
        metrics_run_json(w, metrics_->runs()[i]);
      }
      if (profiler_ && i < profiler_->runs().size()) {
        w.key("profile");
        profile_json(w, profiler_->runs()[i]);
      }
    }
    w.end_object();
  }
  w.end_array();
  // Only when a trace *file* was requested: --json-out alone also creates
  // the recorder (as the profiler's event source), and stamping its ring
  // totals here would perturb artifacts that never asked for tracing.
  if (trace_ && !paths_.trace.empty()) {
    w.key("trace");
    w.begin_object();
    w.kv("recorded", trace_->recorded());
    w.kv("dropped", trace_->dropped());
    w.end_object();
  }
  w.end_object();
  return w.str();
}

bool RunObserver::write(const HeadWriter& head) const {
  bool ok = true;
  const auto emit = [&ok](const char* what, const std::string& path,
                          bool wrote) {
    if (wrote) {
      std::printf("wrote %s: %s\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "FAILED writing %s: %s\n", what, path.c_str());
      ok = false;
    }
  };
  if (trace_ && !paths_.trace.empty()) {
    emit("chrome trace", paths_.trace, trace_->write_chrome_trace(paths_.trace));
  }
  if (metrics_ && !paths_.metrics.empty()) {
    emit("metrics series", paths_.metrics, metrics_->write_json(paths_.metrics));
  }
  if (!paths_.artifact.empty()) {
    emit("run artifact", paths_.artifact,
         write_file(paths_.artifact, artifact_json(head)));
  }
  if (profiler_ && !paths_.profile.empty()) {
    emit("attribution profile", paths_.profile,
         write_file(paths_.profile, profile_file_json(profiler_->runs())));
  }
  return ok;
}

}  // namespace rms::obs
