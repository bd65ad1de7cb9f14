// Run-artifact tests: the workload-neutral section writer, one
// obs::RunObserver holding runs of different workloads, and the gauge set
// sched::PhasedJob registers for every workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hpa/hpa.hpp"
#include "hpa/report.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sched/job.hpp"
#include "workloads/hash_aggregate.hpp"
#include "workloads/hash_join.hpp"

namespace rms {
namespace {

constexpr char kSchema[] = R"({"schema":"rmswap.run_artifact/v2",)";

hpa::HpaConfig small_hpa_config() {
  hpa::HpaConfig c;
  c.app_nodes = 2;
  c.memory_nodes = 2;
  c.workload.num_transactions = 800;
  c.workload.num_items = 60;
  c.workload.seed = 9;
  c.min_support = 0.02;
  c.hash_lines = 256;
  c.memory_limit_bytes = 2000;
  c.policy = core::SwapPolicy::kRemoteSwap;
  return c;
}

workloads::HashAggregateConfig small_aggregate_config() {
  workloads::HashAggregateConfig c;
  c.workload.num_transactions = 2000;
  c.workload.num_items = 150;
  c.workload.avg_transaction_size = 8;
  c.workload.avg_pattern_size = 3;
  c.workload.num_patterns = 30;
  c.workload.seed = 7;
  c.hash_lines = 1024;
  c.memory_limit_bytes = 256;
  c.policy = core::SwapPolicy::kRemoteSwap;
  return c;
}

workloads::HashJoinConfig small_join_config() {
  workloads::HashJoinConfig c;
  c.app_nodes = 2;
  c.memory_nodes = 2;
  c.build_rows = 4'000;
  c.probe_rows = 4'000;
  c.keys = 1'000;
  c.memory_limit_bytes = 24'000;
  return c;
}

/// The text of the run section that starts with `{"label":"<label>"`, up
/// to the next run section (or the end of the document).
std::string section_of(const std::string& json, const std::string& label) {
  const std::size_t at = json.find(R"({"label":")" + label + '"');
  if (at == std::string::npos) return "";
  const std::size_t next = json.find(R"({"label":")", at + 1);
  return json.substr(at, next == std::string::npos ? next : next - at);
}

bool has(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(RunSectionWriter, UnfinishedJobStopsAfterCompleted) {
  obs::RunObserver observer({"", "", "artifact.json", ""});
  obs::RunSection run;
  run.label = "bulk-shed";
  run.workload = "hash_join";
  run.description = "never admitted";
  run.config = {{"slots", std::uint64_t{2}}, {"priority", std::int64_t{0}}};
  run.job = obs::RunSection::Job{1, 4, "", 0};
  run.total_time = sec(5);  // not written: the run did not complete
  observer.add_run(run);
  EXPECT_EQ(observer.artifact_json(),
            std::string(kSchema) +
                R"("runs":[{"label":"bulk-shed","workload":"hash_join",)"
                R"("job":1,"tenant":4,"config":{"description":)"
                R"("never admitted","slots":2,"priority":0},)"
                R"("completed":false}]})");
}

TEST(RunSectionWriter, RunWithoutLedgersWritesAnEmptyFailoverObject) {
  obs::RunObserver observer({"", "", "artifact.json", ""});
  obs::RunSection run;
  run.label = "agg";
  run.workload = "hash_aggregate";
  run.description = "group-by";
  run.completed = true;
  run.total_time = sec(2);
  run.exact = true;
  run.pagefaults = 3;
  run.phase_names = {"build"};
  run.passes.push_back(obs::PassSection{1, sec(2), {sec(2)}, std::nullopt});
  run.stats.bump("store.pagefaults", 3);
  run.stats.bump("store.swap_outs", 0);  // zero counters are omitted
  observer.add_run(run);
  EXPECT_EQ(observer.artifact_json(),
            std::string(kSchema) +
                R"("runs":[{"label":"agg","workload":"hash_aggregate",)"
                R"("config":{"description":"group-by"},"completed":true,)"
                R"("total_time_s":2,"exact":true,"pagefaults":3,)"
                R"("phase_names":["build"],"passes":[{"k":1,)"
                R"("duration_s":2,"phases":{"build_s":2}}],)"
                R"("counters":{"store.pagefaults":3},"summaries":{},)"
                R"("histograms":{},"failover":{}}]})");
}

TEST(RunSectionWriter, HeadSectionsPrecedeTheRuns) {
  obs::RunObserver observer({"", "", "artifact.json", ""});
  obs::RunSection run;
  run.label = "job";
  observer.add_run(run);
  const std::string json = observer.artifact_json(
      [](obs::JsonWriter& w) { w.kv("scheduler", "fixed"); });
  EXPECT_EQ(json.rfind(std::string(kSchema) + R"("scheduler":"fixed","runs":[)",
                       0),
            0u)
      << json;
}

TEST(RunObserver, AddedRunsOpenNoSink) {
  // A scheduled world's jobs are added, never opened: --json-out alone
  // must not switch on a recorder, sampler or profiler for them.
  obs::RunObserver observer({"", "", "artifact.json", ""});
  obs::RunSection run;
  run.label = "job";
  observer.add_run(run);
  EXPECT_EQ(observer.trace(), nullptr);
  EXPECT_EQ(observer.metrics(), nullptr);
  EXPECT_EQ(observer.profiler(), nullptr);
  EXPECT_FALSE(has(observer.artifact_json(), R"("profile")"));

  obs::RunObserver traced({"trace.json", "", "artifact.json", ""});
  EXPECT_NE(traced.trace(), nullptr);
}

TEST(RunObserver, HpaAndAggregateRunsShareOneArtifact) {
  obs::RunObserver observer({"", "", "artifact.json", ""});

  hpa::HpaConfig hcfg = small_hpa_config();
  observer.begin_run(hcfg, "hpa-run");
  EXPECT_NE(hcfg.metrics, nullptr);
  EXPECT_NE(hcfg.profiler, nullptr);
  const hpa::HpaResult hr = hpa::run_hpa(hcfg);
  observer.end_run(hpa::run_section(hcfg, hr));

  workloads::HashAggregateConfig acfg = small_aggregate_config();
  observer.begin_run(acfg, "agg-run");
  const workloads::HashAggregateResult ar = workloads::run_hash_aggregate(acfg);
  ASSERT_TRUE(ar.exact);
  obs::RunSection agg_section = sched::phased_run_section("hash_aggregate", ar);
  agg_section.exact = ar.exact;
  observer.end_run(std::move(agg_section));

  const std::string json = observer.artifact_json();
  const std::string hpa_run = section_of(json, "hpa-run");
  const std::string agg_run = section_of(json, "agg-run");
  ASSERT_FALSE(hpa_run.empty()) << json;
  ASSERT_FALSE(agg_run.empty()) << json;

  for (const std::string* run : {&hpa_run, &agg_run}) {
    for (const char* key :
         {R"("counters":{")", R"("summaries":{)", R"("histograms":{)",
          R"("failover":{"suspicions":)", R"("integrity":{)",
          R"("metrics":{"series":[)", R"("profile":{)"}) {
      EXPECT_TRUE(has(*run, key)) << key << " in " << run->substr(0, 80);
    }
  }
  EXPECT_TRUE(has(hpa_run, R"("workload":"hpa")"));
  for (const char* key :
       {R"("candidates_per_node":[)", R"("pagefaults_per_node":[)",
        R"("swap_outs_per_node":[)", R"("updates_per_node":[)"}) {
    EXPECT_TRUE(has(hpa_run, key)) << key;
  }
  EXPECT_TRUE(has(agg_run, R"("workload":"hash_aggregate")"));
  EXPECT_TRUE(has(agg_run, R"("exact":true)"));
  EXPECT_TRUE(has(agg_run, R"({"name":"executed_events","node":-1})"));
  EXPECT_FALSE(has(agg_run, R"("pagefaults_per_node")"));
}

TEST(RunObserver, JoinAndAggregateSectionsCarryBothFaultLedgers) {
  obs::RunObserver observer({"", "", "artifact.json", ""});

  workloads::HashJoinConfig jcfg = small_join_config();
  observer.begin_run(jcfg, "join-run");
  const workloads::HashJoinResult jr = workloads::run_hash_join(jcfg);
  ASSERT_TRUE(jr.exact());
  // The join starts before the first availability broadcast lands, so its
  // first evictions degrade to the local disk.
  ASSERT_GT(jr.failover.degraded_evictions, 0);
  observer.end_run(sched::phased_run_section("hash_join", jr));

  workloads::HashAggregateConfig acfg = small_aggregate_config();
  observer.begin_run(acfg, "agg-run");
  observer.end_run(sched::phased_run_section(
      "hash_aggregate", workloads::run_hash_aggregate(acfg)));

  const std::string json = observer.artifact_json();
  const std::string join_run = section_of(json, "join-run");
  const std::string agg_run = section_of(json, "agg-run");
  EXPECT_TRUE(has(join_run,
                  R"("degraded_evictions":)" +
                      std::to_string(jr.failover.degraded_evictions) + ","))
      << join_run;
  for (const std::string* run : {&join_run, &agg_run}) {
    EXPECT_TRUE(has(*run, R"("failover":{"suspicions":0,)")) << *run;
    EXPECT_TRUE(has(*run, R"("integrity":{"checksum_mismatches":0,)"))
        << *run;
  }
}

// ---- the gauge set -------------------------------------------------------

/// The gauge names HPA has always registered, in registration order.
const std::vector<std::string> kGaugeNames = {
    "resident_bytes",   "remote_held_bytes",     "lines_resident",
    "lines_remote",     "lines_disk",            "outstanding_rpcs",
    "rpc_window",       "heartbeat_staleness_s", "donated_bytes",
    "executed_events"};

/// Distinct series names of `run`, in first-seen order.
std::vector<std::string> gauge_names(const obs::MetricsSampler::Run& run) {
  std::vector<std::string> names;
  for (const obs::MetricsSampler::Series& s : run.series) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  return names;
}

/// Eight store/broker gauges per application node, donated_bytes per
/// memory node, and one cluster-wide executed_events.
void expect_gauge_set(const obs::MetricsSampler& sampler,
                      std::size_t app_nodes, std::size_t memory_nodes) {
  ASSERT_EQ(sampler.runs().size(), 1u);
  const obs::MetricsSampler::Run& run = sampler.runs()[0];
  EXPECT_EQ(gauge_names(run), kGaugeNames);
  EXPECT_EQ(run.series.size(), 8 * app_nodes + memory_nodes + 1);
  EXPECT_EQ(run.series.back().node, -1);
  EXPECT_FALSE(run.rows.empty());
  // The gauges captured the job; it dropped them when it ended.
  EXPECT_EQ(sampler.num_gauges(), 0u);
}

TEST(GaugeSet, HpaRecordsTheSharedGauges) {
  obs::MetricsSampler sampler;
  sampler.begin_run("hpa");
  hpa::HpaConfig c = small_hpa_config();
  c.metrics = &sampler;
  hpa::run_hpa(c);
  expect_gauge_set(sampler, c.app_nodes, c.memory_nodes);
}

TEST(GaugeSet, HashJoinRecordsHpaGauges) {
  obs::MetricsSampler sampler;
  sampler.begin_run("join");
  workloads::HashJoinConfig c = small_join_config();
  c.metrics = &sampler;
  EXPECT_TRUE(workloads::run_hash_join(c).exact());
  expect_gauge_set(sampler, c.app_nodes, c.memory_nodes);
}

TEST(GaugeSet, HashAggregateRecordsHpaGauges) {
  obs::MetricsSampler sampler;
  sampler.begin_run("agg");
  workloads::HashAggregateConfig c = small_aggregate_config();
  c.metrics = &sampler;
  EXPECT_TRUE(workloads::run_hash_aggregate(c).exact);
  expect_gauge_set(sampler, c.app_nodes, c.memory_nodes);
}

}  // namespace
}  // namespace rms
