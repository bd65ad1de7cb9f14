// perfbench harness: runs one benchmark workload inside this process and
// prints one JSON object of raw measurements on stdout. run.py builds this
// program, turns the raw measurements into metrics and checks them.
//
//   perfbench_harness --workload <hpa-nolimit|hpa-remote-update|multitenant>
//                     --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Order inside one run, so that no host-timed region contains another's
// work:
//   1. the simulation proper (timed as host_s): run_hpa() or sim.run(),
//      with tracing off; repeated as many times as --seconds holds the
//      workload's nominal simulation length (at least once), each after an
//      untimed set-up; a fixed-work host probe runs before each one,
//      outside the timed region;
//   2. set-up (timed as setup_s): kSetups set-ups back to back, each started
//      after the previous one's world and inputs were freed; setup_s is
//      their total over kSetups;
//   3. with --trace 1, one more set-up and simulation with tracing on;
//   4. output checks (never timed as host_s): the pass-2 reference mine, or
//      the join references; peak RSS is read after the first simulation;
//   5. with --trace 1, the benchmark's own spans are written to --out.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "hpa/hpa.hpp"
#include "mining/apriori.hpp"
#include "mining/generator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/arrivals.hpp"
#include "sched/scheduler.hpp"
#include "sched/world.hpp"
#include "sim/simulation.hpp"
#include "workloads/hash_aggregate.hpp"
#include "workloads/hash_join.hpp"

using namespace rms;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Host-side measurement helpers.
// ---------------------------------------------------------------------------

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  double maxrss_mb = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  // ru_maxrss is in KiB on Linux.
  return {tv(ru.ru_utime), tv(ru.ru_stime),
          static_cast<std::int64_t>(ru.ru_minflt),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// Written by the probe so its loop's work stays observable.
volatile std::uint64_t g_probe_sink = 0;

/// Fixed-work host-speed probe: dependent pseudo-random read-modify-writes
/// over a 32 MiB buffer, so it feels both ALU and memory-system drift. It
/// runs outside every timed region and is reported beside host_s, never
/// folded into it.
double host_probe() {
  constexpr std::size_t kWords = std::size_t{1} << 22;
  constexpr std::size_t kSteps = std::size_t{1} << 20;
  std::vector<std::uint64_t> buf(kWords, 1);
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < kSteps; ++i) {
    std::uint64_t& w = buf[(x >> 29) & (kWords - 1)];
    w = w * 31 + x;
    x = x * 6364136223846793005ULL + 1442695040888963407ULL + w;
  }
  const double s = seconds_since(t0);
  g_probe_sink = x;
  return s;
}

/// Benchmark-side spans around each call into a layer, kept in memory and
/// written as Chrome trace_event JSON at the end of a traced run. Untraced
/// runs leave it disabled and record nothing.
class Spans {
 public:
  bool enabled = false;

  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
  };

  int open(std::string name) {
    if (!enabled) return -1;
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = std::move(name);
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id) {
    if (id < 0) return;
    RMS_CHECK(!stack_.empty() && stack_.back() == id);
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }

  std::string chrome_json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("ph", "X");
      w.kv("pid", 1);
      w.kv("tid", 1);
      w.kv("ts", s.start_us);
      w.kv("dur", s.end_us - s.start_us);
      w.key("args");
      w.begin_object();
      w.kv("id", s.id);
      w.kv("parent", s.parent);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Spans g_spans;

/// Times a region and, in a traced run, records it as a span; `elapsed()`
/// is valid after the scope's work, before destruction.
class Timed {
 public:
  explicit Timed(std::string name) : id_(g_spans.open(std::move(name))) {}
  ~Timed() { g_spans.close(id_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  double elapsed() const { return seconds_since(t0_); }

 private:
  int id_;
  Clock::time_point t0_ = Clock::now();
};

/// splitmix64 step: the benchmark's own seeded stream, independent of the
/// program's generators.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Independent per-input seeds from the one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0xd1b54a32d192ed03ULL);
  return splitmix64(state);
}

/// The canonical Quest database of `params` (the paper's generator seed),
/// its transactions in a seeded order. The seed changes which transactions
/// each node's round-robin partition holds and the order nodes scan them,
/// not the itemsets mined, so results stay comparable across seeds.
mining::TransactionDb shuffled_quest_db(const mining::QuestParams& params,
                                        std::uint64_t seed) {
  const mining::TransactionDb canonical =
      mining::QuestGenerator(params).generate();
  std::vector<std::size_t> order(canonical.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = order.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(order[i - 1], order[splitmix64(state) % i]);
  }
  mining::TransactionDb db;
  for (const std::size_t i : order) db.add(canonical.tx(i));
  return db;
}

// ---------------------------------------------------------------------------
// What one simulation leaves behind.
// ---------------------------------------------------------------------------

/// One job of a simulation, as the checks and the turnaround metrics see
/// it. An hpa simulation is one job arriving at 0.
struct JobOutcome {
  std::string shape;   // agg, join, hpa, bulk
  int instance = 0;    // the script instance it belongs to (multitenant)
  int priority = 0;
  double arrival_s = 0.0;
  double admitted_s = -1.0;
  double finished_s = -1.0;
  std::string state;   // completed, shed, queued, running
  bool expect_shed = false;
  bool exact = false;  // the workload's own reference check
  /// Benchmark-side output check (-1 when the shape has none).
  std::int64_t output = -1;
  std::int64_t expected = -1;
};

/// Everything deterministic about one simulation: virtual metrics and
/// counts. Must repeat exactly across repetitions and the traced run.
struct SimRecord {
  std::map<std::string, double> values;
  std::vector<JobOutcome> jobs;
  std::string counters_digest;
};

std::string fnv_digest(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::int64_t sum_counters(const StatsRegistry& stats, const std::string& prefix,
                          const std::string& suffix) {
  std::int64_t total = 0;
  for (const auto& [name, value] : stats.counters()) {
    if (name.starts_with(prefix) && name.ends_with(suffix)) total += value;
  }
  return total;
}

/// Per-layer counts every workload reports from its merged registries.
void record_layer_counts(const StatsRegistry& stats, SimRecord& rec) {
  auto& v = rec.values;
  v["core.pagefaults"] = static_cast<double>(stats.counter("store.pagefaults"));
  v["core.swap_outs"] = static_cast<double>(stats.counter("store.swap_outs"));
  v["core.updates_applied"] =
      static_cast<double>(stats.counter("server.updates_applied"));
  v["core.update_batches"] =
      static_cast<double>(stats.counter("store.update_batches"));
  const Histogram& fault = stats.histogram("store.fault_ms");
  v["core.fault_ms.p50"] = fault.percentile(0.5);
  v["core.fault_ms.p99"] = fault.percentile(0.99);
  const Histogram& rpc = stats.histogram("rpc.latency_ms");
  v["transport.rpc_ms.p50"] = rpc.percentile(0.5);
  v["transport.rpc_ms.p99"] = rpc.percentile(0.99);
  v["net.messages"] = static_cast<double>(stats.counter("net.messages"));
  v["net.wire_bytes"] = static_cast<double>(stats.counter("net.wire_bytes"));
  v["disk.ops"] = static_cast<double>(sum_counters(stats, "disk.", ".count"));
  v["disk.bytes"] = static_cast<double>(sum_counters(stats, "disk.", ".bytes"));
  v["placement.decisions"] =
      static_cast<double>(sum_counters(stats, "placement.", ".chosen") +
                          sum_counters(stats, "placement.", ".denied"));
  std::string canon;
  for (const auto& [name, value] : stats.counters()) {
    canon += name + "=" + std::to_string(value) + ";";
  }
  rec.counters_digest = fnv_digest(canon);
}

/// Host seconds of one set-up.
struct SetupTime {
  double setup_s = 0.0;
  double generate_s = 0.0;
};

/// One simulation's host-side measurements.
struct HostSample {
  double host_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  double probe_s = 0.0;
};

/// Observability sinks of the traced run and what they yield.
struct TracedExtras {
  double trace_dropped = 0.0;
  double sampled_events = -1.0;  // hpa: executed-events gauge, last sample
  std::array<double, obs::kProfileCategories> crit{};
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

// ---------------------------------------------------------------------------
// hpa-nolimit and hpa-remote-update: the paper's miner at the benches'
// default scale (D = 100,000; 5,000 items; minsup 0.025 %; 800,000 hash
// lines; Table-3 skew; 8 application + 16 memory nodes; pass 2 only), with
// no memory limit (Figure 4's no-limit bar), or with a 12 MB per-node limit
// and remote update, the paper's best method (Figures 4-5).
// ---------------------------------------------------------------------------

constexpr double kHpaScale = 0.1;
constexpr double kHpaMinSupport = 0.00025;
constexpr std::size_t kHpaHashLines = 800'000;
constexpr std::int64_t kHpaLimitBytes = 12'000'000;

class HpaBench {
 public:
  HpaBench(const Options& opt, bool limited) : opt_(opt), limited_(limited) {}

  /// Set-up: free the previous database, then generate the seeded one.
  SetupTime setup() {
    db_.reset();
    SetupTime s;
    Timed t("setup");
    {
      Timed g("QuestGenerator::generate");
      db_ = std::make_unique<mining::TransactionDb>(shuffled_quest_db(
          mining::QuestParams::paper_experiment(kHpaScale),
          derive_seed(opt_.seed, 1)));
      s.generate_s = g.elapsed();
    }
    s.setup_s = t.elapsed();
    return s;
  }

  hpa::HpaConfig config() const {
    hpa::HpaConfig cfg;
    cfg.app_nodes = 8;
    cfg.memory_nodes = 16;
    cfg.workload = mining::QuestParams::paper_experiment(kHpaScale);
    cfg.shared_db = db_.get();
    cfg.min_support = kHpaMinSupport;
    cfg.hash_lines = kHpaHashLines;
    cfg.max_k = 2;
    cfg.partition_weights = hpa::paper_table3_weights();
    if (limited_) {
      cfg.memory_limit_bytes = kHpaLimitBytes;
      cfg.policy = core::SwapPolicy::kRemoteUpdate;
    }
    return cfg;
  }

  /// The simulation proper; returns its host seconds.
  double simulate(const hpa::HpaConfig& cfg, SimRecord& rec) {
    hpa::HpaResult r;
    double host_s = 0.0;
    {
      Timed t("run_hpa");
      r = hpa::run_hpa(cfg);
      host_s = t.elapsed();
    }
    auto& v = rec.values;
    v["virtual_s"] = to_seconds(r.total_time);
    const hpa::PassReport* p2 = r.pass(2);
    RMS_CHECK_MSG(p2 != nullptr, "hpa run without pass 2");
    v["hpa.candidates"] = static_cast<double>(p2->candidates_global);
    v["hpa.large"] = static_cast<double>(p2->large_global);
    v["hpa.build_s"] = to_seconds(p2->phase(hpa::kBuildPhase));
    v["hpa.count_s"] = to_seconds(p2->phase(hpa::kCountPhase));
    v["hpa.determine_s"] = to_seconds(p2->phase(hpa::kDeterminePhase));
    v["core.degraded_evictions"] =
        static_cast<double>(r.failover.degraded_evictions);
    record_layer_counts(r.stats, rec);

    JobOutcome job;
    job.shape = "hpa";
    job.arrival_s = 0.0;
    job.admitted_s = 0.0;
    job.finished_s = to_seconds(r.total_time);
    job.state = "completed";
    job.output = static_cast<std::int64_t>(r.mined.support.size());
    rec.jobs.push_back(job);
    supports_.push_back(std::move(r.mined.support));
    return host_s;
  }

  /// Typical host seconds of one simulation on a 4-vCPU x86 VM.
  double nominal_host_s() const { return limited_ ? 14.0 : 7.0; }

  double run(SimRecord& rec) { return simulate(config(), rec); }

  double run_traced(SimRecord& rec, TracedExtras& extras) {
    obs::TraceRecorder recorder;
    obs::PassProfiler profiler;
    obs::MetricsSampler sampler;
    recorder.set_profile_hook(&profiler);
    recorder.begin_run(opt_.workload);
    sampler.begin_run(opt_.workload);
    profiler.begin_run(opt_.workload);
    hpa::HpaConfig cfg = config();
    cfg.trace = &recorder;
    cfg.metrics = &sampler;
    cfg.profiler = &profiler;
    const double host_s = simulate(cfg, rec);
    profiler.end_run(recorder.dropped());

    extras.trace_dropped = static_cast<double>(recorder.dropped());
    const obs::MetricsSampler::Run& series = sampler.runs().back();
    for (std::size_t i = 0; i < series.series.size(); ++i) {
      if (series.series[i].name == "executed_events" && !series.rows.empty()) {
        extras.sampled_events = series.rows.back()[i];
      }
    }
    for (const obs::PassProfile& pass : profiler.runs().back().passes) {
      if (pass.k != 2) continue;
      for (const obs::CriticalSegment& seg : pass.critical_path) {
        for (std::size_t c = 0; c < obs::kProfileCategories; ++c) {
          extras.crit[c] += to_seconds(seg.time[c]);
        }
      }
    }
    return host_s;
  }

  /// Checks every simulation's support table against one sequential
  /// reference mine; returns the reference's host seconds.
  double check(std::vector<SimRecord>& recs) {
    mining::AprioriResult ref;
    double ref_s = 0.0;
    {
      Timed t("mining::apriori reference");
      mining::AprioriOptions o;
      o.hash_lines = kHpaHashLines;
      o.max_k = 2;
      ref = mining::apriori(*db_, kHpaMinSupport, o);
      ref_s = t.elapsed();
    }
    RMS_CHECK(recs.size() == supports_.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      JobOutcome& job = recs[i].jobs.front();
      job.expected = static_cast<std::int64_t>(ref.support.size());
      job.exact = supports_[i] == ref.support;
    }
    return ref_s;
  }

 private:
  Options opt_;
  bool limited_;
  std::unique_ptr<mining::TransactionDb> db_;
  std::vector<std::unordered_map<mining::Itemset, std::uint32_t,
                                 mining::ItemsetHash>>
      supports_;
};

// ---------------------------------------------------------------------------
// multitenant: a seeded open-loop Poisson stream of the four tenant shapes
// of bench_ext_multitenant on one sched::World (8 slots, 4 donors with
// 512 KB free each, 1 s monitor interval).
// ---------------------------------------------------------------------------

// The stream: 34 instances of bench_ext_multitenant's headline script (agg
// at +0 s, bulk at +2 s, hpa at +6 s, join at +12 s) whose start times are
// a seeded Poisson stream with a 120 s mean gap, conditioned on its last
// start (scaled to 33 mean gaps) so the number of overlapping instances,
// which reshuffle the queue, varies less between seeds. Each hpa job meets
// its own instance's aggregate holding donated lines, so reclamation runs
// in every instance. 136 jobs, a quarter of them bulk jobs that are shed,
// leave 102 completions: ten beyond p90. run.py derives the stream's
// metrics from each job's instance and times.
constexpr std::size_t kMtInstances = 34;
constexpr std::int64_t kMtInstanceGapMs = 120'000;
constexpr std::size_t kMtMemoryNodes = 4;
constexpr std::int64_t kMtDonorFree = 512 * 1024;
constexpr double kMtHpaMinSupport = 0.01;
constexpr std::size_t kMtJoinInputs = 4;

enum class Shape { kAgg, kJoin, kHpa, kBulk };
struct ScriptEntry {
  Shape shape;
  std::int64_t offset_ms;
};
constexpr std::array<ScriptEntry, 4> kScript = {{{Shape::kAgg, 0},
                                                 {Shape::kBulk, 2'000},
                                                 {Shape::kHpa, 6'000},
                                                 {Shape::kJoin, 12'000}}};
constexpr std::size_t kMtJobs = kMtInstances * kScript.size();

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kAgg: return "agg";
    case Shape::kJoin: return "join";
    case Shape::kHpa: return "hpa";
    case Shape::kBulk: return "bulk";
  }
  return "?";
}

/// The seeded inputs: generated before any timing, handed to the program.
struct MtInputs {
  mining::TransactionDb agg_db;
  mining::TransactionDb hpa_db;
  std::vector<Time> arrivals;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> join_seeds;
};

/// One ready-to-run world: built in set-up, consumed by one simulation.
struct MtInstance {
  MtInstance() = default;
  MtInstance(const MtInstance&) = delete;
  MtInstance& operator=(const MtInstance&) = delete;
  /// Destroy still-suspended frames while everything they reference lives.
  ~MtInstance() {
    if (sim) sim->shutdown();
  }

  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<sched::World> world;
  std::unique_ptr<sched::JobScheduler> scheduler;
  std::vector<Shape> shapes;
};

class MultitenantBench {
 public:
  explicit MultitenantBench(const Options& opt) : opt_(opt) {}

  /// Set-up: generate inputs, then build the world and submit the stream.
  SetupTime setup() { return setup_with(nullptr); }

  /// Typical host seconds of one simulation on a 4-vCPU x86 VM.
  double nominal_host_s() const { return 12.0; }

  double run(SimRecord& rec) { return simulate(rec); }

  double run_traced(SimRecord& rec, TracedExtras& extras) {
    obs::TraceRecorder recorder;
    recorder.begin_run(opt_.workload);
    setup_with(&recorder);
    const double host_s = simulate(rec);
    extras.trace_dropped = static_cast<double>(recorder.dropped());
    return host_s;
  }

  /// Sets every join's expected output to the in-memory scalar join of its
  /// input (from a standalone unlimited run), and times one sequential
  /// reference mine of the hpa jobs' database, the re-mine each scheduled
  /// hpa harvest performs; returns that mine's host seconds.
  double check(std::vector<SimRecord>& recs) {
    std::vector<std::int64_t> expected;
    {
      const Timed t("join references");
      for (const auto& [build_seed, probe_seed] : inputs_->join_seeds) {
        workloads::HashJoinConfig cfg = join_config();
        cfg.build_seed = build_seed;
        cfg.probe_seed = probe_seed;
        cfg.policy = core::SwapPolicy::kNoLimit;
        cfg.memory_limit_bytes = -1;
        expected.push_back(static_cast<std::int64_t>(
            workloads::run_hash_join(cfg).expected));
      }
    }
    for (SimRecord& rec : recs) {
      for (std::size_t j = 0; j < rec.jobs.size(); ++j) {
        if (join_input_[j] != SIZE_MAX) {
          rec.jobs[j].expected = expected[join_input_[j]];
        }
      }
    }
    double ref_s = 0.0;
    {
      Timed m("mining::apriori reference");
      const mining::AprioriResult ref =
          mining::apriori(inputs_->hpa_db, kMtHpaMinSupport);
      ref_s = m.elapsed();
      RMS_CHECK(!ref.support.empty());
    }
    return ref_s;
  }

 private:
  static workloads::HashJoinConfig join_config() {
    workloads::HashJoinConfig cfg;
    cfg.app_nodes = 4;
    cfg.build_rows = 20'000;
    cfg.probe_rows = 20'000;
    cfg.memory_limit_bytes = 96'000;
    cfg.policy = core::SwapPolicy::kRemoteSwap;
    return cfg;
  }

  std::unique_ptr<MtInputs> generate() const {
    auto in = std::make_unique<MtInputs>();
    {
      Timed g("QuestGenerator::generate");
      in->agg_db = shuffled_quest_db(mining::QuestParams::paper_experiment(0.1),
                                     derive_seed(opt_.seed, 2));
      in->hpa_db = shuffled_quest_db(
          mining::QuestParams::paper_experiment(0.01),
          derive_seed(opt_.seed, 3));
    }
    const std::vector<Time> starts = sched::poisson_arrivals(
        kMtInstances, msec(kMtInstanceGapMs), derive_seed(opt_.seed, 4));
    const double scale = static_cast<double>(msec(kMtInstanceGapMs)) *
                         static_cast<double>(kMtInstances - 1) /
                         static_cast<double>(starts.back());
    for (const Time start : starts) {
      for (const ScriptEntry& e : kScript) {
        in->arrivals.push_back(
            static_cast<Time>(static_cast<double>(start) * scale) +
            msec(e.offset_ms));
      }
    }
    for (std::size_t i = 0; i < kMtJoinInputs; ++i) {
      in->join_seeds.emplace_back(derive_seed(opt_.seed, 10 + 2 * i),
                                  derive_seed(opt_.seed, 11 + 2 * i));
    }
    return in;
  }

  SetupTime setup_with(obs::TraceRecorder* trace) {
    // Free the previous world before the inputs it points into, and both
    // before the timer starts.
    instance_.reset();
    inputs_.reset();
    SetupTime s;
    Timed t("setup");
    {
      const Clock::time_point g0 = Clock::now();
      inputs_ = generate();
      s.generate_s = seconds_since(g0);
    }
    Timed w("World construction and start");
    auto inst = std::make_unique<MtInstance>();
    inst->sim = std::make_unique<sim::Simulation>();
    sched::WorldConfig wcfg;
    wcfg.app_nodes = 8;
    wcfg.memory_nodes = kMtMemoryNodes;
    wcfg.monitor_interval = sec(1);
    wcfg.seed = derive_seed(opt_.seed, 5);
    wcfg.trace = trace;
    inst->world = std::make_unique<sched::World>(*inst->sim, wcfg);
    sched::World& world = *inst->world;
    for (std::size_t i = 0; i < kMtMemoryNodes; ++i) {
      cluster::HostMemoryModel& mem =
          world.cluster().node(world.memory_node(i)).memory();
      mem.external_bytes = std::max<std::int64_t>(
          0, mem.total_bytes - mem.base_bytes - kMtDonorFree);
    }
    const std::int64_t pool_bytes =
        kMtDonorFree * static_cast<std::int64_t>(kMtMemoryNodes);

    workloads::HashAggregateConfig acfg;
    acfg.app_nodes = 4;
    acfg.workload = mining::QuestParams::paper_experiment(0.1);
    acfg.shared_db = &inputs_->agg_db;
    acfg.hash_lines = 4096;
    acfg.memory_limit_bytes = 8 * 1024;
    acfg.policy = core::SwapPolicy::kRemoteUpdate;
    acfg.trace = trace;

    hpa::HpaConfig hcfg;
    hcfg.app_nodes = 4;
    hcfg.workload = mining::QuestParams::paper_experiment(0.01);
    hcfg.shared_db = &inputs_->hpa_db;
    hcfg.min_support = kMtHpaMinSupport;
    hcfg.hash_lines = 20'000;
    hcfg.max_k = 2;
    hcfg.memory_limit_bytes = 20'000;
    hcfg.policy = core::SwapPolicy::kRemoteUpdate;
    hcfg.trace = trace;

    workloads::HashJoinConfig jcfg = join_config();
    jcfg.trace = trace;

    sched::SchedulerConfig scfg;
    scfg.horizon = sec(200'000);
    scfg.trace = trace;
    inst->scheduler = std::make_unique<sched::JobScheduler>(world, scfg);

    join_input_.assign(kMtJobs, SIZE_MAX);
    std::size_t joins = 0;
    for (std::size_t i = 0; i < kMtJobs; ++i) {
      const Shape shape = kScript[i % kScript.size()].shape;
      sched::JobSpec spec;
      spec.name = std::string(shape_name(shape)) + "-" + std::to_string(i);
      spec.arrival = inputs_->arrivals[i];
      switch (shape) {
        case Shape::kAgg:
          spec.workload = "hash_aggregate";
          spec.tenant = 1;
          spec.priority = 1;
          spec.slots = 4;
          spec.make = [acfg] { return workloads::make_hash_aggregate_job(acfg); };
          break;
        case Shape::kJoin: {
          const std::size_t input = joins++ % kMtJoinInputs;
          join_input_[i] = input;
          workloads::HashJoinConfig cfg = jcfg;
          cfg.build_seed = inputs_->join_seeds[input].first;
          cfg.probe_seed = inputs_->join_seeds[input].second;
          spec.workload = "hash_join";
          spec.tenant = 3;
          spec.priority = 3;
          spec.slots = 4;
          spec.demand_bytes = 128 << 10;
          spec.make = [cfg] { return workloads::make_hash_join_job(cfg); };
          break;
        }
        case Shape::kHpa:
          spec.workload = "hpa";
          spec.tenant = 2;
          spec.priority = 5;
          spec.slots = 4;
          spec.demand_bytes = pool_bytes - 16 * 1024;
          spec.make = [hcfg] { return hpa::make_hpa_job(hcfg); };
          break;
        case Shape::kBulk: {
          workloads::HashJoinConfig cfg = jcfg;
          cfg.app_nodes = 2;
          spec.workload = "hash_join";
          spec.tenant = 4;
          spec.priority = 0;
          spec.slots = 2;
          spec.demand_bytes = 8LL << 20;  // 4x the whole pool: never admits
          spec.admission_deadline = sec(3);
          spec.make = [cfg] { return workloads::make_hash_join_job(cfg); };
          break;
        }
      }
      inst->shapes.push_back(shape);
      inst->scheduler->submit(std::move(spec));
    }
    world.start();
    inst->sim->spawn(inst->scheduler->run());
    instance_ = std::move(inst);
    s.setup_s = t.elapsed();
    return s;
  }

  double simulate(SimRecord& rec) {
    RMS_CHECK_MSG(instance_ != nullptr, "simulate() without set-up");
    MtInstance& inst = *instance_;
    double host_s = 0.0;
    {
      Timed t("sim.run");
      inst.sim->run();
      host_s = t.elapsed();
    }
    const sched::JobScheduler& sch = *inst.scheduler;
    const sched::JobScheduler::Stats& st = sch.stats();
    auto& v = rec.values;
    std::int64_t degraded = 0;
    for (std::size_t i = 0; i < sch.jobs().size(); ++i) {
      const sched::JobRecord& j = sch.jobs()[i];
      JobOutcome o;
      o.shape = shape_name(inst.shapes[i]);
      o.instance = static_cast<int>(i / kScript.size());
      o.priority = j.spec.priority;
      o.arrival_s = to_seconds(j.spec.arrival);
      o.admitted_s = j.admitted < 0 ? -1.0 : to_seconds(j.admitted);
      o.finished_s = j.finished < 0 ? -1.0 : to_seconds(j.finished);
      o.state = sched::job_state_name(j.state);
      o.expect_shed = inst.shapes[i] == Shape::kBulk;
      o.exact = j.report.completed && j.report.exact;
      if (inst.shapes[i] == Shape::kJoin && j.report.completed) {
        const std::string& sum = j.report.summary;
        const std::size_t eq = sum.find('=');
        o.output = eq == std::string::npos
                       ? -1
                       : std::strtoll(sum.c_str() + eq + 1, nullptr, 10);
      }
      degraded += j.report.degraded_evictions;
      rec.jobs.push_back(o);
    }
    v["sim.events"] = static_cast<double>(inst.sim->executed_events());
    v["core.degraded_evictions"] = static_cast<double>(degraded);
    v["sched.reclaim_events"] = st.reclaim_events;
    v["sched.reclaimed_bytes"] = static_cast<double>(st.reclaimed_bytes);
    v["sched.blocked_polls"] = st.admission_waits;
    v["sched.peak_queue_depth"] = static_cast<double>(st.peak_queue_depth);
    v["sched.shed"] = st.shed;
    v["sched.admitted"] = st.admitted;
    v["sched.completed"] = st.completed;

    StatsRegistry merged;
    cluster::Cluster& cl = inst.world->cluster();
    for (std::size_t i = 0; i < cl.size(); ++i) {
      cluster::Node& node = cl.node(static_cast<cluster::NodeId>(i));
      merged.merge(node.stats());
      merged.merge(node.data_disk().stats());
      merged.merge(node.swap_disk().stats());
    }
    merged.merge(cl.network().stats());
    for (std::size_t s = 0; s < inst.world->num_slots(); ++s) {
      merged.merge(inst.world->broker_at(s).stats());
    }
    merged.merge(inst.world->scheduler_broker().stats());
    record_layer_counts(merged, rec);

    instance_.reset();
    return host_s;
  }

  Options opt_;
  std::unique_ptr<MtInputs> inputs_;
  std::unique_ptr<MtInstance> instance_;
  std::vector<std::size_t> join_input_;  // job -> join_seeds index
};

// ---------------------------------------------------------------------------
// One run: set-up / simulate repetitions, traced run, checks, JSON.
// ---------------------------------------------------------------------------

void write_record(obs::JsonWriter& w, const SimRecord& rec) {
  w.begin_object();
  w.key("values");
  w.begin_object();
  for (const auto& [name, value] : rec.values) w.kv(name, value);
  w.end_object();
  w.kv("counters_digest", rec.counters_digest);
  w.key("jobs");
  w.begin_array();
  for (const JobOutcome& j : rec.jobs) {
    w.begin_object();
    w.kv("shape", j.shape);
    w.kv("instance", j.instance);
    w.kv("priority", j.priority);
    w.kv("arrival_s", j.arrival_s);
    w.kv("admitted_s", j.admitted_s);
    w.kv("finished_s", j.finished_s);
    w.kv("state", j.state);
    w.kv("expect_shed", j.expect_shed);
    w.kv("exact", j.exact);
    w.kv("output", j.output);
    w.kv("expected", j.expected);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// Set-ups timed for setup_s. Each takes 0.12-0.2 host s, so together they
/// span a few seconds rather than one short region.
constexpr std::size_t kSetups = 12;

template <typename Bench>
int run_bench(Bench& bench, const Options& opt) {
  g_spans.enabled = opt.trace;
  std::vector<HostSample> samples;
  std::vector<SimRecord> recs;  // one per repetition, then the traced run
  double peak_rss_mb = 0.0;
  // A fixed repetition count per workload, from --seconds and the
  // workload's nominal simulation length, so a slow machine does not change
  // how many (first, colder) simulations the median mixes.
  const auto reps = static_cast<std::size_t>(
      std::max(1L, std::lround(opt.seconds / bench.nominal_host_s())));
  for (std::size_t i = 0; i < reps; ++i) {
    bench.setup();
    HostSample s;
    s.probe_s = host_probe();
    SimRecord rec;
    const Usage u0 = usage_now();
    s.host_s = bench.run(rec);
    const Usage u1 = usage_now();
    s.user_s = u1.user_s - u0.user_s;
    s.sys_s = u1.sys_s - u0.sys_s;
    s.minflt = u1.minflt - u0.minflt;
    // Peak RSS after the first simulation: independent of how many
    // repetitions follow (later ones only add allocator retention).
    if (samples.empty()) peak_rss_mb = u1.maxrss_mb;
    samples.push_back(s);
    recs.push_back(std::move(rec));
  }
  SetupTime setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const SetupTime t = bench.setup();
    setups.setup_s += t.setup_s / kSetups;
    setups.generate_s += t.generate_s / kSetups;
  }

  TracedExtras extras;
  double traced_host_s = 0.0;
  if (opt.trace) {
    SimRecord rec;
    traced_host_s = bench.run_traced(rec, extras);
    recs.push_back(std::move(rec));
  }
  const double reference_s = bench.check(recs);

  const std::string spans_path = opt.out_dir + "/spans-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".json";
  std::string result;
  {
    const Timed t("output writing");
    obs::JsonWriter w;
    w.begin_object();
    w.kv("workload", opt.workload);
    w.kv("seed", static_cast<std::uint64_t>(opt.seed));
    w.key("samples");
    w.begin_array();
    for (const HostSample& s : samples) {
      w.begin_object();
      w.kv("host_s", s.host_s);
      w.kv("user_s", s.user_s);
      w.kv("sys_s", s.sys_s);
      w.kv("minflt", s.minflt);
      w.kv("probe_s", s.probe_s);
      w.end_object();
    }
    w.end_array();
    w.kv("setups", kSetups);
    w.kv("setup_s", setups.setup_s);
    w.kv("generate_s", setups.generate_s);
    w.kv("peak_rss_mb", peak_rss_mb);
    w.kv("reference_s", reference_s);
    w.key("records");
    w.begin_array();
    for (std::size_t i = 0; i < samples.size(); ++i) write_record(w, recs[i]);
    w.end_array();
    if (opt.trace) {
      w.key("traced");
      w.begin_object();
      w.kv("host_s", traced_host_s);
      w.kv("trace_dropped", extras.trace_dropped);
      w.kv("sampled_events", extras.sampled_events);
      w.key("crit");
      w.begin_object();
      for (std::size_t c = 0; c < obs::kProfileCategories; ++c) {
        w.kv(obs::category_name(static_cast<obs::ProfileCategory>(c)),
             extras.crit[c]);
      }
      w.end_object();
      w.key("record");
      write_record(w, recs.back());
      w.end_object();
      w.kv("spans_file", spans_path);
    }
    w.end_object();
    result = w.str();
  }
  if (opt.trace) {
    std::ofstream f(spans_path);
    f << g_spans.chrome_json();
    if (!f) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "<hpa-nolimit|hpa-remote-update|multitenant> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (opt.workload == "hpa-nolimit" || opt.workload == "hpa-remote-update") {
    HpaBench bench(opt, opt.workload == "hpa-remote-update");
    return run_bench(bench, opt);
  }
  if (opt.workload == "multitenant") {
    MultitenantBench bench(opt);
    return run_bench(bench, opt);
  }
  usage(("unknown workload '" + opt.workload + "'").c_str());
}
