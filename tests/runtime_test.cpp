// Unit tests for the generic phased-workload runtime: PhaseRegistry,
// PhasedRunner's hook ordering and barrier alignment, convergence/abort
// handling, invariant gating, and the trace spans it emits.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/cpu_charger.hpp"
#include "runtime/runner.hpp"
#include "runtime/workload.hpp"
#include "sim/simulation.hpp"

namespace rms::runtime {
namespace {

TEST(PhaseRegistry, DenseIdsInDeclarationOrder) {
  PhaseRegistry r;
  EXPECT_EQ(r.add("build"), 0u);
  EXPECT_EQ(r.add("count"), 1u);
  EXPECT_EQ(r.add("determine"), 2u);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.name(1), "count");
  EXPECT_EQ(r.names(),
            (std::vector<std::string>{"build", "count", "determine"}));
}

TEST(PhaseRegistry, DuplicateNameIsFatal) {
  PhaseRegistry r;
  r.add("build");
  EXPECT_DEATH(r.add("build"), "duplicate phase name");
}

/// Records every hook call as "<hook>:<pass>[:<detail>]" strings, with
/// per-phase virtual-time charges so barrier alignment is observable.
class ScriptedWorkload final : public Workload {
 public:
  explicit ScriptedWorkload(sim::Simulation& sim) : sim_(sim) {}

  std::vector<std::string> log;
  std::size_t stop_after = 3;   // done() fires when pass > this
  std::size_t abort_at = 0;     // proceed() false at this pass (0: never)
  bool use_prologue = false;
  std::vector<PassTiming> reports;

  void register_phases(PhaseRegistry& phases) override {
    phases.add("alpha");
    phases.add("beta");
  }
  bool has_prologue() const override { return use_prologue; }
  sim::Task<> prologue(std::size_t idx) override {
    log.push_back("prologue:" + std::to_string(idx));
    co_await sim_.timeout(msec(1));
  }
  void end_prologue(const PassTiming& timing) override {
    log.push_back("end_prologue");
    reports.push_back(timing);
  }
  bool done(std::size_t pass) const override { return pass > stop_after; }
  void begin_pass(std::size_t pass) override {
    log.push_back("begin_pass:" + std::to_string(pass));
  }
  bool proceed(std::size_t pass) const override { return pass != abort_at; }
  void abort_pass(std::size_t pass) override {
    log.push_back("abort_pass:" + std::to_string(pass));
  }
  sim::Task<> run_phase(std::size_t idx, PhaseId phase,
                        std::size_t pass) override {
    log.push_back("phase:" + std::to_string(pass) + ":" +
                  std::to_string(phase) + ":" + std::to_string(idx));
    // Participant idx works (idx + 1) ms in alpha, 1 ms in beta: the
    // barrier must stretch every phase window to the slowest participant.
    co_await sim_.timeout(
        phase == 0 ? msec(static_cast<std::int64_t>(idx) + 1) : msec(1));
  }
  void check_invariants(std::size_t idx) override {
    log.push_back("invariants:" + std::to_string(idx));
  }
  void end_pass(const PassTiming& timing) override {
    log.push_back("end_pass:" + std::to_string(timing.pass));
    reports.push_back(timing);
  }
  void end_pass_local(std::size_t idx, std::size_t pass) override {
    log.push_back("end_local:" + std::to_string(pass) + ":" +
                  std::to_string(idx));
  }

 private:
  sim::Simulation& sim_;
};

std::size_t count(const std::vector<std::string>& log,
                  const std::string& prefix) {
  std::size_t n = 0;
  for (const std::string& s : log) {
    if (s.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

std::ptrdiff_t index_of(const std::vector<std::string>& log,
                        const std::string& entry) {
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i] == entry) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

TEST(PhasedRunner, RunsPassesUntilConvergence) {
  sim::Simulation sim;
  ScriptedWorkload w(sim);
  w.stop_after = 3;
  RunnerConfig cfg;
  cfg.participants = 2;
  cfg.first_pass = 1;
  cfg.max_pass = 10;
  PhasedRunner runner(sim, w, cfg);
  runner.start();
  sim.run();

  ASSERT_TRUE(runner.finished());
  // Passes 1..3 ran; done(4) stopped the run before max_pass.
  EXPECT_EQ(count(w.log, "begin_pass:"), 3u);
  EXPECT_EQ(count(w.log, "end_pass:"), 3u);
  EXPECT_EQ(runner.passes().size(), 3u);
  // Each pass: 2 participants x 2 phases.
  EXPECT_EQ(count(w.log, "phase:1:"), 4u);
  // begin_pass runs on participant 0 only, before any phase of that pass.
  EXPECT_LT(index_of(w.log, "begin_pass:1"), index_of(w.log, "phase:1:0:0"));
  // Phase order: all alpha bodies start before any beta body of the pass.
  EXPECT_LT(index_of(w.log, "phase:1:0:1"), index_of(w.log, "phase:1:1:0"));
  // end_pass (node 0) precedes every end_pass_local of the pass.
  EXPECT_LT(index_of(w.log, "end_pass:1"), index_of(w.log, "end_local:1:0"));
  EXPECT_LT(index_of(w.log, "end_pass:1"), index_of(w.log, "end_local:1:1"));
  // And pass 2 starts only after pass 1 fully tore down.
  EXPECT_LT(index_of(w.log, "end_local:1:1"), index_of(w.log, "begin_pass:2"));
}

TEST(PhasedRunner, PhaseWindowsAreBarrierAlignedAndTileThePass) {
  sim::Simulation sim;
  ScriptedWorkload w(sim);
  w.stop_after = 1;
  RunnerConfig cfg;
  cfg.participants = 3;
  cfg.first_pass = 1;
  cfg.max_pass = 1;
  PhasedRunner runner(sim, w, cfg);
  runner.start();
  sim.run();

  ASSERT_TRUE(runner.finished());
  ASSERT_EQ(w.reports.size(), 1u);
  const PassTiming& t = w.reports[0];
  EXPECT_EQ(t.pass, 1u);
  ASSERT_EQ(t.phase_end.size(), 2u);
  // alpha's window is the slowest participant (3 ms), beta's is 1 ms, and
  // the windows tile the pass exactly: no gaps, no overlap.
  EXPECT_EQ(t.phase_time(0), msec(3));
  EXPECT_EQ(t.phase_time(1), msec(1));
  EXPECT_EQ(t.phase_start[0], t.start);
  EXPECT_EQ(t.phase_end[0], t.phase_start[1]);
  EXPECT_EQ(t.phase_end[1], t.end);
  EXPECT_EQ(t.duration(), msec(4));
  EXPECT_EQ(runner.total_time(), t.end);
}

TEST(PhasedRunner, AbortedPassRunsNoPhases) {
  sim::Simulation sim;
  ScriptedWorkload w(sim);
  w.stop_after = 5;
  w.abort_at = 2;
  RunnerConfig cfg;
  cfg.participants = 2;
  cfg.first_pass = 1;
  cfg.max_pass = 5;
  PhasedRunner runner(sim, w, cfg);
  runner.start();
  sim.run();

  ASSERT_TRUE(runner.finished());
  // Pass 1 completed; pass 2's proceed() was false: begin_pass ran, the
  // abort hook undid it on node 0, and no phase body or report followed.
  EXPECT_EQ(count(w.log, "begin_pass:"), 2u);
  EXPECT_EQ(count(w.log, "abort_pass:"), 1u);
  EXPECT_EQ(count(w.log, "phase:2:"), 0u);
  EXPECT_EQ(count(w.log, "end_pass:2"), 0u);
  EXPECT_EQ(runner.passes().size(), 1u);
}

TEST(PhasedRunner, PrologueRunsBeforePhasedLoopAndIsReported) {
  sim::Simulation sim;
  ScriptedWorkload w(sim);
  w.use_prologue = true;
  w.stop_after = 2;
  RunnerConfig cfg;
  cfg.participants = 2;
  cfg.first_pass = 2;  // prologue is pass 1
  cfg.max_pass = 2;
  PhasedRunner runner(sim, w, cfg);
  runner.start();
  sim.run();

  ASSERT_TRUE(runner.finished());
  EXPECT_LT(index_of(w.log, "prologue:0"), index_of(w.log, "begin_pass:2"));
  EXPECT_LT(index_of(w.log, "end_prologue"), index_of(w.log, "begin_pass:2"));
  ASSERT_EQ(w.reports.size(), 2u);
  EXPECT_EQ(w.reports[0].pass, 1u);
  EXPECT_TRUE(w.reports[0].phase_end.empty());
  EXPECT_EQ(w.reports[1].pass, 2u);
  // The runner's pass list mirrors what the workload saw.
  ASSERT_EQ(runner.passes().size(), 2u);
  EXPECT_EQ(runner.passes()[0].pass, 1u);
}

TEST(PhasedRunner, InvariantHooksAreGatedByConfig) {
  for (const bool validate : {false, true}) {
    sim::Simulation sim;
    ScriptedWorkload w(sim);
    w.stop_after = 1;
    RunnerConfig cfg;
    cfg.participants = 2;
    cfg.max_pass = 1;
    cfg.validate_invariants = validate;
    PhasedRunner runner(sim, w, cfg);
    runner.start();
    sim.run();
    ASSERT_TRUE(runner.finished());
    // When enabled: one call per participant per phase barrier plus one
    // per participant after the report barrier = (2 phases + 1) * 2.
    EXPECT_EQ(count(w.log, "invariants:"), validate ? 6u : 0u);
  }
}

TEST(PhasedRunner, WarmupDelaysTheFirstPass) {
  sim::Simulation sim;
  ScriptedWorkload w(sim);
  w.stop_after = 1;
  RunnerConfig cfg;
  cfg.participants = 1;
  cfg.max_pass = 1;
  cfg.warmup = msec(10);
  PhasedRunner runner(sim, w, cfg);
  runner.start();
  sim.run();
  ASSERT_TRUE(runner.finished());
  ASSERT_EQ(w.reports.size(), 1u);
  EXPECT_EQ(w.reports[0].start, msec(10));
}

TEST(PhasedRunner, EmitsPassAndPhaseSpansOnThePhaseTrack) {
  sim::Simulation sim;
  ScriptedWorkload w(sim);
  w.stop_after = 1;
  obs::TraceRecorder trace;
  RunnerConfig cfg;
  cfg.participants = 2;
  cfg.max_pass = 1;
  cfg.trace = &trace;
  PhasedRunner runner(sim, w, cfg);
  runner.start();
  sim.run();
  ASSERT_TRUE(runner.finished());

  std::size_t pass_spans = 0;
  std::size_t phase_spans = 0;
  std::size_t barriers = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& e = trace.event(i);
    if (e.kind == obs::EventKind::kPass) ++pass_spans;
    if (e.kind == obs::EventKind::kPhase) {
      ++phase_spans;
      EXPECT_EQ(e.track, obs::TraceRecorder::kPhaseTrack);
      // arg1 carries the recorder's phase id; the registered name matches
      // the workload's registry.
      const auto id = static_cast<std::size_t>(e.arg1);
      ASSERT_LT(id, trace.phase_names().size());
      EXPECT_EQ(trace.phase_names()[id], runner.phases().name(id));
    }
    if (e.kind == obs::EventKind::kBarrier) ++barriers;
  }
  EXPECT_EQ(pass_spans, 1u);
  EXPECT_EQ(phase_spans, 2u);
  // One barrier instant per participant per phase barrier.
  EXPECT_GE(barriers, 4u);
}

TEST(CpuCharger, ChunkedChargesPreserveTheExactTotal) {
  sim::Simulation sim;
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cluster::Cluster cluster(sim, cc);
  Time finished = -1;
  auto body = [](cluster::Node& node, Time& out) -> sim::Process {
    // 2500 ops at 1 us each, flushed in chunks of 1024: three compute
    // awaits, but the total charged time is exactly 2500 us.
    CpuCharger cpu(node, usec(1), 1024);
    for (int i = 0; i < 2500; ++i) {
      if (cpu.add(1)) co_await cpu.flush();
    }
    co_await cpu.flush();
    out = node.cluster().sim().now();
  };
  sim.spawn(body(cluster.node(0), finished));
  sim.run();
  EXPECT_EQ(finished, usec(2500));
}

}  // namespace
}  // namespace rms::runtime
