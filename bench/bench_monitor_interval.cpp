// Monitor-interval sensitivity (extension of the paper's §5.4 discussion).
//
// The paper reports qualitatively: results do not change at 1 s, and "too
// short interval such as shorter than 1 sec degrades the system performance
// because of the monitoring and communication overhead; such a short
// interval is expected to be unnecessary in most cases". This bench sweeps
// the interval and reports execution time plus the monitoring traffic that
// causes the degradation.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(argc, argv, bench::with_policy_flags());
  const bench::PolicyFlags pf = bench::parse_policy_flags(
      env.flags, core::SwapPolicy::kRemoteUpdate, 13.0);

  TablePrinter table(
      "Monitor interval sensitivity (remote update, 16 memory-available "
      "nodes, one mid-run withdrawal)",
      {"interval", "pass 2 [s]", "monitor broadcasts", "availability msgs",
       "lines migrated"});

  std::fprintf(stderr, "[monitor] baseline for signal placement...\n");
  hpa::HpaConfig probe = env.config();
  pf.apply(probe);
  const Time baseline = env.run(probe, "baseline").pass(2)->duration;

  for (Time interval : {msec(100), msec(300), msec(1000), msec(3000),
                        msec(10000)}) {
    hpa::HpaConfig cfg = env.config();
    pf.apply(cfg);
    cfg.monitor_interval = interval;
    cfg.withdrawals = {{0, baseline / 2}};
    std::fprintf(stderr, "[monitor] interval %.1f s...\n",
                 to_seconds(interval));
    const hpa::HpaResult r = env.run(
        cfg, bench::label("interval_%.1fs", to_seconds(interval)));
    table.add_row(
        {TablePrinter::num(to_seconds(interval), 1) + "s",
         bench::secs(r.pass(2)->duration),
         TablePrinter::integer(r.stats.counter("monitor.broadcasts")),
         TablePrinter::integer(
             r.stats.counter("client.availability_updates")),
         TablePrinter::integer(r.stats.counter("server.lines_migrated"))});
  }
  env.finish(table);

  std::printf(
      "\npaper §5.4: results unchanged at 1 s; intervals well below 1 s add "
      "monitoring/communication overhead without helping; 3 s is \"frequent "
      "enough for monitoring and not too heavy\".\n");
  return 0;
}
