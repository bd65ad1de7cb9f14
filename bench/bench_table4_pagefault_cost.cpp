// Table 4 reproduction: the execution time of each pagefault, derived the
// way the paper derives it -- (execution time minus the no-memory-limit
// execution time) divided by the maximum pagefault count across nodes --
// with 16 memory-available nodes and simple swapping.
//
// Paper values: Exec 7183.1/4674.0/2489.7/757.3 s for 12/13/14/15 MB with
// Max 2.9M/1.9M/1.0M/268k faults, giving 2.37/2.33/2.22/1.90 ms per fault,
// decomposed as ~0.5 ms RTT + ~0.3 ms transmission + ~1.5 ms server ops.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(argc, argv);

  std::fprintf(stderr, "[table4] no-limit baseline...\n");
  const Time no_limit = env.run(env.config(), "no_limit").pass(2)->duration;

  struct PaperRow {
    double exec, diff, pf_ms;
    std::int64_t max_faults;
  };
  const std::vector<PaperRow> paper = {{7183.1, 6936.1, 2.37, 2925243},
                                       {4674.0, 4427.0, 2.33, 1896226},
                                       {2489.7, 2242.7, 2.22, 1003757},
                                       {757.3, 510.3, 1.90, 268093}};

  TablePrinter table(
      "Table 4: execution time of each pagefault (16 memory-available nodes, "
      "simple swapping)",
      {"usage limit", "Exec [s]", "Diff [s]", "Max faults", "PF [ms]",
       "fault p50/p99 [ms]", "PF paper [ms]"});

  const std::vector<double> limits_mb = {12, 13, 14, 15};
  for (std::size_t i = 0; i < limits_mb.size(); ++i) {
    hpa::HpaConfig cfg = env.config();
    cfg.memory_limit_bytes = bench::mb(limits_mb[i]);
    cfg.policy = core::SwapPolicy::kRemoteSwap;
    std::fprintf(stderr, "[table4] limit %.0f MB...\n", limits_mb[i]);
    const hpa::HpaResult r =
        env.run(cfg, bench::label("remote_swap/%.0fMB", limits_mb[i]));
    const hpa::PassReport* p2 = r.pass(2);
    const Time exec = p2->duration;
    const Time diff = exec - no_limit;
    const std::int64_t max_faults = p2->max_pagefaults();
    const double pf_ms =
        max_faults > 0 ? to_millis(diff) / static_cast<double>(max_faults)
                       : 0.0;
    const auto& hist = r.stats.histogram("store.fault_ms");
    table.add_row({TablePrinter::num(limits_mb[i], 0) + "MB",
                   bench::secs(exec), bench::secs(diff),
                   TablePrinter::integer(max_faults),
                   TablePrinter::num(pf_ms, 2),
                   TablePrinter::num(hist.percentile(0.5), 2) + " / " +
                       TablePrinter::num(hist.percentile(0.99), 2),
                   TablePrinter::num(paper[i].pf_ms, 2)});
  }
  env.finish(table);

  std::printf(
      "\ndecomposition check (paper §5.2): round trip ~0.5 ms + 4 KB block "
      "~0.3 ms + memory-server operations ~1.5 ms = ~2.3 ms.\nThe 'unloaded "
      "fault' column measures the fault round trip directly; the derived PF "
      "column additionally absorbs eviction traffic (swap-outs share the "
      "server), which the paper's larger fault counts amortized away.\n");
  return 0;
}
