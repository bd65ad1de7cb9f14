// Figure 3 reproduction: execution time of HPA pass 2 under dynamic remote
// memory acquisition with simple swapping, as a function of the number of
// memory-available nodes (1, 2, 4, 8, 16) for per-node memory usage limits
// of 12/13/14/15 MB plus the no-limit baseline.
//
// Paper behaviour to reproduce: with few memory-available nodes the swap
// servers are the bottleneck and execution time blows up (the smaller the
// limit, the worse); the bottleneck resolves by 8-16 nodes; limited runs
// stay well above the no-limit baseline because every fault costs ~2.3 ms.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(argc, argv,
                           {{"quick", "sweep fewer points (2 limits x 3 node"
                                      " counts)"}});
  const bool quick = env.flags.get_bool("quick", false);

  const std::vector<double> limits_mb =
      quick ? std::vector<double>{12, 15} : std::vector<double>{12, 13, 14, 15};
  const std::vector<std::size_t> node_counts =
      quick ? std::vector<std::size_t>{1, 4, 16}
            : std::vector<std::size_t>{1, 2, 4, 8, 16};

  // The no-limit baseline does not depend on the memory-node count (no
  // swap traffic); run it once, at the largest pool.
  hpa::HpaConfig base = env.config();
  base.memory_nodes = node_counts.back();
  std::fprintf(stderr, "[fig3] no-limit baseline...\n");
  const Time no_limit = env.run(base, "no_limit").pass(2)->duration;

  std::vector<std::string> header = {"memory nodes"};
  for (double limit : limits_mb) {
    header.push_back("limit " + TablePrinter::num(limit, 0) + "MB [s]");
  }
  header.push_back("no limit [s]");
  TablePrinter table(
      "Figure 3: execution time of HPA pass 2 [s] vs number of "
      "memory-available nodes (simple swapping)",
      header);

  for (std::size_t nodes : node_counts) {
    std::vector<std::string> row = {
        TablePrinter::integer(static_cast<std::int64_t>(nodes))};
    for (double limit : limits_mb) {
      hpa::HpaConfig cfg = env.config();
      cfg.memory_nodes = nodes;
      cfg.memory_limit_bytes = bench::mb(limit);
      cfg.policy = core::SwapPolicy::kRemoteSwap;
      std::fprintf(stderr, "[fig3] %zu memory nodes, %.0f MB limit...\n",
                   nodes, limit);
      const hpa::HpaResult r = env.run(
          cfg, bench::label("%zu_mem_nodes/%.0fMB", nodes, limit));
      row.push_back(bench::secs(r.pass(2)->duration));
    }
    row.push_back(bench::secs(no_limit));
    table.add_row(std::move(row));
  }
  env.finish(table);

  std::printf(
      "\npaper's Figure 3 shape: ~22,000 s at (12 MB, 1 node) falling to "
      "7,183 s at 16 nodes;\n757-4,674 s for 13-15 MB at 16 nodes; no-limit "
      "flat at ~247 s (all at D = 1M; this run is scaled by %.2f on D, so "
      "scan-proportional components shrink accordingly).\n",
      env.scale);
  return 0;
}
