// Extension: parallel speedup of HPA with the number of application
// execution nodes.
//
// The paper reports only that "reasonably good performance improvement" was
// obtained on the 100-PC cluster (§3.3) without giving the curve; this
// bench measures it on the simulated cluster for the experiment workload,
// with and without a memory limit (remote update), showing how remote
// memory keeps the speedup curve intact when nodes are memory-starved.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(argc, argv, bench::with_policy_flags());
  const bench::PolicyFlags pf = bench::parse_policy_flags(
      env.flags, core::SwapPolicy::kRemoteUpdate, 13.0);
  const double limit8 = pf.limit_mb;  // scaled by 8/app_nodes below

  TablePrinter table(
      "Extension: HPA pass-2 speedup vs application nodes (no-limit, and "
      "remote update with a proportional per-node limit)",
      {"app nodes", "no limit [s]", "speedup", "remote update [s]",
       "speedup (ru)"});

  Time base_nolimit = 0;
  Time base_ru = 0;
  for (std::size_t nodes : {1u, 2u, 4u, 8u, 16u}) {
    hpa::HpaConfig cfg = env.config();
    cfg.app_nodes = nodes;
    cfg.partition_weights.clear();  // skew emulation is 8-node specific
    std::fprintf(stderr, "[speedup] %zu app nodes, no limit...\n", nodes);
    const Time t =
        env.run(cfg, bench::label("no_limit/%zu_nodes", nodes)).pass(2)->duration;
    if (nodes == 1) base_nolimit = t;

    // Per-node candidate volume shrinks with more nodes; scale the limit to
    // keep the same eviction pressure per node.
    hpa::HpaConfig ru = cfg;
    pf.apply(ru);
    ru.memory_limit_bytes =
        static_cast<std::int64_t>(limit8 * 1e6 * 8.0 /
                                  static_cast<double>(nodes));
    std::fprintf(stderr, "[speedup] %zu app nodes, remote update...\n",
                 nodes);
    const Time tr =
        env.run(ru, bench::label("remote_update/%zu_nodes", nodes))
            .pass(2)->duration;
    if (nodes == 1) base_ru = tr;

    table.add_row(
        {TablePrinter::integer(static_cast<std::int64_t>(nodes)),
         bench::secs(t),
         TablePrinter::num(static_cast<double>(base_nolimit) /
                               static_cast<double>(t),
                           2),
         bench::secs(tr),
         TablePrinter::num(static_cast<double>(base_ru) /
                               static_cast<double>(tr),
                           2)});
  }
  env.finish(table);
  std::printf(
      "\ncandidate generation is replicated on every node (HPA step 1), so "
      "speedup saturates once the scan no longer dominates -- the same "
      "effect the 100-PC cluster would show at this workload size.\n");
  return 0;
}
