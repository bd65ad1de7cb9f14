// Figure 4 reproduction: execution time of HPA pass 2 for the three
// over-limit policies as a function of the per-node memory usage limit
// (12-15 MB, 16 memory-available nodes):
//
//   - swapping out to hard disks (Seagate Barracuda 7,200 rpm),
//   - dynamic remote memory acquisition with simple swapping,
//   - dynamic remote memory acquisition with remote update operations.
//
// Paper behaviour: disk swapping is worst and blows up as the limit
// shrinks; simple remote swapping is much better but still grows; remote
// update stays near the no-limit baseline across the whole range.
//
// Extensions (beyond the paper's figure): the same disk sweep with the
// 12,000 rpm HITACHI DK3E1T the paper only cites spec numbers for, and the
// tiered backend (remote-first with a per-node remote budget, disk past it)
// which lands between simple swapping and disk swapping depending on how
// much of the working set the budget covers.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "disk/disk.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(
      argc, argv,
      {{"fine", "sweep 0.5 MB steps like the paper's x-axis"},
       {"no-ext", "skip the 12,000 rpm and tiered extension series"},
       {"limit-mb", "restrict the sweep to this one limit (smoke runs)"},
       {"tiered-budget-mb",
        "per-node remote-memory budget for the tiered series (default 2)"}});
  const bool fine = env.flags.get_bool("fine", false);
  const bool ext = !env.flags.get_bool("no-ext", false);
  const double tiered_budget_mb =
      env.flags.get_double("tiered-budget-mb", 2.0);

  std::vector<double> limits_mb;
  if (env.flags.has("limit-mb")) {
    limits_mb.push_back(env.flags.get_double("limit-mb", 13.0));
  } else {
    for (double v = 12.0; v <= 15.0 + 1e-9; v += fine ? 0.5 : 1.0) {
      limits_mb.push_back(v);
    }
  }

  std::fprintf(stderr, "[fig4] no-limit baseline...\n");
  const Time no_limit = env.run(env.config(), "no_limit").pass(2)->duration;

  auto run = [&](double limit, core::SwapPolicy policy,
                 bool fast_disk) -> Time {
    hpa::HpaConfig cfg = env.config();
    cfg.memory_limit_bytes = bench::mb(limit);
    cfg.policy = policy;
    if (policy == core::SwapPolicy::kTiered) {
      cfg.tiered_remote_budget_bytes = bench::mb(tiered_budget_mb);
    }
    if (fast_disk) {
      cfg.cluster.swap_disk = disk::DiskParams::dk3e1t_12000();
    }
    std::fprintf(stderr, "[fig4] %s%s at %.1f MB...\n",
                 core::to_string(policy), fast_disk ? " (12000rpm)" : "",
                 limit);
    return env
        .run(cfg, bench::label("%s%s/%.1fMB", core::to_string(policy),
                               fast_disk ? "_12000rpm" : "", limit))
        .pass(2)->duration;
  };

  std::vector<std::string> header = {"usage limit", "disk swap [s]",
                                     "simple swapping [s]",
                                     "remote update [s]", "no limit [s]"};
  if (ext) {
    header.insert(header.begin() + 2, "disk 12000rpm [s] (ext)");
    header.insert(header.end() - 1,
                  "tiered " + TablePrinter::num(tiered_budget_mb, 0) +
                      "MB [s] (ext)");
  }
  TablePrinter table(
      "Figure 4: comparison of the proposed methods -- execution time of "
      "pass 2 [s] vs memory usage limit (16 memory-available nodes)",
      header);

  for (double limit : limits_mb) {
    std::vector<std::string> row = {TablePrinter::num(limit, 1) + "MB"};
    row.push_back(bench::secs(run(limit, core::SwapPolicy::kDiskSwap, false)));
    if (ext) {
      row.push_back(
          bench::secs(run(limit, core::SwapPolicy::kDiskSwap, true)));
    }
    row.push_back(
        bench::secs(run(limit, core::SwapPolicy::kRemoteSwap, false)));
    row.push_back(
        bench::secs(run(limit, core::SwapPolicy::kRemoteUpdate, false)));
    if (ext) {
      row.push_back(bench::secs(run(limit, core::SwapPolicy::kTiered, false)));
    }
    row.push_back(bench::secs(no_limit));
    table.add_row(std::move(row));
  }
  env.finish(table);

  std::printf(
      "\npaper's Figure 4 shape (D = 1M): disk swapping worst and steepest "
      "(>12,000 s near 12 MB), simple swapping intermediate (7,183 s at "
      "12 MB), remote update flat and close to the 247 s baseline.\n");
  return 0;
}
