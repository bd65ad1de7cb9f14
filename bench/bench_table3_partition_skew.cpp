// Table 3 reproduction: the number of candidate 2-itemsets assigned to each
// of the 8 application execution nodes by the hash partitioning.
//
// Paper (§5.1): 4,871,881 candidate 2-itemsets spread as 582,149-641,243
// per node ("although the itemsets are assigned using a hash function, the
// numbers at each node are not equal"). Our FNV-based partitioning spreads
// more evenly; both the totals and the spread are reported.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(argc, argv);

  hpa::HpaConfig cfg = env.config();
  const hpa::HpaResult r = env.run(cfg, "table3");
  const hpa::PassReport* p2 = r.pass(2);
  RMS_CHECK(p2 != nullptr);

  const std::vector<std::int64_t> paper = {602559, 641243, 582149, 614412,
                                           604851, 596359, 622679, 607629};

  TablePrinter table(
      "Table 3: candidate 2-itemsets per application node -- measured vs "
      "paper",
      {"node", "measured", "paper"});
  for (std::size_t i = 0; i < p2->candidates_per_node.size(); ++i) {
    table.add_row({TablePrinter::integer(static_cast<std::int64_t>(i + 1)),
                   TablePrinter::integer(p2->candidates_per_node[i]),
                   i < paper.size() ? TablePrinter::integer(paper[i]) : "-"});
  }
  std::int64_t total = 0, mn = p2->candidates_per_node[0], mx = mn;
  for (std::int64_t c : p2->candidates_per_node) {
    total += c;
    mn = std::min(mn, c);
    mx = std::max(mx, c);
  }
  table.add_row({"total", TablePrinter::integer(total), "4871881"});
  env.finish(table);

  std::printf(
      "\nskew: min %lld / max %lld (%.2f%% spread; paper: 582,149/641,243 = "
      "9.6%% spread)\n",
      static_cast<long long>(mn), static_cast<long long>(mx),
      100.0 * static_cast<double>(mx - mn) / static_cast<double>(mn));
  std::printf(
      "per-node candidate memory at 24 B/itemset: %.2f-%.2f MB (paper: "
      "\"approximately 14-15 Mbytes ... at each node\")\n",
      static_cast<double>(mn) * 24.0 / 1e6, static_cast<double>(mx) * 24.0 / 1e6);
  return 0;
}
