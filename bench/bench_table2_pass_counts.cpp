// Table 2 reproduction: candidate (C) and large (L) itemset counts per pass.
//
// Paper setting (§3.3): 10,000,000 transactions, 5,000 items, minimum
// support 0.7% -> |L1| = 1023, C2 = C(1023,2) = 522,753, then a sharp
// collapse (L2 = 32, C3 = 19, ...). We run the same workload family at a
// configurable transaction scale and calibrate the support threshold to the
// paper's |L1| = 1023, which pins C2 to the same combinatorial explosion;
// the later passes depend on the synthetic data's correlation tail and are
// reported as measured.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "mining/apriori.hpp"
#include "mining/generator.hpp"

using namespace rms;

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"scale", "transaction scale vs the paper's 10M (default 0.01)"},
               {"target-l1", "|L1| to calibrate minsup to (default 1023)"},
               {"csv", "write results to this CSV path"}});
  const double scale = flags.get_double("scale", 0.01);
  const auto target_l1 =
      static_cast<std::size_t>(flags.get_int("target-l1", 1023));

  mining::QuestParams wl = mining::QuestParams::paper_table2(scale);
  std::fprintf(stderr, "[bench] generating %lld transactions...\n",
               static_cast<long long>(wl.num_transactions));
  mining::TransactionDb db = mining::QuestGenerator(wl).generate();

  // Calibrate minimum support to the paper's |L1|: the support threshold is
  // the frequency of the (target_l1)-th most frequent item.
  std::vector<std::int64_t> freq(wl.num_items, 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (mining::Item it : db.tx(t)) ++freq[it];
  }
  std::vector<std::int64_t> sorted = freq;
  std::sort(sorted.rbegin(), sorted.rend());
  const std::int64_t threshold = sorted[std::min(target_l1, sorted.size() - 1)];
  const double minsup =
      static_cast<double>(threshold) / static_cast<double>(db.size());
  std::fprintf(stderr, "[bench] calibrated minsup %.5f (count >= %lld)\n",
               minsup, static_cast<long long>(threshold));

  mining::AprioriOptions opt;
  opt.hash_lines = 800'000;
  const mining::AprioriResult r = mining::apriori(db, minsup, opt);

  // Paper Table 2 reference values.
  struct Ref {
    std::int64_t c;
    std::int64_t l;
  };
  const std::vector<Ref> paper = {{-1, 1023}, {522753, 32}, {19, 19},
                                  {7, 7},     {1, 0}};

  TablePrinter table(
      "Table 2: number of candidate (C) and large (L) itemsets at each pass"
      " -- measured vs paper",
      {"pass", "C (measured)", "L (measured)", "C (paper)", "L (paper)"});
  const std::size_t rows = std::max(r.passes.size(), paper.size());
  for (std::size_t i = 0; i < rows; ++i) {
    std::string c = "-", l = "-", pc = "-", pl = "-";
    if (i < r.passes.size()) {
      c = i == 0 ? "-" : TablePrinter::integer(r.passes[i].candidates);
      l = TablePrinter::integer(r.passes[i].large);
    }
    if (i < paper.size()) {
      pc = paper[i].c < 0 ? "-" : TablePrinter::integer(paper[i].c);
      pl = TablePrinter::integer(paper[i].l);
    }
    table.add_row({TablePrinter::integer(static_cast<std::int64_t>(i + 1)), c,
                   l, pc, pl});
  }
  table.print();
  const std::string csv = flags.get("csv", "");
  if (!csv.empty() && table.write_csv(csv)) {
    std::printf("(csv written to %s)\n", csv.c_str());
  }

  // The headline property: pass 2's candidate count explodes combinatorially
  // from |L1| while later passes collapse.
  if (r.passes.size() >= 2) {
    const std::int64_t l1 = r.passes[0].large;
    std::printf("\npass-2 explosion: C2 = C(|L1|,2) = %lld (paper: 522,753)\n",
                static_cast<long long>(l1 * (l1 - 1) / 2));
  }
  return 0;
}
