// Extension: TCP retransmission behaviour under transmission losses.
//
// The authors' companion work ("Optimizing Protocol Parameters to Large
// Scale PC Cluster...", HPDC'98, ref [2] of the paper) tunes TCP timers on
// this exact cluster because Solaris' coarse 200 ms retransmission timeout
// stalls the mesh under cell loss. This bench reproduces that story on the
// simulated cluster: pass-2 time of the remote-update run as a function of
// transmission loss rate, with the stock 200 ms RTO vs a tuned 3 ms RTO.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "net/network.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(argc, argv, bench::with_policy_flags());
  const bench::PolicyFlags pf = bench::parse_policy_flags(
      env.flags, core::SwapPolicy::kRemoteUpdate, 13.0);

  TablePrinter table(
      "Extension: TCP retransmission tuning (remote update, limit " +
          TablePrinter::num(pf.limit_mb, 0) + " MB)",
      {"loss rate", "RTO 200ms [s]", "RTO 3ms [s]", "retransmissions",
       "speedup from tuning"});

  for (double loss : {0.0, 0.0001, 0.001, 0.01}) {
    Time coarse = 0, tuned = 0;
    std::int64_t retx = 0;
    for (Time rto : {msec(200), msec(3)}) {
      hpa::HpaConfig cfg = env.config();
      pf.apply(cfg);
      cfg.cluster.link = net::LinkParams::atm155_lossy(loss, rto);
      std::fprintf(stderr, "[tcp] loss %.4f, rto %.0f ms...\n", loss,
                   to_millis(rto));
      const hpa::HpaResult r = env.run(
          cfg, bench::label("loss_%.4f/rto_%.0fms", loss, to_millis(rto)));
      if (rto == msec(200)) {
        coarse = r.pass(2)->duration;
        retx = r.stats.counter("net.retransmissions");
      } else {
        tuned = r.pass(2)->duration;
      }
    }
    table.add_row({TablePrinter::num(loss * 100, 2) + "%",
                   bench::secs(coarse), bench::secs(tuned),
                   TablePrinter::integer(retx),
                   TablePrinter::num(static_cast<double>(coarse) /
                                         static_cast<double>(tuned),
                                     2) +
                       "x"});
  }
  env.finish(table);
  std::printf(
      "\nwith coarse Solaris-era timers, even 0.1%% loss stalls the counting "
      "mesh behind 200 ms timeouts; tuning the RTO to the cluster's actual "
      "RTT recovers most of it -- the companion work's conclusion.\n");
  return 0;
}
