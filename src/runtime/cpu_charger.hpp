// CpuCharger: chunked CPU-time charging for per-operation cost loops.
//
// Charging compute() per probe/parse/generate would make the event count
// proportional to the dataset; accumulating logical operations and flushing
// one compute await per `chunk` operations keeps it proportional to
// messages/faults while preserving the total charged time exactly.
// It lives in runtime/ because every phased workload's kernel loops charge
// CPU this way (HPA scan/probe, hash_join build/probe, hash_aggregate scan).
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "sim/task.hpp"

namespace rms::runtime {

/// Charge CPU in chunks: accumulates logical operations and converts them
/// into one `compute` await per `chunk` operations, keeping the event count
/// proportional to messages/faults instead of probes.
///
///   if (charge.add(1)) co_await charge.flush();
class CpuCharger {
 public:
  CpuCharger(cluster::Node& node, Time per_op, std::int64_t chunk = 8192)
      : node_(node), per_op_(per_op), chunk_(chunk) {}

  /// Account `ops` operations. True when a chunk came due: the caller then
  /// awaits flush(). Synchronous, so per-operation loops allocate no
  /// coroutine frame for it.
  [[nodiscard]] bool add(std::int64_t ops) {
    pending_ += ops;
    return pending_ >= chunk_;
  }

  sim::Task<> flush() {
    if (pending_ > 0) {
      const Time t = per_op_ * pending_;
      pending_ = 0;
      co_await node_.compute(t);
    }
  }

 private:
  cluster::Node& node_;
  Time per_op_;
  std::int64_t chunk_;
  std::int64_t pending_ = 0;
};

}  // namespace rms::runtime
