// SwapBackend: the movement mechanism behind the residency core.
//
// HashLineStore owns the paper-visible policy surface — the memory-usage
// limit, LRU/FIFO/Random victim selection, the build/count phase machine and
// the per-line location state machine. *Where an evicted line goes and how
// it comes back* is mechanism, and it lives behind this interface:
//
//   DiskBackend    — the local swap disk (§5.2 "swapping out to hard disks")
//   RemoteBackend  — remote memory over RPC (§4.3 simple swapping, §4.4
//                    remote updates, replicate_k mirroring, orphan/promote
//                    crash recovery, migration)
//   TieredBackend  — remote-first placement under a byte budget, spilling
//                    per line to disk (composes the two above)
//
// The store calls the backend only from its own state-machine transitions:
// a backend receives a line already unlinked from the LRU (swap_out) or
// still parked (fault_in) and manipulates the line table through the store's
// backend-access surface (HashLineStore::line / make_resident /
// orphan_accounting / migration triggers). New placement strategies —
// compressed lines, multi-replica, pipelined swap-out — are one subclass
// plus a factory case; nothing in the store or the mining loop changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/protocol.hpp"
#include "mining/itemset.hpp"
#include "sim/task.hpp"

namespace rms::core {

class HashLineStore;

class SwapBackend {
 public:
  explicit SwapBackend(HashLineStore& store) : store_(store) {}
  virtual ~SwapBackend() = default;

  SwapBackend(const SwapBackend&) = delete;
  SwapBackend& operator=(const SwapBackend&) = delete;

  /// Stable identifier used to namespace this backend's counters in the
  /// store's StatsRegistry ("backend.<name>.*").
  virtual const char* name() const = 0;

  /// Move a victim line out. On entry the line is kResident, non-empty, and
  /// already unlinked from the LRU with its bytes uncharged from residency;
  /// on return its entries live in the backend and `where` reflects the
  /// placement (kRemote / kDisk).
  virtual sim::Task<> swap_out(LineId id) = 0;

  /// Bring a non-resident line's entries back. On return either the entries
  /// are restored and the line is still kFaulting (the store re-charges
  /// residency and re-links the LRU), or crash recovery orphaned the line
  /// (resident and empty). The store wraps this with pagefault accounting.
  virtual sim::Task<> fault_in(LineId id) = 0;

  /// What a count-phase probe of a non-resident line became.
  enum class UpdateStep : std::uint8_t {
    kFault,     // not absorbed: the line must fault home
    kQueued,    // absorbed as a one-way remote update op (§4.4)
    kFlushDue,  // absorbed, and a batch came due: await flush_due()
  };

  /// Count-phase probe of a non-resident line, synchronous queue step.
  /// kFault changes nothing. The op is queued on the line's holder and
  /// backup; sending a due batch is left to flush_due().
  virtual UpdateStep update(LineId id, const mining::Itemset& itemset);

  /// Send whichever of the holder's and backup's update batches is due
  /// (one op in message_block_bytes / update_op_bytes comes due).
  virtual sim::Task<> flush_due(LineId id);

  /// Count-phase probe of a line whose holder is executing a migration
  /// directive. Returns true when the update was buffered until the line
  /// settles; false when the caller must wait on the migration trigger.
  virtual bool buffer_migrating_update(LineId id,
                                       const mining::Itemset& itemset);

  /// Send all partially-filled one-way update batches.
  virtual sim::Task<> flush_updates();

  /// End-of-pass collection, fetch step: bring home every line the backend
  /// holds on remote nodes. Returns true when any holder was visited (the
  /// store re-scans: recovery may have re-pointed lines mid-fetch); false
  /// when nothing is held remotely.
  virtual sim::Task<bool> collect_fetch();

  /// End-of-pass collection, final step: release auxiliary copies and
  /// stream any locally-parked lines back in. Every line is kResident when
  /// this returns.
  virtual sim::Task<> collect_finish();

  /// Availability-client callback: move this store's lines away from a
  /// holder that ran short of memory (§4.2).
  virtual sim::Task<> migrate_away(net::NodeId holder);

  /// Scheduler-driven revocation: recall up to `target_bytes` of primary
  /// copies parked in remote memory and spill them to the local swap disk,
  /// promptly freeing donated capacity for a higher-priority tenant.
  /// Returns the bytes actually freed (0 for backends with no remote tier).
  virtual sim::Task<std::int64_t> reclaim(std::int64_t target_bytes);

  /// Failure-detector callback (also fired in-band on RPC exhaustion):
  /// `dead` is gone — drop queued traffic towards it and re-home every line
  /// it held. Idempotent.
  virtual sim::Task<> on_holder_failure(net::NodeId dead);

  // ---- Introspection ----
  virtual std::size_t lines_at(net::NodeId holder) const;
  virtual std::size_t replicas_at(net::NodeId holder) const;
  /// Gauge-friendly residency breakdown (cheap; polled by the metrics
  /// sampler). Defaults cover backends without that tier.
  virtual std::size_t remote_lines() const { return 0; }
  virtual std::size_t disk_lines() const { return 0; }
  virtual std::int64_t remote_held_bytes() const { return 0; }
  virtual std::int64_t outstanding_rpcs() const { return 0; }
  /// Per-peer RPC window the backend's transport runs with (1 = the fully
  /// synchronous paper behaviour; backends without RPCs report 1).
  virtual int rpc_window() const { return 1; }
  /// Backend-side consistency checks, called from
  /// HashLineStore::check_invariants(). Aborts on violation.
  virtual void check_invariants() const {}

 protected:
  HashLineStore& store_;
};

/// Build the backend for `store.config().policy` (nullptr for kNoLimit —
/// a store that never evicts needs no movement mechanism).
std::unique_ptr<SwapBackend> make_swap_backend(HashLineStore& store);

}  // namespace rms::core
