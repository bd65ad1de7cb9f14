// RemoteBackend: dynamic remote memory acquisition over the memory-service
// RPC protocol — the paper's contribution (§4.3 simple swapping, §4.4 remote
// updates) plus the crash-tolerance extension.
//
// Evicted lines are pushed to a memory-available node chosen by the
// placement::MemoryBroker (optionally mirrored, replicate_k = 1);
// probes fault them back, or — in update mode during the counting phase —
// become one-way batched update operations coalesced through a
// transport::Stream per target. All synchronous traffic goes through a
// transport::Transport whose failure callback feeds the suspicion
// machinery, so an unresponsive holder is detected in-band and its lines are
// re-homed: backup copies are promoted, the rest restart empty (orphaned).
// End-of-pass collection runs one fetch routine: holder by holder at
// `rpc_window` 1, pipelined across memory servers at `rpc_window >= 2`.
// Evictions that find no live destination degrade to an owned DiskBackend —
// the same fallback TieredBackend uses deliberately when its remote budget
// fills up.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/disk_backend.hpp"
#include "core/hash_line_store.hpp"
#include "core/swap_backend.hpp"
#include "transport/stream.hpp"
#include "transport/transport.hpp"

namespace rms::core {

class RemoteBackend : public SwapBackend {
 public:
  struct Options {
    /// §4.4: during the counting phase evicted lines stay fixed remotely
    /// and probes become one-way update messages instead of faults.
    bool update_mode = false;
  };

  /// `stat_ns` namespaces this backend's counters ("backend.<ns>.*") and is
  /// returned by name(); subclasses pass their own.
  RemoteBackend(HashLineStore& store, Options options,
                const char* stat_ns = "remote");

  const char* name() const override { return name_; }

  sim::Task<> swap_out(LineId id) override;
  sim::Task<> fault_in(LineId id) override;
  UpdateStep update(LineId id, const mining::Itemset& itemset) override;
  sim::Task<> flush_due(LineId id) override;
  bool buffer_migrating_update(LineId id,
                               const mining::Itemset& itemset) override;
  sim::Task<> flush_updates() override;
  sim::Task<bool> collect_fetch() override;
  sim::Task<> collect_finish() override;
  sim::Task<> migrate_away(net::NodeId holder) override;
  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes) override;
  sim::Task<> on_holder_failure(net::NodeId dead) override;

  std::size_t lines_at(net::NodeId holder) const override;
  std::size_t replicas_at(net::NodeId holder) const override;
  std::size_t remote_lines() const override;
  std::size_t disk_lines() const override;
  std::int64_t remote_held_bytes() const override { return remote_bytes_; }
  std::int64_t outstanding_rpcs() const override;
  int rpc_window() const override { return xport_.window(); }
  void check_invariants() const override;

 protected:
  using Where = HashLineStore::Where;

  /// The degradation target (also TieredBackend's deliberate spill target).
  DiskBackend& disk() { return *fallback_; }
  /// Accounted bytes of primary copies currently parked remotely.
  std::int64_t remote_bytes() const { return remote_bytes_; }
  FailoverStats& failover() { return store_.failover_mut(); }
  IntegrityStats& integrity() { return store_.integrity_mut(); }

  /// Last-resort repair hook: produce the line's contents from a local disk
  /// copy (TieredBackend's integrity shadow). Returns true when the line was
  /// made resident with verified contents; the base backend keeps no such
  /// copy and always fails.
  virtual sim::Task<bool> repair_from_disk(LineId id);

  cluster::Node& node_;

 private:
  /// Transport::call plus the store's FailoverStats accounting.
  sim::Task<cluster::RpcResult> rpc(net::Message msg);
  /// First-time suspicion bookkeeping (broker mark + counters). Idempotent;
  /// wired as the transport failure callback.
  void declare_dead(net::NodeId holder);
  /// True while `holder` is suspected; fresh heartbeats in the broker's
  /// availability view (crash + restart) clear the local suspicion lazily.
  bool holder_suspect(net::NodeId holder);
  /// The line's only copy is gone: restart it empty and count the loss.
  void orphan_line(LineId id);
  /// Stop tracking (and drop) the backup copy of a line that came home.
  void drop_backup(LineId id);
  /// Why a primary copy needs recovering: lost with its holder (crash /
  /// restart wipe) or withheld because it failed checksum verification.
  enum class RecoverCause { kLost, kCorrupt };
  /// The primary copy of `id` is unusable (holder dead, wiped, or serving
  /// corrupt data): promote the backup if one survives (line becomes
  /// kRemote at the backup), repair from a local disk copy if the subclass
  /// keeps one, or orphan (line becomes resident and empty — bad data is
  /// never used). Caller owns the line's state.
  sim::Task<> recover_lost_line(LineId id,
                                RecoverCause cause = RecoverCause::kLost);
  /// Verify a fetched payload against its checksum. On mismatch: count it,
  /// strike (and possibly quarantine) the holder, and return false — the
  /// caller must treat the line as lost with RecoverCause::kCorrupt.
  /// Unstamped payloads (checksum == 0) pass.
  bool verify_payload(const LinePayload& payload, net::NodeId holder);
  /// Restore replicate_k for lines whose backup copy is gone (promotion
  /// consumed it, or the backup node died): push a kReplicaSync directive to
  /// each line's holder so it copies the primary to a freshly chosen backup
  /// node. Parks the lines kMigrating across its awaits.
  sim::Task<> re_replicate(std::vector<LineId> ids);
  /// Append one update op to the line's holder batch (and its backup's);
  /// true when either batch came due.
  bool queue_update(LineId id, const mining::Itemset& itemset);
  sim::Task<> send_update_batch(net::NodeId holder);
  sim::Task<> maybe_flush_batch(net::NodeId holder);
  /// A line settled at a remote holder: queue the ops buffered while it was
  /// in flight (now mirrored to its current backup) and flush due batches.
  sim::Task<> requeue_pending(LineId id);
  /// One holder's share of reclaim(): park up to `target_bytes` of this
  /// store's lines there kMigrating, fetch them home one kSwapIn at a time
  /// (the holder releases each line immediately, so donated bytes drop as
  /// the recall progresses), and spill each through the disk fallback.
  sim::Task<std::int64_t> reclaim_from(net::NodeId holder,
                                       std::int64_t target_bytes);
  /// The end-of-pass fetch: pin every listed holder's lines, issue the
  /// kFetch RPCs through Transport::pipeline (their round-trips overlap at
  /// rpc_window >= 2; one holder is exactly one call), then post-process
  /// replies in holder order, recovering lines that did not come home.
  sim::Task<> fetch_home(std::span<const net::NodeId> holders);
  /// One kSwapIn round trip for `id`, which the caller pinned (kFaulting or
  /// kMigrating), from `holder`. True when the contents came home: entries
  /// loaded, and the line no longer counts as held, backed up or shadowed.
  /// False when the primary copy was unusable — the holder is suspect,
  /// missed every deadline (its failure handler ran), no longer had the
  /// line (store.swap_in_lost) or served a corrupt payload — and the line
  /// was recovered: promoted to its backup (kRemote again), repaired from
  /// the local disk copy, or orphaned (resident either way).
  sim::Task<bool> swap_in(LineId id, net::NodeId holder);
  /// One broker decision (placement::MemoryBroker::choose) plus this
  /// store's accounting. -1 when no live, fresh node has room (callers
  /// degrade). With `best_effort` (replica placement) a stale-estimate miss
  /// falls back to the least-loaded live node instead: mirrors must not
  /// silently lapse. `prev` is the line's previous holder when one is
  /// known — the affinity policy's hint.
  net::NodeId pick_destination(std::int64_t bytes,
                               placement::Purpose purpose,
                               net::NodeId exclude = -1,
                               bool best_effort = false,
                               net::NodeId prev = -1);
  /// lines_by_holder_ mutations paired with remote_bytes_ accounting.
  void hold_insert(net::NodeId holder, LineId id);
  void hold_erase(net::NodeId holder, LineId id);

  const bool update_mode_;
  const char* name_;
  placement::MemoryBroker* broker_;
  transport::Transport xport_;
  std::unique_ptr<DiskBackend> fallback_;

  // Location bookkeeping for migration, collection, and recovery.
  std::unordered_map<net::NodeId, std::unordered_set<LineId>> lines_by_holder_;
  std::unordered_map<net::NodeId, std::unordered_set<LineId>>
      replicas_by_holder_;
  std::unordered_set<net::NodeId> suspected_;
  /// Checksum-mismatch strikes per holder; at config().quarantine_after the
  /// holder is quarantined in the placement broker.
  std::unordered_map<net::NodeId, int> corrupt_strikes_;
  /// Remote primaries that should carry a backup (replicate_k > 0) but
  /// currently do not: fed by promotion and backup-node death, drained by
  /// re_replicate. May hold stale ids (lines that since came home); the
  /// invariant is one-directional — every under-replicated remote line is
  /// listed here.
  std::unordered_set<LineId> unreplicated_;
  /// Last-resort redundancy for simple swapping: a local disk copy of a
  /// swap-out that found no mirror node (during congestion the broker
  /// often knows just one fresh destination). Remote contents are
  /// immutable outside update mode, so the copy stays exact until the line
  /// comes home. Consulted by repair_from_disk; never populated in update
  /// mode, where a snapshot would go stale against remotely-applied ops.
  struct UnmirroredShadow {
    mining::HashLine entries;
    std::uint64_t checksum = 0;
  };
  std::unordered_map<LineId, UnmirroredShadow> unmirrored_shadow_;
  /// One-way update batching, one byte-budgeted stream per target node.
  std::unordered_map<net::NodeId, transport::Stream<MemRequest>>
      update_streams_;
  std::unordered_map<LineId, std::vector<mining::Itemset>> pending_updates_;
  std::int64_t remote_bytes_ = 0;

  std::int64_t* updates_sent_;    // store.updates_sent
  std::int64_t* lines_migrated_;  // store.lines_migrated
  std::int64_t* swap_outs_;       // backend.<ns>.swap_outs
  std::int64_t* faults_;          // backend.<ns>.faults
  std::int64_t* degraded_;        // backend.<ns>.degraded_to_disk
};

}  // namespace rms::core
