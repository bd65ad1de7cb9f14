// HashLineStore: the memory-limited candidate-itemset store on an
// application execution node — the heart of the paper's contribution.
//
// The store is the paper-visible *residency core*: it keeps the node's share
// of the distributed hash-line table under a configurable memory-usage limit
// (the paper's 12–15 MB sweeps, 24 accounted bytes per candidate itemset),
// selects victims (LRU per §4.3, FIFO/Random for the ablation bench), runs
// the build/count phase machine, and drives the per-line location state
// machine (kResident / kRemote / kDisk / kFaulting / kMigrating).
//
// *Where* an evicted line goes and how it comes back is delegated to a
// pluggable SwapBackend (core/swap_backend.hpp), selected from the policy:
//
//   kDiskSwap      — DiskBackend: line written to the local swap disk; a
//                    later probe faults it back (>= 13 ms, 7,200 rpm model).
//   kRemoteSwap    — RemoteBackend: line pushed to a memory-available node
//                    chosen by the placement::MemoryBroker; a probe faults
//                    it back (~2.3 ms).
//   kRemoteUpdate  — RemoteBackend in update mode: during the counting phase
//                    an evicted line stays fixed remotely and probes become
//                    one-way, batched update messages (§4.4).
//   kTiered        — TieredBackend: remote-first under a byte budget, then
//                    per-line spill to the local disk.
//
// The remote backend also owns the application side of migration (§4.2) and
// of failure tolerance: deadline-bounded RPCs through transport::Transport,
// replica promotion / orphan recovery, and degradation to the disk path when
// no live destination qualifies, so a run always completes. The store keeps
// the paper-visible accounting (FailoverStats, pagefault/swap counters) and
// exposes a small mutation surface (line table, residency transitions,
// migration triggers) that backends drive.
//
// Threading discipline: one logical mutator (the HPA build/count process)
// plus the availability client calling `migrate_away` and the failure
// detector calling `handle_holder_failure`; the line-state machine
// (kFaulting / kMigrating) makes that interleaving safe.
//
// Hot path: every operation that cannot advance the virtual clock — an
// insert, probe or read on a resident line, or a probe the backend queues
// as a one-way update — runs as a plain synchronous step (try_insert,
// try_count_matches, the step inside probe_block). The coroutine
// operations are built on those steps and suspend only on the slow path:
// migration waits, faults, evictions and due update flushes. A build loop
// announces its inserts with size_lines, so every entry array is allocated
// once at its final size; a store without a limit keeps no LRU order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/failover.hpp"
#include "core/integrity.hpp"
#include "core/policy.hpp"
#include "core/protocol.hpp"
#include "mining/hash_line_table.hpp"
#include "placement/placement.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rms::obs {
class TraceRecorder;
}

namespace rms::core {

class SwapBackend;

class HashLineStore {
 public:
  struct Config {
    std::size_t num_lines = 1;            // local hash lines on this node
    std::int64_t memory_limit_bytes = -1; // -1: no limit
    SwapPolicy policy = SwapPolicy::kNoLimit;  // kNoLimit when no limit
    /// Victim selection (the paper uses LRU, §4.3).
    EvictionPolicy eviction = EvictionPolicy::kLru;
    std::uint64_t eviction_seed = 0x11ce;  // for EvictionPolicy::kRandom
    std::int64_t message_block_bytes = 4096;  // swap unit on the wire (§5.1)
    std::int64_t update_op_bytes = 16;        // line id + itemset in a batch
    /// Headroom a destination must report before receiving a line.
    std::int64_t destination_headroom_bytes = 64 << 10;
    /// "Remote determination": when > 0, end-of-pass fetches ask the
    /// memory servers to drop entries below this support count before
    /// shipping lines home (extension; 0 = fetch everything).
    std::uint32_t fetch_filter_min_count = 0;
    /// kTiered only: byte budget for primary copies parked in remote
    /// memory; evictions that would exceed it spill to the local disk
    /// instead. -1 = unlimited (degenerates to kRemoteSwap). Replica
    /// copies are not counted — the budget bounds the primary working
    /// set the remote tier absorbs.
    std::int64_t tiered_remote_budget_bytes = -1;
    // ---- failover (crash-tolerant swapping) ----
    /// Mirror each swapped-out line on this many additional memory nodes
    /// (0 or 1). With 1, counts survive any single memory-node crash.
    int replicate_k = 0;
    /// Per-attempt deadline for synchronous memory-service RPCs.
    Time rpc_deadline = msec(2000);
    /// Retries beyond the first attempt (exponential backoff) before the
    /// peer is declared dead.
    int rpc_max_retries = 2;
    /// Sliding window of outstanding memory-service RPCs per peer
    /// connection (transport flow control). 1 preserves the paper's fully
    /// synchronous behaviour bit-for-bit; >= 2 lets end-of-pass collection
    /// pipeline fetches across memory servers.
    int rpc_window = 1;
    // ---- integrity (checksummed lines + self-repair) ----
    /// After this many corrupt payloads from one holder, quarantine it in
    /// the placement broker (excluded from destination choice for the
    /// rest of the run).
    int quarantine_after = 3;
    /// kTiered only: keep a checksummed disk-shadow copy of every line
    /// parked in remote memory, charged to the local swap disk, so a
    /// corrupt or lost primary without a replica repairs from disk instead
    /// of orphaning. Off by default (extra disk traffic changes timing).
    bool integrity_disk_shadow = false;
    /// Optional trace sink (null: tracing fully disabled). Spans for
    /// swap-out / fault-in, instants for orphans and tiered spills; the
    /// remote backend adds RPC/failover events. Must outlive the store.
    obs::TraceRecorder* trace = nullptr;
  };

  /// kBuild: candidate generation (inserts; remote lines fault back even
  /// under kRemoteUpdate). kCount: support counting (probes; kRemoteUpdate
  /// switches to one-way updates). The paper applies the update interface
  /// "to the itemsets counting phase" only (§4.4).
  enum class Phase { kBuild, kCount };

  /// Location state machine, driven by the store and its backend together.
  enum class Where : std::uint8_t {
    kResident,
    kRemote,
    kDisk,
    kFaulting,   // synchronous swap-in in flight
    kMigrating,  // holder executing a migration directive
  };

  struct Line {
    mining::HashLine entries;  // meaningful only when resident
    Where where = Where::kResident;
    net::NodeId holder = -1;
    net::NodeId backup = -1;  // replica holder while remote (replicate_k)
    std::uint32_t final_entries = 0;  // announced by size_lines (0: unsized)
    std::int64_t bytes = 0;  // accounted bytes, kept while away
    std::int32_t lru_prev = -1;
    std::int32_t lru_next = -1;
    std::int32_t vec_pos = -1;  // index into resident_vec_
  };

  HashLineStore(cluster::Node& node, Config config,
                placement::MemoryBroker* broker);
  ~HashLineStore();  // out of line: SwapBackend is incomplete here

  HashLineStore(const HashLineStore&) = delete;
  HashLineStore& operator=(const HashLineStore&) = delete;

  void set_phase(Phase phase);
  Phase phase() const { return phase_; }

  /// Register a candidate in local line `line` (build phase). May evict.
  sim::Task<> insert(LineId line, const mining::Itemset& itemset);
  /// Synchronous step of insert(): registers the candidate and returns true
  /// when `line` is resident and the store stays within its limit. False
  /// changes nothing; the caller awaits insert() instead.
  bool try_insert(LineId line, const mining::Itemset& itemset);

  /// Support-count probe (count phase). Resident lines are probed in place;
  /// non-resident lines fault or emit a remote update per the backend.
  sim::Task<> probe(LineId line, const mining::Itemset& itemset);

  /// Apply one received message block: probe itemsets[i] in lines[i], in
  /// order, exactly as successive probe() calls would. Resident lines and
  /// queued remote updates complete synchronously under a two-stage
  /// software prefetch; only the slow path suspends.
  sim::Task<> probe_block(std::span<const LineId> lines,
                          std::span<const mining::Itemset> itemsets);

  /// Read query: number of entries in `line` whose first item equals `key`
  /// (the hash-join probe: entries encode keyed tuples). Reads need the
  /// data, so non-resident lines fault in under every policy — one-way
  /// remote updates cannot answer them.
  sim::Task<std::uint32_t> count_matches(LineId line, mining::Item key);
  /// Synchronous step of count_matches(): the answer when `line` is
  /// resident; nullopt (nothing changed) when the caller must await
  /// count_matches() instead.
  std::optional<std::uint32_t> try_count_matches(LineId line,
                                                 mining::Item key);

  /// Lookahead for loops that drive the store element by element: call
  /// before operating on element `i` of `n`, where `line_at(j)` names
  /// element j's line. Prefetches line headers kHeaderLookahead elements
  /// ahead, then (reading those headers) entry arrays and LRU neighbours
  /// kBodyLookahead ahead. Hints only: no state changes, and ids outside
  /// the table are skipped.
  template <typename LineAt>
  void prefetch_ahead(std::size_t i, std::size_t n, LineAt&& line_at) const {
    if (i + kHeaderLookahead < n) {
      prefetch_header(line_at(i + kHeaderLookahead));
    }
    if (i + kBodyLookahead < n) prefetch_body(line_at(i + kBodyLookahead));
  }
  static constexpr std::size_t kHeaderLookahead = 16;
  static constexpr std::size_t kBodyLookahead = 8;

  /// Build-loop sizing: announce the `n` inserts a loop is about to make,
  /// `line_at(j)` naming insert j's line (the accessor prefetch_ahead
  /// takes). Each line then allocates its entry array once, at its final
  /// count, instead of growing it by doubling. Changes no accounting, LRU
  /// state or event; ids outside the table are skipped, and inserts beyond
  /// the announced count still succeed.
  template <typename LineAt>
  void size_lines(std::size_t n, LineAt&& line_at) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto id = static_cast<std::size_t>(line_at(j));
      if (id < lines_.size()) ++lines_[id].final_entries;
    }
  }

  /// Send all partially-filled update batches (end of counting phase).
  sim::Task<> flush_updates();

  /// Bring every line's final contents home and stream its entries. Used by
  /// the large-itemset determination step; the memory limit is not enforced
  /// while collecting (the counting structures are torn down right after).
  sim::Task<> collect(
      const std::function<void(const mining::CountedItemset&)>& fn);

  /// Migration (availability client callback): move this node's lines away
  /// from `holder` to a destination chosen by the placement broker.
  sim::Task<> migrate_away(net::NodeId holder);

  /// Scheduler-driven revocation: recall up to `target_bytes` of this
  /// store's donated primary copies home and spill them to the local swap
  /// disk, promptly freeing pool capacity for a higher-priority tenant.
  /// Returns the bytes freed (0 without a remote backend).
  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes);

  /// Failure handling (failure detector callback, also invoked in-band when
  /// an RPC to a holder misses every deadline): declare `dead` dead, drop
  /// queued traffic towards it, and re-home every line it held — promoting
  /// backup copies where they exist, orphaning the rest. Idempotent.
  sim::Task<> handle_holder_failure(net::NodeId dead);

  // ---- Introspection ----
  std::int64_t resident_bytes() const { return resident_bytes_; }
  std::int64_t total_bytes() const { return total_bytes_; }
  std::size_t size() const { return size_; }
  std::int64_t pagefaults() const { return *pagefaults_; }
  std::int64_t swap_outs() const { return *swap_outs_; }
  std::int64_t updates_sent() const {
    return stats_.counter("store.updates_sent");
  }
  std::int64_t lines_migrated() const {
    return stats_.counter("store.lines_migrated");
  }
  std::size_t lines_at(net::NodeId holder) const;
  std::size_t replicas_at(net::NodeId holder) const;
  // Gauge-friendly residency breakdown (all O(1) or O(#holders); the
  // MetricsSampler polls these every monitor interval).
  std::size_t resident_lines() const { return resident_vec_.size(); }
  std::size_t remote_lines() const;       // primaries parked in remote memory
  std::size_t disk_lines() const;         // lines parked on the local disk
  std::int64_t remote_held_bytes() const; // primary bytes held remotely
  std::int64_t outstanding_rpcs() const;  // swap-path RPCs in flight
  int rpc_window() const;                 // active sliding-window size
  const FailoverStats& failover() const { return failover_; }
  const IntegrityStats& integrity() const { return integrity_; }
  /// Store-owned registry: the residency core's counters ("store.*") plus
  /// the active backend's ("backend.<name>.*"), rendered uniformly by
  /// hpa::print_report and the benches.
  const StatsRegistry& stats() const { return stats_; }

  /// Debug helper: verify the internal invariants (LRU list <-> residency
  /// vector consistency, byte accounting, location bookkeeping — including
  /// the backend's replica/holder maps and batch accounting). Aborts on
  /// violation; O(num_lines). Property tests call this between operations.
  void check_invariants() const;
  /// Accounted bytes of one line (kept while the line is swapped out).
  std::int64_t line_bytes(LineId id) const {
    RMS_CHECK(id >= 0 && static_cast<std::size_t>(id) < lines_.size());
    return lines_[static_cast<std::size_t>(id)].bytes;
  }
  const Config& config() const { return config_; }

  // ---- Backend mutation surface ----
  // SwapBackends move line contents and drive location transitions through
  // these; the store keeps the byte accounting and the LRU consistent.
  cluster::Node& node() { return node_; }
  placement::MemoryBroker* broker() { return broker_; }
  Line& line(LineId id) {
    RMS_CHECK(id >= 0 && static_cast<std::size_t>(id) < lines_.size());
    return lines_[static_cast<std::size_t>(id)];
  }
  const Line& line(LineId id) const {
    RMS_CHECK(id >= 0 && static_cast<std::size_t>(id) < lines_.size());
    return lines_[static_cast<std::size_t>(id)];
  }
  std::size_t num_lines() const { return lines_.size(); }
  /// A line whose contents are back in `entries`: charge residency and link
  /// it into the LRU (empty lines stay out of the list).
  void make_resident(LineId id);
  /// The line's only copy is gone: count the loss and restart it empty.
  /// The caller settles the location state; the line stays out of the LRU.
  void orphan_accounting(LineId id);
  /// Probes blocked on a migrating line park on this per-line trigger.
  sim::Trigger& migration_trigger(LineId id);
  /// Wake every probe parked on `id` (no-op when nobody waits).
  void fire_migration_trigger(LineId id);
  FailoverStats& failover_mut() { return failover_; }
  IntegrityStats& integrity_mut() { return integrity_; }
  StatsRegistry& stats_mut() { return stats_; }

 private:
  // Residency list over non-empty resident lines. Under LRU the head is
  // the most recently used line; under FIFO insertion order is kept
  // (touch is a no-op); Random samples the side vector. A store without a
  // limit never picks a victim, so touch is a no-op there too.
  void lru_push_front(LineId id);
  void lru_remove(LineId id);
  void lru_touch(LineId id);
  LineId lru_back() const { return lru_tail_; }
  LineId pick_victim(LineId pinned);

  bool over_limit() const {
    return config_.memory_limit_bytes >= 0 &&
           resident_bytes_ > config_.memory_limit_bytes;
  }

  /// Synchronous step of probe(): kDone when the probe finished without
  /// suspending (resident line, or an update the backend queued), kFlush
  /// when the queued update made a batch due (await flush_due), kSlow when
  /// nothing happened and the general path must run.
  enum class Step : std::uint8_t { kDone, kFlush, kSlow };
  Step probe_step(LineId id, const mining::Itemset& itemset);
  /// Count `itemset` in a resident line and refresh its LRU position.
  void probe_resident(LineId id, const mining::Itemset& itemset);
  /// Append a candidate to a resident line, charging residency; a full
  /// sized line first grows to its announced final count.
  void append_resident(LineId id, const mining::Itemset& itemset);

  void prefetch_header(LineId id) const {
    if (static_cast<std::size_t>(id) < lines_.size()) {
      __builtin_prefetch(&lines_[static_cast<std::size_t>(id)]);
    }
  }
  /// Entry-array bytes prefetched per line: a typical hash line's entries.
  static constexpr std::size_t kPrefetchEntryBytes = 256;
  void prefetch_body(LineId id) const {
    if (static_cast<std::size_t>(id) >= lines_.size()) return;
    const Line& l = lines_[static_cast<std::size_t>(id)];
    // The entry array, a cache line at a time.
    const char* entries = reinterpret_cast<const char*>(l.entries.data());
    const std::size_t entry_bytes =
        l.entries.size() * sizeof(mining::CountedItemset);
    for (std::size_t at = 0; at < entry_bytes && at < kPrefetchEntryBytes;
         at += 64) {
      __builtin_prefetch(entries + at);
    }
    if (!touch_lru_) return;  // lru_touch leaves the neighbours alone
    if (l.lru_prev >= 0) {
      __builtin_prefetch(&lines_[static_cast<std::size_t>(l.lru_prev)]);
    }
    if (l.lru_next >= 0) {
      __builtin_prefetch(&lines_[static_cast<std::size_t>(l.lru_next)]);
    }
  }

  /// Evict victim lines (never `pinned`) until within the limit.
  sim::Task<> enforce_limit(LineId pinned);
  /// Unlink a victim from residency and hand it to the backend.
  sim::Task<> evict(LineId id);
  /// Pagefault accounting around SwapBackend::fault_in.
  sim::Task<> fault_in(LineId id);

  cluster::Node& node_;
  Config config_;
  placement::MemoryBroker* broker_;
  Phase phase_ = Phase::kBuild;

  std::vector<Line> lines_;
  // Use reorders the list only under LRU with a limit (fixed at
  // construction; enforce_limit is pick_victim's only caller).
  bool touch_lru_ = false;
  LineId lru_head_ = -1;
  LineId lru_tail_ = -1;
  std::vector<LineId> resident_vec_;  // for EvictionPolicy::kRandom
  Pcg32 eviction_rng_;

  std::int64_t resident_bytes_ = 0;
  std::int64_t total_bytes_ = 0;
  std::size_t size_ = 0;

  std::unordered_map<LineId, std::unique_ptr<sim::Trigger>> migration_waits_;

  StatsRegistry stats_;
  std::int64_t* pagefaults_ = nullptr;  // &stats_.slot("store.pagefaults")
  std::int64_t* swap_outs_ = nullptr;   // &stats_.slot("store.swap_outs")
  FailoverStats failover_;
  IntegrityStats integrity_;

  // Constructed last (reads config/broker/stats through the accessors).
  std::unique_ptr<SwapBackend> backend_;
};

}  // namespace rms::core
