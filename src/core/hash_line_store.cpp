#include "core/hash_line_store.hpp"

#include <algorithm>

#include "core/swap_backend.hpp"
#include "obs/trace.hpp"

namespace rms::core {

HashLineStore::HashLineStore(cluster::Node& node, Config config,
                             placement::MemoryBroker* broker)
    : node_(node),
      config_(config),
      broker_(broker),
      eviction_rng_(config.eviction_seed,
                    static_cast<std::uint64_t>(node.id()) * 2 + 1) {
  // A store without a limit never evicts, so it runs no swap policy.
  if (config_.memory_limit_bytes < 0) config_.policy = SwapPolicy::kNoLimit;
  RMS_CHECK(config_.num_lines > 0);
  RMS_CHECK_MSG(config_.replicate_k >= 0 && config_.replicate_k <= 1,
                "replicate_k supports at most one backup copy");
  RMS_CHECK(config_.rpc_deadline > 0 && config_.rpc_max_retries >= 0);
  RMS_CHECK_MSG(config_.rpc_window >= 1, "rpc_window must be >= 1");
  if (uses_remote_memory(config_.policy)) {
    RMS_CHECK_MSG(broker_ != nullptr,
                  "remote policies need a placement::MemoryBroker");
  }
  lines_.resize(config_.num_lines);
  touch_lru_ = config_.eviction == EvictionPolicy::kLru &&
               config_.memory_limit_bytes >= 0;
  pagefaults_ = &stats_.slot("store.pagefaults");
  swap_outs_ = &stats_.slot("store.swap_outs");
  stats_.slot("store.updates_sent");
  stats_.slot("store.lines_migrated");
  backend_ = make_swap_backend(*this);
}

HashLineStore::~HashLineStore() = default;

void HashLineStore::set_phase(Phase phase) { phase_ = phase; }

std::size_t HashLineStore::lines_at(net::NodeId holder) const {
  return backend_ ? backend_->lines_at(holder) : 0;
}

std::size_t HashLineStore::replicas_at(net::NodeId holder) const {
  return backend_ ? backend_->replicas_at(holder) : 0;
}

std::size_t HashLineStore::remote_lines() const {
  return backend_ ? backend_->remote_lines() : 0;
}

std::size_t HashLineStore::disk_lines() const {
  return backend_ ? backend_->disk_lines() : 0;
}

std::int64_t HashLineStore::remote_held_bytes() const {
  return backend_ ? backend_->remote_held_bytes() : 0;
}

std::int64_t HashLineStore::outstanding_rpcs() const {
  return backend_ ? backend_->outstanding_rpcs() : 0;
}

int HashLineStore::rpc_window() const {
  return backend_ ? backend_->rpc_window() : 1;
}

void HashLineStore::check_invariants() const {
  // Byte accounting and per-line state.
  std::int64_t resident = 0;
  std::int64_t total = 0;
  std::size_t entries = 0;
  std::size_t in_vec = 0;
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const Line& l = lines_[i];
    total += l.bytes;
    if (l.where == Where::kResident) {
      resident += l.bytes;
      RMS_CHECK_MSG(l.bytes == static_cast<std::int64_t>(l.entries.size()) *
                                    mining::Itemset::kAccountedBytes,
                    "resident line bytes out of sync with entries");
      entries += l.entries.size();
    } else {
      RMS_CHECK_MSG(l.entries.empty(), "non-resident line keeps content");
    }
    const bool in_residency_vec = l.vec_pos >= 0;
    if (in_residency_vec) {
      ++in_vec;
      RMS_CHECK(static_cast<std::size_t>(l.vec_pos) < resident_vec_.size());
      RMS_CHECK_MSG(resident_vec_[static_cast<std::size_t>(l.vec_pos)] ==
                        static_cast<LineId>(i),
                    "residency vector position out of sync");
      RMS_CHECK_MSG(l.where == Where::kResident && l.bytes > 0,
                    "only non-empty resident lines live in the LRU");
    } else {
      RMS_CHECK_MSG(l.lru_prev < 0 && l.lru_next < 0 &&
                        lru_head_ != static_cast<LineId>(i) &&
                        lru_tail_ != static_cast<LineId>(i),
                    "line outside the residency vector is linked in the LRU");
    }
  }
  RMS_CHECK_MSG(in_vec == resident_vec_.size(),
                "residency vector holds unknown lines");
  RMS_CHECK_MSG(resident == resident_bytes_, "resident byte counter drifted");

  // Walk the LRU list: must visit exactly the residency-vector members.
  std::size_t walked = 0;
  LineId prev = -1;
  for (LineId id = lru_head_; id >= 0;
       id = lines_[static_cast<std::size_t>(id)].lru_next) {
    const Line& l = lines_[static_cast<std::size_t>(id)];
    RMS_CHECK_MSG(l.lru_prev == static_cast<std::int32_t>(prev),
                  "LRU back-link broken");
    RMS_CHECK_MSG(l.vec_pos >= 0, "LRU member missing from residency vector");
    prev = id;
    ++walked;
    RMS_CHECK_MSG(walked <= resident_vec_.size() + 1, "LRU list cycles");
  }
  RMS_CHECK_MSG(prev == lru_tail_, "LRU tail out of sync");
  RMS_CHECK_MSG(walked == resident_vec_.size(),
                "LRU list and residency vector diverge");

  if (backend_) backend_->check_invariants();
}

// ---------------------------------------------------------------------------
// LRU maintenance
// ---------------------------------------------------------------------------

void HashLineStore::lru_push_front(LineId id) {
  Line& l = line(id);
  l.lru_prev = -1;
  l.lru_next = static_cast<std::int32_t>(lru_head_);
  if (lru_head_ >= 0) line(lru_head_).lru_prev = static_cast<std::int32_t>(id);
  lru_head_ = id;
  if (lru_tail_ < 0) lru_tail_ = id;

  l.vec_pos = static_cast<std::int32_t>(resident_vec_.size());
  resident_vec_.push_back(id);
}

void HashLineStore::lru_remove(LineId id) {
  Line& l = line(id);
  if (l.lru_prev >= 0) {
    line(l.lru_prev).lru_next = l.lru_next;
  } else if (lru_head_ == id) {
    lru_head_ = l.lru_next;
  }
  if (l.lru_next >= 0) {
    line(l.lru_next).lru_prev = l.lru_prev;
  } else if (lru_tail_ == id) {
    lru_tail_ = l.lru_prev;
  }
  l.lru_prev = l.lru_next = -1;

  // Swap-remove from the residency vector.
  RMS_CHECK(l.vec_pos >= 0);
  const auto pos = static_cast<std::size_t>(l.vec_pos);
  const LineId moved = resident_vec_.back();
  resident_vec_[pos] = moved;
  line(moved).vec_pos = static_cast<std::int32_t>(pos);
  resident_vec_.pop_back();
  l.vec_pos = -1;
}

void HashLineStore::lru_touch(LineId id) {
  if (!touch_lru_) return;  // FIFO/Random, or a store that cannot evict
  if (lru_head_ == id) return;
  // Relink to the front; residency-vector position is order-independent.
  Line& l = line(id);
  if (l.lru_prev >= 0) {
    line(l.lru_prev).lru_next = l.lru_next;
  }
  if (l.lru_next >= 0) {
    line(l.lru_next).lru_prev = l.lru_prev;
  } else if (lru_tail_ == id) {
    lru_tail_ = l.lru_prev;
  }
  l.lru_prev = -1;
  l.lru_next = static_cast<std::int32_t>(lru_head_);
  if (lru_head_ >= 0) line(lru_head_).lru_prev = static_cast<std::int32_t>(id);
  lru_head_ = id;
  if (lru_tail_ < 0) lru_tail_ = id;
}

LineId HashLineStore::pick_victim(LineId pinned) {
  if (config_.eviction == EvictionPolicy::kRandom) {
    if (resident_vec_.empty()) return -1;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const LineId id = resident_vec_[eviction_rng_.below(
          static_cast<std::uint32_t>(resident_vec_.size()))];
      if (id != pinned) return id;
    }
    // The pinned line keeps being drawn (tiny residency): fall back to any
    // other resident line.
    for (LineId id : resident_vec_) {
      if (id != pinned) return id;
    }
    return -1;
  }
  // LRU and FIFO both evict from the list tail (FIFO never reorders it).
  LineId victim = lru_back();
  if (victim == pinned) {
    const std::int32_t prev = line(victim).lru_prev;
    victim = prev;
  }
  return victim;
}

// ---------------------------------------------------------------------------
// Backend mutation surface
// ---------------------------------------------------------------------------

void HashLineStore::make_resident(LineId id) {
  Line& l = line(id);
  l.where = Where::kResident;
  l.holder = -1;
  resident_bytes_ += l.bytes;
  if (l.bytes > 0) lru_push_front(id);
}

void HashLineStore::orphan_accounting(LineId id) {
  Line& l = line(id);
  const std::int64_t lost_entries = l.bytes / mining::Itemset::kAccountedBytes;
  total_bytes_ -= l.bytes;
  size_ -= static_cast<std::size_t>(lost_entries);
  ++failover_.orphaned_lines;
  failover_.orphaned_entries += lost_entries;
  node_.stats().bump("store.orphaned_lines");
  if (config_.trace != nullptr) {
    config_.trace->instant(obs::EventKind::kOrphan, node_.id(),
                           node_.sim().now(), id, lost_entries);
  }
  l.bytes = 0;
  l.entries.clear();
  l.holder = -1;
  l.backup = -1;
}

sim::Trigger& HashLineStore::migration_trigger(LineId id) {
  auto& slot = migration_waits_[id];
  if (!slot) slot = std::make_unique<sim::Trigger>(node_.sim());
  return *slot;
}

void HashLineStore::fire_migration_trigger(LineId id) {
  const auto trig = migration_waits_.find(id);
  if (trig != migration_waits_.end()) {
    trig->second->fire();
    migration_waits_.erase(trig);
  }
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

sim::Task<> HashLineStore::insert(LineId id, const mining::Itemset& itemset) {
  Line& l = line(id);
  while (l.where == Where::kMigrating) {
    co_await migration_trigger(id).wait();
  }
  if (try_insert(id, itemset)) co_return;
  if (l.where != Where::kResident) {
    // Build-phase insert into an evicted line: bring it home first (simple
    // swapping applies during candidate generation under every backend).
    co_await fault_in(id);
  }
  append_resident(id, itemset);
  if (over_limit()) co_await enforce_limit(id);
}

bool HashLineStore::try_insert(LineId id, const mining::Itemset& itemset) {
  if (line(id).where != Where::kResident) return false;
  if (config_.memory_limit_bytes >= 0 &&
      resident_bytes_ + mining::Itemset::kAccountedBytes >
          config_.memory_limit_bytes) {
    return false;  // the insert would evict
  }
  append_resident(id, itemset);
  return true;
}

void HashLineStore::append_resident(LineId id,
                                    const mining::Itemset& itemset) {
  Line& l = line(id);
  // Invariant: a line is in the LRU list iff it is resident and non-empty.
  const bool was_empty = (l.bytes == 0);
  // A sized line allocates its entry array once, at the announced final
  // count: on its first insert, or on the first insert after a fault-in
  // brought back a tight copy. Unsized lines grow by doubling.
  if (l.entries.size() == l.entries.capacity() &&
      l.final_entries > l.entries.size()) {
    l.entries.reserve(l.final_entries);
  }
  l.entries.push_back(mining::CountedItemset{itemset, 0});
  l.bytes += mining::Itemset::kAccountedBytes;
  resident_bytes_ += mining::Itemset::kAccountedBytes;
  total_bytes_ += mining::Itemset::kAccountedBytes;
  ++size_;
  if (was_empty) {
    lru_push_front(id);
  } else {
    lru_touch(id);
  }
}

sim::Task<> HashLineStore::probe(LineId id, const mining::Itemset& itemset) {
  Line& l = line(id);

  while (l.where == Where::kMigrating) {
    // A remote-update backend buffers the op until the line settles at its
    // new holder; otherwise park on the line trigger.
    if (phase_ == Phase::kCount && backend_ &&
        backend_->buffer_migrating_update(id, itemset)) {
      co_return;
    }
    co_await migration_trigger(id).wait();
  }

  switch (probe_step(id, itemset)) {
    case Step::kDone:
      co_return;
    case Step::kFlush:
      co_await backend_->flush_due(id);
      co_return;
    case Step::kSlow:
      break;
  }
  RMS_CHECK_MSG(l.where == Where::kRemote || l.where == Where::kDisk,
                "concurrent mutation of a hash line");
  co_await fault_in(id);
  probe_resident(id, itemset);
  if (over_limit()) co_await enforce_limit(id);
}

HashLineStore::Step HashLineStore::probe_step(LineId id,
                                              const mining::Itemset& itemset) {
  switch (line(id).where) {
    case Where::kResident:
      probe_resident(id, itemset);
      return Step::kDone;
    case Where::kRemote:
    case Where::kDisk:
      break;
    case Where::kFaulting:
    case Where::kMigrating:
      return Step::kSlow;
  }
  if (phase_ != Phase::kCount || backend_ == nullptr) return Step::kSlow;
  switch (backend_->update(id, itemset)) {
    case SwapBackend::UpdateStep::kFault:
      return Step::kSlow;
    case SwapBackend::UpdateStep::kQueued:
      // Absorbed in place as a one-way remote update (§4.4).
      return Step::kDone;
    case SwapBackend::UpdateStep::kFlushDue:
      return Step::kFlush;
  }
  return Step::kSlow;
}

void HashLineStore::probe_resident(LineId id,
                                   const mining::Itemset& itemset) {
  Line& l = line(id);
  for (mining::CountedItemset& e : l.entries) {
    if (e.items == itemset) {
      ++e.count;
      break;
    }
  }
  if (l.bytes > 0) lru_touch(id);  // empty lines never enter the LRU
}

sim::Task<> HashLineStore::probe_block(
    std::span<const LineId> ids, std::span<const mining::Itemset> itemsets) {
  RMS_CHECK(ids.size() == itemsets.size());
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    prefetch_ahead(i, n, [ids](std::size_t j) { return ids[j]; });
    switch (probe_step(ids[i], itemsets[i])) {
      case Step::kDone:
        break;
      case Step::kFlush:
        co_await backend_->flush_due(ids[i]);
        break;
      case Step::kSlow:
        co_await probe(ids[i], itemsets[i]);
        break;
    }
  }
}

sim::Task<std::uint32_t> HashLineStore::count_matches(LineId id,
                                                      mining::Item key) {
  Line& l = line(id);
  while (l.where == Where::kMigrating) {
    co_await migration_trigger(id).wait();
  }
  if (const auto matches = try_count_matches(id, key)) co_return *matches;
  co_await fault_in(id);
  const std::uint32_t matches = *try_count_matches(id, key);
  if (over_limit()) co_await enforce_limit(id);
  co_return matches;
}

std::optional<std::uint32_t> HashLineStore::try_count_matches(
    LineId id, mining::Item key) {
  Line& l = line(id);
  if (l.where != Where::kResident) return std::nullopt;
  std::uint32_t matches = 0;
  for (const mining::CountedItemset& e : l.entries) {
    if (!e.items.empty() && e.items.front() == key) ++matches;
  }
  if (l.bytes > 0) lru_touch(id);
  return matches;
}

sim::Task<> HashLineStore::flush_updates() {
  if (backend_) co_await backend_->flush_updates();
}

sim::Task<> HashLineStore::collect(
    const std::function<void(const mining::CountedItemset&)>& fn) {
  // Fetch remote lines home, holder by holder (updates already sent to a
  // holder are applied before its fetch: same-pair FIFO plus a sequential
  // server loop). A failed fetch can re-point lines at a backup holder, and
  // the failure detector can re-home lines concurrently, so re-scan until
  // nothing is migrating and nothing is remote. Each pass first settles
  // in-flight migrations and pushes out buffered updates.
  for (;;) {
    bool waited = false;
    for (LineId id = 0; id < static_cast<LineId>(lines_.size()); ++id) {
      if (line(id).where == Where::kMigrating) {
        co_await migration_trigger(id).wait();
        waited = true;
      }
    }
    if (!backend_) break;
    co_await backend_->flush_updates();
    if (!co_await backend_->collect_fetch()) {
      if (waited) continue;  // a settle may have re-pointed lines; re-scan
      break;
    }
  }

  // Remote lines are all home; drop auxiliary copies and stream any
  // disk-parked lines back in.
  if (backend_) co_await backend_->collect_finish();

  for (const Line& l : lines_) {
    RMS_CHECK(l.where == Where::kResident);
    for (const mining::CountedItemset& e : l.entries) fn(e);
  }
}

sim::Task<> HashLineStore::migrate_away(net::NodeId holder) {
  if (backend_) co_await backend_->migrate_away(holder);
}

sim::Task<std::int64_t> HashLineStore::reclaim(std::int64_t target_bytes) {
  if (backend_ == nullptr) co_return 0;
  co_return co_await backend_->reclaim(target_bytes);
}

sim::Task<> HashLineStore::handle_holder_failure(net::NodeId dead) {
  if (backend_) co_await backend_->on_holder_failure(dead);
}

// ---------------------------------------------------------------------------
// Eviction and faulting
// ---------------------------------------------------------------------------

sim::Task<> HashLineStore::enforce_limit(LineId pinned) {
  while (over_limit()) {
    const LineId victim = pick_victim(pinned);
    if (victim < 0) break;  // only the pinned line is resident
    co_await evict(victim);
  }
}

sim::Task<> HashLineStore::evict(LineId id) {
  Line& l = line(id);
  RMS_CHECK(l.where == Where::kResident);
  RMS_CHECK(l.bytes > 0);
  RMS_CHECK_MSG(backend_ != nullptr, "eviction under kNoLimit");
  ++*swap_outs_;
  lru_remove(id);
  resident_bytes_ -= l.bytes;
  const Time started = node_.sim().now();
  co_await backend_->swap_out(id);
  if (config_.trace != nullptr) {
    config_.trace->span(obs::EventKind::kSwapOut, node_.id(), started,
                        node_.sim().now(), id, l.bytes);
  }
}

sim::Task<> HashLineStore::fault_in(LineId id) {
  RMS_CHECK_MSG(backend_ != nullptr, "fault under kNoLimit");
  Line& l = line(id);
  ++*pagefaults_;
  node_.stats().bump("store.pagefaults");
  const Time started = node_.sim().now();

  co_await backend_->fault_in(id);

  if (l.where != Where::kResident) {
    // Normal path: the backend restored the contents and left the line
    // pinned kFaulting; charge residency here. (A crash-recovery orphan
    // comes back already resident and empty — nothing to charge.)
    RMS_CHECK(l.where == Where::kFaulting);
    make_resident(id);
  }
  const double fault_ms = to_millis(node_.sim().now() - started);
  node_.stats().sample("store.fault_ms", fault_ms);
  node_.stats().record("store.fault_ms", fault_ms);
  if (config_.trace != nullptr) {
    config_.trace->span(obs::EventKind::kFaultIn, node_.id(), started,
                        node_.sim().now(), id, l.bytes);
  }
}

}  // namespace rms::core
