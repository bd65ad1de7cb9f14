// The phased workloads' data path (§2.2, §5.1), one copy of each step: the
// io-block partition scan, the owner shuffle that ships every element to
// the participant owning its hash line in message blocks, the receiver
// that probes those blocks into the owner's store, and the sized build
// loop. Per-element and per-transaction work runs as synchronous steps;
// the loops await only when a disk read, a CPU charge or a send is due, so
// they allocate no coroutine frame per element or transaction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/hash_line_store.hpp"
#include "mining/itemset.hpp"
#include "mining/transaction_db.hpp"
#include "runtime/cpu_charger.hpp"
#include "sim/process.hpp"
#include "transport/stream.hpp"
#include "transport/transport.hpp"

namespace rms::sched {

/// io-block scan of one node's transaction partition. Each transaction
/// adds the partition's mean on-disk bytes; a full io block is read from
/// the data disk when the pending bytes reach it, the partial tail at the
/// end. Parse CPU is charged per transaction in chunks.
///
///   for (t ...) { if (scan.next()) co_await scan.catch_up(); ... }
///   co_await scan.finish();
class PartitionScan {
 public:
  PartitionScan(cluster::Node& node, const mining::TransactionDb& part,
                std::int64_t io_block_bytes)
      : node_(node),
        io_block_bytes_(io_block_bytes),
        bytes_per_tx_(part.empty()
                          ? 1
                          : std::max<std::int64_t>(
                                1, part.approx_bytes() /
                                       static_cast<std::int64_t>(part.size()))),
        parse_(node, node.costs().per_tx_parse) {}

  /// Account one more transaction. True when a block read or a parse
  /// charge came due: the caller then awaits catch_up().
  [[nodiscard]] bool next() {
    pending_bytes_ += bytes_per_tx_;
    parse_due_ = parse_.add(1);
    return pending_bytes_ >= io_block_bytes_ || parse_due_;
  }

  /// The read and charge next() reported due, in that order.
  sim::Task<> catch_up() {
    if (pending_bytes_ >= io_block_bytes_) {
      pending_bytes_ = 0;
      co_await node_.data_disk().read(io_block_bytes_,
                                      disk::Access::kSequential);
    }
    if (std::exchange(parse_due_, false)) co_await parse_.flush();
  }

  /// The trailing partial block and the last parse charge.
  sim::Task<> finish() {
    if (pending_bytes_ > 0) {
      const std::int64_t bytes = std::exchange(pending_bytes_, 0);
      co_await node_.data_disk().read(bytes, disk::Access::kSequential);
    }
    co_await parse_.flush();
  }

 private:
  cluster::Node& node_;
  std::int64_t io_block_bytes_;
  std::int64_t bytes_per_tx_;
  std::int64_t pending_bytes_ = 0;
  runtime::CpuCharger parse_;
  bool parse_due_ = false;
};

/// A shuffle message: a block of elements, or the end-of-stream marker a
/// sender broadcasts after its last block.
template <typename T>
struct ShuffleBlock {
  std::vector<T> items;
  bool eos = false;
};

/// The sending half of an owner shuffle: one byte-budgeted stream per
/// participant. The budget rounds the message block down to whole
/// elements; each block comes due at, and reserves, that element count.
template <typename T>
class OwnerShuffle {
 public:
  /// `owners[i]` is participant i's node; every participant receives.
  OwnerShuffle(cluster::Node& node, const std::vector<net::NodeId>& owners,
               net::Tag tag, std::int64_t block_bytes,
               std::int64_t element_bytes)
      : node_(node),
        owners_(owners),
        tag_(tag),
        element_bytes_(element_bytes),
        capacity_(std::max<std::int64_t>(1, block_bytes / element_bytes)) {
    streams_.reserve(owners_.size());
    for (std::size_t i = 0; i < owners_.size(); ++i) {
      streams_.emplace_back(capacity_ * element_bytes_);
    }
  }

  /// Append `e` to participant `owner`'s block. True when the block is
  /// full: the caller then awaits flush(owner).
  [[nodiscard]] bool push(std::size_t owner, const T& e) {
    transport::Stream<ShuffleBlock<T>>& stream = streams_[owner];
    if (stream.empty()) {
      stream.open().items.reserve(static_cast<std::size_t>(capacity_));
    }
    stream.open().items.push_back(e);
    stream.note(element_bytes_);
    return stream.due();
  }

  /// Send participant `owner`'s open block, if any.
  sim::Task<> flush(std::size_t owner) {
    if (streams_[owner].empty()) co_return;
    auto closed = streams_[owner].take();
    node_.send_to(owners_[owner], tag_, closed.bytes, std::move(closed.batch));
    co_await node_.compute(node_.costs().per_message_cpu);
  }

  /// Flush the stragglers, then broadcast end-of-stream (FIFO per
  /// destination keeps every block ahead of the marker).
  sim::Task<> finish() {
    for (std::size_t owner = 0; owner < owners_.size(); ++owner) {
      co_await flush(owner);
    }
    for (std::size_t owner = 0; owner < owners_.size(); ++owner) {
      ShuffleBlock<T> eos;
      eos.eos = true;
      node_.send_to(owners_[owner], tag_, 16, std::move(eos));
      co_await node_.compute(node_.costs().per_message_cpu);
    }
  }

 private:
  cluster::Node& node_;
  const std::vector<net::NodeId>& owners_;
  net::Tag tag_;
  std::int64_t element_bytes_;
  std::int64_t capacity_;
  std::vector<transport::Stream<ShuffleBlock<T>>> streams_;
};

/// The probe key of a shuffled element: an itemset is its own key; a
/// single item probes as the one-item itemset.
inline const mining::Itemset& shuffle_key(const mining::Itemset& s) {
  return s;
}
inline mining::Itemset shuffle_key(mining::Item item) {
  // Built by push_back: GCC 12 miscompiles initializer-list construction
  // inside coroutines ("array used as initializer").
  mining::Itemset s;
  s.push_back(item);
  return s;
}

/// Wiring of one shuffle phase.
struct ShuffleSpec {
  net::Tag tag = 0;                     // wire tag of the blocks
  std::int64_t element_bytes = 0;       // wire bytes per element
  std::int64_t block_bytes = 4096;      // message block budget (§5.1)
  std::int64_t io_block_bytes = 65536;  // partition scan read unit (§5.1)
};

/// Sender of a shuffle phase: scan `part`; `generate(part.tx(t), out)`
/// appends transaction t's elements to the emptied `out` (charged
/// per_itemset_generate each); every element goes to the participant
/// `place(shuffle_key(e)).first` names.
template <typename T, typename Generate, typename Place>
sim::Process shuffle_sender(cluster::Node& node,
                            const std::vector<net::NodeId>& owners,
                            const mining::TransactionDb& part,
                            ShuffleSpec spec, Generate generate, Place place) {
  PartitionScan scan(node, part, spec.io_block_bytes);
  OwnerShuffle<T> shuffle(node, owners, spec.tag, spec.block_bytes,
                          spec.element_bytes);
  runtime::CpuCharger gen(node, node.costs().per_itemset_generate);
  std::vector<T> elements;
  for (std::size_t t = 0; t < part.size(); ++t) {
    if (scan.next()) co_await scan.catch_up();
    elements.clear();
    generate(part.tx(t), elements);
    if (gen.add(static_cast<std::int64_t>(elements.size()))) {
      co_await gen.flush();
    }
    for (const T& e : elements) {
      const std::size_t owner = place(shuffle_key(e)).first;
      if (shuffle.push(owner, e)) co_await shuffle.flush(owner);
    }
  }
  co_await scan.finish();
  co_await gen.flush();
  co_await shuffle.finish();
}

/// Receiver of a shuffle phase on participant `self`: until all `senders`
/// sent end-of-stream, charge each block per_message_cpu plus per_probe
/// per element and probe it into `store`, element e in local line
/// `place(shuffle_key(e)).second`. A block of itemsets is probed in place.
template <typename T, typename Place>
sim::Process shuffle_receiver(cluster::Node& node, std::size_t senders,
                              std::size_t self, core::HashLineStore& store,
                              net::Tag tag, Place place) {
  const cluster::CostModel& costs = node.costs();
  std::vector<core::LineId> lines;
  std::vector<mining::Itemset> keys;  // single-item blocks only
  transport::Inbox inbox(node, tag);
  std::size_t eos_seen = 0;
  while (eos_seen < senders) {
    net::Message msg = co_await inbox.recv();
    const auto& block = msg.as<ShuffleBlock<T>>();
    if (block.eos) {
      ++eos_seen;
      continue;
    }
    co_await node.compute(costs.per_message_cpu +
                          costs.per_probe *
                              static_cast<std::int64_t>(block.items.size()));
    std::span<const mining::Itemset> probes;
    if constexpr (std::is_same_v<T, mining::Itemset>) {
      probes = block.items;
    } else {
      keys.clear();
      for (const T& e : block.items) keys.push_back(shuffle_key(e));
      probes = keys;
    }
    lines.clear();
    for (const mining::Itemset& key : probes) {
      const auto [owner, line] = place(key);
      RMS_CHECK(owner == self);
      lines.push_back(line);
    }
    co_await store.probe_block(lines, probes);
  }
}

/// Participant `self`'s side of a shuffle phase: switch `store` to
/// counting, run the sender over `part` and the receiver into `store`
/// (every participant in `owners` sends and receives), and join both.
/// `place(key)` maps a probe key to (owner participant, local line).
template <typename T, typename Generate, typename Place>
sim::Task<> shuffle_phase(cluster::Node& node,
                          const std::vector<net::NodeId>& owners,
                          std::size_t self, core::HashLineStore& store,
                          const mining::TransactionDb& part, ShuffleSpec spec,
                          Generate generate, Place place) {
  store.set_phase(core::HashLineStore::Phase::kCount);
  sim::Process sender = node.sim().spawn(
      shuffle_sender<T>(node, owners, part, spec, generate, place));
  sim::Process receiver = node.sim().spawn(
      shuffle_receiver<T>(node, owners.size(), self, store, spec.tag, place));
  co_await sender;
  co_await receiver;
}

/// The sized build loop: insert `n` entries into `store`, entry i being
/// `entry_at(i)` in local line `line_at(i)`. The inserts are announced to
/// size_lines first, so every entry array is allocated once; CPU is
/// charged `per_insert` per insert, in chunks.
template <typename LineAt, typename EntryAt>
sim::Task<> build_lines(cluster::Node& node, core::HashLineStore& store,
                        std::size_t n, Time per_insert, LineAt line_at,
                        EntryAt entry_at) {
  runtime::CpuCharger charge(node, per_insert);
  store.size_lines(n, line_at);
  for (std::size_t i = 0; i < n; ++i) {
    store.prefetch_ahead(i, n, line_at);
    const core::LineId line = line_at(i);
    const mining::Itemset entry = entry_at(i);
    if (!store.try_insert(line, entry)) co_await store.insert(line, entry);
    if (charge.add(1)) co_await charge.flush();
  }
  co_await charge.flush();
}

}  // namespace rms::sched
