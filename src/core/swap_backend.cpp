#include "core/swap_backend.hpp"

#include "core/disk_backend.hpp"
#include "core/hash_line_store.hpp"
#include "core/remote_backend.hpp"
#include "core/tiered_backend.hpp"

namespace rms::core {

// Default implementations: a backend with no remote presence has nothing to
// update, flush, fetch, migrate, or recover. (Completing without suspending
// keeps these timing-neutral in the simulation.)

SwapBackend::UpdateStep SwapBackend::update(
    LineId /*id*/, const mining::Itemset& /*itemset*/) {
  return UpdateStep::kFault;
}

sim::Task<> SwapBackend::flush_due(LineId /*id*/) { co_return; }

bool SwapBackend::buffer_migrating_update(LineId /*id*/,
                                          const mining::Itemset& /*itemset*/) {
  return false;
}

sim::Task<> SwapBackend::flush_updates() { co_return; }

sim::Task<bool> SwapBackend::collect_fetch() { co_return false; }

sim::Task<> SwapBackend::collect_finish() { co_return; }

sim::Task<> SwapBackend::migrate_away(net::NodeId /*holder*/) { co_return; }

sim::Task<std::int64_t> SwapBackend::reclaim(std::int64_t /*target_bytes*/) {
  co_return 0;
}

sim::Task<> SwapBackend::on_holder_failure(net::NodeId /*dead*/) { co_return; }

std::size_t SwapBackend::lines_at(net::NodeId /*holder*/) const { return 0; }

std::size_t SwapBackend::replicas_at(net::NodeId /*holder*/) const {
  return 0;
}

std::unique_ptr<SwapBackend> make_swap_backend(HashLineStore& store) {
  switch (store.config().policy) {
    case SwapPolicy::kNoLimit:
      // A store that never evicts needs no movement mechanism.
      return nullptr;
    case SwapPolicy::kDiskSwap:
      return std::make_unique<DiskBackend>(store);
    case SwapPolicy::kRemoteSwap:
      return std::make_unique<RemoteBackend>(
          store, RemoteBackend::Options{/*update_mode=*/false}, "remote");
    case SwapPolicy::kRemoteUpdate:
      return std::make_unique<RemoteBackend>(
          store, RemoteBackend::Options{/*update_mode=*/true},
          "remote-update");
    case SwapPolicy::kTiered:
      return std::make_unique<TieredBackend>(store);
  }
  RMS_CHECK_MSG(false, "unknown swap policy");
  return nullptr;
}

}  // namespace rms::core
