// Deterministic discrete-event simulation kernel.
//
// The whole cluster (nodes, network ports, disks, monitor daemons) runs as
// C++20 coroutine processes over one virtual clock. A single OS thread and a
// (time, sequence)-ordered event queue make every run bit-reproducible: two
// events at the same virtual instant fire in the order they were scheduled.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"

namespace rms::sim {

class Process;

class Simulation {
 public:
  Simulation() = default;
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Resume `h` at absolute virtual time `at` (>= now).
  void schedule(Time at, std::coroutine_handle<> h);

  /// Resume `h` at the current virtual instant, after already-queued events
  /// for this instant.
  void schedule_now(std::coroutine_handle<> h) { schedule(now_, h); }

  /// Invoke `fn` at absolute virtual time `at`. Used for fault injection
  /// ("at t=120s, withdraw memory node 3").
  void call_at(Time at, std::function<void()> fn);

  /// Awaitable that suspends the calling process for `delay` (>= 0).
  auto timeout(Time delay) {
    RMS_CHECK(delay >= 0);
    struct Awaiter {
      Simulation& sim;
      Time at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.schedule(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, now_ + delay};
  }

  /// Start a process; it begins executing at the current virtual time.
  /// Returns a join handle (copy of the process) that can be co_awaited.
  Process spawn(Process p);

  /// Run until the event queue drains or `request_stop` is called. Returns
  /// the final virtual time.
  Time run();

  /// Halt `run`/`run_until` after the current event. Used by experiment
  /// coordinators once the workload completes while daemon processes
  /// (monitors, servers) still have timers pending.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Destroy every still-suspended process frame and drop pending events.
  /// Call before tearing down objects the processes reference (channels,
  /// resources, nodes); the destructor calls it as a backstop.
  void shutdown();

  /// Run all events with timestamp <= `until`; afterwards now() == until if
  /// the queue outlived the horizon. Returns true if events remain.
  bool run_until(Time until);

  /// Number of events executed so far (for kernel tests and budgeting).
  std::uint64_t executed_events() const { return executed_; }

  /// Spawned-process records still held: every live process, plus finished
  /// ones not yet dropped. Finished records are dropped whenever the list
  /// reaches max(kCompactFloor, twice the records kept last time).
  std::size_t tracked_processes() const { return processes_.size(); }
  static constexpr std::size_t kCompactFloor = 1024;

 private:
  friend class Process;

  struct Event {
    Time at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;       // either handle...
    std::function<void()> fn;             // ...or callback
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void dispatch(Event& ev);

  // Spawned-process bookkeeping so suspended frames are reclaimed at
  // teardown (servers waiting on channels when the run ends), in spawn
  // order. Finished processes' records are dropped whenever the list
  // doubles: one transfer process is spawned per network message.
  struct ProcessState;
  void adopt(std::shared_ptr<ProcessState> st);

  Time now_ = 0;
  bool stop_requested_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<std::shared_ptr<ProcessState>> processes_;
  std::size_t compact_at_ = kCompactFloor;
};

}  // namespace rms::sim
