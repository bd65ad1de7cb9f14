#include "sim/simulation.hpp"

#include <algorithm>

#include "sim/process.hpp"

namespace rms::sim {

Simulation::~Simulation() { shutdown(); }

void Simulation::shutdown() {
  // Reclaim frames of processes still suspended (e.g. servers blocked on a
  // channel when the run ended). Destroying a suspended coroutine runs the
  // destructors of its locals (leases release, RAII unwinds), so this must
  // happen while the objects those locals reference are still alive.
  stop_requested_ = true;
  for (auto& st : processes_) {
    if (st->handle && st->started) {
      auto h = st->handle;
      st->handle = nullptr;
      h.destroy();
    }
  }
  processes_.clear();
  // Pending events may hold handles into the frames just destroyed; they
  // must never run.
  while (!queue_.empty()) queue_.pop();
}

void Simulation::schedule(Time at, std::coroutine_handle<> h) {
  RMS_CHECK_MSG(at >= now_, "cannot schedule into the past");
  queue_.push(Event{at, seq_++, h, {}});
}

void Simulation::call_at(Time at, std::function<void()> fn) {
  RMS_CHECK_MSG(at >= now_, "cannot schedule into the past");
  queue_.push(Event{at, seq_++, nullptr, std::move(fn)});
}

void Simulation::adopt(std::shared_ptr<ProcessState> st) {
  if (processes_.size() >= compact_at_) {
    // A finished process's frame is gone already; its record only keeps
    // the control block alive. Stable, so shutdown order is unchanged.
    std::erase_if(processes_, [](const auto& p) { return p->done; });
    compact_at_ = std::max(kCompactFloor, 2 * processes_.size());
  }
  processes_.push_back(std::move(st));
}

Process Simulation::spawn(Process p) {
  auto& st = p.state_;
  RMS_CHECK_MSG(!st->started, "process spawned twice");
  st->sim = this;
  st->started = true;
  adopt(st);
  schedule(now_, st->handle);
  return p;
}

void Simulation::dispatch(Event& ev) {
  now_ = ev.at;
  ++executed_;
  if (ev.handle) {
    ev.handle.resume();
  } else {
    ev.fn();
  }
}

Time Simulation::run() {
  while (!queue_.empty() && !stop_requested_) {
    Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
  }
  return now_;
}

bool Simulation::run_until(Time until) {
  RMS_CHECK(until >= now_);
  while (!queue_.empty() && !stop_requested_ && queue_.top().at <= until) {
    Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
  }
  now_ = until;
  return !queue_.empty();
}

}  // namespace rms::sim
