// Unit tests for the discrete-event kernel: clock, ordering, processes,
// channels, resources, and teardown behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace rms::sim {
namespace {

Process nop(Simulation& sim) { co_await sim.timeout(0); }

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.run(), 0);
}

TEST(Simulation, TimeAdvancesWithTimeouts) {
  Simulation sim;
  std::vector<Time> observed;
  auto proc = [](Simulation& s, std::vector<Time>& out) -> Process {
    co_await s.timeout(msec(5));
    out.push_back(s.now());
    co_await s.timeout(msec(7));
    out.push_back(s.now());
  };
  sim.spawn(proc(sim, observed));
  sim.run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], msec(5));
  EXPECT_EQ(observed[1], msec(12));
}

TEST(Simulation, CallAtFiresInOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.call_at(msec(10), [&] { order.push_back(2); });
  sim.call_at(msec(5), [&] { order.push_back(1); });
  sim.call_at(msec(10), [&] { order.push_back(3); });  // same instant: FIFO
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SameInstantEventsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>& out, int id) -> Process {
    co_await s.timeout(msec(1));
    out.push_back(id);
  };
  for (int i = 0; i < 5; ++i) sim.spawn(proc(sim, order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.call_at(msec(5), [&] { ++fired; });
  sim.call_at(msec(15), [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(msec(10)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), msec(10));
  EXPECT_FALSE(sim.run_until(msec(20)));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RequestStopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.call_at(msec(1), [&] {
    ++fired;
    sim.request_stop();
  });
  sim.call_at(msec(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, ExecutedEventsCounts) {
  Simulation sim;
  for (int i = 0; i < 3; ++i) sim.call_at(msec(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Process, JoinResumesAfterCompletion) {
  Simulation sim;
  std::vector<int> order;
  auto worker = [](Simulation& s, std::vector<int>& out) -> Process {
    co_await s.timeout(msec(10));
    out.push_back(1);
  };
  auto joiner = [](Simulation& s, Process w, std::vector<int>& out) -> Process {
    co_await w;
    out.push_back(2);
    EXPECT_EQ(s.now(), msec(10));
  };
  Process w = sim.spawn(worker(sim, order));
  sim.spawn(joiner(sim, w, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(w.done());
}

TEST(Process, JoinCompletedProcessReturnsImmediately) {
  Simulation sim;
  Process w = sim.spawn(nop(sim));
  sim.run();
  ASSERT_TRUE(w.done());
  bool joined = false;
  auto joiner = [](Simulation& s, Process p, bool& out) -> Process {
    co_await p;
    out = true;
    EXPECT_EQ(s.now(), 0);
  };
  sim.spawn(joiner(sim, w, joined));
  sim.run();
  EXPECT_TRUE(joined);
}

TEST(Process, ManyJoinersAllResume) {
  Simulation sim;
  auto worker = [](Simulation& s) -> Process { co_await s.timeout(msec(3)); };
  Process w = sim.spawn(worker(sim));
  int resumed = 0;
  auto joiner = [](Process p, int& out) -> Process {
    co_await p;
    ++out;
  };
  for (int i = 0; i < 10; ++i) sim.spawn(joiner(w, resumed));
  sim.run();
  EXPECT_EQ(resumed, 10);
}

TEST(Channel, FifoDelivery) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  auto consumer = [](Channel<int>& c, std::vector<int>& out) -> Process {
    for (int i = 0; i < 3; ++i) out.push_back(co_await c.recv());
  };
  sim.spawn(consumer(ch, got));
  ch.send(1);
  ch.send(2);
  ch.send(3);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, ReceiverBlocksUntilSend) {
  Simulation sim;
  Channel<int> ch(sim);
  Time received_at = -1;
  auto consumer = [](Simulation& s, Channel<int>& c, Time& at) -> Process {
    (void)co_await c.recv();
    at = s.now();
  };
  auto producer = [](Simulation& s, Channel<int>& c) -> Process {
    co_await s.timeout(msec(42));
    c.send(7);
  };
  sim.spawn(consumer(sim, ch, received_at));
  sim.spawn(producer(sim, ch));
  sim.run();
  EXPECT_EQ(received_at, msec(42));
}

TEST(Channel, MultipleWaitersServedInOrder) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  auto consumer = [](Channel<int>& c, std::vector<std::pair<int, int>>& out,
                     int id) -> Process {
    const int v = co_await c.recv();
    out.emplace_back(id, v);
  };
  sim.spawn(consumer(ch, got, 0));
  sim.spawn(consumer(ch, got, 1));
  sim.run();  // both waiting now
  ch.send(10);
  ch.send(11);
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 10}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 11}));
}

TEST(Channel, TryRecvDoesNotBlock) {
  Simulation sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(5);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
  EXPECT_EQ(ch.pending(), 0u);
}

TEST(Resource, SerializesAtCapacityOne) {
  Simulation sim;
  Resource res(sim, 1);
  std::vector<Time> finish;
  auto worker = [](Simulation& s, Resource& r, std::vector<Time>& out) -> Process {
    Lease l = co_await r.acquire();
    co_await s.timeout(msec(5));
    out.push_back(s.now());
  };
  for (int i = 0; i < 3; ++i) sim.spawn(worker(sim, res, finish));
  sim.run();
  EXPECT_EQ(finish, (std::vector<Time>{msec(5), msec(10), msec(15)}));
  EXPECT_EQ(res.in_use(), 0);
  EXPECT_EQ(res.total_acquired(), 3u);
}

TEST(Resource, CapacityTwoRunsPairsConcurrently) {
  Simulation sim;
  Resource res(sim, 2);
  std::vector<Time> finish;
  auto worker = [](Simulation& s, Resource& r, std::vector<Time>& out) -> Process {
    Lease l = co_await r.acquire();
    co_await s.timeout(msec(5));
    out.push_back(s.now());
  };
  for (int i = 0; i < 4; ++i) sim.spawn(worker(sim, res, finish));
  sim.run();
  EXPECT_EQ(finish, (std::vector<Time>{msec(5), msec(5), msec(10), msec(10)}));
}

TEST(Resource, EarlyReleaseHandsSlotOver) {
  Simulation sim;
  Resource res(sim, 1);
  std::vector<int> order;
  auto holder = [](Simulation& s, Resource& r, std::vector<int>& out) -> Process {
    Lease l = co_await r.acquire();
    co_await s.timeout(msec(1));
    l.release();  // give the slot up before doing more work
    out.push_back(1);
    co_await s.timeout(msec(100));
    out.push_back(3);
  };
  auto waiter = [](Simulation& s, Resource& r, std::vector<int>& out) -> Process {
    Lease l = co_await r.acquire();
    EXPECT_EQ(s.now(), msec(1));
    out.push_back(2);
  };
  sim.spawn(holder(sim, res, order));
  sim.spawn(waiter(sim, res, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Task, RunsInlineAndReturnsValue) {
  Simulation sim;
  auto sub = [](Simulation& s) -> Task<int> {
    co_await s.timeout(msec(2));
    co_return 42;
  };
  int got = 0;
  auto proc = [&](Simulation& s) -> Process {
    got = co_await sub(s);
    EXPECT_EQ(s.now(), msec(2));
  };
  sim.spawn(proc(sim));
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(Task, VoidTaskCompletesWithoutSuspending) {
  Simulation sim;
  auto sub = []() -> Task<> { co_return; };
  bool after = false;
  auto proc = [&](Simulation& s) -> Process {
    co_await sub();
    after = true;
    EXPECT_EQ(s.now(), 0);
  };
  sim.spawn(proc(sim));
  sim.run();
  EXPECT_TRUE(after);
}

TEST(Task, NestedTasksCompose) {
  Simulation sim;
  auto inner = [](Simulation& s) -> Task<int> {
    co_await s.timeout(msec(1));
    co_return 10;
  };
  auto outer = [&](Simulation& s) -> Task<int> {
    const int a = co_await inner(s);
    const int b = co_await inner(s);
    co_return a + b;
  };
  int got = 0;
  auto proc = [&](Simulation& s) -> Process {
    got = co_await outer(s);
  };
  sim.spawn(proc(sim));
  sim.run();
  EXPECT_EQ(got, 20);
  EXPECT_EQ(sim.now(), msec(2));
}

TEST(Teardown, SuspendedProcessesAreReclaimed) {
  // A server blocked on a channel forever must not leak or crash at
  // simulation destruction.
  auto server = [](Channel<int>& c, int& sum) -> Process {
    for (;;) sum += co_await c.recv();
  };
  int sum = 0;
  {
    Simulation sim;
    Channel<int> ch(sim);
    sim.spawn(server(ch, sum));
    ch.send(4);
    sim.run();
  }
  EXPECT_EQ(sum, 4);
}

TEST(Teardown, ShutdownReleasesLeases) {
  Simulation sim;
  Resource res(sim, 1);
  auto holder = [](Simulation& s, Resource& r) -> Process {
    Lease l = co_await r.acquire();
    co_await s.timeout(sec(100));  // never finishes
  };
  sim.spawn(holder(sim, res));
  sim.run_until(msec(1));
  EXPECT_EQ(res.in_use(), 1);
  sim.shutdown();  // destroys the frame; the Lease destructor releases
  EXPECT_EQ(res.in_use(), 0);
}

TEST(Teardown, FinishedProcessesAreReleasedDuringTheRun) {
  // One short process per network message: the simulation must drop the
  // records of finished ones as it goes, keep joins on them working, and
  // still tear the live daemons down in spawn order at shutdown.
  struct Marker {
    std::vector<int>* order;
    int id;
    ~Marker() { order->push_back(id); }
  };
  auto daemon = [](Channel<int>& c, std::vector<int>& order,
                   int id) -> Process {
    const Marker m{&order, id};
    for (;;) co_await c.recv();
  };
  auto shot = [](Simulation& s) -> Process { co_await s.timeout(usec(1)); };
  constexpr int kShots = 20'000;
  std::vector<int> torn_down;
  Simulation sim;
  Channel<int> ch(sim);
  std::size_t peak = 0;
  bool joined = false;
  auto driver = [&]() -> Process {
    const Process first = sim.spawn(shot(sim));
    for (int i = 0; i < kShots; ++i) {
      if (i % 5000 == 0) sim.spawn(daemon(ch, torn_down, i / 5000));
      sim.spawn(shot(sim));
      co_await sim.timeout(usec(2));
      peak = std::max(peak, sim.tracked_processes());
    }
    co_await first;  // its record is long gone; the join handle is not
    joined = true;
  };
  sim.spawn(driver());
  sim.run();
  EXPECT_TRUE(joined);
  // At most a driver, four daemons and one shot are ever live.
  EXPECT_LE(peak, Simulation::kCompactFloor);
  EXPECT_GE(sim.tracked_processes(), 4u);
  EXPECT_LE(sim.tracked_processes(), Simulation::kCompactFloor);
  EXPECT_TRUE(torn_down.empty());
  sim.shutdown();
  EXPECT_EQ(torn_down, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.tracked_processes(), 0u);
}

}  // namespace
}  // namespace rms::sim
