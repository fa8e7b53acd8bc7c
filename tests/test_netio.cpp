// The netio subsystem itself: timer wheel, buffer arena, batch frame
// container, the inline NetioNetwork host (binding, timers, coalesced
// send/decode, RPC, kernel truncation) and the threaded multi-shard pool (the TSan preset runs this file to vet the
// cross-shard timer and task paths).

#include "netio/reactor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/rpc.hpp"
#include "netio/buffer_arena.hpp"
#include "netio/netio_network.hpp"
#include "netio/reactor_pool.hpp"
#include "netio/timer_wheel.hpp"

namespace {

using namespace dat;
using namespace dat::netio;

net::OwnedMessage one_way(std::string_view method,
                          std::vector<std::uint8_t> body = {}) {
  net::OwnedMessage msg;
  msg.method = net::method_id(method);
  msg.kind = net::MessageKind::kOneWay;
  msg.body = std::move(body);
  return msg;
}

// ----------------------------------------------------------- timer wheel

TEST(TimerWheelTest, FiresInDeadlineOrderAcrossSlots) {
  TimerWheel wheel(1'000, 8);  // tiny wheel: 60ms spans many revolutions
  std::vector<int> order;
  wheel.schedule(60'000, [&] { order.push_back(3); });
  wheel.schedule(5'000, [&] { order.push_back(1); });
  wheel.schedule(20'000, [&] { order.push_back(2); });
  wheel.advance(100'000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, FutureRevolutionStaysParked) {
  TimerWheel wheel(1'000, 8);
  bool fired = false;
  wheel.schedule(9'500, [&] { fired = true; });  // slot collides with tick 1
  wheel.advance(2'000);
  EXPECT_FALSE(fired);  // visited its slot one revolution early
  wheel.advance(9'000);
  EXPECT_FALSE(fired);
  wheel.advance(10'000);
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, CancelledEntryNeverFires) {
  TimerWheel wheel(1'000, 64);
  bool fired = false;
  const net::TimerId id = wheel.schedule(5'000, [&] { fired = true; });
  wheel.cancel(id);
  wheel.advance(50'000);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, CallbackMayCancelALaterEntryInTheSameBatch) {
  TimerWheel wheel(1'000, 64);
  bool second_fired = false;
  net::TimerId second = 0;
  second = wheel.schedule(6'000, [&] { second_fired = true; });
  wheel.schedule(5'000, [&] { wheel.cancel(second); });
  wheel.advance(50'000);  // both entries are due in this single advance
  EXPECT_FALSE(second_fired);
}

TEST(TimerWheelTest, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel(1'000, 64);
  wheel.advance(30'000);
  bool fired = false;
  wheel.schedule(10'000, [&] { fired = true; });  // already in the past
  wheel.advance(31'000);
  EXPECT_TRUE(fired);
}

// Phase rule: the tests drive a synthetic clock and arm timers the way
// Reactor::set_timer does, deadline now + delay with the delay passed on.

TEST(TimerWheelPhaseTest, ReArmWithOwnDelayStaysOnPhaseWhenFiringLate) {
  constexpr std::uint64_t kTick = 1'000;
  constexpr std::uint64_t kPeriod = 10'500;  // not a whole number of ticks
  TimerWheel wheel(kTick, 64);
  std::uint64_t now = 0;
  std::vector<std::uint64_t> fired_at;
  std::function<void()> on_period = [&] {
    fired_at.push_back(now);
    wheel.schedule(now + kPeriod, on_period, kPeriod);
  };
  wheel.schedule(now + kPeriod, on_period, kPeriod);
  // Every advance runs 0.9 tick after its tick boundary, so each firing is
  // late; counted from now, that lateness would pile up period on period.
  constexpr std::uint64_t kPeriods = 1'000;
  for (std::uint64_t t = 0; fired_at.size() < kPeriods; ++t) {
    now = t * kTick + 900;
    wheel.advance(now);
  }
  for (std::size_t k = 0; k < fired_at.size(); ++k) {
    const std::uint64_t due = (k + 1) * kPeriod;
    ASSERT_GE(fired_at[k], due) << "period " << k;
    ASSERT_LT(fired_at[k] - due, kTick) << "period " << k;
  }
  EXPECT_EQ(wheel.size(), 1u);
}

TEST(TimerWheelPhaseTest, StallFiresOnceAndTheNextFiringIsBackOnPhase) {
  constexpr std::uint64_t kTick = 1'000;
  constexpr std::uint64_t kPeriod = 10'000;
  TimerWheel wheel(kTick, 64);
  std::uint64_t now = 0;
  std::vector<std::uint64_t> fired_at;
  std::function<void()> on_period = [&] {
    fired_at.push_back(now);
    wheel.schedule(now + kPeriod, on_period, kPeriod);
  };
  wheel.schedule(now + kPeriod, on_period, kPeriod);
  auto run_to = [&](std::uint64_t until) {
    while (now < until) {
      now += kTick;
      wheel.advance(now);
    }
  };
  run_to(3 * kPeriod);
  ASSERT_EQ(fired_at.size(), 3u);
  // The loop stalls from 3T to 5.5T: the periods due at 4T and 5T were
  // skipped; one firing catches up, not two back to back.
  now = 3 * kPeriod + 5 * kPeriod / 2;
  wheel.advance(now);
  ASSERT_EQ(fired_at.size(), 4u);
  EXPECT_EQ(fired_at.back(), now);
  run_to(6 * kPeriod - kTick);
  EXPECT_EQ(fired_at.size(), 4u);
  run_to(6 * kPeriod);
  ASSERT_EQ(fired_at.size(), 5u);
  EXPECT_EQ(fired_at.back(), 6 * kPeriod);
}

TEST(TimerWheelPhaseTest, OtherDelaysAndTimersSetOutsideCallbacksCountFromNow) {
  constexpr std::uint64_t kTick = 1'000;
  constexpr std::uint64_t kPeriod = 10'000;
  TimerWheel wheel(kTick, 64);
  std::uint64_t now = 0;
  bool other_fired = false;
  wheel.schedule(now + kPeriod, [&] {
    // Fires 700 us late; a different delay counts from now, not from the
    // firing timer's due time.
    wheel.schedule(now + kPeriod / 2, [&] { other_fired = true; },
                   kPeriod / 2);
  }, kPeriod);
  now = kPeriod + 700;
  wheel.advance(now);
  now = 15'000;
  wheel.advance(now);
  EXPECT_FALSE(other_fired);  // due at 15,700, not 15,000
  now = 16'000;
  wheel.advance(now);
  EXPECT_TRUE(other_fired);

  // Outside any callback, the same delay as the timer that fired above
  // still counts from now.
  bool outside_fired = false;
  now = 20'300;
  wheel.advance(now);
  wheel.schedule(now + kPeriod, [&] { outside_fired = true; }, kPeriod);
  now = 30'000;
  wheel.advance(now);
  EXPECT_FALSE(outside_fired);  // due at 30,300
  now = 31'000;
  wheel.advance(now);
  EXPECT_TRUE(outside_fired);
}

// --------------------------------------------------------- buffer arena

TEST(BufferArenaTest, RecyclesInsteadOfReallocating) {
  BufferArena arena(1024);
  auto a = arena.acquire();
  auto b = arena.acquire();
  EXPECT_EQ(arena.allocated(), 2u);
  a.push_back(7);
  arena.release(std::move(a));
  arena.release(std::move(b));
  EXPECT_EQ(arena.pooled(), 2u);
  auto c = arena.acquire();
  EXPECT_TRUE(c.empty());  // recycled buffers come back cleared
  EXPECT_GE(c.capacity(), 1024u);
  EXPECT_EQ(arena.allocated(), 2u);  // no new allocation
}

// ------------------------------------------------------- batch container

TEST(BatchFrameTest, RoundTripsMultipleFrames) {
  const std::vector<std::uint8_t> f1 = one_way("a").view().encode();
  const std::vector<std::uint8_t> f2 = one_way("bb", {9, 9}).view().encode();
  std::vector<std::uint8_t> batch;
  net::begin_batch(batch);
  net::append_batch_frame(batch, f1);
  net::append_batch_frame(batch, f2);
  ASSERT_TRUE(net::is_batch_datagram(batch));
  // A single raw frame must never look like a batch (its first byte is a
  // MessageKind, far from the 0xB7 magic).
  EXPECT_FALSE(net::is_batch_datagram(f1));

  std::vector<std::vector<std::uint8_t>> frames;
  const auto error = net::split_batch(
      batch, [&](std::span<const std::uint8_t> frame) {
        frames.emplace_back(frame.begin(), frame.end());
      });
  EXPECT_FALSE(error.has_value());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], f1);
  EXPECT_EQ(frames[1], f2);
}

TEST(BatchFrameTest, TruncatedTailReportsErrorButKeepsEarlierFrames) {
  const std::vector<std::uint8_t> f1 = one_way("ok").view().encode();
  const std::vector<std::uint8_t> f2 = one_way("cut").view().encode();
  std::vector<std::uint8_t> batch;
  net::begin_batch(batch);
  net::append_batch_frame(batch, f1);
  net::append_batch_frame(batch, f2);
  batch.resize(batch.size() - 3);  // chop into the last frame
  int delivered = 0;
  const auto error = net::split_batch(
      batch, [&](std::span<const std::uint8_t>) { ++delivered; });
  EXPECT_EQ(delivered, 1);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, net::DecodeErrorCode::kTruncated);
}

// ------------------------------------------------------ inline reactor

TEST(NetioNetworkTest, BindsDistinctLoopbackPorts) {
  NetioNetwork network;
  auto& a = network.add_node();
  auto& b = network.add_node();
  EXPECT_NE(a.local(), b.local());
  EXPECT_EQ(net::endpoint_ipv4(a.local()), 0x7F000001u);
  EXPECT_NE(net::endpoint_port(a.local()), 0u);
}

TEST(NetioNetworkTest, TimersFireRoughlyOnTime) {
  NetioNetwork network;
  auto& a = network.add_node();
  bool fired = false;
  std::uint64_t at = 0;
  const std::uint64_t start = network.now_us();
  a.set_timer(50'000, [&] {
    fired = true;
    at = network.now_us();
  });
  network.run_while([&] { return !fired; }, 2'000'000);
  ASSERT_TRUE(fired);
  EXPECT_GE(at - start, 49'000u);
  EXPECT_LE(at - start, 500'000u);  // generous: CI machines stall
}

TEST(NetioNetworkTest, CancelledTimerDoesNotFire) {
  NetioNetwork network;
  auto& a = network.add_node();
  bool fired = false;
  const auto id = a.set_timer(30'000, [&] { fired = true; });
  a.cancel_timer(id);
  network.run_for(80'000);
  EXPECT_FALSE(fired);
}

TEST(NetioNetworkTest, RpcTimeoutAgainstClosedPort) {
  NetioNetwork network;
  auto& ta = network.add_node();
  auto& dead = network.add_node();
  const net::Endpoint dead_ep = dead.local();
  network.remove_node(dead_ep);  // port closed; datagrams vanish (ICMP aside)

  net::RpcManager client(ta);
  net::RpcOptions options;
  options.timeout_us = 50'000;
  options.attempts = 2;
  net::RpcStatus status = net::RpcStatus::kOk;
  bool done = false;
  client.call(dead_ep, "ping", net::Writer{},
              [&](net::RpcStatus s, net::Reader&) {
                status = s;
                done = true;
              },
              options);
  network.run_while([&] { return !done; }, 3'000'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(status, net::RpcStatus::kTimeout);
}

TEST(NetioNetworkTest, CoalescesAWaveIntoFewerDatagrams) {
  NetioNetwork network;
  auto& a = network.add_node();
  auto& b = network.add_node();
  int received = 0;
  b.set_receive_handler([&](net::Endpoint, const net::Message&) {
    ++received;
  });
  constexpr int kWave = 10;
  // All sends happen before the next poll, like a DAT node emitting its
  // child updates in one epoch timer: the coalescer packs them into one
  // batch datagram for the shared destination.
  for (int i = 0; i < kWave; ++i) a.send(b.local(), one_way("update"));
  ASSERT_TRUE(
      network.run_while([&] { return received < kWave; }, 2'000'000));
  EXPECT_EQ(received, kWave);
  const ReactorCounters counters = network.reactor().counters();
  EXPECT_EQ(counters.frames_out, static_cast<std::uint64_t>(kWave));
  EXPECT_LT(counters.datagrams_out, static_cast<std::uint64_t>(kWave));
  EXPECT_GE(counters.coalesced_datagrams_out, 1u);
  EXPECT_EQ(counters.batch_datagrams_in, counters.coalesced_datagrams_out);
}

TEST(NetioNetworkTest, CoalescerFillsADatagramToTheByte) {
  // The seal check sizes the batch container with varint frame lengths:
  // 2 header bytes, then 1 + 100, 2 + 200 and 2 + 205 bytes of prefixed
  // frames make exactly 512. One byte more must seal the datagram first.
  // Every datagram fits the 512-byte receive buffer, so none truncates.
  for (const std::size_t extra : {0u, 1u}) {
    ReactorOptions options;
    options.max_datagram = 512;
    NetioNetwork network(options);
    auto& a = network.add_node();
    auto& b = network.add_node();
    int received = 0;
    b.set_receive_handler(
        [&](net::Endpoint, const net::Message&) { ++received; });
    const std::size_t frames[] = {100, 200, 205 + extra};
    for (const std::size_t size : frames) {
      const auto msg =
          one_way("fill", std::vector<std::uint8_t>(size - 3, 0x5a));
      ASSERT_EQ(msg.view().encode().size(), size);
      a.send(b.local(), msg);
    }
    ASSERT_TRUE(network.run_while([&] { return received < 3; }, 2'000'000));
    const ReactorCounters counters = network.reactor().counters();
    EXPECT_EQ(counters.frames_out, 3u);
    EXPECT_EQ(counters.datagrams_out, extra == 0 ? 1u : 2u) << extra;
    EXPECT_EQ(counters.coalesced_datagrams_out, 1u);
    EXPECT_EQ(counters.truncated_in, 0u);
    EXPECT_EQ(b.counters().truncated_datagrams, 0u);
    EXPECT_EQ(b.counters().decode_errors, 0u);
  }
}

TEST(NetioNetworkTest, RpcRoundTripOverReactor) {
  NetioNetwork network;
  auto& ta = network.add_node();
  auto& tb = network.add_node();
  net::RpcManager client(ta);
  net::RpcManager server(tb);
  server.register_method(
      "add", [](net::Endpoint, net::Reader& req, net::Writer& reply) {
        reply.u64(req.u64() + req.u64());
      });
  std::uint64_t result = 0;
  net::Writer body;
  body.u64(20);
  body.u64(22);
  client.call(tb.local(), "add", body,
              [&](net::RpcStatus s, net::Reader& r) {
                ASSERT_EQ(s, net::RpcStatus::kOk);
                result = r.u64();
              });
  ASSERT_TRUE(network.run_while([&] { return result == 0; }, 2'000'000));
  EXPECT_EQ(result, 42u);
}

TEST(NetioNetworkTest, KernelTruncationIsCountedAndDropped) {
  ReactorOptions options;
  options.max_datagram = 512;  // shrink so a legal UDP payload truncates
  NetioNetwork network(options);
  auto& a = network.add_node();
  auto& b = network.add_node();
  int received = 0;
  net::MethodId last = 0;
  b.set_receive_handler([&](net::Endpoint, const net::Message& m) {
    ++received;
    last = m.method;
  });
  a.send(b.local(), one_way("big", std::vector<std::uint8_t>(2'000)));
  a.send(b.local(), one_way("small"));
  ASSERT_TRUE(network.run_while([&] { return last != net::method_id("small"); }, 2'000'000));
  EXPECT_EQ(received, 1);  // the oversized datagram was dropped, not decoded
  EXPECT_EQ(b.counters().truncated_datagrams, 1u);
  EXPECT_EQ(b.counters().decode_errors, 0u);
  EXPECT_EQ(network.reactor().counters().truncated_in, 1u);
}

TEST(NetioNetworkTest, MmsgKnobFallsBackCleanly) {
  // Whatever the platform compiled in, the portable path must deliver.
  ReactorOptions options;
  options.batch_syscalls = false;
  NetioNetwork network(options);
  auto& a = network.add_node();
  auto& b = network.add_node();
  int received = 0;
  b.set_receive_handler(
      [&](net::Endpoint, const net::Message&) { ++received; });
  for (int i = 0; i < 4; ++i) a.send(b.local(), one_way("plain"));
  ASSERT_TRUE(network.run_while([&] { return received < 4; }, 2'000'000));
  const ReactorCounters counters = network.reactor().counters();
  EXPECT_GE(counters.coalesced_datagrams_out, 1u);  // coalescing still on
}

// ----------------------------------------------------- threaded shards

TEST(ReactorPoolTest, RpcAcrossShardsWithThreadsRunning) {
  ReactorPoolOptions options;
  options.shards = 2;
  ReactorPool pool(options);
  // Round-robin assignment: consecutive nodes land on different shards.
  auto& ta = pool.add_node();
  auto& tb = pool.add_node();
  net::RpcManager client(ta);
  net::RpcManager server(tb);
  server.register_method(
      "echo", [](net::Endpoint, net::Reader& req, net::Writer& reply) {
        reply.u64(req.u64());
      });
  pool.start();
  std::atomic<std::uint64_t> result{0};
  // RpcManager is shard-confined: initiate the call on the client's shard.
  pool.shard_of(ta.local())->post([&] {
    net::Writer body;
    body.u64(777);
    client.call(tb.local(), "echo", body,
                [&](net::RpcStatus s, net::Reader& r) {
                  result.store(s == net::RpcStatus::kOk ? r.u64() : 1,
                               std::memory_order_release);
                });
  });
  for (int i = 0; i < 400 && result.load(std::memory_order_acquire) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pool.stop();
  EXPECT_EQ(result.load(), 777u);
  const ReactorCounters total = pool.counters();
  EXPECT_GE(total.frames_in, 2u);  // request on one shard, reply on the other
}

TEST(ReactorPoolTest, CrossShardTimersScheduleAndCancelSafely) {
  ReactorPoolOptions options;
  options.shards = 2;
  options.reactor.timer_tick_us = 500;
  ReactorPool pool(options);
  pool.start();
  std::atomic<int> fired{0};
  std::atomic<int> cancelled_fired{0};
  // Hammer both shards' wheels from two foreign threads while the shard
  // threads advance them: every scheduled timer fires exactly once and no
  // cancelled timer fires at all (TSan vets the locking).
  constexpr int kPerThread = 50;
  auto hammer = [&](std::size_t shard_index) {
    Reactor& shard = pool.shard(shard_index);
    for (int i = 0; i < kPerThread; ++i) {
      shard.set_timer(1'000 + static_cast<std::uint64_t>(i) * 200,
                      [&] { fired.fetch_add(1); });
      const net::TimerId doomed = shard.set_timer(
          2'000'000'000, [&] { cancelled_fired.fetch_add(1); });
      shard.cancel_timer(doomed);
    }
  };
  std::thread h0(hammer, 0);
  std::thread h1(hammer, 1);
  h0.join();
  h1.join();
  for (int i = 0; i < 400 && fired.load() < 2 * kPerThread; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pool.stop();
  EXPECT_EQ(fired.load(), 2 * kPerThread);
  EXPECT_EQ(cancelled_fired.load(), 0);
}

TEST(ReactorPoolTest, CrossShardTimerCountsFromNow) {
  ReactorPoolOptions options;
  options.shards = 2;
  options.reactor.timer_tick_us = 500;
  ReactorPool pool(options);
  NetioTransport& a = pool.add_node();  // shard 0
  NetioTransport& b = pool.add_node();  // shard 1
  ASSERT_NE(pool.shard_of(a.local()), pool.shard_of(b.local()));
  pool.start();
  // A late timer callback on shard 0 arms shard 1's wheel with its own
  // delay. Shard 1 has no firing timer to keep in phase with, so the new
  // timer counts from now: anchored to the firing timer's due time it would
  // fire about kLate early.
  constexpr std::uint64_t kDelay = 40'000;
  constexpr std::uint64_t kLate = 25'000;
  std::atomic<std::uint64_t> set_at{0};
  std::atomic<std::uint64_t> fired_at{0};
  a.set_timer(kDelay, [&] {
    std::this_thread::sleep_for(std::chrono::microseconds(kLate));
    set_at.store(pool.now_us());
    b.set_timer(kDelay, [&] { fired_at.store(pool.now_us()); });
  });
  for (int i = 0; i < 400 && fired_at.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pool.stop();
  ASSERT_NE(fired_at.load(), 0u);
  EXPECT_GE(fired_at.load() - set_at.load(), kDelay);
}

TEST(ReactorPoolTest, RemoveNodeWhileShardsRun) {
  ReactorPoolOptions options;
  options.shards = 2;
  ReactorPool pool(options);
  auto& a = pool.add_node();
  auto& b = pool.add_node();
  const net::Endpoint b_ep = b.local();
  pool.start();
  pool.shard_of(a.local())->post([&] {
    for (int i = 0; i < 8; ++i) a.send(b_ep, one_way("swansong"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.remove_node(b_ep);  // marshalled onto b's shard thread
  EXPECT_EQ(pool.shard_of(b_ep), nullptr);
  pool.stop();
}

TEST(ReactorTest, MmsgCompileStateIsReported) {
  // Smoke-check the configure-time detection is wired through; on Linux CI
  // this is true, and the portable fallback is covered above either way.
  (void)mmsg_compiled();
}

}  // namespace
