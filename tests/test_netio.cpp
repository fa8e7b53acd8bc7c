// The netio subsystem itself: timer wheel, buffer arena, batch frame
// container, the inline NetioNetwork host (binding, timers, coalesced
// send/decode, RPC, kernel truncation) and the threaded multi-shard pool (the TSan preset runs this file to vet the
// cross-shard timer and task paths).

#include "netio/reactor.hpp"

#include <gtest/gtest.h>

#include <atomic>
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

net::Message one_way(std::string method, std::vector<std::uint8_t> body = {}) {
  net::Message msg;
  msg.method = std::move(method);
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
  const std::vector<std::uint8_t> f1 = one_way("a").encode();
  const std::vector<std::uint8_t> f2 = one_way("bb", {9, 9}).encode();
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
  const std::vector<std::uint8_t> f1 = one_way("ok").encode();
  const std::vector<std::uint8_t> f2 = one_way("cut").encode();
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
  std::string last;
  b.set_receive_handler([&](net::Endpoint, const net::Message& m) {
    ++received;
    last = m.method;
  });
  a.send(b.local(), one_way("big", std::vector<std::uint8_t>(2'000)));
  a.send(b.local(), one_way("small"));
  ASSERT_TRUE(network.run_while([&] { return last != "small"; }, 2'000'000));
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
