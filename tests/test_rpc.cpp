#include "net/rpc.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "net/sim_transport.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dat;
using namespace dat::net;

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : engine_(7),
        network_(engine_),
        client_transport_(network_.add_node()),
        server_transport_(network_.add_node()),
        client_(client_transport_),
        server_(server_transport_) {}

  sim::Engine engine_;
  SimNetwork network_;
  SimTransport& client_transport_;
  SimTransport& server_transport_;
  RpcManager client_;
  RpcManager server_;
};

TEST_F(RpcTest, RequestResponseRoundTrip) {
  server_.register_method("echo", [](Endpoint, Reader& req, Writer& reply) {
    reply.u64(req.u64() * 2);
  });
  std::uint64_t result = 0;
  Writer body;
  body.u64(21);
  client_.call(server_transport_.local(), "echo", body,
               [&](RpcStatus status, Reader& r) {
                 ASSERT_EQ(status, RpcStatus::kOk);
                 result = r.u64();
               });
  engine_.run();
  EXPECT_EQ(result, 42u);
  EXPECT_EQ(client_.pending(), 0u);
  EXPECT_EQ(server_.served_counts().at("echo"), 1u);
}

TEST_F(RpcTest, UnknownMethodYieldsRemoteError) {
  RpcStatus status = RpcStatus::kOk;
  std::string error;
  client_.call(server_transport_.local(), "nope", Writer{},
               [&](RpcStatus s, Reader& r) {
                 status = s;
                 if (s == RpcStatus::kRemoteError) error = r.str();
               });
  engine_.run();
  EXPECT_EQ(status, RpcStatus::kRemoteError);
  EXPECT_NE(error.find("unknown method"), std::string::npos);
}

TEST_F(RpcTest, MethodIdCollisionIsRejectedAtRegistration) {
  // "mju" and "mps" fold to the same 16-bit id: a second name may not take
  // an id, whichever handler slot it asks for. Re-registering a name is fine.
  static_assert(method_id("mju") == method_id("mps"));
  server_.register_method("mju", [](Endpoint, Reader&, Writer&) {});
  EXPECT_THROW(
      server_.register_method("mps", [](Endpoint, Reader&, Writer&) {}),
      std::invalid_argument);
  EXPECT_THROW(server_.register_one_way("mps", [](Endpoint, Reader&) {}),
               std::invalid_argument);
  EXPECT_NO_THROW(server_.register_one_way("mju", [](Endpoint, Reader&) {}));
}

TEST(MethodIdTest, EveryProtocolMethodHasItsOwnId) {
  // Nodes register different subsets of these; ids are derived from the
  // names, so any two that collide would cross wires on a mixed fleet.
  const char* const names[] = {
      "chord.lookup_step", "chord.get_neighbors", "chord.notify",
      "chord.ping",        "chord.split_interval", "chord.leaving",
      "chord.route",       "chord.bcast",          "chord.rfind",
      "chord.rfind_done",  "dat.update",           "dat.get_global",
      "dat.get_history",   "dat.snap_req",         "dat.snap_resp",
      "dat.collect_start", "dat.collect_req",      "dat.handoff",
      "dat.retract",       "maan.store",           "maan.remove",
      "maan.lookup",       "maan.sweep",           "maan.sweep_result",
      "datd.status",       "datd.metrics",         "datd.fleet",
      "datd.leave",        "datd.rebalance"};
  std::set<MethodId> ids;
  for (const char* name : names) {
    EXPECT_TRUE(ids.insert(method_id(name)).second) << name;
  }
}

TEST_F(RpcTest, ThrowingHandlerYieldsRemoteError) {
  server_.register_method("boom", [](Endpoint, Reader&, Writer&) {
    throw std::runtime_error("kaput");
  });
  RpcStatus status = RpcStatus::kOk;
  std::string error;
  client_.call(server_transport_.local(), "boom", Writer{},
               [&](RpcStatus s, Reader& r) {
                 status = s;
                 if (s == RpcStatus::kRemoteError) error = r.str();
               });
  engine_.run();
  EXPECT_EQ(status, RpcStatus::kRemoteError);
  EXPECT_EQ(error, "kaput");
}

TEST_F(RpcTest, TimeoutAfterAllAttempts) {
  RpcStatus status = RpcStatus::kOk;
  RpcOptions options;
  options.timeout_us = 1000;
  options.attempts = 3;
  // Nothing is listening on a fresh (handler-less) endpoint beyond decode —
  // use a partitioned destination to guarantee silence.
  network_.set_partitioned(server_transport_.local(), true);
  client_.call(server_transport_.local(), "echo", Writer{},
               [&](RpcStatus s, Reader&) { status = s; }, options);
  engine_.run();
  EXPECT_EQ(status, RpcStatus::kTimeout);
  // 3 attempts were sent.
  EXPECT_EQ(client_transport_.counters().messages_sent, 3u);
  EXPECT_EQ(client_.pending(), 0u);
}

TEST_F(RpcTest, RetrySucceedsAfterLoss) {
  server_.register_method("ping", [](Endpoint, Reader&, Writer& reply) {
    reply.u8(1);
  });
  // 60% loss: with 8 attempts the call almost surely lands.
  network_.set_loss_rate(0.6);
  RpcOptions options;
  options.timeout_us = 2000;
  options.attempts = 8;
  int ok = 0;
  int calls = 20;
  for (int i = 0; i < calls; ++i) {
    client_.call(server_transport_.local(), "ping", Writer{},
                 [&](RpcStatus s, Reader&) {
                   if (s == RpcStatus::kOk) ++ok;
                 },
                 options);
  }
  engine_.run();
  EXPECT_GT(ok, calls / 2);
}

TEST_F(RpcTest, ResponsesMatchTheirRequests) {
  server_.register_method("id", [](Endpoint, Reader& req, Writer& reply) {
    reply.u64(req.u64());
  });
  std::vector<std::uint64_t> results(10, 0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    Writer body;
    body.u64(i + 100);
    client_.call(server_transport_.local(), "id", body,
                 [&results, i](RpcStatus s, Reader& r) {
                   ASSERT_EQ(s, RpcStatus::kOk);
                   results[i] = r.u64();
                 });
  }
  engine_.run();
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(results[i], i + 100);
}

TEST_F(RpcTest, OneWayDelivery) {
  std::uint64_t got = 0;
  server_.register_one_way("notify", [&](Endpoint from, Reader& msg) {
    EXPECT_EQ(from, client_transport_.local());
    got = msg.u64();
  });
  Writer body;
  body.u64(7);
  client_.send_one_way(server_transport_.local(), "notify", body);
  engine_.run();
  EXPECT_EQ(got, 7u);
}

TEST_F(RpcTest, UnknownOneWayIsIgnored) {
  Writer body;
  client_.send_one_way(server_transport_.local(), "ghost", body);
  EXPECT_NO_THROW(engine_.run());
}

TEST_F(RpcTest, ThrowingOneWayHandlerIsContained) {
  server_.register_one_way("bad", [](Endpoint, Reader&) {
    throw std::runtime_error("one-way boom");
  });
  client_.send_one_way(server_transport_.local(), "bad", Writer{});
  EXPECT_NO_THROW(engine_.run());
}

TEST_F(RpcTest, ReentrantCallFromHandler) {
  server_.register_method("first", [](Endpoint, Reader&, Writer& reply) {
    reply.u8(1);
  });
  server_.register_method("second", [](Endpoint, Reader&, Writer& reply) {
    reply.u8(2);
  });
  int phase = 0;
  client_.call(server_transport_.local(), "first", Writer{},
               [&](RpcStatus s, Reader&) {
                 ASSERT_EQ(s, RpcStatus::kOk);
                 phase = 1;
                 client_.call(server_transport_.local(), "second", Writer{},
                              [&](RpcStatus s2, Reader&) {
                                ASSERT_EQ(s2, RpcStatus::kOk);
                                phase = 2;
                              });
               });
  engine_.run();
  EXPECT_EQ(phase, 2);
}

TEST_F(RpcTest, MalformedResponseBodySurfacesAsCodecError) {
  server_.register_method("short", [](Endpoint, Reader&, Writer& reply) {
    reply.u8(1);  // client will try to read u64
  });
  bool threw = false;
  client_.call(server_transport_.local(), "short", Writer{},
               [&](RpcStatus s, Reader& r) {
                 ASSERT_EQ(s, RpcStatus::kOk);
                 try {
                   (void)r.u64();
                 } catch (const CodecError&) {
                   threw = true;
                 }
               });
  engine_.run();
  EXPECT_TRUE(threw);
}

TEST_F(RpcTest, AttemptTimeoutGrowsWithMultiplier) {
  RpcOptions options;
  options.timeout_us = 1000;
  options.attempts = 3;
  options.timeout_multiplier = 2.0;
  EXPECT_EQ(options.attempt_timeout_us(0), 1000u);
  EXPECT_EQ(options.attempt_timeout_us(1), 2000u);
  EXPECT_EQ(options.attempt_timeout_us(2), 4000u);
  // Fixed policy keeps every attempt at the base timeout.
  const RpcOptions fixed = options.fixed(3);
  EXPECT_EQ(fixed.attempt_timeout_us(2), 1000u);
  EXPECT_EQ(fixed.backoff_base_us, 0u);
}

TEST_F(RpcTest, StatsCountOutcomes) {
  server_.register_method("ping", [](Endpoint, Reader&, Writer& reply) {
    reply.u8(1);
  });
  client_.call(server_transport_.local(), "ping", Writer{},
               [](RpcStatus, Reader&) {});
  engine_.run();
  EXPECT_EQ(client_.stats().calls, 1u);
  EXPECT_EQ(client_.stats().attempts, 1u);
  EXPECT_EQ(client_.stats().ok, 1u);
  EXPECT_EQ(client_.stats().timeouts, 0u);

  client_.reset_stats();
  network_.set_partitioned(server_transport_.local(), true);
  RpcOptions options;
  options.timeout_us = 1000;
  options.attempts = 3;
  client_.call(server_transport_.local(), "ping", Writer{},
               [](RpcStatus, Reader&) {}, options);
  engine_.run();
  EXPECT_EQ(client_.stats().calls, 1u);
  EXPECT_EQ(client_.stats().attempts, 3u);
  EXPECT_EQ(client_.stats().retransmits, 2u);
  EXPECT_EQ(client_.stats().timeouts, 1u);
  EXPECT_EQ(client_.stats().ok, 0u);
}

TEST_F(RpcTest, AdaptiveBackoffDelaysRetries) {
  // With nobody answering, the adaptive policy still sends every attempt
  // but spaces them out: total elapsed time exceeds the sum of the
  // (growing) per-attempt timeouts by the waited backoff.
  network_.set_partitioned(server_transport_.local(), true);
  const RpcOptions options = RpcOptions::adaptive(1000, 4);
  RpcStatus status = RpcStatus::kOk;
  client_.call(server_transport_.local(), "ping", Writer{},
               [&](RpcStatus s, Reader&) { status = s; }, options);
  engine_.run();
  EXPECT_EQ(status, RpcStatus::kTimeout);
  EXPECT_EQ(client_transport_.counters().messages_sent, 4u);
  EXPECT_GT(client_.stats().backoff_wait_us, 0u);
  std::uint64_t timeout_sum = 0;
  for (unsigned a = 0; a < 4; ++a) timeout_sum += options.attempt_timeout_us(a);
  EXPECT_GE(engine_.now(), timeout_sum + client_.stats().backoff_wait_us);
  EXPECT_LE(engine_.now(), options.max_total_us());
}

TEST_F(RpcTest, AdaptiveRetryVolumeBoundedUnderLoss) {
  // 20% loss: the adaptive policy must not retransmit more than the fixed
  // baseline for the same budget (its growing timeouts absorb slow replies
  // that fixed timers would spuriously re-send). Deterministic: one seed.
  server_.register_method("ping", [](Endpoint, Reader&, Writer& reply) {
    reply.u8(1);
  });
  network_.set_loss_rate(0.20);
  const auto run_batch = [&](const RpcOptions& options) {
    client_.reset_stats();
    int done = 0;
    for (int i = 0; i < 50; ++i) {
      client_.call(server_transport_.local(), "ping", Writer{},
                   [&](RpcStatus, Reader&) { ++done; }, options);
    }
    engine_.run();
    EXPECT_EQ(done, 50);
    return client_.stats();
  };
  RpcOptions fixed;
  fixed.timeout_us = 2000;
  fixed.attempts = 6;
  const RpcStats fixed_stats = run_batch(fixed);
  const RpcStats adaptive_stats = run_batch(RpcOptions::adaptive(2000, 6));
  EXPECT_EQ(adaptive_stats.calls, 50u);
  EXPECT_LE(adaptive_stats.retransmits, fixed_stats.retransmits);
  EXPECT_GT(adaptive_stats.ok, 45u);
  EXPECT_EQ(fixed_stats.backoff_wait_us, 0u);
}

TEST_F(RpcTest, StatusToString) {
  EXPECT_STREQ(to_string(RpcStatus::kOk), "ok");
  EXPECT_STREQ(to_string(RpcStatus::kTimeout), "timeout");
  EXPECT_STREQ(to_string(RpcStatus::kRemoteError), "remote-error");
}

TEST_F(RpcTest, LateResponseAfterTimeoutIsIgnored) {
  // The server answers after the client has already given up; the stale
  // response must not crash or fire the handler twice.
  server_.register_method("slow", [](Endpoint, Reader&, Writer& reply) {
    reply.u8(1);
  });
  // Use a latency larger than the full retry budget by partitioning until
  // the deadline passes, then healing.
  network_.set_partitioned(server_transport_.local(), true);
  int fired = 0;
  RpcOptions options;
  options.timeout_us = 500;
  options.attempts = 1;
  client_.call(server_transport_.local(), "slow", Writer{},
               [&](RpcStatus s, Reader&) {
                 ++fired;
                 EXPECT_EQ(s, RpcStatus::kTimeout);
               },
               options);
  engine_.run();
  network_.set_partitioned(server_transport_.local(), false);
  engine_.run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
