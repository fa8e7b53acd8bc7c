#include "net/sim_transport.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace {

using namespace dat;
using namespace dat::net;

OwnedMessage make_msg(std::string_view method) {
  OwnedMessage m;
  m.method = method_id(method);
  m.kind = MessageKind::kOneWay;
  return m;
}

class SimTransportTest : public ::testing::Test {
 protected:
  SimTransportTest() : engine_(1), network_(engine_) {}
  sim::Engine engine_;
  SimNetwork network_;
};

TEST_F(SimTransportTest, EndpointsAreDenseAndNonNull) {
  auto& a = network_.add_node();
  auto& b = network_.add_node();
  EXPECT_NE(a.local(), kNullEndpoint);
  EXPECT_NE(b.local(), kNullEndpoint);
  EXPECT_NE(a.local(), b.local());
  EXPECT_TRUE(network_.exists(a.local()));
}

TEST_F(SimTransportTest, DeliversWithLatency) {
  auto& a = network_.add_node();
  auto& b = network_.add_node();
  MethodId received = 0;
  sim::SimTime arrival = 0;
  b.set_receive_handler([&](Endpoint from, const Message& m) {
    EXPECT_EQ(from, a.local());
    received = m.method;
    arrival = engine_.now();
  });
  a.send(b.local(), make_msg("hi"));
  EXPECT_EQ(received, 0u);  // not synchronous
  engine_.run();
  EXPECT_EQ(received, method_id("hi"));
  EXPECT_GT(arrival, 0u);  // latency applied
}

TEST_F(SimTransportTest, CountersTrackTraffic) {
  auto& a = network_.add_node();
  auto& b = network_.add_node();
  b.set_receive_handler([](Endpoint, const Message&) {});
  OwnedMessage m = make_msg("x");
  m.body = {1, 2, 3};
  a.send(b.local(), m);
  a.send(b.local(), m);
  engine_.run();
  EXPECT_EQ(a.counters().messages_sent, 2u);
  EXPECT_EQ(a.counters().bytes_sent, 6u);
  EXPECT_EQ(b.counters().messages_received, 2u);
  EXPECT_EQ(b.counters().bytes_received, 6u);
  a.reset_counters();
  EXPECT_EQ(a.counters().messages_sent, 0u);
}

TEST_F(SimTransportTest, MessageToDeadNodeIsDropped) {
  auto& a = network_.add_node();
  auto& b = network_.add_node();
  const Endpoint dead = b.local();
  network_.remove_node(dead);
  a.send(dead, make_msg("x"));
  engine_.run();
  EXPECT_EQ(network_.dropped(), 1u);
  EXPECT_EQ(network_.delivered(), 0u);
}

TEST_F(SimTransportTest, PartitionBlocksBothDirections) {
  auto& a = network_.add_node();
  auto& b = network_.add_node();
  int received = 0;
  a.set_receive_handler([&](Endpoint, const Message&) { ++received; });
  b.set_receive_handler([&](Endpoint, const Message&) { ++received; });

  network_.set_partitioned(b.local(), true);
  a.send(b.local(), make_msg("to-b"));
  b.send(a.local(), make_msg("to-a"));
  engine_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network_.dropped(), 2u);

  network_.set_partitioned(b.local(), false);
  a.send(b.local(), make_msg("again"));
  engine_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(SimTransportTest, LossRateDropsApproximately) {
  auto& a = network_.add_node();
  auto& b = network_.add_node();
  int received = 0;
  b.set_receive_handler([&](Endpoint, const Message&) { ++received; });
  network_.set_loss_rate(0.5);
  for (int i = 0; i < 1000; ++i) a.send(b.local(), make_msg("x"));
  engine_.run();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  EXPECT_THROW(network_.set_loss_rate(1.0), std::invalid_argument);
  EXPECT_THROW(network_.set_loss_rate(-0.1), std::invalid_argument);
}

TEST_F(SimTransportTest, LatencyMultiplierScalesDelivery) {
  auto& a = network_.add_node();
  auto& b = network_.add_node();
  sim::SimTime arrival = 0;
  b.set_receive_handler(
      [&](Endpoint, const Message&) { arrival = engine_.now(); });

  a.send(b.local(), make_msg("base"));
  engine_.run();
  const sim::SimTime base = arrival;
  ASSERT_GT(base, 0u);

  network_.set_latency_multiplier(10.0);
  EXPECT_EQ(network_.latency_multiplier(), 10.0);
  const sim::SimTime sent_at = engine_.now();
  a.send(b.local(), make_msg("slow"));
  engine_.run();
  // The sampled delay varies, but a 10x multiplier dominates the sampling
  // noise of the default LAN model.
  EXPECT_GT(arrival - sent_at, 2 * base);

  EXPECT_THROW(network_.set_latency_multiplier(-1.0), std::invalid_argument);
}

TEST_F(SimTransportTest, LatencyBurstExpires) {
  network_.add_node();
  auto& b = network_.add_node();
  b.set_receive_handler([](Endpoint, const Message&) {});
  network_.latency_burst(8.0, 1000);
  EXPECT_EQ(network_.latency_multiplier(), 8.0);
  engine_.run();  // the reset event is queued at +1000us
  EXPECT_EQ(network_.latency_multiplier(), 1.0);
}

TEST_F(SimTransportTest, LossBurstRestoresPreviousRate) {
  network_.set_loss_rate(0.05);
  network_.loss_burst(0.5, 2000);
  EXPECT_EQ(network_.loss_rate(), 0.5);
  engine_.run();
  EXPECT_EQ(network_.loss_rate(), 0.05);
}

TEST_F(SimTransportTest, TimersFireAndCancel) {
  auto& a = network_.add_node();
  bool fired = false;
  bool cancelled_fired = false;
  a.set_timer(100, [&] { fired = true; });
  const auto id = a.set_timer(100, [&] { cancelled_fired = true; });
  a.cancel_timer(id);
  engine_.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(cancelled_fired);
}

TEST_F(SimTransportTest, NowTracksEngine) {
  auto& a = network_.add_node();
  EXPECT_EQ(a.now_us(), 0u);
  engine_.schedule_after(500, [] {});
  engine_.run();
  EXPECT_EQ(a.now_us(), 500u);
}

TEST_F(SimTransportTest, NullHandlerDropsSilently) {
  auto& a = network_.add_node();
  auto& b = network_.add_node();
  a.send(b.local(), make_msg("x"));  // b has no handler
  EXPECT_NO_THROW(engine_.run());
  EXPECT_EQ(network_.delivered(), 1u);
}

}  // namespace
