// One behavioural contract, two transports. The simulator and the netio
// epoll reactor (in both its batched and portable syscall modes) must agree
// on delivery, oversized-datagram handling, dead-endpoint behaviour, timer
// ordering and remove-while-pending safety, so the protocol stack above
// behaves the same in simulation and over real sockets.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/rpc.hpp"
#include "net/sim_transport.hpp"
#include "netio/netio_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dat;
using namespace dat::net;

/// Backend-neutral driver: create/destroy nodes and pump the fabric until a
/// condition holds. Simulated fabrics pump virtual time; socket fabrics pump
/// wall clock.
class Fabric {
 public:
  virtual ~Fabric() = default;
  virtual Transport& add_node() = 0;
  virtual void remove_node(Endpoint ep) = 0;
  /// Pumps until `done()` returns true or the (virtual or wall) budget runs
  /// out; true if the condition was met.
  virtual bool pump_until(const std::function<bool()>& done,
                          std::uint64_t max_us) = 0;
  void settle(std::uint64_t us) {
    pump_until([] { return false; }, us);
  }
  /// Whether datagrams larger than a UDP payload still deliver (the
  /// simulator has no packet size limit; real sockets reject or truncate).
  [[nodiscard]] virtual bool delivers_oversized() const = 0;
};

class SimFabric final : public Fabric {
 public:
  SimFabric() : engine_(1), network_(engine_) {}
  Transport& add_node() override { return network_.add_node(); }
  void remove_node(Endpoint ep) override { network_.remove_node(ep); }
  bool pump_until(const std::function<bool()>& done,
                  std::uint64_t max_us) override {
    const std::uint64_t deadline = engine_.now() + max_us;
    while (!done()) {
      if (engine_.now() >= deadline || engine_.idle()) break;
      engine_.run_steps(1);
    }
    return done();
  }
  [[nodiscard]] bool delivers_oversized() const override { return true; }

 private:
  sim::Engine engine_;
  SimNetwork network_;
};

class HostFabric final : public Fabric {
 public:
  explicit HostFabric(const netio::ReactorOptions& options = {})
      : network_(options) {}
  Transport& add_node() override { return network_.add_node(); }
  void remove_node(Endpoint ep) override { network_.remove_node(ep); }
  bool pump_until(const std::function<bool()>& done,
                  std::uint64_t max_us) override {
    return network_.run_while([&] { return !done(); }, max_us);
  }
  [[nodiscard]] bool delivers_oversized() const override { return false; }

 private:
  netio::NetioNetwork network_;
};

struct FabricCase {
  const char* name;
  std::function<std::unique_ptr<Fabric>()> make;
};

// gtest prints a FabricCase as its raw bytes, and that printout, `name`
// pointer included, is part of every test ID here ("... # GetParam() =
// 40-byte object <3F-B0 ...>"). A string literal's address moves with ASLR
// and with the size of everything linked before it, so the names live at
// fixed offsets in a 64 KiB-aligned block instead: the loader keeps the
// alignment, which pins the pointer's low 16 bits and with them the start
// of each ID. The offsets are the ones the IDs were recorded with; the 11
// bytes after "Sim" held the name of the removed poll(2) row.
struct alignas(0x10000) FabricNames {
  char before_sim[0xB03F];
  char sim[4 + 11];
  char netio[6];
  char netio_portable[14];
};
constexpr FabricNames kFabricNames{{}, "Sim", "Netio", "NetioPortable"};

std::vector<FabricCase> AllFabrics() {
  return {
      {kFabricNames.sim, [] { return std::make_unique<SimFabric>(); }},
      {kFabricNames.netio, [] { return std::make_unique<HostFabric>(); }},
      {kFabricNames.netio_portable,
       [] {
         netio::ReactorOptions options;
         options.batch_syscalls = false;  // force recvfrom/sendto fallback
         return std::make_unique<HostFabric>(options);
       }},
  };
}

class TransportConformance : public ::testing::TestWithParam<FabricCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TransportConformance, ::testing::ValuesIn(AllFabrics()),
    [](const ::testing::TestParamInfo<FabricCase>& info) {
      return info.param.name;
    });

OwnedMessage one_way(std::string_view method,
                     std::vector<std::uint8_t> body = {}) {
  OwnedMessage msg;
  msg.method = method_id(method);
  msg.kind = MessageKind::kOneWay;
  msg.body = std::move(body);
  return msg;
}

TEST_P(TransportConformance, DeliversWithSourceAndPayload) {
  const auto fabric = GetParam().make();
  auto& a = fabric->add_node();
  auto& b = fabric->add_node();
  MethodId got = 0;
  Endpoint from = kNullEndpoint;
  b.set_receive_handler([&](Endpoint src, const Message& m) {
    from = src;
    got = m.method;
  });
  a.send(b.local(), one_way("hello", {1, 2, 3}));
  ASSERT_TRUE(fabric->pump_until([&] { return got != 0; }, 2'000'000));
  EXPECT_EQ(got, method_id("hello"));
  EXPECT_EQ(from, a.local());
  EXPECT_EQ(a.counters().messages_sent, 1u);
  EXPECT_EQ(b.counters().messages_received, 1u);
}

TEST_P(TransportConformance, OversizedPayloadNeverWedgesTheFabric) {
  const auto fabric = GetParam().make();
  auto& a = fabric->add_node();
  auto& b = fabric->add_node();
  int received = 0;
  MethodId last = 0;
  b.set_receive_handler([&](Endpoint, const Message& m) {
    ++received;
    last = m.method;
  });
  // Larger than any UDP payload (65507 bytes): real sockets reject it at
  // send time; the simulator happily delivers it. Either way the fabric
  // must keep working for the normal message that follows.
  a.send(b.local(), one_way("huge", std::vector<std::uint8_t>(70 * 1024)));
  a.send(b.local(), one_way("after"));
  ASSERT_TRUE(fabric->pump_until([&] { return last == method_id("after"); }, 2'000'000));
  EXPECT_EQ(received, fabric->delivers_oversized() ? 2 : 1);
  EXPECT_EQ(b.counters().decode_errors, 0u);
}

TEST_P(TransportConformance, SendToDeadEndpointIsHarmless) {
  const auto fabric = GetParam().make();
  auto& a = fabric->add_node();
  auto& dead = fabric->add_node();
  const Endpoint dead_ep = dead.local();
  fabric->remove_node(dead_ep);
  // Repeated sends provoke deferred ICMP port-unreachable errors on real
  // sockets; none of it may surface as a crash or a phantom delivery.
  for (int i = 0; i < 5; ++i) {
    a.send(dead_ep, one_way("void"));
    fabric->settle(10'000);
  }
  auto& c = fabric->add_node();
  bool got = false;
  c.set_receive_handler([&](Endpoint, const Message&) { got = true; });
  a.send(c.local(), one_way("alive"));
  EXPECT_TRUE(fabric->pump_until([&] { return got; }, 2'000'000));
}

TEST_P(TransportConformance, TimersFireInDeadlineOrder) {
  const auto fabric = GetParam().make();
  auto& a = fabric->add_node();
  std::vector<int> order;
  a.set_timer(60'000, [&] { order.push_back(3); });
  a.set_timer(20'000, [&] { order.push_back(1); });
  const TimerId cancelled = a.set_timer(30'000, [&] { order.push_back(9); });
  a.set_timer(40'000, [&] { order.push_back(2); });
  a.cancel_timer(cancelled);
  ASSERT_TRUE(
      fabric->pump_until([&] { return order.size() == 3; }, 2'000'000));
  fabric->settle(50'000);  // give the cancelled timer a chance to misfire
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(TransportConformance, HandlerMayRemoveItsOwnNode) {
  const auto fabric = GetParam().make();
  auto& a = fabric->add_node();
  auto& b = fabric->add_node();
  const Endpoint b_ep = b.local();
  int deliveries = 0;
  b.set_receive_handler([&](Endpoint, const Message&) {
    ++deliveries;
    // The classic remove-while-pending hazard: more datagrams for b may
    // already be queued in this very pump iteration.
    fabric->remove_node(b_ep);
  });
  for (int i = 0; i < 4; ++i) a.send(b_ep, one_way("burst"));
  fabric->pump_until([&] { return deliveries > 0; }, 2'000'000);
  fabric->settle(50'000);
  EXPECT_EQ(deliveries, 1);
  // The fabric survives: a fresh pair still communicates.
  auto& c = fabric->add_node();
  bool got = false;
  c.set_receive_handler([&](Endpoint, const Message&) { got = true; });
  a.send(c.local(), one_way("post"));
  EXPECT_TRUE(fabric->pump_until([&] { return got; }, 2'000'000));
}

TEST_P(TransportConformance, HandlerMayRemoveAPeerNode) {
  const auto fabric = GetParam().make();
  auto& a = fabric->add_node();
  auto& b = fabric->add_node();
  auto& c = fabric->add_node();
  const Endpoint c_ep = c.local();
  bool c_got = false;
  c.set_receive_handler([&](Endpoint, const Message&) { c_got = true; });
  bool b_got = false;
  b.set_receive_handler([&](Endpoint, const Message&) {
    b_got = true;
    fabric->remove_node(c_ep);  // removing a *different* node mid-pump
  });
  a.send(b.local(), one_way("trigger"));
  ASSERT_TRUE(fabric->pump_until([&] { return b_got; }, 2'000'000));
  a.send(c_ep, one_way("late"));
  fabric->settle(50'000);
  EXPECT_FALSE(c_got);
}

double counter_value(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const obs::Sample& s : snap.samples) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << "metric " << name << " missing from snapshot";
  return -1.0;
}

TEST_P(TransportConformance, RpcMetricsAgreeAcrossBackends) {
  const auto fabric = GetParam().make();
  auto& client_t = fabric->add_node();
  auto& server_t = fabric->add_node();
  // Telemetry outlives the managers (~RpcManager unregisters its collector).
  obs::NodeTelemetry client_tel(1);
  obs::NodeTelemetry server_tel(2);
  RpcManager client(client_t);
  RpcManager server(server_t);
  client.set_telemetry(&client_tel);
  server.set_telemetry(&server_tel);
  server.register_method("echo", [](Endpoint, Reader& in, Writer& out) {
    out.u64(in.u64() + 1);
  });

  // Identical workload on every fabric: 8 calls, generous single-attempt
  // timeouts so loopback never retransmits and the logical counters are
  // backend-independent.
  constexpr int kCalls = 8;
  RpcManager::Options options;
  options.attempts = 1;
  options.timeout_us = 5'000'000;
  int answered = 0;
  for (int i = 0; i < kCalls; ++i) {
    Writer body;
    body.u64(static_cast<std::uint64_t>(i));
    client.call(
        server_t.local(), "echo", body,
        [&](RpcStatus status, Reader&) {
          ASSERT_EQ(status, RpcStatus::kOk);
          ++answered;
        },
        options);
  }
  ASSERT_TRUE(
      fabric->pump_until([&] { return answered == kCalls; }, 5'000'000));

  const obs::MetricsSnapshot cs = client_tel.registry.snapshot();
  const obs::MetricsSnapshot ss = server_tel.registry.snapshot();
  EXPECT_EQ(counter_value(cs, "dat_rpc_calls_total"), kCalls);
  EXPECT_EQ(counter_value(cs, "dat_rpc_attempts_total"), kCalls);
  EXPECT_EQ(counter_value(cs, "dat_rpc_ok_total"), kCalls);
  EXPECT_EQ(counter_value(cs, "dat_rpc_retransmits_total"), 0);
  EXPECT_EQ(counter_value(cs, "dat_rpc_timeouts_total"), 0);
  EXPECT_EQ(counter_value(cs, "dat_rpc_remote_errors_total"), 0);
  EXPECT_EQ(counter_value(cs, "dat_net_messages_sent_total"), kCalls);
  EXPECT_EQ(counter_value(cs, "dat_net_messages_received_total"), kCalls);
  EXPECT_EQ(counter_value(ss, "dat_net_messages_sent_total"), kCalls);
  EXPECT_EQ(counter_value(ss, "dat_net_messages_received_total"), kCalls);
  EXPECT_EQ(counter_value(ss, "dat_net_decode_errors_total"), 0);
  EXPECT_EQ(counter_value(cs, "dat_net_decode_errors_total"), 0);
  // Byte counters are backend-specific (netio's coalescer adds batch
  // framing on the wire), so only the direction invariant holds: nothing
  // arrives out of thin air, every message moved real bytes.
  EXPECT_GE(counter_value(ss, "dat_net_bytes_received_total"),
            counter_value(cs, "dat_net_bytes_sent_total"));
  EXPECT_GE(counter_value(cs, "dat_net_bytes_received_total"),
            counter_value(ss, "dat_net_bytes_sent_total"));
  EXPECT_GT(counter_value(cs, "dat_net_bytes_sent_total"), 0);
  EXPECT_GT(counter_value(ss, "dat_net_bytes_sent_total"), 0);
}

TEST_P(TransportConformance, TracePropagatesOverEveryBackend) {
  const auto fabric = GetParam().make();
  auto& client_t = fabric->add_node();
  auto& server_t = fabric->add_node();
  obs::NodeTelemetry client_tel(1);
  obs::NodeTelemetry server_tel(2);
  RpcManager client(client_t);
  RpcManager server(server_t);
  client.set_telemetry(&client_tel);
  server.set_telemetry(&server_tel);

  std::uint64_t seen_trace = 0;
  std::uint64_t seen_parent = 0;
  server.register_method("probe", [&](Endpoint, Reader&, Writer&) {
    // The dispatch scope makes the sender's span the ambient cause.
    seen_trace = server_tel.trace.trace_id();
    seen_parent = server_tel.trace.span_id();
  });

  constexpr std::uint64_t kTraceId = 0xBEEF'CAFE'0000'0001ull;
  constexpr std::uint64_t kSpanId = 0x42ull;
  bool done = false;
  {
    const obs::TraceContext::Scope scope(client_tel.trace, kTraceId, kSpanId);
    client.call(server_t.local(), "probe", Writer{},
                [&](RpcStatus status, Reader&) {
                  ASSERT_EQ(status, RpcStatus::kOk);
                  done = true;
                });
  }
  ASSERT_TRUE(fabric->pump_until([&] { return done; }, 5'000'000));
  EXPECT_EQ(seen_trace, kTraceId);
  EXPECT_EQ(seen_parent, kSpanId);
}

}  // namespace
