#include "datd/admin.hpp"

#include <memory>
#include <utility>

namespace dat::datd {

AdminClient::AdminClient(std::uint64_t timeout_us)
    : timeout_us_(timeout_us), transport_(network_.add_node()) {
  rpc_ = std::make_unique<net::RpcManager>(transport_);
}

AdminClient::~AdminClient() = default;

namespace {

net::RpcOptions admin_budget(std::uint64_t timeout_us) {
  return net::RpcOptions::adaptive(timeout_us / 4 + 1, 3);
}

}  // namespace

template <typename T, typename Decode>
std::optional<T> AdminClient::call(net::Endpoint target, const char* method,
                                   const net::Writer& request, Decode decode) {
  // Completion latch shared with the RPC handler: if the pump gives up
  // before the manager resolves the call, the handler must not write into a
  // dead stack frame — it owns the state instead.
  struct State {
    bool done = false;
    std::optional<T> result;
  };
  auto state = std::make_shared<State>();
  rpc_->call(
      target, method, request,
      [state, decode](net::RpcStatus st, net::Reader& r) {
        if (st == net::RpcStatus::kOk) state->result = decode(r);
        state->done = true;
      },
      admin_budget(timeout_us_));
  // Margin past the RPC budget so the manager can deliver its own kTimeout
  // instead of us abandoning a still-pending handler.
  network_.run_while([&state] { return !state->done; }, timeout_us_ * 2);
  return state->result;
}

std::optional<StatusInfo> AdminClient::status(net::Endpoint target) {
  return call<StatusInfo>(target, "datd.status", net::Writer{},
                          [](net::Reader& r) -> std::optional<StatusInfo> {
                            return StatusInfo::decode(r);
                          });
}

namespace {

/// One datd.metrics reply: a slice of the rendered page plus the headers
/// the reassembly loop steers by.
struct MetricsChunk {
  std::uint64_t gen = 0;
  std::uint32_t total = 0;
  std::uint32_t seq = 0;
  std::string data;
};

}  // namespace

std::optional<std::string> AdminClient::metrics(net::Endpoint target,
                                                obs::ExportFormat format) {
  const auto fetch = [&](std::uint32_t seq,
                         std::uint64_t gen) -> std::optional<MetricsChunk> {
    net::Writer req;
    req.u8(format == obs::ExportFormat::kJson ? 0 : 1);
    req.u32(seq);
    req.u64(gen);
    return call<MetricsChunk>(
        target, "datd.metrics", req,
        [](net::Reader& r) -> std::optional<MetricsChunk> {
          MetricsChunk chunk;
          chunk.gen = r.u64();
          chunk.total = r.u32();
          chunk.seq = r.u32();
          chunk.data = r.str();
          return chunk;
        });
  };
  // total == 0 means our generation was evicted by a concurrent scraper;
  // restart from seq 0 a bounded number of times rather than loop forever
  // against a pathologically contended daemon.
  for (int restart = 0; restart < 3; ++restart) {
    std::optional<MetricsChunk> first = fetch(0, 0);
    if (!first) return std::nullopt;
    std::string page = std::move(first->data);
    const std::uint64_t gen = first->gen;
    const std::uint32_t total = first->total;
    bool stale = false;
    for (std::uint32_t seq = 1; seq < total && !stale; ++seq) {
      std::optional<MetricsChunk> chunk = fetch(seq, gen);
      if (!chunk) return std::nullopt;
      if (chunk->total == 0 || chunk->gen != gen) {
        stale = true;
        break;
      }
      page += chunk->data;
    }
    if (!stale) return page;
  }
  return std::nullopt;
}

std::optional<obs::SelfMonitor::FleetView> AdminClient::fleet(
    net::Endpoint target) {
  return call<obs::SelfMonitor::FleetView>(
      target, "datd.fleet", net::Writer{},
      [](net::Reader& r) -> std::optional<obs::SelfMonitor::FleetView> {
        if (!r.boolean()) return std::nullopt;
        return obs::read_fleet_view(r);
      });
}

bool AdminClient::leave(net::Endpoint target) {
  return call<bool>(target, "datd.leave", net::Writer{},
                    [](net::Reader& r) -> std::optional<bool> {
                      return r.boolean();
                    })
      .value_or(false);
}

std::optional<std::uint64_t> AdminClient::rebalance(net::Endpoint target) {
  return call<std::uint64_t>(
      target, "datd.rebalance", net::Writer{},
      [](net::Reader& r) -> std::optional<std::uint64_t> { return r.u64(); });
}

std::optional<core::GlobalValue> AdminClient::global_at(net::Endpoint target,
                                                        Id key) {
  net::Writer req;
  req.u64(key);
  return call<core::GlobalValue>(
      target, "dat.get_global", req,
      [](net::Reader& r) -> std::optional<core::GlobalValue> {
        if (!r.boolean()) return std::nullopt;
        return core::read_global_value(r);
      });
}

}  // namespace dat::datd
