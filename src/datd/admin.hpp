#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "dat/aggregate.hpp"
#include "dat/dat_node.hpp"
#include "datd/status.hpp"
#include "net/rpc.hpp"
#include "netio/netio_network.hpp"
#include "obs/export.hpp"
#include "obs/selfmon.hpp"

namespace dat::datd {

/// Synchronous RPC client for the datd admin surface, used by datctl's
/// remote subcommands and datd::ProcessFleet's fleet reads. Owns a netio
/// network with one OS-assigned socket and no metrics; every call pumps
/// that loop until the reply arrives or the deadline passes, so callers get
/// plain optionals instead of callbacks.
class AdminClient {
 public:
  /// `timeout_us` bounds each individual call (RPC retries included).
  explicit AdminClient(std::uint64_t timeout_us = 2'000'000);
  ~AdminClient();

  AdminClient(const AdminClient&) = delete;
  AdminClient& operator=(const AdminClient&) = delete;

  /// `datd.status`: the daemon's health snapshot.
  [[nodiscard]] std::optional<StatusInfo> status(net::Endpoint target);

  /// `datd.metrics`: the daemon's rendered telemetry page, reassembled from
  /// however many continuation datagrams the page spans.
  [[nodiscard]] std::optional<std::string> metrics(net::Endpoint target,
                                                   obs::ExportFormat format);

  /// `datd.fleet`: the target's cached fleet view (meta-tree roots plus
  /// SLO alert states). nullopt when the call failed or self-monitoring is
  /// disabled.
  [[nodiscard]] std::optional<obs::SelfMonitor::FleetView> fleet(
      net::Endpoint target);

  /// `datd.leave`: asks the daemon to drain and exit. True on ack.
  [[nodiscard]] bool leave(net::Endpoint target);

  /// `datd.rebalance`: one local shed round; children moved, if it answered.
  [[nodiscard]] std::optional<std::uint64_t> rebalance(net::Endpoint target);

  /// `dat.get_global` on `target` directly (no routing): the root's latest
  /// global for `key`. nullopt when the call failed or the target is not
  /// the root / has no global yet.
  [[nodiscard]] std::optional<core::GlobalValue> global_at(net::Endpoint target,
                                                           Id key);

 private:
  /// Sends `method` and pumps until the reply or the deadline; an OK reply
  /// goes through `decode`, which yields nullopt for a well-formed "not
  /// available" answer.
  template <typename T, typename Decode>
  std::optional<T> call(net::Endpoint target, const char* method,
                        const net::Writer& request, Decode decode);

  std::uint64_t timeout_us_;
  netio::NetioNetwork network_;
  net::Transport& transport_;
  std::unique_ptr<net::RpcManager> rpc_;
};

}  // namespace dat::datd
