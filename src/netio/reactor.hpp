#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hpp"
#include "net/transport.hpp"
#include "netio/buffer_arena.hpp"
#include "netio/timer_wheel.hpp"
#include "obs/metrics.hpp"

struct sockaddr_in;  // <netinet/in.h>, included by reactor.cpp only

namespace dat::netio {

class Reactor;

/// Tuning knobs of one reactor shard. The defaults are the fast path:
/// write coalescing on, batched syscalls on (recvmmsg/sendmmsg when the
/// platform has them — detected at configure time — with a portable
/// recvfrom/sendto fallback otherwise).
struct ReactorOptions {
  /// Pack multiple frames bound for the same destination into one batch
  /// datagram (net/frame.hpp). Receivers split them back into frames.
  bool coalesce = true;
  /// Drain and flush sockets with recvmmsg/sendmmsg where compiled in;
  /// false forces the portable one-datagram-per-syscall path everywhere
  /// (also the measurement baseline for the throughput bench).
  bool batch_syscalls = true;
  /// Datagrams drained per recvmmsg call.
  unsigned recv_batch = 32;
  /// Receive buffer size and coalescing limit per datagram. The default
  /// covers the largest possible UDP payload; tests shrink it to exercise
  /// kernel truncation (MSG_TRUNC) handling.
  std::size_t max_datagram = 64 * 1024;
  /// Requested SO_RCVBUF per socket (the kernel caps it at rmem_max);
  /// 0 keeps the system default.
  int so_rcvbuf = 1 << 22;
  /// Timer wheel granularity and size.
  std::uint64_t timer_tick_us = 1024;
  std::size_t timer_slots = 256;
  /// Optional shared metrics registry (one per cluster/pool). When set, the
  /// reactor publishes its I/O counters as a snapshot-time collector and
  /// feeds a per-shard coalescer batch-size histogram — all series labeled
  /// {shard=metrics_shard}. The registry must outlive the reactor.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_shard = "0";
};

/// Whether this build selected the recvmmsg/sendmmsg batched-syscall paths
/// at configure time (DAT_NETIO_HAVE_MMSG).
[[nodiscard]] bool mmsg_compiled() noexcept;

/// Plain-value snapshot of a shard's I/O counters.
struct ReactorCounters {
  std::uint64_t epoll_waits = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t send_syscalls = 0;
  std::uint64_t datagrams_in = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Outbound datagrams that carried more than one coalesced frame.
  std::uint64_t coalesced_datagrams_out = 0;
  /// Inbound datagrams that were batch containers.
  std::uint64_t batch_datagrams_in = 0;
  std::uint64_t truncated_in = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t tasks_run = 0;

  ReactorCounters& operator+=(const ReactorCounters& other) noexcept;
};

/// Transport bound to one UDP socket hosted on a Reactor shard; created via
/// Reactor::add_socket() or ReactorPool::add_node().
///
/// Threading contract: send(), set_receive_handler() and the inherited
/// counters are confined to the shard — call them from this socket's
/// receive/timer callbacks (which the shard thread runs), from tasks
/// post()ed to the shard, or while the reactor is driven inline.
/// set_timer/cancel_timer/now_us are safe from any thread.
class NetioTransport final : public net::Transport {
 public:
  ~NetioTransport() override;

  NetioTransport(const NetioTransport&) = delete;
  NetioTransport& operator=(const NetioTransport&) = delete;

  [[nodiscard]] net::Endpoint local() const override { return self_; }
  void send(net::Endpoint to, const net::Message& msg) override;
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  net::TimerId set_timer(std::uint64_t delay_us,
                         std::function<void()> cb) override;
  void cancel_timer(net::TimerId id) override;
  [[nodiscard]] std::uint64_t now_us() const override;

 private:
  friend class Reactor;

  /// One outbound datagram being assembled (or queued) for `to`. With
  /// coalescing a single frame stays raw; from the second frame on, the
  /// bytes are a batch container (net/frame.hpp).
  struct PendingDatagram {
    net::Endpoint to = net::kNullEndpoint;
    std::vector<std::uint8_t> bytes;
    unsigned frames = 0;
  };

  NetioTransport(Reactor& reactor, int fd, net::Endpoint self,
                 std::uint64_t reg_id);

  Reactor& reactor_;
  int fd_;
  net::Endpoint self_;
  std::uint64_t reg_id_;
  ReceiveHandler handler_;
  /// Write coalescer state: per-destination open datagrams plus the queue
  /// of datagrams ready for the next flush.
  std::unordered_map<net::Endpoint, PendingDatagram> open_;
  std::vector<PendingDatagram> outq_;
  bool flush_queued_ = false;
};

/// One epoll event-loop shard: hosts a set of UDP sockets, a buffer arena,
/// a timer wheel and a cross-thread task queue. Two driving modes:
///
///  - inline: the owner calls poll_once() from its own thread (NetioNetwork
///    wraps this into the run_for/run_while surface);
///  - threaded: start() spawns the shard thread, stop() joins it
///    (ReactorPool runs N of these for the multi-shard configuration).
///
/// Receive path: epoll_wait -> recvmmsg bursts into arena buffers -> batch
/// split -> hardened Message::try_decode -> handler upcall. Send path:
/// frames coalesce per destination and every pending datagram of a socket
/// is flushed with one sendmmsg at the end of the loop iteration, so an
/// aggregation wave of k same-parent updates costs one syscall and one
/// packet instead of k of each.
class Reactor {
 public:
  explicit Reactor(const ReactorOptions& options,
                   std::uint64_t t0_steady_us = 0);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds a new loopback UDP socket and registers it with this shard.
  /// Port 0 asks the OS for one; a nonzero port is bound with SO_REUSEADDR
  /// so a restarted daemon can reclaim its address immediately.
  /// Thread-safe: marshalled onto the shard thread when it is running.
  NetioTransport& add_socket(std::uint16_t port = 0);

  /// Unregisters and destroys the socket. Destruction is deferred to the
  /// end of the current loop iteration, so a handler may remove its own
  /// node. Thread-safe like add_socket().
  void remove_socket(net::Endpoint ep);

  /// Spawns the shard thread. No-op if already running.
  void start();
  /// Stops and joins the shard thread, then drains any posted tasks on the
  /// calling thread. No-op if not running.
  void stop();
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Runs one loop iteration on the calling thread, blocking in epoll for
  /// at most max_wait_us. Must not be mixed with start().
  void poll_once(std::uint64_t max_wait_us);

  /// Enqueues `fn` to run on the shard thread (or the next poll_once) and
  /// wakes the loop. Thread-safe.
  void post(std::function<void()> fn);

  /// Timer surface shared by every socket on the shard; safe from any
  /// thread. Callbacks fire on the shard thread.
  net::TimerId set_timer(std::uint64_t delay_us, std::function<void()> cb);
  void cancel_timer(net::TimerId id);

  /// Microseconds since the reactor epoch (shared across a pool's shards).
  [[nodiscard]] std::uint64_t now_us() const;

  [[nodiscard]] ReactorCounters counters() const;
  [[nodiscard]] const ReactorOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::size_t socket_count() const;

 private:
  friend class NetioTransport;

  /// Opaque bag holding the atomic counters plus the preallocated
  /// recvmmsg/sendmmsg scratch arrays (mmsghdr/iovec/sockaddr vectors),
  /// kept out of the header so <sys/socket.h> internals stay in the .cpp.
  struct Scratch;

  void run_loop();
  void iterate(std::uint64_t max_wait_us);
  void run_tasks();
  void reap_graveyard();
  [[nodiscard]] bool on_loop_thread() const;

  NetioTransport& do_add_socket(std::uint16_t port);
  void do_remove_socket(net::Endpoint ep);

  void enqueue_send(NetioTransport& t, net::Endpoint to,
                    const net::Message& msg);
  void seal_open_datagrams(NetioTransport& t);
  void flush_transport(NetioTransport& t);
  void flush_all();
  bool send_datagram(int fd, net::Endpoint to,
                     std::span<const std::uint8_t> bytes);
  void drain_fd(std::uint64_t reg_id);
  void dispatch_datagram(std::uint64_t reg_id, net::Endpoint src,
                         std::span<const std::uint8_t> dgram);
  void handle_inbound(std::uint64_t reg_id, const ::sockaddr_in& from,
                      std::size_t name_len, std::size_t msg_len,
                      bool kernel_truncated, const std::uint8_t* data);

  ReactorOptions options_;
  std::uint64_t t0_us_;
  /// Coalescer batch-size histogram (frames per outbound datagram) when a
  /// metrics registry is attached; observed on the flush path.
  obs::Histogram* frames_per_datagram_ = nullptr;
  std::uint64_t metrics_collector_ = 0;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  TimerWheel wheel_;
  BufferArena arena_;

  std::unordered_map<std::uint64_t, std::unique_ptr<NetioTransport>> sockets_;
  std::unordered_map<net::Endpoint, std::uint64_t> reg_of_;
  std::vector<std::unique_ptr<NetioTransport>> graveyard_;
  std::vector<NetioTransport*> flush_list_;
  std::uint64_t next_reg_id_ = 1;

  std::mutex tasks_mutex_;
  std::vector<std::function<void()>> tasks_;

  std::atomic<bool> running_{false};
  std::thread thread_;
  std::atomic<std::thread::id> loop_thread_id_{};

  std::unique_ptr<Scratch> scratch_;
};

}  // namespace dat::netio
