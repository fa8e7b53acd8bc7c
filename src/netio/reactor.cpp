#include "netio/reactor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <future>
#include <stdexcept>
#include <system_error>

#include "common/logging.hpp"
#include "net/frame.hpp"

namespace dat::netio {

namespace {

/// epoll user-data tag of the wakeup eventfd (socket registrations start
/// at 1).
constexpr std::uint64_t kEventFdTag = 0;
constexpr int kMaxEpollEvents = 64;
/// Datagrams per sendmmsg call.
constexpr unsigned kSendBatch = 64;

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Thread-safe strerror replacement (::strerror is concurrency-mt-unsafe).
std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

}  // namespace

bool mmsg_compiled() noexcept {
#if DAT_NETIO_HAVE_MMSG
  return true;
#else
  return false;
#endif
}

ReactorCounters& ReactorCounters::operator+=(
    const ReactorCounters& other) noexcept {
  epoll_waits += other.epoll_waits;
  recv_syscalls += other.recv_syscalls;
  send_syscalls += other.send_syscalls;
  datagrams_in += other.datagrams_in;
  datagrams_out += other.datagrams_out;
  frames_in += other.frames_in;
  frames_out += other.frames_out;
  coalesced_datagrams_out += other.coalesced_datagrams_out;
  batch_datagrams_in += other.batch_datagrams_in;
  truncated_in += other.truncated_in;
  send_errors += other.send_errors;
  tasks_run += other.tasks_run;
  return *this;
}

/// Counters are relaxed atomics: each is written by the shard thread only,
/// but counters() may snapshot them from the driver thread mid-run.
struct Reactor::Scratch {
  struct Stats {
    std::atomic<std::uint64_t> epoll_waits{0};
    std::atomic<std::uint64_t> recv_syscalls{0};
    std::atomic<std::uint64_t> send_syscalls{0};
    std::atomic<std::uint64_t> datagrams_in{0};
    std::atomic<std::uint64_t> datagrams_out{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> coalesced_datagrams_out{0};
    std::atomic<std::uint64_t> batch_datagrams_in{0};
    std::atomic<std::uint64_t> truncated_in{0};
    std::atomic<std::uint64_t> send_errors{0};
    std::atomic<std::uint64_t> tasks_run{0};
  } stats;

  /// Log-level gates cached once per loop iteration: the drop/error paths
  /// can fire at line rate under an adversarial flood, so they must not pay
  /// even the macro's atomic level load per datagram. Loop-thread confined.
  bool log_debug = false;
  bool log_warn = true;

  /// Wire encoding of the message being sent (enqueue_send). Loop-thread
  /// confined; capacity sticks at the largest frame seen, so steady-state
  /// sends never allocate.
  std::vector<std::uint8_t> encode_buf;

  /// Drained tasks_ batch (run_tasks), swapped under the mutex and run
  /// outside it; reused so the control path stops allocating per loop
  /// iteration.
  std::vector<std::function<void()>> task_batch;

  /// Receive slots, one datagram each; slot 0 doubles as the buffer of the
  /// portable single-datagram path.
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<sockaddr_in> addrs;
#if DAT_NETIO_HAVE_MMSG
  std::vector<iovec> iovecs;
  std::vector<mmsghdr> hdrs;
  std::vector<sockaddr_in> send_addrs;
  std::vector<iovec> send_iovecs;
  std::vector<mmsghdr> send_hdrs;
#endif
};

// ---------------------------------------------------------------- transport

NetioTransport::NetioTransport(Reactor& reactor, int fd, net::Endpoint self,
                               std::uint64_t reg_id)
    : reactor_(reactor), fd_(fd), self_(self), reg_id_(reg_id) {}

NetioTransport::~NetioTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void NetioTransport::send(net::Endpoint to, const net::Message& msg) {
  reactor_.enqueue_send(*this, to, msg);
}

net::TimerId NetioTransport::set_timer(std::uint64_t delay_us,
                                       std::function<void()> cb) {
  return reactor_.set_timer(delay_us, std::move(cb));
}

void NetioTransport::cancel_timer(net::TimerId id) {
  reactor_.cancel_timer(id);
}

std::uint64_t NetioTransport::now_us() const { return reactor_.now_us(); }

// ------------------------------------------------------------------ reactor

Reactor::Reactor(const ReactorOptions& options, std::uint64_t t0_steady_us)
    : options_(options),
      t0_us_(t0_steady_us != 0 ? t0_steady_us : steady_now_us()),
      wheel_(options.timer_tick_us, options.timer_slots),
      arena_(options.max_datagram),
      scratch_(std::make_unique<Scratch>()) {
  if (options_.recv_batch == 0) {
    throw std::invalid_argument("Reactor: recv_batch must be > 0");
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kEventFdTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(eventfd)");
  }

  Scratch& s = *scratch_;
  s.log_debug = Logger::instance().enabled(LogLevel::kDebug);
  s.log_warn = Logger::instance().enabled(LogLevel::kWarn);
  s.bufs.resize(options_.recv_batch);
  for (auto& buf : s.bufs) buf.resize(options_.max_datagram);
  s.addrs.resize(options_.recv_batch);
#if DAT_NETIO_HAVE_MMSG
  s.iovecs.resize(options_.recv_batch);
  s.hdrs.resize(options_.recv_batch);
  s.send_addrs.resize(kSendBatch);
  s.send_iovecs.resize(kSendBatch);
  s.send_hdrs.resize(kSendBatch);
#endif

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *options_.metrics;
    const obs::Labels shard_labels{{"shard", options_.metrics_shard}};
    frames_per_datagram_ =
        &registry.histogram("dat_netio_frames_per_datagram", shard_labels);
    metrics_collector_ = registry.add_collector(
        [this, shard_labels](obs::MetricsSnapshot& out) {
          const ReactorCounters c = counters();
          const auto add = [&](const char* name, std::uint64_t value) {
            obs::Sample sample;
            sample.name = name;
            sample.type = obs::MetricType::kCounter;
            sample.labels = shard_labels;
            sample.value = static_cast<double>(value);
            out.samples.push_back(std::move(sample));
          };
          add("dat_netio_epoll_waits_total", c.epoll_waits);
          add("dat_netio_recv_syscalls_total", c.recv_syscalls);
          add("dat_netio_send_syscalls_total", c.send_syscalls);
          add("dat_netio_datagrams_in_total", c.datagrams_in);
          add("dat_netio_datagrams_out_total", c.datagrams_out);
          add("dat_netio_frames_in_total", c.frames_in);
          add("dat_netio_frames_out_total", c.frames_out);
          add("dat_netio_coalesced_datagrams_out_total",
              c.coalesced_datagrams_out);
          add("dat_netio_batch_datagrams_in_total", c.batch_datagrams_in);
          add("dat_netio_truncated_in_total", c.truncated_in);
          add("dat_netio_send_errors_total", c.send_errors);
          add("dat_netio_tasks_run_total", c.tasks_run);
        });
  }
}

Reactor::~Reactor() {
  try {
    stop();
  } catch (...) {
    // Joining the shard thread must not throw out of a destructor.
  }
  if (options_.metrics != nullptr && metrics_collector_ != 0) {
    options_.metrics->remove_collector(metrics_collector_);
  }
  sockets_.clear();
  graveyard_.clear();
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool Reactor::on_loop_thread() const {
  return loop_thread_id_.load(std::memory_order_acquire) ==
         std::this_thread::get_id();
}

std::uint64_t Reactor::now_us() const { return steady_now_us() - t0_us_; }

NetioTransport& Reactor::add_socket(std::uint16_t port) {
  if (!running() || on_loop_thread()) return do_add_socket(port);
  std::promise<NetioTransport*> done;
  post([this, port, &done] {
    try {
      done.set_value(&do_add_socket(port));
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  return *done.get_future().get();
}

NetioTransport& Reactor::do_add_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) throw_errno("socket");
  if (options_.so_rcvbuf > 0) {
    // Best-effort: the kernel silently caps at net.core.rmem_max.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options_.so_rcvbuf,
                 sizeof options_.so_rcvbuf);
  }
  if (port != 0) {
    // A pinned port belongs to a daemon restarting in place: let the new
    // socket rebind even while the dead incarnation's socket lingers.
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0) {
      ::close(fd);
      throw_errno("setsockopt(SO_REUSEADDR)");
    }
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);  // 0 → OS-assigned
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw_errno("bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  const net::Endpoint ep = net::make_udp_endpoint(ntohl(addr.sin_addr.s_addr),
                                                  ntohs(addr.sin_port));
  const std::uint64_t reg_id = next_reg_id_++;
  std::unique_ptr<NetioTransport> transport(
      new NetioTransport(*this, fd, ep, reg_id));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = reg_id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(add socket)");
  }
  NetioTransport* raw = transport.get();
  sockets_.emplace(reg_id, std::move(transport));
  reg_of_.emplace(ep, reg_id);
  return *raw;
}

void Reactor::remove_socket(net::Endpoint ep) {
  if (!running() || on_loop_thread()) {
    do_remove_socket(ep);
    return;
  }
  std::promise<void> done;
  post([this, ep, &done] {
    do_remove_socket(ep);
    done.set_value();
  });
  done.get_future().wait();
}

void Reactor::do_remove_socket(net::Endpoint ep) {
  const auto rit = reg_of_.find(ep);
  if (rit == reg_of_.end()) return;
  const std::uint64_t reg_id = rit->second;
  reg_of_.erase(rit);
  const auto sit = sockets_.find(reg_id);
  if (sit == sockets_.end()) return;
  NetioTransport* t = sit->second.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, t->fd_, nullptr);
  std::erase(flush_list_, t);
  // Unsent coalesced datagrams of a removed node are dropped, like the
  // in-kernel queue of a closed socket. Destruction is deferred so the
  // caller may be this very transport's handler.
  graveyard_.push_back(std::move(sit->second));
  sockets_.erase(sit);
}

void Reactor::reap_graveyard() { graveyard_.clear(); }

void Reactor::post(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(event_fd_, &one, sizeof one);
}

void Reactor::run_tasks() {
  std::vector<std::function<void()>>& tasks = scratch_->task_batch;
  tasks.clear();
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks.swap(tasks_);
  }
  for (auto& fn : tasks) {
    fn();
    scratch_->stats.tasks_run.fetch_add(1, std::memory_order_relaxed);
  }
  // Destroy the drained closures now (they may pin captured resources)
  // while keeping the vector's capacity for the next batch.
  tasks.clear();
}

net::TimerId Reactor::set_timer(std::uint64_t delay_us,
                                std::function<void()> cb) {
  const net::TimerId id = wheel_.schedule(now_us() + delay_us, std::move(cb));
  if (running() && !on_loop_thread()) {
    // The loop may be parked in a long epoll_wait that predates this timer.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd_, &one, sizeof one);
  }
  return id;
}

void Reactor::cancel_timer(net::TimerId id) { wheel_.cancel(id); }

// -------------------------------------------------------------- send path

void Reactor::enqueue_send(NetioTransport& t, net::Endpoint to,
                           const net::Message& msg) {
  std::vector<std::uint8_t>& frame = scratch_->encode_buf;
  msg.encode_into(frame);
  ++t.counters_.messages_sent;
  t.counters_.bytes_sent += frame.size();

  if (!options_.coalesce && !options_.batch_syscalls) {
    // Fully immediate path: one sendto per frame (the throughput bench's
    // uncoalesced, unbatched baseline).
    Scratch::Stats& stats = scratch_->stats;
    if (send_datagram(t.fd_, to, frame)) {
      stats.datagrams_out.fetch_add(1, std::memory_order_relaxed);
      stats.frames_out.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  if (!options_.coalesce) {
    NetioTransport::PendingDatagram pd;
    pd.to = to;
    pd.bytes = arena_.acquire();
    pd.bytes.assign(frame.begin(), frame.end());
    pd.frames = 1;
    t.outq_.push_back(std::move(pd));
  } else {
    auto [it, inserted] = t.open_.try_emplace(to);
    NetioTransport::PendingDatagram& pd = it->second;
    if (pd.frames > 0) {
      // Seal the open datagram if this frame would overflow it.
      const std::size_t projected =
          pd.frames == 1
              ? net::kBatchHeaderBytes + 2 * net::kBatchFrameOverheadBytes +
                    pd.bytes.size() + frame.size()
              : pd.bytes.size() + net::kBatchFrameOverheadBytes + frame.size();
      if (projected > options_.max_datagram) {
        t.outq_.push_back(std::move(pd));
        pd = NetioTransport::PendingDatagram{};
      }
    }
    if (pd.frames == 0) {
      // A lone frame travels raw — zero container overhead until a second
      // frame for the same destination shows up.
      pd.to = to;
      pd.bytes = arena_.acquire();
      pd.bytes.assign(frame.begin(), frame.end());
      pd.frames = 1;
    } else if (pd.frames == 1) {
      std::vector<std::uint8_t> packed = arena_.acquire();
      net::begin_batch(packed);
      net::append_batch_frame(packed, pd.bytes);
      net::append_batch_frame(packed, frame);
      arena_.release(std::move(pd.bytes));
      pd.bytes = std::move(packed);
      pd.frames = 2;
    } else {
      net::append_batch_frame(pd.bytes, frame);
      ++pd.frames;
    }
  }

  if (!t.flush_queued_) {
    t.flush_queued_ = true;
    flush_list_.push_back(&t);
  }
}

void Reactor::seal_open_datagrams(NetioTransport& t) {
  for (auto& [to, pd] : t.open_) {
    if (pd.frames > 0) t.outq_.push_back(std::move(pd));
  }
  t.open_.clear();
}

bool Reactor::send_datagram(int fd, net::Endpoint to,
                            std::span<const std::uint8_t> bytes) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(net::endpoint_ipv4(to));
  addr.sin_port = htons(net::endpoint_port(to));
  Scratch::Stats& stats = scratch_->stats;
  ssize_t n = 0;
  do {
    n = ::sendto(fd, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    stats.send_syscalls.fetch_add(1, std::memory_order_relaxed);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    // UDP is fire-and-forget; log and move on (RpcManager retries).
    const int err = errno;
    stats.send_errors.fetch_add(1, std::memory_order_relaxed);
    if (scratch_->log_debug) {
      DAT_LOG_DEBUG("netio", "sendto " << net::endpoint_to_string(to)
                                       << " failed: " << errno_message(err));
    }
    return false;
  }
  return true;
}

void Reactor::flush_transport(NetioTransport& t) {
  seal_open_datagrams(t);
  t.flush_queued_ = false;
  if (t.outq_.empty()) return;
  Scratch& s = *scratch_;
  Scratch::Stats& stats = s.stats;

  const auto account_sent = [&](const NetioTransport::PendingDatagram& dg) {
    stats.datagrams_out.fetch_add(1, std::memory_order_relaxed);
    stats.frames_out.fetch_add(dg.frames, std::memory_order_relaxed);
    if (dg.frames > 1) {
      stats.coalesced_datagrams_out.fetch_add(1, std::memory_order_relaxed);
    }
    if (frames_per_datagram_ != nullptr) {
      frames_per_datagram_->observe(dg.frames);
    }
  };

#if DAT_NETIO_HAVE_MMSG
  if (options_.batch_syscalls) {
    std::size_t next = 0;
    while (next < t.outq_.size()) {
      const unsigned n = static_cast<unsigned>(
          std::min<std::size_t>(kSendBatch, t.outq_.size() - next));
      for (unsigned i = 0; i < n; ++i) {
        const NetioTransport::PendingDatagram& dg = t.outq_[next + i];
        sockaddr_in& addr = s.send_addrs[i];
        addr = sockaddr_in{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(net::endpoint_ipv4(dg.to));
        addr.sin_port = htons(net::endpoint_port(dg.to));
        s.send_iovecs[i] = iovec{
            const_cast<std::uint8_t*>(dg.bytes.data()), dg.bytes.size()};
        s.send_hdrs[i] = mmsghdr{};
        s.send_hdrs[i].msg_hdr.msg_name = &addr;
        s.send_hdrs[i].msg_hdr.msg_namelen = sizeof addr;
        s.send_hdrs[i].msg_hdr.msg_iov = &s.send_iovecs[i];
        s.send_hdrs[i].msg_hdr.msg_iovlen = 1;
      }
      int sent = 0;
      do {
        sent = ::sendmmsg(t.fd_, s.send_hdrs.data(), n, 0);
        stats.send_syscalls.fetch_add(1, std::memory_order_relaxed);
      } while (sent < 0 && errno == EINTR);
      if (sent <= 0) {
        // The head datagram was refused; drop it and keep the rest moving.
        const int err = errno;
        stats.send_errors.fetch_add(1, std::memory_order_relaxed);
        if (s.log_debug) {
          DAT_LOG_DEBUG("netio",
                        "sendmmsg to "
                            << net::endpoint_to_string(t.outq_[next].to)
                            << " failed: " << errno_message(err));
        }
        next += 1;
        continue;
      }
      for (unsigned i = 0; i < static_cast<unsigned>(sent); ++i) {
        account_sent(t.outq_[next + i]);
      }
      next += static_cast<std::size_t>(sent);
    }
    for (auto& dg : t.outq_) arena_.release(std::move(dg.bytes));
    t.outq_.clear();
    return;
  }
#endif
  // Portable fallback: one sendto per datagram (coalescing still collapses
  // frames, so this path alone already divides packet count).
  for (auto& dg : t.outq_) {
    if (send_datagram(t.fd_, dg.to, dg.bytes)) account_sent(dg);
    arena_.release(std::move(dg.bytes));
  }
  t.outq_.clear();
}

void Reactor::flush_all() {
  // flush_transport clears flush_queued_; swap first so sends enqueued by
  // error paths during the flush re-queue cleanly for the next round.
  std::vector<NetioTransport*> list;
  list.swap(flush_list_);
  for (NetioTransport* t : list) flush_transport(*t);
}

// ------------------------------------------------------------ receive path

void Reactor::handle_inbound(std::uint64_t reg_id, const sockaddr_in& from,
                             std::size_t name_len, std::size_t msg_len,
                             bool kernel_truncated, const std::uint8_t* data) {
  const auto it = sockets_.find(reg_id);
  if (it == sockets_.end()) return;
  NetioTransport& t = *it->second;
  if (name_len < sizeof(sockaddr_in) || from.sin_family != AF_INET) {
    if (scratch_->log_warn) {
      DAT_LOG_WARN("netio", "dropping datagram with non-IPv4 source address");
    }
    return;
  }
  const net::Endpoint src = net::make_udp_endpoint(
      ntohl(from.sin_addr.s_addr), ntohs(from.sin_port));
  Scratch::Stats& stats = scratch_->stats;
  stats.datagrams_in.fetch_add(1, std::memory_order_relaxed);
  t.counters_.bytes_received += msg_len;
  if (kernel_truncated || msg_len > options_.max_datagram) {
    ++t.counters_.truncated_datagrams;
    stats.truncated_in.fetch_add(1, std::memory_order_relaxed);
    if (scratch_->log_warn) {
      DAT_LOG_WARN("netio", "dropping truncated "
                                << msg_len << "-byte datagram from "
                                << net::endpoint_to_string(src)
                                << " (buffer is " << options_.max_datagram
                                << " bytes)");
    }
    return;
  }
  dispatch_datagram(reg_id, src, std::span<const std::uint8_t>(data, msg_len));
}

void Reactor::dispatch_datagram(std::uint64_t reg_id, net::Endpoint src,
                                std::span<const std::uint8_t> dgram) {
  Scratch::Stats& stats = scratch_->stats;
  // Between frames the registration is re-resolved: a handler may remove
  // this node (the object stays alive in the graveyard until the end of the
  // iteration, but its remaining frames must be dropped).
  const auto dispatch_frame = [&](std::span<const std::uint8_t> frame) {
    const auto it = sockets_.find(reg_id);
    if (it == sockets_.end()) return;
    NetioTransport& t = *it->second;
    net::Message::DecodeResult decoded = net::Message::try_decode(frame);
    if (!decoded.ok()) {
      ++t.counters_.decode_errors;
      if (scratch_->log_warn) {
        DAT_LOG_WARN("netio", "dropping malformed frame from "
                                  << net::endpoint_to_string(src) << ": "
                                  << decoded.error.to_string());
      }
      return;
    }
    ++t.counters_.messages_received;
    stats.frames_in.fetch_add(1, std::memory_order_relaxed);
    if (t.handler_) t.handler_(src, decoded.value());
  };

  if (net::is_batch_datagram(dgram)) {
    stats.batch_datagrams_in.fetch_add(1, std::memory_order_relaxed);
    const auto container_error = net::split_batch(dgram, dispatch_frame);
    if (container_error) {
      const auto it = sockets_.find(reg_id);
      if (it != sockets_.end()) ++it->second->counters_.decode_errors;
      if (scratch_->log_warn) {
        DAT_LOG_WARN("netio", "dropping malformed batch tail from "
                                  << net::endpoint_to_string(src) << ": "
                                  << container_error->to_string());
      }
    }
    return;
  }
  dispatch_frame(dgram);
}

void Reactor::drain_fd(std::uint64_t reg_id) {
  Scratch& s = *scratch_;
  Scratch::Stats& stats = s.stats;
  for (;;) {
    const auto it = sockets_.find(reg_id);
    if (it == sockets_.end()) return;  // removed by a handler mid-drain
    const int fd = it->second->fd_;

#if DAT_NETIO_HAVE_MMSG
    if (options_.batch_syscalls) {
      const unsigned batch = options_.recv_batch;
      for (unsigned i = 0; i < batch; ++i) {
        s.iovecs[i] = iovec{s.bufs[i].data(), s.bufs[i].size()};
        s.hdrs[i] = mmsghdr{};
        s.hdrs[i].msg_hdr.msg_name = &s.addrs[i];
        s.hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        s.hdrs[i].msg_hdr.msg_iov = &s.iovecs[i];
        s.hdrs[i].msg_hdr.msg_iovlen = 1;
      }
      const int n = ::recvmmsg(fd, s.hdrs.data(), batch,
                               MSG_DONTWAIT | MSG_TRUNC, nullptr);
      stats.recv_syscalls.fetch_add(1, std::memory_order_relaxed);
      if (n < 0) {
        const int err = errno;
        if (err == EAGAIN || err == EWOULDBLOCK) return;
        if (err == EINTR) continue;
        if (err == ECONNREFUSED) {
          // Deferred ICMP port-unreachable from an earlier send to a dead
          // peer; it does not affect this socket's ability to receive.
          continue;
        }
        if (scratch_->log_warn) {
          DAT_LOG_WARN("netio", "recvmmsg failed: " << errno_message(err));
        }
        return;
      }
      for (int i = 0; i < n; ++i) {
        handle_inbound(reg_id, s.addrs[i], s.hdrs[i].msg_hdr.msg_namelen,
                       s.hdrs[i].msg_len,
                       (s.hdrs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0,
                       s.bufs[i].data());
      }
      if (n < static_cast<int>(batch)) return;  // socket drained
      continue;
    }
#endif
    // Portable fallback: one recvfrom per datagram.
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    const ssize_t n =
        ::recvfrom(fd, s.bufs[0].data(), s.bufs[0].size(),
                   MSG_DONTWAIT | MSG_TRUNC,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    stats.recv_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR || err == ECONNREFUSED) continue;
      if (scratch_->log_warn) {
        DAT_LOG_WARN("netio", "recvfrom failed: " << errno_message(err));
      }
      return;
    }
    handle_inbound(reg_id, from, from_len, static_cast<std::size_t>(n),
                   static_cast<std::size_t>(n) > s.bufs[0].size(),
                   s.bufs[0].data());
  }
}

// -------------------------------------------------------------- event loop

void Reactor::iterate(std::uint64_t max_wait_us) {
  // Refresh the cached log gates once per iteration instead of per datagram.
  scratch_->log_debug = Logger::instance().enabled(LogLevel::kDebug);
  scratch_->log_warn = Logger::instance().enabled(LogLevel::kWarn);
  run_tasks();
  wheel_.advance(now_us());
  flush_all();
  reap_graveyard();

  std::uint64_t wait_us = max_wait_us;
  if (!wheel_.empty()) {
    // Bound the sleep to one wheel tick so due timers are observed with at
    // most a tick of slack.
    wait_us = std::min(wait_us, options_.timer_tick_us);
  }
  const int timeout_ms =
      static_cast<int>(std::min<std::uint64_t>(wait_us / 1000 + 1, 100));

  epoll_event events[kMaxEpollEvents];
  const int ready =
      ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
  scratch_->stats.epoll_waits.fetch_add(1, std::memory_order_relaxed);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw_errno("epoll_wait");
  }
  for (int i = 0; i < ready; ++i) {
    if (events[i].data.u64 == kEventFdTag) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(event_fd_, &drained, sizeof drained);
      continue;
    }
    drain_fd(events[i].data.u64);
  }
  run_tasks();
  wheel_.advance(now_us());
  flush_all();
  reap_graveyard();
}

void Reactor::poll_once(std::uint64_t max_wait_us) {
  if (running()) {
    throw std::logic_error("Reactor::poll_once: shard thread is running");
  }
  iterate(max_wait_us);
}

void Reactor::run_loop() {
  loop_thread_id_.store(std::this_thread::get_id(),
                        std::memory_order_release);
  while (running_.load(std::memory_order_acquire)) {
    iterate(100'000);
  }
  loop_thread_id_.store(std::thread::id{}, std::memory_order_release);
}

void Reactor::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] { run_loop(); });
}

void Reactor::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  post([] {});  // wake the loop so it observes running_ == false
  if (thread_.joinable()) thread_.join();
  // Drain stragglers on the caller: posted promises must still resolve and
  // pending coalesced datagrams must still hit the wire.
  run_tasks();
  flush_all();
  reap_graveyard();
}

ReactorCounters Reactor::counters() const {
  const Scratch::Stats& s = scratch_->stats;
  ReactorCounters c;
  c.epoll_waits = s.epoll_waits.load(std::memory_order_relaxed);
  c.recv_syscalls = s.recv_syscalls.load(std::memory_order_relaxed);
  c.send_syscalls = s.send_syscalls.load(std::memory_order_relaxed);
  c.datagrams_in = s.datagrams_in.load(std::memory_order_relaxed);
  c.datagrams_out = s.datagrams_out.load(std::memory_order_relaxed);
  c.frames_in = s.frames_in.load(std::memory_order_relaxed);
  c.frames_out = s.frames_out.load(std::memory_order_relaxed);
  c.coalesced_datagrams_out =
      s.coalesced_datagrams_out.load(std::memory_order_relaxed);
  c.batch_datagrams_in = s.batch_datagrams_in.load(std::memory_order_relaxed);
  c.truncated_in = s.truncated_in.load(std::memory_order_relaxed);
  c.send_errors = s.send_errors.load(std::memory_order_relaxed);
  c.tasks_run = s.tasks_run.load(std::memory_order_relaxed);
  return c;
}

std::size_t Reactor::socket_count() const { return sockets_.size(); }

}  // namespace dat::netio
