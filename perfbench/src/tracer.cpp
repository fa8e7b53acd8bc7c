#include "tracer.hpp"

#include <cstdio>
#include <limits>

namespace perfbench {

namespace {
std::uint32_t clamp32(std::uint64_t v) noexcept {
  return v > std::numeric_limits<std::uint32_t>::max()
             ? std::numeric_limits<std::uint32_t>::max()
             : static_cast<std::uint32_t>(v);
}
}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kPump: return "pump";
    case Layer::kSend: return "net.send";
    case Layer::kRecv: return "net.recv";
    case Layer::kChord: return "chord.timer";
    case Layer::kDat: return "dat.epoch";
    case Layer::kObs: return "obs.selfmon";
    case Layer::kNetTimer: return "net.timer";
    case Layer::kQuery: return "dat.query_issue";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t keep)
    : t0_(std::chrono::steady_clock::now()), keep_(keep) {
  stack_.reserve(64);
}

Layer Tracer::classify_timer(std::uint64_t delay_us) const noexcept {
  for (const Band& band : bands_) {
    if (delay_us >= band.lo_us && delay_us <= band.hi_us) return band.layer;
  }
  return Layer::kNetTimer;
}

void Tracer::reset() {
  totals_ = {};
  top_callbacks_.clear();
  records_.clear();
  // Only a traced window pays for the span buffer; an untraced run's peak
  // RSS is the fleet's own.
  if (enabled_) records_.reserve(keep_);
  dropped_records_ = 0;
}

void Tracer::enter() noexcept {
  stack_.push_back({next_id_++, now_ns(), 0, leaf_ran_});
}

void Tracer::enter_timer() noexcept {
  enter();
  leaf_ran_ = false;
}

void Tracer::leave_timer(Layer by_period) noexcept {
  const Layer layer = leaf_ran_ ? Layer::kDat : by_period;
  leaf_ran_ = stack_.back().saved_leaf;
  leave(layer);
}

void Tracer::leave(Layer layer) noexcept {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = now_ns() - frame.start_ns;
  const std::uint64_t self = dur > frame.child_ns ? dur - frame.child_ns : 0;
  Totals& t = totals_[static_cast<std::size_t>(layer)];
  ++t.spans;
  t.self_ns += self;
  std::uint64_t parent = 0;
  if (!stack_.empty()) {
    Frame& up = stack_.back();
    up.child_ns += dur;
    parent = up.id;
    // Direct children of the pump are the callbacks that block it.
    if (stack_.size() == 1) top_callbacks_.push_back(clamp32(dur));
  }
  if (records_.size() < keep_) {
    records_.push_back(
        {frame.id, parent, frame.start_ns, clamp32(dur), clamp32(self), layer});
  } else {
    ++dropped_records_;
  }
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,layer,start_ns,dur_ns,self_ns\n");
  for (const SpanRecord& r : records_) {
    std::fprintf(f, "%llu,%llu,%s,%llu,%u,%u\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 layer_name(r.layer),
                 static_cast<unsigned long long>(r.start_ns), r.dur_ns,
                 r.self_ns);
  }
  return std::fclose(f) == 0;
}

// -- TracedTransport -----------------------------------------------------

void TracedTransport::send(dat::net::Endpoint to, const dat::net::Message& msg) {
  if (tracer_.enabled()) {
    tracer_.enter();
    inner_.send(to, msg);
    tracer_.leave(Layer::kSend);
  } else {
    inner_.send(to, msg);
  }
  counters_ = inner_.counters();
}

void TracedTransport::set_receive_handler(ReceiveHandler handler) {
  if (!handler) {
    inner_.set_receive_handler(nullptr);
    return;
  }
  inner_.set_receive_handler(
      [this, handler = std::move(handler)](dat::net::Endpoint from,
                                           const dat::net::Message& msg) {
        counters_ = inner_.counters();
        if (!tracer_.enabled()) {
          handler(from, msg);
          return;
        }
        tracer_.enter();
        try {
          handler(from, msg);
        } catch (...) {
          tracer_.leave(Layer::kRecv);
          throw;
        }
        tracer_.leave(Layer::kRecv);
      });
}

dat::net::TimerId TracedTransport::set_timer(std::uint64_t delay_us,
                                             std::function<void()> cb) {
  const Layer by_period = tracer_.classify_timer(delay_us);
  return inner_.set_timer(
      delay_us, [this, by_period, cb = std::move(cb)] {
        if (!tracer_.enabled()) {
          cb();
          return;
        }
        tracer_.enter_timer();
        try {
          cb();
        } catch (...) {
          tracer_.leave_timer(by_period);
          throw;
        }
        tracer_.leave_timer(by_period);
      });
}

}  // namespace perfbench
