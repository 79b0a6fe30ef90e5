#include "probe.h"

#include <algorithm>

#include "stats.h"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_probe_id{1};

struct LocalSlot {
  std::uint64_t probe_id = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

// Token layout: buffer index + 1 in the high 24 bits, event index in the low 40.
constexpr int kIndexBits = 40;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

void add_self(WorkerLedger& w, Op op, double self) {
  switch (layer_of(op)) {
    case Layer::kCompute: w.compute += self; break;
    case Layer::kStorage: w.storage += self; break;
    case Layer::kQueue: w.queue += self; break;
  }
}

}  // namespace

Layer layer_of(Op op) {
  switch (op) {
    case Op::kSend:
    case Op::kReceive:
    case Op::kDelete:
    case Op::kQueueOther:
      return Layer::kQueue;
    case Op::kCap3:
    case Op::kBlast:
    case Op::kGtm:
    case Op::kMapFn:
    case Op::kReduceFn:
      return Layer::kCompute;
    default:
      return Layer::kStorage;
  }
}

Op op_of_site(std::string_view site) {
  const std::size_t dot = site.rfind('.');
  const std::string_view verb = dot == std::string_view::npos ? site : site.substr(dot + 1);
  if (site.substr(0, 7) == "cloudq.") {
    if (verb == "send") return Op::kSend;
    if (verb == "receive") return Op::kReceive;
    if (verb == "delete") return Op::kDelete;
    return Op::kQueueOther;
  }
  if (site.substr(0, 6) == "cache.") return verb == "hit" ? Op::kCacheHit : Op::kCacheMiss;
  if (verb == "get") return Op::kGet;
  if (verb == "put") return Op::kPut;
  if (verb == "list") return Op::kList;
  return Op::kStorageOther;
}

Probe::Probe() : id_(g_next_probe_id.fetch_add(1)) {
  local();  // the constructing thread becomes track 0, the coordinator
}

Probe::Buffer& Probe::local() {
  if (t_slot.probe_id == id_) return *static_cast<Buffer*>(t_slot.buffer);
  std::lock_guard lock(mu_);
  auto buffer = std::make_unique<Buffer>();
  buffer->track.index = static_cast<int>(buffers_.size());
  buffer->track.events.reserve(256);
  t_slot.probe_id = id_;
  t_slot.buffer = buffer.get();
  buffers_.push_back(std::move(buffer));
  return *buffers_.back();
}

std::uint64_t Probe::open(Op op, bool sort_run) {
  Buffer& b = local();
  Event e;
  e.op = op;
  e.sort_run = sort_run;
  e.start = now_s();
  std::lock_guard lock(b.mu);
  b.track.events.push_back(e);
  return (static_cast<std::uint64_t>(b.track.index + 1) << kIndexBits) |
         static_cast<std::uint64_t>(b.track.events.size() - 1);
}

void Probe::close(std::uint64_t token, bool cancelled) {
  const double t = now_s();
  const auto buffer_index = static_cast<std::size_t>(token >> kIndexBits) - 1;
  Buffer* b = nullptr;
  if (t_slot.probe_id == id_ &&
      static_cast<Buffer*>(t_slot.buffer)->track.index == static_cast<int>(buffer_index)) {
    b = static_cast<Buffer*>(t_slot.buffer);  // closed on the opening thread: no registry lock
  } else {
    std::lock_guard lock(mu_);
    if (buffer_index >= buffers_.size()) return;
    b = buffers_[buffer_index].get();
  }
  std::lock_guard lock(b->mu);
  Event& e = b->track.events.at(static_cast<std::size_t>(token & kIndexMask));
  e.end = t;
  e.cancelled = cancelled;
}

std::uint64_t Probe::op_begin(std::string_view site, std::string_view key) {
  if (!tracing()) return 0;
  const Op op = op_of_site(site);
  const bool sort_run = layer_of(op) == Layer::kStorage && key.find("/run") != std::string_view::npos;
  return open(op, sort_run);
}

void Probe::op_end(std::uint64_t token, bool /*failed*/) {
  if (token != 0) close(token, false);
}

void Probe::op_cancel(std::uint64_t token) {
  if (token != 0) close(token, true);
}

std::uint64_t Probe::begin(Op op) { return tracing() ? open(op, false) : 0; }

std::vector<ThreadTrack> Probe::tracks() const {
  std::vector<ThreadTrack> out;
  std::lock_guard lock(mu_);
  out.reserve(buffers_.size());
  for (const auto& b : buffers_) {
    std::lock_guard block(b->mu);
    out.push_back(b->track);
  }
  return out;
}

// ---------------------------------------------------------------- ledger ---

bool JobLedger::closes() const {
  if (nesting_errors != 0 || open_intervals != 0) return false;
  for (const WorkerLedger& w : workers) {
    if (w.attributed() > w.wall * (1.0 + kLedgerTolerance) + 1e-3) return false;
  }
  return true;
}

double JobLedger::worst_excess() const {
  double worst = 0.0;
  for (const WorkerLedger& w : workers) {
    if (w.wall > 0.0) worst = std::max(worst, (w.attributed() - w.wall) / w.wall);
  }
  return worst;
}

double JobLedger::total_wall() const {
  double sum = 0.0;
  for (const WorkerLedger& w : workers) sum += w.wall;
  return sum;
}

double JobLedger::share(Layer layer) const {
  const double wall = total_wall();
  if (wall <= 0.0) return 0.0;
  double sum = 0.0;
  for (const WorkerLedger& w : workers) {
    sum += layer == Layer::kCompute ? w.compute : layer == Layer::kStorage ? w.storage : w.queue;
  }
  return sum / wall;
}

double JobLedger::overhead_share() const {
  const double wall = total_wall();
  if (wall <= 0.0) return 0.0;
  double sum = 0.0;
  for (const WorkerLedger& w : workers) sum += w.overhead();
  return sum / wall;
}

double JobLedger::imbalance() const {
  double sum = 0.0;
  double peak = 0.0;
  for (const WorkerLedger& w : workers) {
    sum += w.attributed();
    peak = std::max(peak, w.attributed());
  }
  if (workers.empty() || sum <= 0.0) return 1.0;
  return peak / (sum / static_cast<double>(workers.size()));
}

double JobLedger::idle_tail_frac() const {
  double worst = 0.0;
  for (const WorkerLedger& w : workers) {
    if (w.wall > 0.0) worst = std::max(worst, (w.wall - w.last_end) / w.wall);
  }
  return worst;
}

JobLedger build_ledger(const std::vector<ThreadTrack>& tracks, double t0, double t1,
                       int workers) {
  constexpr double kEps = 1e-9;
  JobLedger ledger;
  const double wall = std::max(0.0, t1 - t0);
  for (const ThreadTrack& track : tracks) {
    if (track.index == 0) continue;  // the coordinator is not a worker
    std::vector<Event> events;
    for (const Event& e : track.events) {
      if (!e.closed()) {
        if (e.start >= t0 && e.start <= t1) ++ledger.open_intervals;
        continue;
      }
      if (e.end <= t0 || e.start >= t1) continue;
      Event clipped = e;
      clipped.start = std::max(e.start, t0);
      clipped.end = std::min(e.end, t1);
      events.push_back(clipped);
    }
    if (events.empty()) continue;
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });

    WorkerLedger w;
    w.track = track.index;
    w.wall = wall;
    struct Frame {
      double end;
      double duration;
      double children;
      Op op;
    };
    std::vector<Frame> stack;
    auto pop = [&]() {
      const Frame f = stack.back();
      stack.pop_back();
      add_self(w, f.op, std::max(0.0, f.duration - f.children));
    };
    double last_work_end = t0;
    for (Event& e : events) {
      while (!stack.empty() && stack.back().end <= e.start + kEps) pop();
      if (!stack.empty()) {
        if (e.end > stack.back().end + kEps) {
          ++ledger.nesting_errors;  // overlaps its parent's end: cut it there
          e.end = stack.back().end;
        }
        stack.back().children += e.end - e.start;
      }
      stack.push_back(Frame{e.end, e.end - e.start, 0.0, e.op});
      // Receive polls continue while a worker idles; its work ends with the
      // last interval of any other kind.
      if (e.op != Op::kReceive) last_work_end = std::max(last_work_end, e.end);
    }
    while (!stack.empty()) pop();
    w.last_end = last_work_end - t0;
    ledger.workers.push_back(w);
  }
  while (static_cast<int>(ledger.workers.size()) < workers) {
    WorkerLedger idle;
    idle.wall = wall;
    ledger.workers.push_back(idle);
  }
  return ledger;
}

std::vector<double> durations(const std::vector<ThreadTrack>& tracks, Op op, double t0,
                              double t1) {
  std::vector<double> out;
  for (const ThreadTrack& track : tracks) {
    for (const Event& e : track.events) {
      if (e.op == op && e.closed() && e.start >= t0 && e.end <= t1) out.push_back(e.duration());
    }
  }
  return out;
}

std::size_t count_ops(const std::vector<ThreadTrack>& tracks, Op op, double t0, double t1,
                      bool cancelled) {
  std::size_t n = 0;
  for (const ThreadTrack& track : tracks) {
    for (const Event& e : track.events) {
      if (e.op == op && e.closed() && e.cancelled == cancelled && e.start >= t0 && e.end <= t1) {
        ++n;
      }
    }
  }
  return n;
}

}  // namespace perfbench
