// The benchmark's own tracing: a ppc::TraceHook that the storage backends
// and queues call through their public set_tracer() seams, plus brackets the
// benchmark puts around every user function it hands to an engine. Nothing
// here reaches inside the program; every interval is a call into a public
// function or seam, timed from the outside on the calling thread.
//
// From those intervals build_ledger() closes each worker's books for one
// job window: compute + storage + queue + engine overhead = worker wall.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace_hook.h"

namespace perfbench {

enum class Layer : std::uint8_t { kCompute, kStorage, kQueue };

enum class Op : std::uint8_t {
  // storage: "blobstore.<bucket>.<op>" sites
  kGet,
  kPut,
  kList,
  kStorageOther,
  // storage: "cache.<bucket>.hit" / ".miss" block-cache sites
  kCacheHit,
  kCacheMiss,
  // queue: "cloudq.<queue>.<op>" sites
  kSend,
  kReceive,
  kDelete,
  kQueueOther,
  // compute: the benchmark's wrappers around user functions
  kCap3,
  kBlast,
  kGtm,
  kMapFn,
  kReduceFn,
};

Layer layer_of(Op op);

/// Classifies a TraceHook site ("blobstore.job.get", "cloudq.x-tasks.send",
/// "cache.job.hit"). Unknown sites count as storage.
Op op_of_site(std::string_view site);

struct Event {
  Op op = Op::kGet;
  /// Closed with op_cancel(): an empty receive poll.
  bool cancelled = false;
  /// Storage key of an external-sort run ("<job>/r<r>.a<a>/run<n>").
  bool sort_run = false;
  double start = 0.0;
  double end = -1.0;  // < start while the interval is open

  bool closed() const { return end >= start; }
  double duration() const { return end - start; }
};

/// Everything one thread recorded. Track 0 is the thread that built the
/// Probe — the benchmark's coordinator.
struct ThreadTrack {
  int index = 0;
  std::vector<Event> events;
};

class Probe final : public ppc::TraceHook {
 public:
  Probe();
  ~Probe() override = default;
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // --- ppc::TraceHook ---
  bool tracing() const override { return enabled_.load(std::memory_order_relaxed); }
  std::uint64_t op_begin(std::string_view site, std::string_view key) override;
  void op_end(std::uint64_t token, bool failed) override;
  void op_cancel(std::uint64_t token) override;

  /// Opens an interval for one call of a user function; 0 when disabled.
  std::uint64_t begin(Op op);
  void end(std::uint64_t token) { close(token, false); }

  /// Copy of every thread's intervals. Call once the workers have joined.
  std::vector<ThreadTrack> tracks() const;

 private:
  struct Buffer {
    std::mutex mu;
    ThreadTrack track;
  };

  Buffer& local();
  std::uint64_t open(Op op, bool sort_run);
  void close(std::uint64_t token, bool cancelled);

  const std::uint64_t id_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII bracket around one user-function call; a no-op without a probe.
class Timed {
 public:
  Timed(Probe* probe, Op op) : probe_(probe), token_(probe != nullptr ? probe->begin(op) : 0) {}
  ~Timed() {
    if (token_ != 0) probe_->end(token_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Probe* probe_;
  std::uint64_t token_;
};

/// One worker's books for one job window, in seconds of self time (an
/// interval's own duration minus the intervals nested inside it).
struct WorkerLedger {
  int track = -1;  // -1: a worker slot that recorded nothing
  double wall = 0.0;
  double compute = 0.0;
  double storage = 0.0;
  double queue = 0.0;
  /// Window-relative end of this worker's last interval (0 when idle).
  double last_end = 0.0;

  double attributed() const { return compute + storage + queue; }
  double overhead() const { return wall - attributed(); }
};

/// Tolerance the ledger must close within: the attributed time of a worker
/// may exceed its wall by at most this fraction (plus 1 ms of clock skew).
inline constexpr double kLedgerTolerance = 0.01;

struct JobLedger {
  std::vector<WorkerLedger> workers;
  /// Intervals that overlapped without nesting, or never closed — either
  /// means a seam was attributed twice.
  int nesting_errors = 0;
  int open_intervals = 0;

  /// True when every worker's compute + storage + queue fits inside its
  /// wall within kLedgerTolerance and every interval nested cleanly.
  bool closes() const;
  double worst_excess() const;  // max (attributed - wall) / wall
  double total_wall() const;
  double share(Layer layer) const;  // layer self time / total worker wall
  double overhead_share() const;
  double imbalance() const;       // max / mean worker busy time
  double idle_tail_frac() const;  // worst worker's idle tail / wall
};

/// Builds the ledger for the window [t0, t1] from every track except the
/// coordinator's. Rows: one per worker track that recorded an interval in
/// the window, padded with idle rows up to `workers`.
JobLedger build_ledger(const std::vector<ThreadTrack>& tracks, double t0, double t1, int workers);

/// Durations (seconds) of every closed interval of `op` inside [t0, t1], on
/// every thread including the coordinator.
std::vector<double> durations(const std::vector<ThreadTrack>& tracks, Op op, double t0,
                              double t1);

/// Number of intervals of `op` inside [t0, t1] matching `cancelled`.
std::size_t count_ops(const std::vector<ThreadTrack>& tracks, Op op, double t0, double t1,
                      bool cancelled);

}  // namespace perfbench
