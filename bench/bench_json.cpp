// Machine-readable performance baseline: times each optimized kernel
// against a naive reference compiled into this binary (the seed's
// algorithms), plus each substrate end to end on a fixed micro workload,
// and emits BENCH_micro.json. CI runs `bench_json --check bench/baseline.json`
// and fails when any kernel's speedup over its naive reference falls under
// half the checked-in baseline's (a kernel with no faster variant, its own
// reference, when its time regresses more than 2x), when a gated substrate
// row regresses more than 2x, when a baseline row is missing from the
// output, or when a gated row has no baseline entry. A speedup is measured
// against a reference in the same binary on the same host, so the kernel
// gates do not depend on the hardware the baseline was recorded on. The
// object store's bucket index is gated the same way, against the
// std::unordered_map bucket it replaced.
//
// Timing discipline: every kernel sample is the MINIMUM of several runs —
// on a shared core the minimum estimates the uncontended cost, where mean
// and median absorb scheduler noise — and a kernel's fast and naive runs
// alternate, so host load lands on both. A sample too short to time alone
// (a block-cache hit) repeats its pass for at least 5 ms. The 3% overhead
// gates compare two arms instead, so they use paired_overhead: samples of
// at least 0.25 s per arm, the arms interleaved pass by pass, the median of
// the paired ratios.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/blast/aligner.h"
#include "cloud/instance_types.h"
#include "core/drivers.h"
#include "core/exec_model.h"
#include "core/workload.h"
#include "apps/blast/db.h"
#include "apps/blast/protein.h"
#include "apps/cap3/assembler.h"
#include "apps/cap3/read_simulator.h"
#include "apps/gtm/gtm.h"
#include "apps/gtm/matrix.h"
#include "blobstore/blob_store.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "azuremr/runtime.h"
#include "common/clock.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "common/fault_hook.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/shuffle_job.h"
#include "minihdfs/mini_hdfs.h"
#include "runtime/metrics.h"
#include "runtime/monitor.h"
#include "runtime/tracer.h"
#include "storage/block_cache.h"
#include "storage/fs_backends.h"
#include "kernel_reference.h"

namespace {

using namespace ppc;
using apps::gtm::Matrix;

// --------------------------------------------------------------------------
// Timing
// --------------------------------------------------------------------------

template <typename Fn>
double min_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Minimum seconds of `fast` and of `naive` over `reps` runs each, the two
/// interleaved (the first arm swapping every rep), so a burst of host load
/// lands on both and their ratio, the speedup, stays put.
template <typename Fast, typename Naive>
std::pair<double, double> min_seconds_interleaved(int reps, Fast&& fast, Naive&& naive) {
  double best_fast = 1e300, best_naive = 1e300;
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      best_fast = std::min(best_fast, min_seconds(1, fast));
      best_naive = std::min(best_naive, min_seconds(1, naive));
    } else {
      best_naive = std::min(best_naive, min_seconds(1, naive));
      best_fast = std::min(best_fast, min_seconds(1, fast));
    }
  }
  return {best_fast, best_naive};
}

/// min_seconds for a pass too short to time alone: each of the `reps`
/// samples repeats `pass` for at least `min_sample` seconds and yields the
/// seconds per pass.
template <typename Fn>
double min_seconds_per_pass(int reps, double min_sample, Fn&& pass) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    int passes = 0;
    for (; elapsed < min_sample; ++passes) {
      pass();
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }
    best = std::min(best, elapsed / passes);
  }
  return best;
}

/// One pass of a benchmark's work; it keeps its services across calls.
using Pass = std::function<void()>;

/// Seconds one call of `pass` takes.
double seconds_of(const Pass& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  pass();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// An overhead contract as measured: what the instrumented arm costs over
/// the plain arm running the same work.
struct Overhead {
  double plain_seconds = 0.0;         // median plain sample, per pass
  double instrumented_seconds = 0.0;  // median instrumented sample, per pass
  double ratio = 0.0;                 // median of the paired ratios
};

/// Measures `instrumented` against `plain` the way every 3% gate does. A
/// pair of samples alternates one pass of each arm, the first arm swapping
/// every pass, until each arm has at least 0.25 s of work; the ratio is the
/// median over the pairs of instrumented / plain time. The passes are short
/// (~1.5 ms), so a burst of host load lands on both arms of a pair. A
/// best-of-N over ~60 ms windows of one arm at a time swung +-10% on a
/// shared 4-vCPU host; this keeps the pairs within about 1%.
Overhead paired_overhead(const Pass& plain, const Pass& instrumented) {
  constexpr double kMinSampleSeconds = 0.25;
  constexpr int kPairs = 9;
  (void)seconds_of(instrumented);  // warm both arms
  (void)seconds_of(plain);
  SampleSet plain_s, instrumented_s, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double p = 0.0, q = 0.0;
    int passes = 0;
    for (; p < kMinSampleSeconds || q < kMinSampleSeconds; ++passes) {
      if (passes % 2 == 0) {
        p += seconds_of(plain);
        q += seconds_of(instrumented);
      } else {
        q += seconds_of(instrumented);
        p += seconds_of(plain);
      }
    }
    plain_s.add(p / passes);
    instrumented_s.add(q / passes);
    ratios.add(q / p);
  }
  return {plain_s.median(), instrumented_s.median(), ratios.median()};
}

struct KernelResult {
  std::string name;
  double ns_per_op = 0.0;        // optimized kernel
  double naive_ns_per_op = 0.0;  // reference compiled into this binary
  double speedup = 0.0;
  /// No faster variant exists: the kernel is its own reference, so its row
  /// is gated on ns_per_op instead of the speedup.
  bool own_reference = false;
};

struct SubstrateResult {
  std::string name;
  int tasks = 0;
  double seconds = 0.0;
  double tasks_per_second = 0.0;
};

// --------------------------------------------------------------------------
// Naive kernel references (the seed's algorithms)
// --------------------------------------------------------------------------

/// The seed's multiply: i-k-j loop order streaming B row-wise.
Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* b_row = &b.data()[k * b.cols()];
      double* c_row = &c.data()[i * b.cols()];
      for (std::size_t j = 0; j < b.cols(); ++j) c_row[j] += aik * b_row[j];
    }
  }
  return c;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// The seed's string-keyed BLAST index: one substring allocation and one
/// string hash per database position, rebuilt here as the build+search
/// reference.
class NaiveBlastIndex {
 public:
  NaiveBlastIndex(const apps::blast::SequenceDb& db, apps::blast::AlignerConfig config)
      : db_(db), config_(config) {
    for (std::size_t s = 0; s < db_.size(); ++s) {
      const std::string& seq = db_.record(s).seq;
      if (seq.size() < config_.k) continue;
      for (std::size_t p = 0; p + config_.k <= seq.size(); ++p) {
        bool standard = true;
        for (std::size_t i = 0; i < config_.k; ++i) {
          standard = standard && apps::blast::amino_index(seq[p + i]) >= 0;
        }
        if (standard) index_[seq.substr(p, config_.k)].push_back({s, p});
      }
    }
  }

  int search(const apps::blast::FastaRecord& query) const {
    const std::string& q = query.seq;
    if (q.size() < config_.k) return 0;
    std::map<std::size_t, int> best_per_subject;
    for (std::size_t qp = 0; qp + config_.k <= q.size(); ++qp) {
      int seed_score = 0;
      bool standard = true;
      for (std::size_t i = 0; i < config_.k; ++i) {
        standard = standard && apps::blast::amino_index(q[qp + i]) >= 0;
        seed_score += apps::blast::blosum62(q[qp + i], q[qp + i]);
      }
      if (!standard || seed_score < config_.seed_threshold) continue;
      const auto it = index_.find(q.substr(qp, config_.k));
      if (it == index_.end()) continue;
      for (const auto& [sidx, sp] : it->second) {
        const std::string& s = db_.record(sidx).seq;
        int best_score = seed_score;
        std::size_t best_right = config_.k;
        int run = seed_score;
        for (std::size_t i = config_.k; qp + i < q.size() && sp + i < s.size();) {
          run += apps::blast::blosum62(q[qp + i], s[sp + i]);
          ++i;
          if (run > best_score) {
            best_score = run;
            best_right = i;
          } else if (run < best_score - config_.x_drop) {
            break;
          }
        }
        int local_best = best_score;
        run = best_score;
        for (std::size_t i = 0; qp > i && sp > i;) {
          ++i;
          run += apps::blast::blosum62(q[qp - i], s[sp - i]);
          if (run > local_best) {
            local_best = run;
          } else if (run < local_best - config_.x_drop) {
            break;
          }
        }
        (void)best_right;
        if (local_best < config_.score_cutoff) continue;
        int& cur = best_per_subject[sidx];
        cur = std::max(cur, local_best);
      }
    }
    int total = 0;
    for (const auto& [_, score] : best_per_subject) total += score;
    return total;
  }

 private:
  apps::blast::SequenceDb db_;
  apps::blast::AlignerConfig config_;
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>> index_;
};

// --------------------------------------------------------------------------
// Kernel benchmarks
// --------------------------------------------------------------------------

KernelResult bench_matrix_multiply() {
  Rng rng(1);
  const std::size_t n = 512;
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  volatile double sink = 0.0;

  const auto [fast, naive] = min_seconds_interleaved(
      7, [&] { sink = a.multiply(b)(0, 0); }, [&] { sink = naive_multiply(a, b)(0, 0); });
  (void)sink;
  return {"matrix_multiply_512", fast * 1e9, naive * 1e9, naive / fast};
}

KernelResult bench_cholesky() {
  Rng rng(2);
  const std::size_t n = 160, cols = 32;
  const Matrix b0 = random_matrix(n, n, rng);
  Matrix a = b0.multiply(b0.transpose());
  a.add_diagonal(static_cast<double>(n));
  const Matrix rhs = random_matrix(n, cols, rng);
  volatile double sink = 0.0;

  // The naive arm is the seed's behavior: one full factorization per
  // right-hand-side column.
  const auto [fast, naive] = min_seconds_interleaved(
      9, [&] { sink = apps::gtm::cholesky_solve_matrix(a, rhs)(0, 0); },
      [&] {
        double acc = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
          std::vector<double> col(n);
          for (std::size_t r = 0; r < n; ++r) col[r] = rhs(r, c);
          acc += apps::gtm::cholesky_solve(a, col)[0];
        }
        sink = acc;
      });
  (void)sink;
  return {"cholesky_solve_matrix_160x32", fast * 1e9, naive * 1e9, naive / fast};
}

KernelResult bench_blast() {
  Rng rng(3);
  apps::blast::DbGenConfig db_config;
  db_config.num_sequences = 60;
  const auto db = apps::blast::SequenceDb::generate(db_config, rng);
  std::vector<apps::blast::FastaRecord> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back({"q" + std::to_string(i),
                       apps::blast::plant_query(db, static_cast<std::size_t>(i % 60), 120,
                                                i % 3 == 0 ? 0.0 : 0.1, rng)});
  }
  volatile int sink = 0;

  const auto [fast, naive] = min_seconds_interleaved(
      7,
      [&] {
        apps::blast::BlastIndex index(db);
        int acc = 0;
        for (const auto& q : queries) acc += static_cast<int>(index.search(q).size());
        sink = acc;
      },
      [&] {
        NaiveBlastIndex index(db, apps::blast::AlignerConfig{});
        int acc = 0;
        for (const auto& q : queries) acc += index.search(q);
        sink = acc;
      });
  (void)sink;
  return {"blast_build_search_60x20", fast * 1e9, naive * 1e9, naive / fast};
}

/// Cap3 on the repo benchmark's largest Cap3 file (93 reads, min_overlap
/// 30): packed k-mers and hashed vote sets against the string-keyed index
/// and std::map votes.
KernelResult bench_cap3_assemble() {
  Rng rng(5);
  const auto reads = apps::parse_fasta(apps::cap3::make_cap3_input(93, rng));
  apps::cap3::AssemblerConfig config;
  config.min_overlap = 30;
  volatile std::size_t sink = 0;
  const auto [fast, naive] = min_seconds_interleaved(
      9, [&] { sink = apps::cap3::assemble(reads, config).stats.overlaps_accepted; },
      [&] { sink = apps::kernel_reference::assemble(reads, config).stats.overlaps_accepted; });
  (void)sink;
  return {"cap3_assemble_93reads", fast * 1e9, naive * 1e9, naive / fast};
}

/// GTM interpolation of the repo benchmark's largest GTM file (2800 points,
/// D = 16, K = 256): the fused point-major E-step against the K x N one.
KernelResult bench_gtm_interpolate() {
  Rng rng(6);
  const auto model = apps::kernel_reference::train_mixed_job_model(16, rng);
  const Matrix points = apps::kernel_reference::clustered_points(2800, 16, 0.0, rng);
  volatile double sink = 0.0;
  const auto [fast, naive] = min_seconds_interleaved(
      9, [&] { sink = model.interpolate(points)(0, 0); },
      [&] { sink = apps::kernel_reference::interpolate(model, points)(0, 0); });
  (void)sink;
  return {"gtm_interpolate_2800x16", fast * 1e9, naive * 1e9, naive / fast};
}

/// 1 MiB of run-time random bytes for the checksum rows.
std::string checksum_buffer() {
  Rng rng(4);
  std::string buf(1024 * 1024, '\0');
  for (auto& c : buf) c = static_cast<char>(rng.next_u64() & 0xFF);
  return buf;
}

/// fnv1a64 over 1 MiB: the identity hash every real put still pays (etag,
/// block-cache address). It has no faster variant here, so it is its own
/// reference (speedup 1.00); the row tracks its cost.
KernelResult bench_checksum_fnv1a64() {
  const std::string buf = checksum_buffer();
  volatile std::uint64_t sink = 0;
  const double secs = min_seconds(9, [&] { sink = sink + ppc::fnv1a64(buf); });
  (void)sink;
  return {"checksum_fnv1a64_1mb", secs * 1e9, secs * 1e9, 1.0, /*own_reference=*/true};
}

/// crc32c over 1 MiB — the content checksum every verification site uses —
/// against its portable slice-by-8 path, so the speedup is what the
/// hardware instruction buys.
KernelResult bench_checksum_crc32c() {
  const std::string buf = checksum_buffer();
  volatile std::uint32_t sink = 0;
  const auto [fast, naive] =
      min_seconds_interleaved(9, [&] { sink = sink + ppc::crc32c(buf); },
                              [&] { sink = sink + ppc::detail::crc32c_portable(buf); });
  (void)sink;
  return {"checksum_crc32c_1mb", fast * 1e9, naive * 1e9, naive / fast};
}

// --------------------------------------------------------------------------
// Object-store index
// --------------------------------------------------------------------------

/// The object store's put_logical / get / etag path on the node-based
/// std::unordered_map bucket it had before its ppc::KeyIndex: the same
/// registry, meter and bucket locks, hook loads and per-object record, so
/// the row's speedup is what the flat index buys.
class UnorderedMapBlobStore {
 public:
  explicit UnorderedMapBlobStore(std::shared_ptr<const Clock> clock) : clock_(std::move(clock)) {}

  void put_logical(const std::string& bucket, const std::string& key, Bytes size) {
    PPC_REQUIRE(!bucket.empty() && !key.empty(), "bucket and key must be non-empty");
    (void)hook_.load();
    auto b = get_or_create_bucket(bucket);
    {
      std::lock_guard lock(meter_mu_);
      ++puts_;
      bytes_in_ += size;
    }
    std::lock_guard lock(b->mu);
    auto it = b->objects.find(key);
    if (it == b->objects.end()) {
      Object obj;
      obj.data = empty_;
      obj.logical_size = size;
      obj.visible_at = clock_->now();
      obj.is_new = true;
      b->objects.emplace(key, std::move(obj));
    } else {
      it->second.data = empty_;
      it->second.logical_size = size;
      it->second.etag.reset();
      it->second.checksum.reset();
      it->second.is_new = false;
      it->second.visible_at = clock_->now();
    }
  }

  std::shared_ptr<const std::string> get(const std::string& bucket, const std::string& key) {
    {
      std::lock_guard lock(meter_mu_);
      ++gets_;
    }
    auto b = find_bucket(bucket);
    if (b == nullptr) return nullptr;
    std::shared_ptr<const std::string> data;
    Bytes size = 0.0;
    {
      std::lock_guard lock(b->mu);
      auto it = b->objects.find(key);
      if (it == b->objects.end() || it->second.visible_at > clock_->now()) return nullptr;
      data = it->second.data;
      size = it->second.logical_size;
    }
    {
      std::lock_guard lock(meter_mu_);
      bytes_out_ += size;
    }
    (void)hook_.load();
    return data;
  }

  /// Logical objects only, as the row stores nothing else.
  std::optional<std::uint64_t> etag(const std::string& bucket, const std::string& key) const {
    auto b = find_bucket(bucket);
    if (b == nullptr) return std::nullopt;
    std::lock_guard lock(b->mu);
    auto it = b->objects.find(key);
    if (it == b->objects.end() || it->second.visible_at > clock_->now()) return std::nullopt;
    if (!it->second.etag.has_value()) {
      const std::string bytes =
          std::to_string(static_cast<std::uint64_t>(it->second.logical_size));
      std::string identity;
      identity.reserve(8 + bucket.size() + key.size() + bytes.size() + 2);
      identity += "logical:";
      identity += bucket;
      identity += '\0';
      identity += key;
      identity += '\0';
      identity += bytes;
      it->second.etag = ppc::fnv1a64(identity);
    }
    return it->second.etag;
  }

 private:
  struct Object {
    std::shared_ptr<const std::string> data;
    Bytes logical_size = 0.0;
    std::optional<std::uint64_t> etag;
    std::optional<std::uint32_t> checksum;
    Seconds visible_at = 0.0;
    bool is_new = true;
  };
  struct Bucket {
    mutable std::mutex mu;
    std::unordered_map<std::string, Object> objects;
  };

  std::shared_ptr<Bucket> find_bucket(const std::string& bucket) const {
    std::shared_lock lock(registry_mu_);
    auto it = buckets_.find(bucket);
    return it == buckets_.end() ? nullptr : it->second;
  }

  std::shared_ptr<Bucket> get_or_create_bucket(const std::string& bucket) {
    if (auto existing = find_bucket(bucket)) return existing;
    std::unique_lock lock(registry_mu_);
    return buckets_.try_emplace(bucket, std::make_shared<Bucket>()).first->second;
  }

  std::shared_ptr<const Clock> clock_;
  std::shared_ptr<const std::string> empty_ = std::make_shared<const std::string>();
  std::atomic<FaultHook*> hook_{nullptr};
  mutable std::shared_mutex registry_mu_;
  std::map<std::string, std::shared_ptr<Bucket>> buckets_;
  std::mutex meter_mu_;
  std::uint64_t puts_ = 0, gets_ = 0;
  Bytes bytes_in_ = 0.0, bytes_out_ = 0.0;
};

/// One Classic Cloud DES job's traffic on one bucket, on a fresh store
/// (its teardown included): populate puts every input, then each task gets
/// its input, asks its etag and puts its output, over the DES key shapes
/// `input/t<id>` and `output/t<id>` (120k objects). Returns a digest of the
/// etags, so both arms can be checked to agree.
template <typename Store>
std::uint64_t logical_objects_pass(const std::vector<std::string>& inputs,
                                   const std::vector<std::string>& outputs) {
  Store store(std::make_shared<ManualClock>());
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    store.put_logical("job", inputs[i], 1000.0 + static_cast<double>(i));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (store.get("job", inputs[i]) == nullptr) return 0;
    digest = digest * 31 + store.etag("job", inputs[i]).value_or(0);
    store.put_logical("job", outputs[i], 10.0 + static_cast<double>(i));
  }
  return digest;
}

/// The flat-index store against UnorderedMapBlobStore on the same keys,
/// interleaved like the kernel rows.
KernelResult bench_blobstore_logical() {
  constexpr int kTasks = 60000;
  std::vector<std::string> inputs, outputs;
  for (int i = 0; i < kTasks; ++i) {
    inputs.push_back("input/t" + std::to_string(i));
    outputs.push_back("output/t" + std::to_string(i));
  }
  std::uint64_t fast_digest = 0, naive_digest = 0;
  const auto [fast, naive] = min_seconds_interleaved(
      9, [&] { fast_digest = logical_objects_pass<blobstore::BlobStore>(inputs, outputs); },
      [&] { naive_digest = logical_objects_pass<UnorderedMapBlobStore>(inputs, outputs); });
  if (fast_digest == 0 || fast_digest != naive_digest) {
    std::fprintf(stderr, "blobstore_logical_120k: the two stores disagree\n");
  }
  return {"blobstore_logical_120k", fast * 1e9, naive * 1e9, naive / fast};
}

// --------------------------------------------------------------------------
// Substrate end-to-end micro workload
// --------------------------------------------------------------------------

// Substrate workload shape: big enough that throughput measures the control
// plane (queue sharding, batched receive/delete), not thread start-up; the
// shape constants are stamped into BENCH_micro.json's meta block.
constexpr int kClassicTasks = 4096;
constexpr int kClassicWorkers = 2;
constexpr int kAzureMaps = 64;
constexpr int kAzureReduces = 8;
constexpr int kAzureWorkers = 8;
constexpr int kReceiveBatch = 10;
constexpr int kDeleteBatch = 10;
constexpr int kQueueShards = 8;

SubstrateResult bench_classiccloud() {
  auto run_once = [&] {
    auto clock = std::make_shared<SystemClock>();
    blobstore::BlobStore store(clock);
    cloudq::QueueConfig qc;
    qc.shards = kQueueShards;
    cloudq::QueueService queues(clock, qc);
    classiccloud::JobClient client(store, queues, "bench-job");
    std::vector<std::pair<std::string, std::string>> files;
    for (int i = 0; i < kClassicTasks; ++i) {
      files.emplace_back("f" + std::to_string(i), std::string(256, 'x'));
    }
    client.submit(files);
    classiccloud::TaskExecutor executor =
        [](const classiccloud::TaskSpec&, const std::string& input) { return input; };
    classiccloud::WorkerConfig config;
    config.poll_interval = 0.0005;
    config.receive_batch = kReceiveBatch;
    config.delete_batch = kDeleteBatch;
    classiccloud::WorkerPool pool(store, client.task_queue(), client.monitor_queue(), executor,
                                  config, kClassicWorkers);
    pool.start_all();
    const bool done = client.wait_for_completion(60.0, 0.0005);
    pool.stop_all();
    pool.join_all();
    if (!done) std::fprintf(stderr, "classiccloud micro workload timed out\n");
  };
  run_once();  // warm allocators / page in the task path before timing
  const double secs = min_seconds(3, run_once);
  return {"classiccloud", kClassicTasks, secs, kClassicTasks / secs};
}

SubstrateResult bench_azuremr() {
  auto run_once = [&] {
    auto clock = std::make_shared<SystemClock>();
    blobstore::BlobStore store(clock);
    cloudq::QueueConfig qc;
    qc.shards = kQueueShards;
    cloudq::QueueService queues(clock, qc);
    azuremr::MrWorkerConfig config;
    config.receive_batch = kReceiveBatch;
    config.delete_batch = kDeleteBatch;
    azuremr::AzureMapReduce mr(store, queues, kAzureWorkers, config);
    azuremr::JobSpec spec;
    spec.job_id = "bench-mr";
    for (int i = 0; i < kAzureMaps; ++i) {
      spec.inputs.emplace_back("in" + std::to_string(i), std::string(256, 'y'));
    }
    spec.num_reduce_tasks = kAzureReduces;
    spec.map = [](const std::string& name, const std::string& data, const std::string&) {
      return std::vector<azuremr::KeyValue>{{name, std::to_string(data.size())}};
    };
    spec.reduce = [](const std::string&, const std::vector<std::string>& values) {
      return values.front();
    };
    const auto result = mr.run(spec);
    if (!result.succeeded) std::fprintf(stderr, "azuremr micro workload failed\n");
  };
  run_once();  // warm
  const double secs = min_seconds(3, run_once);
  const int tasks = kAzureMaps + kAzureReduces;
  return {"azuremr", tasks, secs, tasks / secs};
}

/// Raw data-plane round trip: 1 MB blob put+get plus a queue
/// send/receive/delete per task — the per-task substrate overhead every
/// framework pays — `ops` times per pass. `tracer` (nullable) is installed
/// on both services, which is how the tracing-off overhead is measured.
Pass data_plane_pass(int ops, ppc::TraceHook* tracer) {
  auto clock = std::make_shared<ManualClock>();
  auto store = std::make_shared<blobstore::BlobStore>(clock);
  auto queue = std::make_shared<cloudq::MessageQueue>("q", clock);
  store->set_tracer(tracer);
  queue->set_tracer(tracer);
  return [store, queue, ops, payload = std::string(1024 * 1024, 'z')] {
    for (int i = 0; i < ops; ++i) {
      const std::string key = "k" + std::to_string(i % 16);
      store->put("b", key, payload);
      auto blob = store->get("b", key);
      queue->send("task=" + key);
      const auto msg = queue->receive(30.0);
      queue->delete_message(msg->receipt_handle);
      if (!blob || blob->size() != payload.size()) {
        std::fprintf(stderr, "data plane round trip corrupted\n");
      }
    }
  };
}

SubstrateResult bench_data_plane() {
  const int kOps = 200;
  const double secs = min_seconds(5, data_plane_pass(kOps, nullptr));
  return {"data_plane_1mb_roundtrip", kOps, secs, kOps / secs};
}

/// Real wall-clock 1 MB put+get through the polymorphic StorageBackend
/// interface. The three backends share the in-memory object map, so this
/// measures the implementation overhead each data plane adds (contention
/// bookkeeping, hook sites), not the simulated network — that lives in
/// sample_get_time and is benched by the DES studies. `ops` round trips
/// per pass.
Pass storage_backend_pass(storage::StorageKind kind, int ops) {
  std::shared_ptr<storage::StorageBackend> store =
      storage::make_backend(kind, std::make_shared<ManualClock>(), Rng(7));
  return [store, ops, payload = std::string(1024 * 1024, 's')] {
    for (int i = 0; i < ops; ++i) {
      const std::string key = "k" + std::to_string(i % 16);
      store->put("b", key, payload);
      const auto blob = store->get("b", key);
      if (!blob || blob->size() != payload.size()) {
        std::fprintf(stderr, "storage backend round trip corrupted\n");
      }
    }
  };
}

SubstrateResult bench_storage_backend(storage::StorageKind kind) {
  const int kOps = 200;
  const double secs = min_seconds(5, storage_backend_pass(kind, kOps));
  return {"storage_" + std::string(storage::to_string(kind)) + "_1mb_putget", kOps, secs,
          kOps / secs};
}

/// Block-cache hot path (every fetch hits) vs cold path (every fetch is
/// evicted first, so it pays HEAD + GET + etag validation + insert). Both
/// report seconds per kOps fetches; kOps hits take ~20 us, so a hot sample
/// repeats them for at least 5 ms.
SubstrateResult bench_block_cache(bool hot) {
  const int kOps = 200;
  auto clock = std::make_shared<ManualClock>();
  blobstore::BlobStore store(clock);
  const std::string payload(1024 * 1024, 'c');
  store.put("b", "shared", payload);

  storage::BlockCacheConfig config;
  config.name = "bench.blockcache";
  storage::BlockCache cache(config);
  (void)cache.fetch(store, "b", "shared");  // warm
  const auto pass = [&] {
    for (int i = 0; i < kOps; ++i) {
      if (!hot) cache.clear();
      const auto r = cache.fetch(store, "b", "shared");
      if (!r.data || r.data->size() != payload.size()) {
        std::fprintf(stderr, "block cache round trip corrupted\n");
      }
    }
  };
  const double secs = hot ? min_seconds_per_pass(9, 0.005, pass) : min_seconds(5, pass);
  return {hot ? "block_cache_hit_1mb" : "block_cache_miss_1mb", kOps, secs, kOps / secs};
}

/// Registry scrape throughput: one single-lock scrape() pass over a
/// registry shaped like a real run's (per-worker counters + busy gauges +
/// queue gauges), reusing one ScrapeBuffer — the Monitor's per-tick read.
SubstrateResult bench_metrics_scrape() {
  const int kOps = 20000;
  runtime::MetricsRegistry registry;
  for (int w = 0; w < 16; ++w) {
    const std::string id = "w" + std::to_string(w);
    registry.counter(id + ".messages_received").inc(w);
    registry.counter(id + ".tasks_completed").inc(w);
    registry.counter(id + ".redeliveries");
    registry.set_gauge(id + ".busy", w % 2);
  }
  registry.set_gauge("cloudq.tasks.dlq_depth", 0.0);
  runtime::MetricsRegistry::ScrapeBuffer buffer;
  volatile double sink = 0.0;
  const double secs = min_seconds(5, [&] {
    double acc = 0.0;
    for (int i = 0; i < kOps; ++i) {
      registry.scrape(buffer);
      acc += buffer.counters.empty() ? 0.0 : buffer.counters[0].second;
    }
    sink = acc;
  });
  (void)sink;
  return {"metrics_scrape_48c17g", kOps, secs, kOps / secs};
}

/// Round trips per pass of the overhead gates' data-plane loops: ~1.5 ms,
/// short enough for paired_overhead to interleave the arms finely.
constexpr int kOverheadOps = 4;

/// The 1 MB data-plane loop with the instrumentation writes every worker
/// makes (counter incs + busy gauge flips), `ops` times per pass. When
/// `monitored`, a Monitor sampler thread scrapes the pass's registry at
/// 100 ms for as long as the pass lives, adding the real contention a live
/// monitor causes: its scrape lock vs the hot-path counter increments.
Pass monitored_data_plane_pass(int ops, bool monitored) {
  struct Plane {
    std::shared_ptr<ManualClock> clock = std::make_shared<ManualClock>();
    blobstore::BlobStore store{clock};
    cloudq::MessageQueue queue{"q", clock};
    runtime::MetricsRegistry registry;
    std::unique_ptr<runtime::Monitor> monitor;  // last member: stops first
  };
  auto plane = std::make_shared<Plane>();
  for (int w = 0; w < 8; ++w) {
    plane->registry.counter("w" + std::to_string(w) + ".tasks_completed");
    plane->registry.set_gauge("w" + std::to_string(w) + ".busy", 0.0);
  }
  if (monitored) {
    runtime::MonitorConfig config;
    config.period = 0.1;
    plane->monitor = std::make_unique<runtime::Monitor>(plane->registry, config);
    plane->monitor->start();
  }
  return [plane, ops, payload = std::string(1024 * 1024, 'm')] {
    for (int i = 0; i < ops; ++i) {
      const std::string key = "k" + std::to_string(i % 16);
      plane->registry.set_gauge("w0.busy", 1.0);
      plane->store.put("b", key, payload);
      auto blob = plane->store.get("b", key);
      plane->queue.send("task=" + key);
      const auto msg = plane->queue.receive(30.0);
      plane->queue.delete_message(msg->receipt_handle);
      plane->registry.counter("w0.tasks_completed").inc();
      plane->registry.set_gauge("w0.busy", 0.0);
      if (!blob || blob->size() != payload.size()) {
        std::fprintf(stderr, "monitored data plane round trip corrupted\n");
      }
    }
  };
}

/// The monitoring plane's overhead contract: a Monitor scraping the
/// registry at 100 ms must cost the 1 MB data-plane loop < 3% over the same
/// loop with no monitor (checked in --check mode).
Overhead bench_monitor_overhead() {
  return paired_overhead(monitored_data_plane_pass(kOverheadOps, false),
                         monitored_data_plane_pass(kOverheadOps, true));
}

/// The storage refactor's overhead contract: with the cache disabled, going
/// through the StorageBackend interface must cost the data plane < 3%
/// (checked in --check mode) over direct BlobStore calls.
Overhead bench_storage_overhead() {
  auto store = std::make_shared<blobstore::BlobStore>(std::make_shared<ManualClock>());
  const Pass direct = [store, payload = std::string(1024 * 1024, 'o')] {
    for (int i = 0; i < kOverheadOps; ++i) {
      const std::string key = "k" + std::to_string(i % 16);
      store->put("b", key, payload);
      const auto blob = store->get("b", key);
      if (!blob || blob->size() != payload.size()) {
        std::fprintf(stderr, "direct storage round trip corrupted\n");
      }
    }
  };
  return paired_overhead(direct, storage_backend_pass(storage::StorageKind::kObject, kOverheadOps));
}

/// The tracer's overhead contract: with a Tracer attached but DISABLED, the
/// data plane must not regress measurably (< 3%, checked in --check mode).
Overhead bench_tracing_overhead() {
  runtime::Tracer tracer;  // never enabled
  return paired_overhead(data_plane_pass(kOverheadOps, nullptr),
                         data_plane_pass(kOverheadOps, &tracer));
}

// --------------------------------------------------------------------------
// Shuffle rows
// --------------------------------------------------------------------------

/// External-sort throughput in records/s under a budget that forces a
/// multi-run k-way merge — the reduce side's hot loop.
SubstrateResult bench_external_sort() {
  const int kRecords = 50000;
  std::vector<mapreduce::ShuffleRecord> records;
  records.reserve(kRecords);
  Rng rng(0x50B7);
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    mapreduce::ShuffleRecord r;
    r.key = "key-" + std::to_string(rng.uniform_int(0, 999));
    r.value = "v" + std::to_string(i);
    r.map_id = static_cast<std::uint32_t>(i % 8);
    r.seq = i;
    records.push_back(std::move(r));
  }
  const double secs = min_seconds(3, [&records] {
    blobstore::BlobStore store(std::make_shared<SystemClock>());
    // ~1/8 of the input per run: an 8-way merge plus the final buffer.
    mapreduce::ExternalSorter sorter(store, "shuffle", "bench/r0",
                                     /*budget=*/220.0 * 1024, {});
    for (const auto& r : records) sorter.add(r);
    std::size_t groups = 0;
    sorter.for_each_group(
        [&groups](std::string_view, const std::vector<std::string_view>&) { ++groups; });
    if (groups == 0) std::abort();  // keep the work observable
  });
  return {"shuffle_external_sort_50k", kRecords, secs, kRecords / secs};
}

struct ShuffleBench {
  SubstrateResult pipeline;            // records/s through map+shuffle+reduce
  double shuffle_bytes_per_second = 0.0;
  double spill_amplification = 0.0;    // shuffle-store bytes written / map output bytes
  bool completed = false;
};

/// Full-pipeline shuffle throughput: a synthetic keyed workload through the
/// real-thread ShuffleJobRunner with budgets tight enough that both sides
/// spill. Spill amplification = (map spills + sort runs) / map output — 1.0
/// means the external sort never touched storage.
ShuffleBench bench_shuffle_pipeline() {
  const int kFiles = 8;
  const int kRecordsPerFile = 2000;
  minihdfs::MiniHdfs hdfs(4);
  std::vector<std::string> paths;
  Rng rng(0x5AFE);
  for (int f = 0; f < kFiles; ++f) {
    std::ostringstream text;
    for (int i = 0; i < kRecordsPerFile; ++i) {
      text << "key-" << rng.uniform_int(0, 499) << " ";
    }
    const std::string path = "/bench/in-" + std::to_string(f) + ".txt";
    hdfs.write(path, text.str());
    paths.push_back(path);
  }
  const auto map_fn = [](const mapreduce::FileRecord&, const std::string& contents,
                         const mapreduce::EmitFn& emit) {
    std::istringstream in(contents);
    std::string word;
    std::uint32_t seq = 0;
    while (in >> word) emit(word, "p" + std::to_string(seq++));
  };
  const auto reduce_fn = [](const std::string&, const std::vector<std::string>& values) {
    return std::to_string(values.size());
  };

  ShuffleBench bench;
  const int kTotal = kFiles * kRecordsPerFile;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    mapreduce::ShuffleJobConfig config;
    config.num_nodes = 4;
    config.slots_per_node = 2;
    config.num_reducers = 4;
    config.job_name = "bench-" + std::to_string(rep);
    config.output_dir = "/bench/out-" + std::to_string(rep);
    config.map_spill_budget = 64.0 * 1024;
    config.sort_memory_budget = 96.0 * 1024;
    mapreduce::ShuffleJobRunner runner(hdfs);
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = runner.run(paths, map_fn, reduce_fn, config);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (!result.succeeded) return bench;  // completed stays false -> gate fails
    if (secs < best) {
      best = secs;
      bench.shuffle_bytes_per_second = result.shuffle.fetched_bytes / secs;
      bench.spill_amplification =
          result.shuffle.map_output_bytes > 0.0
              ? (result.shuffle.map_spill_bytes + result.shuffle.sort_run_bytes) /
                    result.shuffle.map_output_bytes
              : 0.0;
    }
  }
  bench.completed = true;
  bench.pipeline = {"shuffle_pipeline_8x2000", kTotal, best, kTotal / best};
  return bench;
}

/// The Hadoop DES driver on a 20k-task Cap3 job, 16 x 8 slots: one
/// TaskScheduler decision per heartbeat, so a per-heartbeat scan over every
/// task (quadratic per job) shows up here long before it shows up in a
/// campaign. Gated at 2x like the storage rows.
SubstrateResult bench_mapreduce_sim() {
  using namespace ppc::core;
  const int kTasks = 20000;
  const Workload workload = make_cap3_workload(kTasks, 458);
  const Deployment deployment = make_deployment(cloud::ec2_hcxl(), 16, 8);
  SimRunParams params;
  params.seed = 42;
  int completed = 0;
  const double secs = min_seconds(
      3, [&] { completed = simulate("hadoop", workload, deployment, params).completed; });
  if (completed != kTasks) std::fprintf(stderr, "mapreduce sim left tasks unfinished\n");
  return {"mapreduce_sim_20k", kTasks, secs, kTasks / secs};
}

/// The Classic Cloud DES driver on a 60k-task Cap3 job with the settings of
/// perfbench's des_campaign classic leg (receive_batch 10, 4 queue shards,
/// 16 x 8 workers). Per task it runs the real task codec, three object-store
/// operations and the sharded queue's send/receive/delete, so a
/// per-operation cost in any of them shows up here. Gated at 2x like the
/// storage rows.
SubstrateResult bench_classic_sim() {
  using namespace ppc::core;
  const int kTasks = 60000;
  const Workload workload = make_cap3_workload(kTasks, 458);
  const Deployment deployment = make_deployment(cloud::ec2_hcxl(), 16, 8);
  SimRunParams params;
  params.seed = 42;
  params.receive_batch = 10;
  params.queue.shards = 4;
  int completed = 0;
  const double secs = min_seconds(
      3, [&] { completed = simulate("classic", workload, deployment, params).completed; });
  if (completed != kTasks) std::fprintf(stderr, "classic sim left tasks unfinished\n");
  return {"classic_sim_60k", kTasks, secs, kTasks / secs};
}

struct ElasticComparison {
  int tasks = 0;
  int completed = 0;
  std::uint64_t undeleted = 0;
  std::int64_t revocations = 0;
  double static_makespan = 0.0;   // sim-seconds
  double elastic_makespan = 0.0;  // sim-seconds
  double static_cost = 0.0;       // hour units, all on-demand
  double elastic_cost = 0.0;      // hour units, half-spot
};

/// The elastic-fleet contract, bench-sized: the same Cap3 job through the
/// static Classic Cloud DES driver and the autoscaled half-spot driver
/// under one seeded revocation storm. DES time, so the row is exact and
/// repeatable; --check gates semantics (all tasks complete, queue drained,
/// autoscaled bill <= static bill), not wall time.
ElasticComparison bench_elastic_fleet() {
  using namespace ppc::core;
  const int kInstances = 8, kWorkers = 8;
  const Workload workload = make_cap3_workload(3000, 458);
  const Deployment deployment =
      make_deployment(cloud::ec2_hcxl(), kInstances, kWorkers);

  ElasticComparison result;
  result.tasks = static_cast<int>(workload.size());

  SimRunParams params;
  params.seed = 42;
  params.receive_batch = 10;
  const RunResult stat = simulate("classic", workload, deployment, params);
  result.static_makespan = stat.makespan;
  result.static_cost = stat.compute_cost_hour_units;

  ElasticSimParams elastic;
  elastic.autoscaler.min_instances = 2;
  elastic.autoscaler.max_instances = kInstances;
  elastic.autoscaler.step_out = 2;
  elastic.storm_times = {0.4 * stat.makespan};
  elastic.revocation_rate = 0.5;  // small spot pool; keep the storm visible
  params.visibility_timeout = 1800.0;
  ElasticRunStats stats;
  const RunResult el = simulate("classic", workload, deployment, params, &elastic, &stats);
  result.completed = el.completed;
  result.undeleted = el.queue_undeleted_end;
  result.revocations = stats.revocations;
  result.elastic_makespan = el.makespan;
  result.elastic_cost = el.compute_cost_hour_units;
  return result;
}

// --------------------------------------------------------------------------
// JSON emit / baseline check
// --------------------------------------------------------------------------

/// Short SHA of the enclosing checkout's HEAD, suffixed "-dirty" when
/// tracked files differ from it (the numbers then describe HEAD plus
/// uncommitted changes); "unknown" outside a checkout. Stamped into the
/// meta block so a BENCH_micro.json can be traced back to its code.
std::string git_sha() {
  std::FILE* pipe =
      ::popen("git describe --always --dirty --abbrev=7 --exclude='*' 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, pipe);
  const int status = ::pclose(pipe);
  std::string sha(buf, n);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  if (status != 0 || sha.empty()) return "unknown";
  return sha;
}

std::string to_json(const std::vector<KernelResult>& kernels,
                    const std::vector<SubstrateResult>& substrates,
                    const Overhead& tracing, const Overhead& storage_overhead,
                    const Overhead& monitor_overhead, const ShuffleBench& shuffle,
                    const ElasticComparison& elastic) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  // The meta block deliberately has no "name" keys: parse_baseline_entries
  // keys entries on "name", so metadata must stay invisible to it.
  os << "{\n  \"meta\": {\"git_sha\": \"" << git_sha()
     << "\", \"classiccloud_tasks\": " << kClassicTasks
     << ", \"classiccloud_workers\": " << kClassicWorkers
     << ", \"azuremr_maps\": " << kAzureMaps << ", \"azuremr_reduces\": " << kAzureReduces
     << ", \"azuremr_workers\": " << kAzureWorkers
     << ", \"receive_batch\": " << kReceiveBatch << ", \"delete_batch\": " << kDeleteBatch
     << ", \"queue_shards\": " << kQueueShards << "},\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& k = kernels[i];
    os << "    {\"name\": \"" << k.name << "\", \"ns_per_op\": " << k.ns_per_op
       << ", \"naive_ns_per_op\": " << k.naive_ns_per_op << ", \"speedup\": ";
    os.precision(2);
    os << k.speedup;
    os.precision(1);
    os << "}" << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"substrates\": [\n";
  for (std::size_t i = 0; i < substrates.size(); ++i) {
    const auto& s = substrates[i];
    os << "    {\"name\": \"" << s.name << "\", \"tasks\": " << s.tasks
       << ", \"seconds\": ";
    os.precision(6);
    os << s.seconds;
    os.precision(1);
    os << ", \"tasks_per_second\": " << s.tasks_per_second << "}"
       << (i + 1 < substrates.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"tracing_overhead\": {";
  os.precision(4);
  os << "\"plain_seconds\": " << tracing.plain_seconds
     << ", \"traced_off_seconds\": " << tracing.instrumented_seconds << ", \"ratio\": ";
  os.precision(3);
  os << tracing.ratio;
  os << "},\n  \"storage_overhead\": {";
  os.precision(4);
  os << "\"direct_seconds\": " << storage_overhead.plain_seconds
     << ", \"backend_seconds\": " << storage_overhead.instrumented_seconds << ", \"ratio\": ";
  os.precision(3);
  os << storage_overhead.ratio;
  os << "},\n  \"monitor_overhead\": {";
  os.precision(4);
  os << "\"plain_seconds\": " << monitor_overhead.plain_seconds
     << ", \"monitored_seconds\": " << monitor_overhead.instrumented_seconds
     << ", \"ratio\": ";
  os.precision(3);
  os << monitor_overhead.ratio;
  os << "},\n  \"shuffle\": {";
  os.precision(0);
  os << "\"bytes_per_second\": " << shuffle.shuffle_bytes_per_second;
  os.precision(3);
  os << ", \"spill_amplification\": " << shuffle.spill_amplification
     << ", \"completed\": " << (shuffle.completed ? "true" : "false");
  os << "},\n  \"elastic_fleet\": {";
  os << "\"tasks\": " << elastic.tasks << ", \"completed\": " << elastic.completed
     << ", \"undeleted\": " << elastic.undeleted
     << ", \"revocations\": " << elastic.revocations;
  os.precision(0);
  os << ", \"static_makespan_sim_s\": " << elastic.static_makespan
     << ", \"elastic_makespan_sim_s\": " << elastic.elastic_makespan;
  os.precision(2);
  os << ", \"static_cost\": " << elastic.static_cost
     << ", \"elastic_cost\": " << elastic.elastic_cost;
  os.precision(1);
  os << "}\n}\n";
  return os.str();
}

/// Pulls {"name", <value_key>} pairs out of a baseline file written by this
/// binary. Not a general JSON parser; it understands exactly our format.
/// Entries whose object has no <value_key> before the next "name" are
/// skipped (that is how kernel vs substrate entries are told apart).
std::map<std::string, double> parse_baseline_entries(const std::string& text,
                                                     const char* value_key) {
  std::map<std::string, double> out;
  const std::string key = std::string("\"") + value_key + "\": ";
  std::size_t pos = 0;
  while ((pos = text.find("\"name\": \"", pos)) != std::string::npos) {
    pos += std::strlen("\"name\": \"");
    const std::size_t name_end = text.find('"', pos);
    if (name_end == std::string::npos) break;
    const std::string name = text.substr(pos, name_end - pos);
    const std::size_t next_name = text.find("\"name\": \"", name_end);
    const std::size_t value_pos = text.find(key, name_end);
    pos = name_end;
    if (value_pos == std::string::npos) continue;
    if (next_name != std::string::npos && value_pos > next_name) continue;
    out[name] = std::strtod(text.c_str() + value_pos + key.size(), nullptr);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output_path = "BENCH_micro.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      output_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE] [--check BASELINE.json]\n", argv[0]);
      return 2;
    }
  }

  std::vector<KernelResult> kernels;
  kernels.push_back(bench_matrix_multiply());
  kernels.push_back(bench_cholesky());
  kernels.push_back(bench_blast());
  kernels.push_back(bench_cap3_assemble());
  kernels.push_back(bench_gtm_interpolate());
  kernels.push_back(bench_checksum_fnv1a64());
  kernels.push_back(bench_checksum_crc32c());
  kernels.push_back(bench_blobstore_logical());
  for (const auto& k : kernels) {
    std::fprintf(stderr, "%-30s %12.0f ns/op  (naive %12.0f, %.2fx)\n", k.name.c_str(),
                 k.ns_per_op, k.naive_ns_per_op, k.speedup);
  }

  std::vector<SubstrateResult> substrates;
  substrates.push_back(bench_classiccloud());
  substrates.push_back(bench_azuremr());
  substrates.push_back(bench_data_plane());
  for (const auto kind : storage::kAllStorageKinds) {
    substrates.push_back(bench_storage_backend(kind));
  }
  substrates.push_back(bench_block_cache(/*hot=*/true));
  substrates.push_back(bench_block_cache(/*hot=*/false));
  substrates.push_back(bench_metrics_scrape());
  substrates.push_back(bench_external_sort());
  const ShuffleBench shuffle = bench_shuffle_pipeline();
  substrates.push_back(shuffle.pipeline);
  substrates.push_back(bench_mapreduce_sim());
  substrates.push_back(bench_classic_sim());
  for (const auto& s : substrates) {
    std::fprintf(stderr, "%-30s %8.1f tasks/s (%d tasks in %.4fs)\n", s.name.c_str(),
                 s.tasks_per_second, s.tasks, s.seconds);
  }
  std::fprintf(stderr, "%-30s %8.0f bytes/s, %.3fx spill amplification\n", "shuffle_data_plane",
               shuffle.shuffle_bytes_per_second, shuffle.spill_amplification);

  const Overhead tracing = bench_tracing_overhead();
  std::fprintf(stderr, "%-30s %8.3fx (plain %.4fs, traced-off %.4fs)\n", "tracing_off_overhead",
               tracing.ratio, tracing.plain_seconds, tracing.instrumented_seconds);
  const Overhead storage_overhead = bench_storage_overhead();
  std::fprintf(stderr, "%-30s %8.3fx (direct %.4fs, via-backend %.4fs)\n",
               "storage_backend_overhead", storage_overhead.ratio,
               storage_overhead.plain_seconds, storage_overhead.instrumented_seconds);
  const Overhead monitor_overhead = bench_monitor_overhead();
  std::fprintf(stderr, "%-30s %8.3fx (plain %.4fs, monitored %.4fs)\n", "monitor_overhead",
               monitor_overhead.ratio, monitor_overhead.plain_seconds,
               monitor_overhead.instrumented_seconds);

  const ElasticComparison elastic = bench_elastic_fleet();
  std::fprintf(stderr,
               "%-30s static $%.2f/%.0fs vs elastic $%.2f/%.0fs (%d/%d tasks, "
               "%lld revocations)\n",
               "elastic_fleet", elastic.static_cost, elastic.static_makespan,
               elastic.elastic_cost, elastic.elastic_makespan, elastic.completed,
               elastic.tasks, static_cast<long long>(elastic.revocations));

  const std::string json = to_json(kernels, substrates, tracing, storage_overhead,
                                   monitor_overhead, shuffle, elastic);
  std::ofstream out(output_path);
  out << json;
  out.close();
  std::fprintf(stderr, "wrote %s\n", output_path.c_str());

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const auto baseline = parse_baseline_entries(buf.str(), "ns_per_op");
    const auto baseline_speedup = parse_baseline_entries(buf.str(), "speedup");
    const auto baseline_secs = parse_baseline_entries(buf.str(), "seconds");
    bool ok = true;
    // Every tracked row must still be produced: a row that silently drops
    // out of the output would otherwise pass the gate forever.
    for (const auto* tracked : {&baseline, &baseline_secs}) {
      for (const auto& [name, _] : *tracked) {
        const bool produced =
            std::any_of(kernels.begin(), kernels.end(),
                        [&](const KernelResult& k) { return k.name == name; }) ||
            std::any_of(substrates.begin(), substrates.end(),
                        [&](const SubstrateResult& r) { return r.name == name; });
        if (!produced) {
          std::fprintf(stderr, "FAIL: baseline row %s is missing from the output\n",
                       name.c_str());
          ok = false;
        }
      }
    }
    for (const auto& k : kernels) {
      const auto it = baseline.find(k.name);
      if (it == baseline.end()) {
        std::fprintf(stderr, "FAIL: %s has no baseline entry (add it to the baseline)\n",
                     k.name.c_str());
        ok = false;
        continue;
      }
      if (!k.own_reference) {
        // Speedup over the naive reference, both timed here and now.
        const double want = baseline_speedup.at(k.name) / 2.0;
        if (k.speedup < want) {
          std::fprintf(stderr,
                       "FAIL: %s speedup %.2fx is under half the baseline's (gate %.2fx)\n",
                       k.name.c_str(), k.speedup, want);
          ok = false;
        } else {
          std::fprintf(stderr, "OK:   %s speedup %.2fx (gate %.2fx)\n", k.name.c_str(),
                       k.speedup, want);
        }
        continue;
      }
      const double ratio = k.ns_per_op / it->second;
      if (ratio > 2.0) {
        std::fprintf(stderr, "FAIL: %s is %.2fx slower than baseline (%.0f vs %.0f ns/op)\n",
                     k.name.c_str(), ratio, k.ns_per_op, it->second);
        ok = false;
      } else {
        std::fprintf(stderr, "OK:   %s at %.2fx of baseline\n", k.name.c_str(), ratio);
      }
    }
    // Storage data-plane, shuffle and DES driver rows are gated like
    // kernels: they may not regress more than 2x against the tracked
    // baseline. The pre-refactor rows (classiccloud/azuremr/data_plane) stay
    // informational — they were recorded before any gate existed and on
    // different hardware, so holding new runs to them would be meaningless.
    for (const auto& s : substrates) {
      if (s.name.rfind("storage_", 0) != 0 && s.name.rfind("block_cache_", 0) != 0 &&
          s.name.rfind("shuffle_", 0) != 0 && s.name.rfind("mapreduce_sim", 0) != 0 &&
          s.name.rfind("classic_sim", 0) != 0) {
        continue;
      }
      const auto it = baseline_secs.find(s.name);
      if (it == baseline_secs.end()) {
        std::fprintf(stderr, "FAIL: %s has no baseline entry (add it to the baseline)\n",
                     s.name.c_str());
        ok = false;
        continue;
      }
      if (it->second < 1e-9) {
        std::fprintf(stderr, "NOTE: %s baseline is ~0s; skipping ratio gate\n", s.name.c_str());
        continue;
      }
      const double ratio = s.seconds / it->second;
      if (ratio > 2.0) {
        std::fprintf(stderr, "FAIL: %s is %.2fx slower than baseline (%.4fs vs %.4fs)\n",
                     s.name.c_str(), ratio, s.seconds, it->second);
        ok = false;
      } else {
        std::fprintf(stderr, "OK:   %s at %.2fx of baseline\n", s.name.c_str(), ratio);
      }
    }
    if (storage_overhead.ratio > 1.03) {
      std::fprintf(stderr,
                   "FAIL: cache-disabled StorageBackend path costs %.1f%% on the data plane "
                   "(budget 3%%)\n",
                   (storage_overhead.ratio - 1.0) * 100.0);
      ok = false;
    } else {
      std::fprintf(stderr, "OK:   cache-disabled storage path at %.3fx of direct BlobStore\n",
                   storage_overhead.ratio);
    }
    if (tracing.ratio > 1.03) {
      std::fprintf(stderr,
                   "FAIL: disabled tracing costs %.1f%% on the data plane (budget 3%%)\n",
                   (tracing.ratio - 1.0) * 100.0);
      ok = false;
    } else {
      std::fprintf(stderr, "OK:   disabled tracing at %.3fx of plain data plane\n",
                   tracing.ratio);
    }
    if (monitor_overhead.ratio > 1.03) {
      std::fprintf(stderr,
                   "FAIL: 100ms monitor scraping costs %.1f%% on the data plane (budget 3%%)\n",
                   (monitor_overhead.ratio - 1.0) * 100.0);
      ok = false;
    } else {
      std::fprintf(stderr, "OK:   100ms monitor scraping at %.3fx of unmonitored data plane\n",
                   monitor_overhead.ratio);
    }
    // The shuffle pipeline is gated on semantics: the job must complete and
    // spill amplification must be a sane ratio (>= 1: map output is written
    // at least once; the configured tight budgets force sort runs, but the
    // gate only rejects nonsense, not hardware-dependent magnitudes).
    if (!shuffle.completed) {
      std::fprintf(stderr, "FAIL: shuffle pipeline bench did not complete\n");
      ok = false;
    } else if (shuffle.spill_amplification < 1.0 - 1e-9) {
      std::fprintf(stderr, "FAIL: shuffle spill amplification %.3f < 1.0 (accounting bug?)\n",
                   shuffle.spill_amplification);
      ok = false;
    } else {
      std::fprintf(stderr, "OK:   shuffle pipeline %.0f bytes/s, %.3fx spill amplification\n",
                   shuffle.shuffle_bytes_per_second, shuffle.spill_amplification);
    }
    // The elastic row is gated on semantics, not a baseline: DES makes it
    // exact, so any violation is a real regression in the elastic drivers.
    if (elastic.completed != elastic.tasks || elastic.undeleted != 0) {
      std::fprintf(stderr, "FAIL: elastic fleet lost work (%d/%d tasks, %llu undeleted)\n",
                   elastic.completed, elastic.tasks,
                   static_cast<unsigned long long>(elastic.undeleted));
      ok = false;
    } else if (elastic.elastic_cost > elastic.static_cost) {
      std::fprintf(stderr, "FAIL: autoscaled run billed $%.2f, static fleet $%.2f\n",
                   elastic.elastic_cost, elastic.static_cost);
      ok = false;
    } else {
      std::fprintf(stderr, "OK:   autoscaled run bills $%.2f vs static $%.2f, no lost work\n",
                   elastic.elastic_cost, elastic.static_cost);
    }
    if (!ok) return 1;
  }
  return 0;
}
