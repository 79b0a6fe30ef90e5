// Hybrid cloud bursting — §2.1.3's "interesting feature of the Classic
// Cloud framework": because scheduling is just a shared queue, "one can
// start workers in computers outside of the cloud to augment compute
// capacity". This example starts a cloud pool, lets a local cluster join
// mid-job, and even kills a cloud worker mid-task to show the combined
// fleet riding through it.
#include <cstdio>

#include <chrono>
#include <thread>

#include "apps/blast/aligner.h"
#include "blobstore/blob_store.h"
#include "classiccloud/job_client.h"
#include "cloudq/queue_service.h"
#include "common/clock.h"
#include "common/rng.h"
#include "runtime/fault_injector.h"

using namespace ppc;

int main() {
  auto clock = std::make_shared<SystemClock>();
  blobstore::BlobStore store(clock);
  cloudq::QueueService queues(clock);

  // A BLAST job: 24 query files against a small protein database.
  Rng rng(99);
  apps::blast::DbGenConfig db_config;
  db_config.num_sequences = 150;
  const auto db = apps::blast::SequenceDb::generate(db_config, rng);
  const apps::blast::BlastIndex index(db);

  classiccloud::JobClient client(store, queues, "burst");
  std::vector<std::pair<std::string, std::string>> files;
  for (int i = 0; i < 24; ++i) {
    files.emplace_back("q" + std::to_string(i) + ".fa",
                       apps::blast::make_query_file(db, 15, 0.5, rng));
  }
  client.submit(files);

  classiccloud::TaskExecutor search = [&index](const classiccloud::TaskSpec&,
                                               const std::string& input) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));  // visible work
    return index.search_file(input);
  };

  classiccloud::WorkerConfig config;
  config.poll_interval = 0.002;
  config.visibility_timeout = 0.5;  // short: crashed tasks resurface quickly

  // Phase 1: a 2-worker cloud fleet starts alone; one worker is flaky and
  // dies after its third task (an instance failure).
  runtime::FaultInjector faults;
  faults.arm_plan(runtime::FaultPlan{}.crash(classiccloud::sites::kAfterExecute, /*budget=*/1,
                                             /*probability=*/1.0, /*skip_first=*/2));
  classiccloud::WorkerConfig flaky_config = config;
  flaky_config.faults = &faults;
  classiccloud::Worker steady("cloud-0", store, client.task_queue(), client.monitor_queue(),
                              search, config);
  classiccloud::Worker flaky("cloud-1", store, client.task_queue(), client.monitor_queue(),
                             search, flaky_config);
  steady.start();
  flaky.start();
  std::puts("cloud fleet of 2 started (one will fail mid-job)...");
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  // Phase 2: the local cluster joins the same queue — no reconfiguration.
  classiccloud::WorkerPool local(store, client.task_queue(), client.monitor_queue(), search,
                                 config, 4, "local");
  local.start_all();
  std::puts("local cluster of 4 joined the queue mid-job");

  if (!client.wait_for_completion(60.0)) {
    std::puts("job did not finish");
    return 1;
  }
  steady.request_stop();
  local.stop_all();
  steady.join();
  flaky.join();
  local.join_all();

  std::printf("\nall %zu tasks completed\n", client.tasks().size());
  std::printf("  cloud-0 (steady): %d tasks\n", steady.stats().tasks_completed);
  std::printf("  cloud-1 (flaky) : %d tasks, crashed=%s\n", flaky.stats().tasks_completed,
              flaky.stats().crashed ? "yes" : "no");
  std::printf("  local cluster   : %d tasks\n", local.aggregate_stats().tasks_completed);
  std::puts("\nThe task the flaky worker dropped timed out in the queue and was re-run");
  std::puts("by another worker — idempotent tasks make the recovery invisible.");
  return 0;
}
