#include "sim/app_job.h"

#include <cmath>
#include <memory>

#include "apps/blast/aligner.h"
#include "apps/cap3/assembler.h"
#include "apps/cap3/fasta.h"
#include "apps/cap3/read_simulator.h"
#include "apps/gtm/data_gen.h"
#include "apps/gtm/gtm.h"
#include "common/error.h"
#include "common/rng.h"

namespace ppc::sim {

namespace {

/// Work multiplier for file i of n under the requested skew.
int scaled(int base, int i, int n, double skew) {
  const double f = n <= 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(n - 1);
  const int value = static_cast<int>(std::lround(base * (1.0 + skew * f)));
  return value < 1 ? 1 : value;
}

}  // namespace

AppJob make_app_job(const std::string& app, int num_files, double skew) {
  PPC_REQUIRE(num_files >= 1, "app job needs at least one input file");
  PPC_REQUIRE(skew >= 0.0, "skew must be >= 0");
  AppJob job;
  ppc::Rng rng(0xC0FFEE);
  if (app == "cap3") {
    for (int i = 0; i < num_files; ++i) {
      job.files.emplace_back(
          "cap3-" + std::to_string(i) + ".fa",
          apps::cap3::make_cap3_input(scaled(24, i, num_files, skew), rng));
    }
    job.fn = [](const std::string&, const std::string& input) {
      apps::cap3::AssemblerConfig config;
      config.min_overlap = 30;
      return apps::cap3::assemble_fasta_file(input, config);
    };
  } else if (app == "blast") {
    apps::blast::DbGenConfig db_config;
    db_config.num_sequences = 24;
    const auto db = apps::blast::SequenceDb::generate(db_config, rng);
    auto index = std::make_shared<apps::blast::BlastIndex>(db);
    // The database rides the data plane as shared reference data (the NR
    // database of §5.1); the executor keeps its prebuilt index so outputs
    // stay byte-identical whether or not a cache serves the download.
    job.shared_files.emplace_back("blast-db.fa", db.to_fasta());
    for (int i = 0; i < num_files; ++i) {
      job.files.emplace_back(
          "blast-" + std::to_string(i) + ".fa",
          apps::blast::make_query_file(db, scaled(4, i, num_files, skew), 0.7, rng));
    }
    job.fn = [index](const std::string&, const std::string& input) {
      return index->search_file(input);
    };
  } else if (app == "gtm") {
    apps::gtm::ClusterDataConfig data_config;
    data_config.num_points = 60;
    data_config.dims = 6;
    const auto samples = apps::gtm::generate_clustered(data_config, rng);
    apps::gtm::GtmConfig gtm_config;
    gtm_config.latent_grid = 4;
    gtm_config.rbf_grid = 3;
    gtm_config.em_iterations = 4;
    auto model = std::make_shared<apps::gtm::GtmModel>(
        apps::gtm::GtmModel::train(samples, gtm_config, rng));
    // The training matrix is the GTM job's shared reference data (§6.2).
    job.shared_files.emplace_back("gtm-train.csv", apps::gtm::matrix_to_csv(samples));
    for (int i = 0; i < num_files; ++i) {
      data_config.num_points = scaled(12, i, num_files, skew);
      job.files.emplace_back(
          "gtm-" + std::to_string(i) + ".csv",
          apps::gtm::matrix_to_csv(apps::gtm::generate_clustered(data_config, rng)));
    }
    job.fn = [model](const std::string&, const std::string& input) {
      return apps::gtm::interpolate_csv_file(*model, input);
    };
  } else {
    throw ppc::InvalidArgument("unknown app: " + app);
  }
  return job;
}

AppJob make_shuffle_app(const std::string& app, int num_files, std::uint64_t seed) {
  PPC_REQUIRE(num_files >= 1, "shuffle app needs at least one input file");
  AppJob job;
  ppc::Rng rng(seed);
  if (app == "histogram") {
    apps::blast::DbGenConfig db_config;
    db_config.num_sequences = 24;
    const auto db = apps::blast::SequenceDb::generate(db_config, rng);
    auto index = std::make_shared<apps::blast::BlastIndex>(db);
    for (int i = 0; i < num_files; ++i) {
      job.files.emplace_back("queries-" + std::to_string(i) + ".fa",
                             apps::blast::make_query_file(db, 6, 0.7, rng));
    }
    job.map = [index](const mapreduce::FileRecord&, const std::string& contents,
                      const mapreduce::EmitFn& emit) {
      for (const auto& query : apps::parse_fasta(contents)) {
        const auto hits = index->search(query);
        // Group queries by their best database hit; unmatched queries all
        // land in one "no-hit" bucket so nothing silently drops.
        emit(hits.empty() ? "no-hit" : hits.front().subject_id, query.id);
      }
    };
    job.reduce = [](const std::string&, const std::vector<std::string>& values) {
      return "count=" + std::to_string(values.size()) + " first=" + values.front();
    };
  } else if (app == "dedup") {
    // A pool of distinct reads sampled with repetition across files — the
    // duplicates the job exists to find.
    std::vector<std::string> pool;
    for (int i = 0; i < 10; ++i) pool.push_back(apps::blast::random_protein(40, rng));
    for (int i = 0; i < num_files; ++i) {
      std::vector<apps::FastaRecord> reads;
      for (int r = 0; r < 8; ++r) {
        apps::FastaRecord rec;
        rec.id = "f" + std::to_string(i) + "r" + std::to_string(r);
        rec.seq = pool[rng.index(pool.size())];
        reads.push_back(std::move(rec));
      }
      job.files.emplace_back("reads-" + std::to_string(i) + ".fa",
                             apps::write_fasta(reads));
    }
    job.map = [](const mapreduce::FileRecord&, const std::string& contents,
                 const mapreduce::EmitFn& emit) {
      for (const auto& read : apps::parse_fasta(contents)) {
        emit(read.seq, read.id);
      }
    };
    job.reduce = [](const std::string&, const std::vector<std::string>& values) {
      // First occurrence (in deterministic (map_id, seq) order) is the
      // canonical representative; the rest are the duplicates.
      return "rep=" + values.front() + " copies=" + std::to_string(values.size());
    };
  } else {
    throw ppc::InvalidArgument("unknown shuffle app: " + app +
                               " (expected histogram or dedup)");
  }
  return job;
}

}  // namespace ppc::sim
