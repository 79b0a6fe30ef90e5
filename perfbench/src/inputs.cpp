#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <tuple>

#include "apps/blast/aligner.h"
#include "apps/blast/db.h"
#include "apps/cap3/assembler.h"
#include "apps/cap3/fasta.h"
#include "apps/cap3/read_simulator.h"
#include "apps/gtm/data_gen.h"
#include "apps/gtm/gtm.h"
#include "common/rng.h"

namespace perfbench {

namespace apps = ppc::apps;

namespace {

/// A BLAST query file of `count` queries of exactly `length` residues, 70%
/// planted homologs of database entries. Fixed lengths keep the search cost
/// of a file from depending on the seed.
std::string make_queries(const apps::blast::SequenceDb& db, std::size_t count,
                         std::size_t length, ppc::Rng& rng) {
  std::vector<apps::FastaRecord> queries(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries[i].id = "query-" + std::to_string(i);
    queries[i].seq = rng.bernoulli(0.7)
                         ? apps::blast::plant_query(db, rng.index(db.size()), length, 0.05, rng)
                         : apps::blast::random_protein(length, rng);
  }
  return apps::write_fasta(queries);
}

}  // namespace

double FileJob::input_bytes() const {
  double sum = 0.0;
  for (const auto& [name, data] : files) sum += static_cast<double>(data.size());
  return sum;
}

FileJob make_mixed_job(std::uint64_t seed, int num_files) {
  ppc::Rng root(seed);
  ppc::Rng cap3_rng = root.split();
  ppc::Rng blast_rng = root.split();
  ppc::Rng gtm_rng = root.split();

  apps::blast::DbGenConfig db_config;
  db_config.num_sequences = 1000;
  const auto db = apps::blast::SequenceDb::generate(db_config, blast_rng);
  auto index = std::make_shared<const apps::blast::BlastIndex>(db);

  apps::gtm::ClusterDataConfig gtm_data;
  gtm_data.num_points = 300;
  gtm_data.dims = 16;
  const auto samples = apps::gtm::generate_clustered(gtm_data, gtm_rng);
  apps::gtm::GtmConfig gtm_config;
  gtm_config.latent_grid = 16;
  gtm_config.rbf_grid = 4;
  gtm_config.em_iterations = 8;
  auto model = std::make_shared<const apps::gtm::GtmModel>(
      apps::gtm::GtmModel::train(samples, gtm_config, gtm_rng));

  FileJob job;
  job.shared_files.emplace_back("blast-db.fa", db.to_fasta());
  job.shared_files.emplace_back("gtm-train.csv", apps::gtm::matrix_to_csv(samples));
  for (int i = 0; i < num_files; ++i) {
    // Work multiplier 1x .. 4x along submission order. Apps rotate with a
    // period that is not a multiple of three, so a round-robin partition
    // over three nodes still gets every app.
    const double m = 1.0 + 3.0 * (num_files <= 1 ? 0.0 : double(i) / double(num_files - 1));
    const int app = (i + i / 3) % 3;
    std::string name;
    std::string data;
    if (app == 0) {
      // Assembly cost grows ~reads^1.3.
      const auto reads = static_cast<std::size_t>(std::lround(32.0 * std::pow(m, 1.0 / 1.3)));
      name = "cap3-" + std::to_string(i) + ".fa";
      data = apps::cap3::make_cap3_input(reads, cap3_rng);
      job.kind.push_back(Op::kCap3);
    } else if (app == 1) {
      const auto queries = static_cast<std::size_t>(std::lround(12.0 * m));
      name = "blast-" + std::to_string(i) + ".fa";
      data = make_queries(db, queries, 120, blast_rng);
      job.kind.push_back(Op::kBlast);
    } else {
      gtm_data.num_points = static_cast<std::size_t>(std::lround(700.0 * m));
      name = "gtm-" + std::to_string(i) + ".csv";
      data = apps::gtm::matrix_to_csv(apps::gtm::generate_clustered(gtm_data, gtm_rng));
      job.kind.push_back(Op::kGtm);
    }
    job.index.emplace(name, job.files.size());
    job.files.emplace_back(std::move(name), std::move(data));
  }
  const std::vector<Op> kinds = job.kind;
  job.fn = [kinds, index, model](std::size_t file, const std::string& data) -> std::string {
    switch (kinds.at(file)) {
      case Op::kCap3: {
        apps::cap3::AssemblerConfig config;
        config.min_overlap = 30;
        return apps::cap3::assemble_fasta_file(data, config);
      }
      case Op::kBlast:
        return index->search_file(data);
      default:
        return apps::gtm::interpolate_csv_file(*model, data);
    }
  };
  return job;
}

FileJob make_blast_refetch_job(std::uint64_t seed, int num_files, int db_sequences) {
  ppc::Rng rng(seed);
  apps::blast::DbGenConfig db_config;
  db_config.num_sequences = static_cast<std::size_t>(db_sequences);
  const auto db = apps::blast::SequenceDb::generate(db_config, rng);
  // Word size 4 keeps each query's search to a few ms against a multi-MB
  // database, so the per-task DB fetch and its checksum dominate.
  apps::blast::AlignerConfig aligner;
  aligner.k = 4;
  auto index = std::make_shared<const apps::blast::BlastIndex>(db, aligner);

  FileJob job;
  job.shared_files.emplace_back("blast-db.fa", db.to_fasta());
  for (int i = 0; i < num_files; ++i) {
    std::string name = "query-" + std::to_string(i) + ".fa";
    job.index.emplace(name, job.files.size());
    job.files.emplace_back(std::move(name), make_queries(db, 2, 120, rng));
    job.kind.push_back(Op::kBlast);
  }
  job.fn = [index](std::size_t, const std::string& data) { return index->search_file(data); };
  return job;
}

DedupJob make_dedup_job(std::uint64_t seed, int num_files, int reads_per_file, int pool_size) {
  ppc::Rng rng(seed);
  std::vector<std::string> pool;
  pool.reserve(static_cast<std::size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i) {
    pool.push_back(apps::blast::random_protein(60 + rng.index(41), rng));
  }
  DedupJob job;
  for (int f = 0; f < num_files; ++f) {
    std::vector<apps::FastaRecord> reads;
    reads.reserve(static_cast<std::size_t>(reads_per_file));
    for (int r = 0; r < reads_per_file; ++r) {
      apps::FastaRecord rec;
      rec.id = "f" + std::to_string(f) + "r" + std::to_string(r);
      rec.seq = pool[rng.index(pool.size())];
      reads.push_back(std::move(rec));
    }
    std::string data = apps::write_fasta(reads);
    job.input_bytes += static_cast<double>(data.size());
    job.files.emplace_back("reads-" + std::to_string(f) + ".fa", std::move(data));
  }
  job.map = [](const ppc::mapreduce::FileRecord&, const std::string& contents,
               const ppc::mapreduce::EmitFn& emit) {
    for (const auto& read : apps::parse_fasta(contents)) emit(read.seq, read.id);
  };
  job.reduce = [](const std::string&, const std::vector<std::string>& values) {
    return "rep=" + values.front() + " copies=" + std::to_string(values.size());
  };
  return job;
}

std::string dedup_reference(const DedupJob& job, std::size_t* groups) {
  // (key, map id, emission index, value)
  std::vector<std::tuple<std::string, int, int, std::string>> records;
  for (std::size_t m = 0; m < job.files.size(); ++m) {
    int seq = 0;
    ppc::mapreduce::FileRecord rec;
    rec.name = job.files[m].first;
    job.map(rec, job.files[m].second, [&](const std::string& key, std::string value) {
      records.emplace_back(key, static_cast<int>(m), seq++, std::move(value));
    });
  }
  std::sort(records.begin(), records.end());
  std::map<std::string, std::string> canonical;
  std::vector<std::string> values;
  for (std::size_t i = 0; i < records.size();) {
    const std::string& key = std::get<0>(records[i]);
    values.clear();
    std::size_t j = i;
    for (; j < records.size() && std::get<0>(records[j]) == key; ++j) {
      values.push_back(std::get<3>(records[j]));
    }
    canonical.emplace(key, job.reduce(key, values));
    i = j;
  }
  if (groups != nullptr) *groups = canonical.size();
  return ppc::mapreduce::encode_canonical(canonical);
}

ppc::core::Workload make_des_workload(std::uint64_t seed, int tasks) {
  ppc::Rng rng(seed);
  ppc::core::Workload w = ppc::core::make_cap3_workload(tasks, 458);
  w.name = "cap3-campaign-" + std::to_string(seed);
  for (auto& task : w.tasks) task.work_factor = rng.lognormal(0.0, 0.1);
  return w;
}

}  // namespace perfbench
