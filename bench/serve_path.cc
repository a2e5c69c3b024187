// Serve-path benchmark: index cold build vs. save / load / query, tracking
// the build-path cost and the per-query serve-path latency as separate JSON
// phases — the "build once, serve many" economics of the persistent index
// subsystem (core/index_io.h).
//
// For each measure (cosine on Rcv1-like data, Jaccard on WikiLinks-like
// data) the bench records, as one JSON record per phase:
//
//   cold_build   PersistentIndex::Build over the collection
//                (generate_seconds = build wall time)
//   save         PersistentIndex::Save to a buffer
//                (candidates = serialized bytes)
//   load         PersistentIndex::Load from that buffer
//   mmap_load    PersistentIndex::LoadFileMmap of the same bytes on disk
//                (zero-copy: signature slabs stay in the mapping)
//   warm_serve   QuerySearcher(index) construction + the query batch
//                (generate_seconds = construction, verify_seconds = queries)
//   mmap_serve   the same batch against the mapped index — must agree
//                with warm_serve pair for pair (checked, exit 1 on drift)
//   cold_serve   QuerySearcher(data) construction + the same batch — what
//                every invocation paid before persistence
//
// The query batch reuses collection rows (guaranteed matches) plus held-out
// rows. A final "serve/measures" section runs the paper's §6 measures
// (wjaccard, klsh, euclidean) through the same trajectory — see
// RunServingMeasures. Usage: serve_path [--threads N] [--json PATH].

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench_common.h"
#include "common/timer.h"
#include "core/index_io.h"
#include "core/query_search.h"

namespace bayeslsh::bench {
namespace {

constexpr uint32_t kQueryBatch = 100;

struct ServeTimes {
  double construct_seconds = 0.0;
  double query_seconds = 0.0;
  uint64_t matches = 0;
  uint64_t candidates = 0;
};

template <typename MakeSearcher>
ServeTimes ServeBatch(const Dataset& queries, MakeSearcher&& make) {
  ServeTimes out;
  WallTimer construct_timer;
  const auto searcher = make();
  out.construct_seconds = construct_timer.Seconds();
  WallTimer query_timer;
  for (uint32_t qid = 0; qid < queries.num_vectors(); ++qid) {
    QueryStats stats;
    out.matches += searcher->Query(queries.Row(qid), &stats).size();
    out.candidates += stats.candidates;
  }
  out.query_seconds = query_timer.Seconds();
  return out;
}

void RunMeasure(Measure measure, PaperDataset which, double threshold,
                uint32_t threads, BenchJsonWriter* json) {
  const BenchDataset prepared = PrepareDataset(which, measure);
  const Dataset& data = prepared.data;
  const std::string section =
      measure == Measure::kCosine ? "serve/cosine" : "serve/jaccard";

  // Query batch: first half collection rows, second half copies of later
  // rows — all drawn from the prepared dataset so both searchers see
  // identical, measure-convention-correct vectors.
  DatasetBuilder qb(data.num_dims());
  for (uint32_t i = 0; i < kQueryBatch && i < data.num_vectors(); ++i) {
    const uint32_t row =
        (i * (data.num_vectors() / kQueryBatch + 1)) % data.num_vectors();
    const SparseVectorView v = data.Row(row);
    std::vector<std::pair<DimId, float>> entries;
    for (uint32_t k = 0; k < v.size(); ++k) {
      entries.emplace_back(v.indices[k], v.values[k]);
    }
    qb.AddRow(std::move(entries));
  }
  const Dataset queries = std::move(qb).Build();

  IndexBuildConfig icfg;
  icfg.measure = measure;
  icfg.threshold = threshold;
  icfg.seed = BenchSeed();
  icfg.num_threads = threads;

  QuerySearchConfig qcfg;
  qcfg.measure = measure;
  qcfg.threshold = threshold;
  qcfg.seed = BenchSeed();
  qcfg.num_threads = threads;

  auto record = [&](const std::string& phase, double gen_s, double ver_s,
                    uint64_t candidates, uint64_t matches) {
    BenchRecord r;
    r.section = section;
    r.dataset = PaperDatasetName(which);
    r.algorithm = phase;
    r.threshold = threshold;
    r.threads = ResolveNumThreads(threads);
    r.generate_seconds = gen_s;
    r.verify_seconds = ver_s;
    r.total_seconds = gen_s + ver_s;
    r.candidates = candidates;
    r.result_pairs = matches;
    if (json != nullptr) json->Add(r);
    std::printf("  %-12s %8.3f s build/construct  %8.3f s serve  "
                "(%llu candidates, %llu matches)\n",
                phase.c_str(), gen_s, ver_s,
                static_cast<unsigned long long>(candidates),
                static_cast<unsigned long long>(matches));
  };

  PrintHeader("Serve path — " + PaperDatasetName(which) + " (" + section +
              ", t = " + Secs(threshold) + ")");

  WallTimer build_timer;
  const auto index = PersistentIndex::Build(data, icfg);
  record("cold_build", build_timer.Seconds(), 0.0, 0, 0);

  std::stringstream file;
  WallTimer save_timer;
  index->Save(file);
  record("save", save_timer.Seconds(), 0.0,
         static_cast<uint64_t>(file.tellp()), 0);

  WallTimer load_timer;
  file.seekg(0);
  const auto loaded = PersistentIndex::Load(file);
  record("load", load_timer.Seconds(), 0.0, 0, 0);

  // Zero-copy load: the same bytes on a real file, mapped read-only. On
  // platforms without mmap LoadFileMmap falls back to the copying loader,
  // so the record is still present (and the identity check still holds).
  const std::filesystem::path mmap_path =
      std::filesystem::temp_directory_path() /
      ("bayeslsh_serve_path_" + PaperDatasetName(which) + ".idx");
  {
    std::ofstream out(mmap_path, std::ios::binary | std::ios::trunc);
    const std::string bytes = file.str();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  WallTimer mmap_timer;
  const auto mapped = PersistentIndex::LoadFileMmap(mmap_path.string());
  record("mmap_load", mmap_timer.Seconds(), 0.0, 0, 0);

  const ServeTimes warm = ServeBatch(queries, [&] {
    return std::make_unique<QuerySearcher>(loaded.get(), qcfg);
  });
  record("warm_serve", warm.construct_seconds, warm.query_seconds,
         warm.candidates, warm.matches);

  const ServeTimes mmap_serve = ServeBatch(queries, [&] {
    return std::make_unique<QuerySearcher>(mapped.get(), qcfg);
  });
  record("mmap_serve", mmap_serve.construct_seconds,
         mmap_serve.query_seconds, mmap_serve.candidates,
         mmap_serve.matches);

  const ServeTimes cold = ServeBatch(queries, [&] {
    return std::make_unique<QuerySearcher>(&data, qcfg);
  });
  record("cold_serve", cold.construct_seconds, cold.query_seconds,
         cold.candidates, cold.matches);

  std::error_code ec;
  std::filesystem::remove(mmap_path, ec);

  if (warm.matches != cold.matches) {
    std::fprintf(stderr,
                 "error: warm/cold serve disagree (%llu vs %llu matches) — "
                 "determinism violation\n",
                 static_cast<unsigned long long>(warm.matches),
                 static_cast<unsigned long long>(cold.matches));
    std::exit(1);
  }
  if (mmap_serve.matches != warm.matches ||
      mmap_serve.candidates != warm.candidates) {
    std::fprintf(stderr,
                 "error: mmap/warm serve disagree (%llu vs %llu matches) — "
                 "zero-copy load is not result-identical\n",
                 static_cast<unsigned long long>(mmap_serve.matches),
                 static_cast<unsigned long long>(warm.matches));
    std::exit(1);
  }
}

// The §6 measures (wjaccard / klsh / euclidean) ride the same
// build / save / load / warm-serve trajectory over
// one shared weighted dataset, as section "serve/measures" with the phase
// name prefixed by the measure ("wjaccard/warm_serve"). The *_serve phases
// fill queries/qps, so the smoke trend gate (scripts/bench_trend.py) tracks
// their serve throughput per PR alongside the classic measures.
void RunServingMeasures(uint32_t threads, BenchJsonWriter* json) {
  struct ServingMeasureCase {
    const char* name;
    Measure measure;
    double threshold;  // Euclidean: the match radius (unit-sphere scale).
  };
  constexpr ServingMeasureCase kCases[] = {
      {"wjaccard", Measure::kWeightedJaccard, 0.4},
      {"klsh", Measure::kKernelCosine, 0.7},
      {"euclidean", Measure::kEuclidean, 0.8},
  };

  // One weighted (tf-idf, L2-normalized) dataset serves all three: ICWS
  // needs the positive weights, KLSH's linear kernel sees unit rows, and
  // the Euclidean radius is on the unit-sphere scale.
  const BenchDataset prepared =
      PrepareDataset(PaperDataset::kRcv1, Measure::kCosine);
  const Dataset& data = prepared.data;

  DatasetBuilder qb(data.num_dims());
  for (uint32_t i = 0; i < kQueryBatch && i < data.num_vectors(); ++i) {
    const uint32_t row =
        (i * (data.num_vectors() / kQueryBatch + 1)) % data.num_vectors();
    const SparseVectorView v = data.Row(row);
    std::vector<std::pair<DimId, float>> entries;
    for (uint32_t k = 0; k < v.size(); ++k) {
      entries.emplace_back(v.indices[k], v.values[k]);
    }
    qb.AddRow(std::move(entries));
  }
  const Dataset queries = std::move(qb).Build();

  for (const ServingMeasureCase& c : kCases) {
    IndexBuildConfig icfg;
    icfg.measure = c.measure;
    icfg.threshold = c.threshold;
    icfg.seed = BenchSeed();
    icfg.num_threads = threads;

    QuerySearchConfig qcfg;
    qcfg.measure = c.measure;
    qcfg.threshold = c.threshold;
    qcfg.seed = BenchSeed();
    qcfg.num_threads = threads;

    auto record = [&](const std::string& phase, double gen_s, double ver_s,
                      uint64_t candidates, uint64_t matches,
                      uint64_t num_queries) {
      BenchRecord r;
      r.section = "serve/measures";
      r.dataset = PaperDatasetName(PaperDataset::kRcv1);
      r.algorithm = std::string(c.name) + "/" + phase;
      r.threshold = c.threshold;
      r.threads = ResolveNumThreads(threads);
      r.generate_seconds = gen_s;
      r.verify_seconds = ver_s;
      r.total_seconds = gen_s + ver_s;
      r.candidates = candidates;
      r.result_pairs = matches;
      r.queries = num_queries;
      if (num_queries > 0 && ver_s > 0.0) r.qps = num_queries / ver_s;
      if (json != nullptr) json->Add(r);
      std::printf("  %-22s %8.3f s build/construct  %8.3f s serve  "
                  "(%llu candidates, %llu matches)\n",
                  r.algorithm.c_str(), gen_s, ver_s,
                  static_cast<unsigned long long>(candidates),
                  static_cast<unsigned long long>(matches));
    };

    PrintHeader(std::string("Serve path — serving measure ") + c.name +
                " (serve/measures, t = " + Secs(c.threshold) + ")");

    WallTimer build_timer;
    const auto index = PersistentIndex::Build(data, icfg);
    record("cold_build", build_timer.Seconds(), 0.0, 0, 0, 0);

    std::stringstream file;
    WallTimer save_timer;
    index->Save(file);
    record("save", save_timer.Seconds(), 0.0,
           static_cast<uint64_t>(file.tellp()), 0, 0);

    WallTimer load_timer;
    file.seekg(0);
    const auto loaded = PersistentIndex::Load(file);
    record("load", load_timer.Seconds(), 0.0, 0, 0, 0);

    const ServeTimes warm = ServeBatch(queries, [&] {
      return std::make_unique<QuerySearcher>(loaded.get(), qcfg);
    });
    record("warm_serve", warm.construct_seconds, warm.query_seconds,
           warm.candidates, warm.matches, queries.num_vectors());

    const ServeTimes cold = ServeBatch(queries, [&] {
      return std::make_unique<QuerySearcher>(&data, qcfg);
    });
    record("cold_serve", cold.construct_seconds, cold.query_seconds,
           cold.candidates, cold.matches, queries.num_vectors());

    if (warm.matches != cold.matches) {
      std::fprintf(stderr,
                   "error: %s warm/cold serve disagree (%llu vs %llu "
                   "matches) — determinism violation\n",
                   c.name, static_cast<unsigned long long>(warm.matches),
                   static_cast<unsigned long long>(cold.matches));
      std::exit(1);
    }
  }
}

}  // namespace
}  // namespace bayeslsh::bench

int main(int argc, char** argv) {
  using namespace bayeslsh;
  using namespace bayeslsh::bench;
  CheckBenchArgs(argc, argv);
  const uint32_t threads = BenchThreads(argc, argv);
  BenchJsonWriter json("serve_path", BenchJsonPath(argc, argv), threads);

  RunMeasure(Measure::kCosine, PaperDataset::kRcv1, 0.7, threads, &json);
  RunMeasure(Measure::kJaccard, PaperDataset::kWikiLinks, 0.5, threads,
             &json);
  RunServingMeasures(threads, &json);

  return json.Write() ? 0 : 1;
}
