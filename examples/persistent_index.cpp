// Persistent index: build once, serve many queries.
//
// Builds a tf-idf text corpus, constructs the persistent serving index
// (core/index_io.h), saves it to disk, loads it back in a second "serving
// process", and answers queries from the loaded index — demonstrating that
// loaded-index results are pair-for-pair identical to a fresh build and
// that the serve path skips index construction entirely.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_persistent_index

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "bayeslsh/bayeslsh.h"

int main() {
  using namespace bayeslsh;

  // 1. A corpus with planted near-duplicate clusters, weighted and
  //    normalized for cosine search (use ReadDatasetAutoFile() for your
  //    own data).
  TextCorpusConfig corpus_cfg;
  corpus_cfg.num_docs = 2000;
  corpus_cfg.vocab_size = 8000;
  corpus_cfg.avg_doc_len = 60;
  corpus_cfg.num_clusters = 100;
  corpus_cfg.seed = 7;
  const Dataset docs = L2NormalizeRows(
      TfIdfTransform(GenerateTextCorpus(corpus_cfg)));

  // 2. OFFLINE: build the full serving state — banding buckets plus
  //    prefetched verification signatures — and save it as one file.
  IndexBuildConfig build_cfg;
  build_cfg.measure = Measure::kCosine;
  build_cfg.threshold = 0.7;
  build_cfg.seed = 42;

  WallTimer build_timer;
  const auto index = PersistentIndex::Build(docs, build_cfg);
  const double build_s = build_timer.Seconds();

  const char* path = "persistent_index_example.idx";
  index->SaveFile(path);
  std::printf("built index over %u docs in %.3f s (%u bands x %u hashes), "
              "saved to %s\n",
              index->data().num_vectors(), build_s, index->num_bands(),
              index->hashes_per_band(), path);

  // 3. ONLINE: a serving process loads the index — one I/O-bound pass, no
  //    hashing — and answers queries against it.
  WallTimer load_timer;
  const auto loaded = PersistentIndex::LoadFile(path);
  std::printf("loaded it back in %.3f s\n\n", load_timer.Seconds());

  QuerySearchConfig query_cfg;
  query_cfg.measure = Measure::kCosine;
  query_cfg.threshold = 0.7;
  query_cfg.seed = 42;  // Must match the index (checked at construction).
  const QuerySearcher served(loaded.get(), query_cfg);

  // A fresh searcher over the same corpus, for the determinism check. In
  // production this object is exactly what you no longer build.
  const QuerySearcher fresh(&docs, query_cfg);

  uint64_t total_matches = 0;
  for (uint32_t qid = 0; qid < 200; ++qid) {
    const SparseVectorView q = docs.Row(qid);
    const auto warm = served.Query(q, nullptr, 5);
    const auto cold = fresh.Query(q, nullptr, 5);
    if (warm != cold) {
      std::printf("DETERMINISM VIOLATION at query %u\n", qid);
      return EXIT_FAILURE;
    }
    total_matches += warm.size();
    if (qid < 3) {
      std::printf("query %u -> %zu matches:", qid, warm.size());
      for (const QueryMatch& m : warm) {
        std::printf(" (%u, %.3f)", m.id, m.sim);
      }
      std::printf("\n");
    }
  }
  std::printf("\n200 queries served from the loaded index, %llu matches — "
              "all pair-for-pair identical to a fresh build.\n",
              static_cast<unsigned long long>(total_matches));

  std::remove(path);
  return EXIT_SUCCESS;
}
