// Query-mode document search: index a corpus once, then answer "find
// everything similar to this document" queries — the general similarity
// search problem from the paper's introduction, as opposed to the all-pairs
// self-join.
//
//   ./build/examples/document_search

#include <cstdio>

#include "bayeslsh/bayeslsh.h"
#include "core/query_search.h"

int main() {
  using namespace bayeslsh;

  // Index-side corpus.
  TextCorpusConfig corpus_cfg;
  corpus_cfg.num_docs = 4000;
  corpus_cfg.vocab_size = 20000;
  corpus_cfg.avg_doc_len = 90;
  corpus_cfg.num_clusters = 250;
  corpus_cfg.seed = 11;
  const Dataset docs =
      L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(corpus_cfg)));

  // Build the searcher once; queries amortize the index.
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.6;
  WallTimer build_timer;
  const QuerySearcher searcher(&docs, cfg);
  std::printf("indexed %u documents in %.3f s (%u bands x %u bits)\n\n",
              docs.num_vectors(), build_timer.Seconds(),
              searcher.num_bands(), searcher.hashes_per_band());

  // Run a few queries using corpus documents as query texts.
  WallTimer query_timer;
  uint64_t total_matches = 0, total_candidates = 0;
  const uint32_t kQueries = 200;
  for (uint32_t qid = 0; qid < kQueries; ++qid) {
    QueryStats stats;
    const auto matches = searcher.Query(docs.Row(qid * 17 % 4000), &stats);
    total_matches += matches.size();
    total_candidates += stats.candidates;
  }
  const double secs = query_timer.Seconds();
  std::printf("%u queries in %.3f s (%.2f ms/query): %llu matches from "
              "%llu candidates\n\n",
              kQueries, secs, 1000.0 * secs / kQueries,
              static_cast<unsigned long long>(total_matches),
              static_cast<unsigned long long>(total_candidates));

  // Show one query in detail.
  const uint32_t probe = 42;
  const auto matches = searcher.Query(docs.Row(probe), nullptr, 5);
  std::printf("top-5 for document %u:\n", probe);
  std::printf("%8s %12s %12s\n", "doc", "estimate", "exact");
  for (const QueryMatch& m : matches) {
    std::printf("%8u %12.4f %12.4f\n", m.id, m.sim,
                SparseDot(docs.Row(probe), docs.Row(m.id)));
  }
  return 0;
}
