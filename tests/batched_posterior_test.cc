// Reference test for QuerySearcher's verify loop: each query must verify
// its candidates exactly as the join engine's per-pair loops
// (BayesLshVerify / BayesLshLiteVerify, core/bayes_lsh_impl.h) verify the
// pairs (query row, candidate) — same matches, same similarities, and
// QueryStats::pruned / hashes_compared equal to the VerifyStats values.
//
// The searcher drives candidates in blocks of 8 through one batched
// posterior pass per round (InferenceCache::EstimateAtBatch) and, with a
// pool and enough candidates, splits them over workers' overflow shards;
// the join engine walks one pair at a time. An indexed row hashes exactly
// like its stored signature, so every comparison is exact: a divergence is
// a bug in the loop, not tolerance noise. Covered: all six measures plus
// b-bit Jaccard, in both verification modes (Euclidean verifies exactly
// only), through Query() and QueryBatch(), at 1 and 8 threads.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/banding_index.h"
#include "core/bayes_lsh_impl.h"
#include "core/inference_cache.h"
#include "core/jaccard_posterior.h"
#include "core/measure_table.h"
#include "core/query_search.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "lsh/bbit_minwise.h"
#include "lsh/signature_store.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

constexpr uint32_t kQueries = 40;

// Tf-idf text: L2-normalized for the cosine-like measures, raw (positive
// weights) for weighted Jaccard and Euclidean.
Dataset Text(uint64_t seed, bool normalize) {
  TextCorpusConfig cfg;
  cfg.num_docs = 500;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 50;
  cfg.num_clusters = 50;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  Dataset data = TfIdfTransform(GenerateTextCorpus(cfg));
  return normalize ? L2NormalizeRows(data) : data;
}

Dataset GraphBinary(uint64_t seed) {
  GraphConfig cfg;
  cfg.num_nodes = 500;
  cfg.avg_degree = 16;
  cfg.num_communities = 50;
  cfg.community_size = 4;
  cfg.seed = seed;
  return GenerateGraphAdjacency(cfg);
}

QuerySearchConfig Config(Measure measure, double threshold,
                         uint32_t bbit = 0) {
  QuerySearchConfig cfg;
  cfg.measure = measure;
  cfg.threshold = threshold;
  cfg.bbit = bbit;
  cfg.seed = 5;
  cfg.kernel.tag = KernelTag::kRbf;  // kKernelCosine only.
  cfg.kernel.gamma = 1.0;
  cfg.klsh.num_anchors = 64;
  return cfg;
}

// The searcher's hash families, from the same spec.
MeasureFamily FamilyOf(const Dataset& data, const QuerySearchConfig& cfg) {
  return MeasureFamily(cfg, &data, "test");
}

// Candidates of query rows [0, kQueries): the rows sharing a bucket with
// each, from a generation-stream BandingIndex of the searcher's shape.
std::vector<std::vector<uint32_t>> Candidates(const Dataset& data,
                                              const MeasureFamily& fam,
                                              uint32_t k, uint32_t l) {
  const HashStream gen = fam.Generation();
  std::vector<std::vector<uint32_t>> out(kQueries);
  auto probe = [&](uint32_t row, const BandingIndex& banding,
                   const auto& key) {
    for (uint32_t band = 0; band < l; ++band) {
      const auto* bucket = banding.Find(band, key(band));
      if (bucket != nullptr) {
        out[row].insert(out[row].end(), bucket->begin(), bucket->end());
      }
    }
  };
  const BandingIndex banding =
      BandingIndex::Build(data, gen.bits, gen.ints, k, l);
  if (gen.bits != nullptr) {
    BitSignatureStore sigs(&data, gen.bits);
    for (uint32_t row = 0; row < kQueries; ++row) {
      sigs.EnsureBits(row, l * k);
      probe(row, banding, [&](uint32_t band) {
        return BandingIndex::CosineKey(sigs.Signature(row), WordsForBits(l * k),
                                       band, k);
      });
    }
  } else {
    IntSignatureStore sigs(&data, gen.ints);
    for (uint32_t row = 0; row < kQueries; ++row) {
      sigs.EnsureHashes(row, l * k);
      probe(row, banding, [&](uint32_t band) {
        return BandingIndex::JaccardKey(sigs.Signature(row), band, k);
      });
    }
  }
  for (auto& c : out) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  return out;
}

struct Reference {
  std::vector<QueryMatch> matches;  // Sorted as Query() sorts.
  VerifyStats stats;
};

// The join engine's verdict on the pairs (row, candidate) of each query.
template <typename Model, typename Store>
std::vector<Reference> JoinEngine(
    const Dataset& data, const QuerySearchConfig& cfg,
    const MeasureFamily& fam, const Model& model, Store* store,
    const std::vector<std::vector<uint32_t>>& candidates) {
  const BayesLshParams params = ResolveBayesParams(cfg.measure, cfg.bayes);
  uint32_t lite_h = TraitsOf(cfg.measure).lite_hashes;
  lite_h -= lite_h % params.hashes_per_round;
  const double score_threshold = fam.score_threshold();
  // Scored as the searcher scores a candidate against its query.
  const auto exact = [&](uint32_t query, uint32_t cand) {
    return fam.Score(data.Row(cand), data.Row(query));
  };
  std::vector<Reference> out(candidates.size());
  for (uint32_t row = 0; row < candidates.size(); ++row) {
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (uint32_t c : candidates[row]) pairs.emplace_back(row, c);
    Reference& ref = out[row];
    const std::vector<ScoredPair> kept =
        cfg.exact_verification
            ? BayesLshLiteVerify(model, store, pairs, lite_h, exact,
                                 score_threshold, params, &ref.stats)
            : BayesLshVerify(model, store, pairs, params, &ref.stats);
    for (const ScoredPair& p : kept) ref.matches.push_back({p.b, p.sim});
    std::sort(ref.matches.begin(), ref.matches.end(),
              [](const QueryMatch& a, const QueryMatch& b) {
                return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
              });
  }
  return out;
}

template <typename Model, typename Store>
void CompareWithJoinEngine(const Dataset& data, QuerySearchConfig cfg,
                           const MeasureFamily& fam, const Model& model,
                           Store* store) {
  std::vector<SparseVectorView> queries;
  for (uint32_t row = 0; row < kQueries; ++row) {
    queries.push_back(data.Row(row));
  }
  std::vector<Reference> refs;
  uint64_t pruned = 0, accepted = 0;
  for (uint32_t threads : {1u, 8u}) {
    cfg.num_threads = threads;
    const QuerySearcher searcher(&data, cfg);
    if (refs.empty()) {
      refs = JoinEngine(data, cfg, fam, model, store,
                        Candidates(data, fam, searcher.hashes_per_band(),
                                   searcher.num_bands()));
    }

    QueryStats total;
    for (uint32_t row = 0; row < kQueries; ++row) {
      QueryStats qs;
      ASSERT_EQ(searcher.Query(queries[row], &qs), refs[row].matches)
          << threads << " threads, query " << row;
      EXPECT_EQ(qs.candidates, refs[row].stats.pairs_in) << "query " << row;
      EXPECT_EQ(qs.pruned, refs[row].stats.pruned) << "query " << row;
      EXPECT_EQ(qs.hashes_compared, refs[row].stats.hashes_compared)
          << "query " << row;
      total.MergeFrom(qs);
      pruned += qs.pruned;
      accepted += refs[row].matches.size();
    }

    QueryStats batch;
    const auto results = searcher.QueryBatch(queries, &batch);
    for (uint32_t row = 0; row < kQueries; ++row) {
      ASSERT_EQ(results[row], refs[row].matches)
          << threads << " threads, batch query " << row;
    }
    EXPECT_EQ(batch.candidates, total.candidates);
    EXPECT_EQ(batch.pruned, total.pruned);
    EXPECT_EQ(batch.hashes_compared, total.hashes_compared);
  }
  // Both outcomes occurred, so neither branch of the loop went untested.
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(accepted, uint64_t{kQueries});
}

// Runs `cfg`'s measure in both verification modes (exact only for
// Euclidean), against a join store over the verification stream.
void ExpectJoinEngineAnswers(const Dataset& data, QuerySearchConfig cfg) {
  const MeasureFamily fam = FamilyOf(data, cfg);
  const HashStream ver = fam.Verification();
  for (bool exact : {false, true}) {
    if (fam.traits().distance && !exact) continue;
    SCOPED_TRACE(exact ? "exact verification" : "estimation");
    cfg.exact_verification = exact;
    if (ver.bits != nullptr) {
      BitSignatureStore store(&data, ver.bits);
      CompareWithJoinEngine(data, cfg, fam, CosinePosterior(cfg.threshold),
                            &store);
    } else if (cfg.bbit != 0) {
      BbitSignatureStore store(&data, *ver.minwise, cfg.bbit);
      CompareWithJoinEngine(data, cfg, fam,
                            BbitMinwisePosterior(cfg.threshold, cfg.bbit),
                            &store);
    } else if (fam.traits().distance) {
      IntSignatureStore store(&data, ver.ints);
      CompareWithJoinEngine(
          data, cfg, fam,
          EuclideanPosterior::MakeForRadius(cfg.threshold,
                                            fam.pstable_width()),
          &store);
    } else {
      IntSignatureStore store(&data, ver.ints);
      CompareWithJoinEngine(data, cfg, fam, JaccardPosterior(cfg.threshold),
                            &store);
    }
  }
}

TEST(BatchedPosteriorTest, CosineMatchesJoinEngine) {
  ExpectJoinEngineAnswers(Text(7, true), Config(Measure::kCosine, 0.6));
}

TEST(BatchedPosteriorTest, BinaryCosineMatchesJoinEngine) {
  ExpectJoinEngineAnswers(GraphBinary(9),
                          Config(Measure::kBinaryCosine, 0.5));
}

TEST(BatchedPosteriorTest, JaccardMatchesJoinEngine) {
  ExpectJoinEngineAnswers(GraphBinary(11), Config(Measure::kJaccard, 0.5));
}

TEST(BatchedPosteriorTest, BbitMatchesJoinEngine) {
  ExpectJoinEngineAnswers(GraphBinary(13),
                          Config(Measure::kJaccard, 0.5, /*bbit=*/4));
}

TEST(BatchedPosteriorTest, WeightedJaccardMatchesJoinEngine) {
  ExpectJoinEngineAnswers(Text(15, false),
                          Config(Measure::kWeightedJaccard, 0.5));
}

TEST(BatchedPosteriorTest, KernelCosineMatchesJoinEngine) {
  ExpectJoinEngineAnswers(Text(17, true),
                          Config(Measure::kKernelCosine, 0.7));
}

TEST(BatchedPosteriorTest, EuclideanLiteMatchesJoinEngine) {
  ExpectJoinEngineAnswers(Text(19, false), Config(Measure::kEuclidean, 4.0));
}

TEST(BatchedPosteriorTest, EstimateAtBatchMatchesSerialCalls) {
  // Unit-level: one batched pass over mixed (m, n) produces the same
  // results and the same hit/miss tallies as serial calls in order.
  JaccardPosterior model(0.5);
  InferenceCache<JaccardPosterior> serial_cache(&model, 32, 256, 0.03,
                                                0.05, 0.03);
  InferenceCache<JaccardPosterior> batch_cache(&model, 32, 256, 0.03,
                                               0.05, 0.03);
  const uint32_t n = 64;
  const std::vector<uint32_t> ms = {10, 40, 40, 64, 0, 10, 33};
  std::vector<InferenceCache<JaccardPosterior>::EstimateResult> serial_res;
  for (uint32_t m : ms) serial_res.push_back(serial_cache.EstimateAt(m, n));
  std::vector<InferenceCache<JaccardPosterior>::EstimateResult> batch_res(
      ms.size());
  batch_cache.EstimateAtBatch(ms.data(), static_cast<uint32_t>(ms.size()),
                              n, batch_res.data());
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(serial_res[i].concentrated, batch_res[i].concentrated);
    EXPECT_EQ(serial_res[i].estimate, batch_res[i].estimate);
  }
  EXPECT_EQ(serial_cache.stats().concentration_misses,
            batch_cache.stats().concentration_misses);
  EXPECT_EQ(serial_cache.stats().concentration_hits,
            batch_cache.stats().concentration_hits);
}

}  // namespace
}  // namespace bayeslsh
