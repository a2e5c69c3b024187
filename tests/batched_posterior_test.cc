// Two widths of the one verification loop (internal::VerifyRounds,
// core/bayes_lsh_impl.h). A query verifies its candidates 8 at a time
// (kVerifyBlock), each round's survivors through one batched posterior
// pass (InferenceCache::EstimateAtBatch), and with a pool and enough
// candidates it splits them over workers' overflow shards; the join
// engines (BayesLshVerify / BayesLshLiteVerify) run the same loop one pair
// at a time. Each query must verify its candidates exactly as the join
// engines verify the pairs (query row, candidate) — same matches, same
// similarities, and QueryStats::pruned / hashes_compared equal to the
// VerifyStats values. An indexed row hashes exactly like its stored
// signature, so every comparison is exact: a divergence is a bug in the
// loop, not tolerance noise. Covered: all six measures plus b-bit
// Jaccard, in both verification modes (Euclidean verifies exactly only),
// through Query() and QueryBatch(), at 1 and 8 threads.
//
// The join's width is pinned too: each pair's MatchCount calls must run
// back to back, [0, k), [k, 2k), ..., the order perfbench's traced join
// replay rebuilds match counts from.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/allpairs.h"
#include "candgen/banding_index.h"
#include "candgen/prefix_filter_join.h"
#include "core/bayes_lsh_impl.h"
#include "core/inference_cache.h"
#include "core/jaccard_posterior.h"
#include "core/measure_table.h"
#include "core/query_search.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "lsh/bbit_minwise.h"
#include "lsh/signature_store.h"
#include "lsh/srp_hasher.h"
#include "sim/similarity.h"
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

// Forwards MatchCount to a real store and records every call.
template <typename Store>
class RecordingStore {
 public:
  struct Call {
    uint32_t a, b, from, to;
  };

  explicit RecordingStore(Store* store) : store_(store) {}

  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to) {
    calls.push_back({a, b, from, to});
    return store_->MatchCount(a, b, from, to);
  }

  std::vector<Call> calls;

 private:
  Store* store_;
};

// Runs both join engines over `pairs` through a recording store and
// checks that each pair's calls are contiguous and cover [0, k), [k, 2k),
// ... in order — with enough pairs alive past the first round that a
// wider join, interleaving the calls of its pairs, would fail.
template <typename Model, typename Store>
void ExpectPairByPairCalls(
    const Model& model, Store* store, double threshold,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const std::function<double(uint32_t, uint32_t)>& exact) {
  const BayesLshParams params;
  const uint32_t k = params.hashes_per_round;
  for (const bool lite : {false, true}) {
    SCOPED_TRACE(lite ? "BayesLSH-Lite" : "BayesLSH");
    RecordingStore<Store> rec(store);
    VerifyStats stats;
    if (lite) {
      BayesLshLiteVerify(model, &rec, pairs, 4 * k, exact, threshold, params,
                         &stats);
    } else {
      BayesLshVerify(model, &rec, pairs, params, &stats);
    }
    size_t next = 0;
    uint64_t multi_round = 0;
    for (const auto& [a, b] : pairs) {
      uint32_t from = 0;
      for (; next < rec.calls.size() && rec.calls[next].a == a &&
             rec.calls[next].b == b;
           ++next, from += k) {
        ASSERT_EQ(rec.calls[next].from, from) << a << "," << b;
        ASSERT_EQ(rec.calls[next].to, from + k) << a << "," << b;
      }
      ASSERT_GT(from, 0u) << "pair " << a << "," << b
                          << " has no call where its turn comes";
      multi_round += from > k;
    }
    EXPECT_EQ(next, rec.calls.size());
    EXPECT_EQ(stats.hashes_compared, uint64_t{k} * rec.calls.size());
    EXPECT_GT(multi_round, pairs.size() / 100);
  }
}

TEST(BatchedPosteriorTest, JoinCallsRunPairByPair) {
  const Dataset text = Text(21, true);
  const auto gauss = std::make_shared<ImplicitGaussianSource>(uint64_t{3});
  BitSignatureStore bits(&text, SrpHasher(gauss.get()));
  ExpectPairByPairCalls(
      CosinePosterior(0.5), &bits, 0.5, AllPairsCandidates(text, 0.5).pairs,
      [&](uint32_t a, uint32_t b) {
        return ExactSimilarity(text, a, b, Measure::kCosine);
      });

  const Dataset graph = GraphBinary(23);
  IntSignatureStore ints(&graph, MinwiseHasher(4));
  ExpectPairByPairCalls(
      JaccardPosterior(0.3), &ints, 0.3,
      PrefixFilterCandidates(graph, 0.3, Measure::kJaccard).pairs,
      [&](uint32_t a, uint32_t b) {
        return ExactSimilarity(graph, a, b, Measure::kJaccard);
      });
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
