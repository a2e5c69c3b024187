// Tests for query-mode similarity search (core/query_search.h): index
// construction, threshold and top-k queries, recall/precision behaviour,
// out-of-collection queries and edge cases.

#include <cmath>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/query_search.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "sim/brute_force.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

Dataset TextWeighted(uint64_t seed, uint32_t docs = 800) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 4000;
  cfg.avg_doc_len = 60;
  cfg.num_clusters = docs / 10;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  return L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
}

Dataset GraphBinary(uint64_t seed, uint32_t nodes = 800) {
  GraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.avg_degree = 16;
  cfg.num_communities = nodes / 10;
  cfg.community_size = 4;
  cfg.seed = seed;
  return GenerateGraphAdjacency(cfg);
}

// Exact matches of q against the collection (ground truth).
std::vector<uint32_t> ExactMatches(const Dataset& data,
                                   const SparseVectorView& q, double t,
                                   Measure measure) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < data.num_vectors(); ++i) {
    double s = 0.0;
    switch (measure) {
      case Measure::kCosine:
        s = SparseDot(data.Row(i), q);
        break;
      case Measure::kJaccard:
        s = JaccardSimilarity(data.Row(i), q);
        break;
      case Measure::kBinaryCosine:
        s = BinaryCosineSimilarity(data.Row(i), q);
        break;
      default:  // The serving measures get their own test file
        ADD_FAILURE() << "unsupported measure";  // (measure_serving_test).
        break;
    }
    if (s >= t) out.push_back(i);
  }
  return out;
}

TEST(QuerySearcherTest, FindsSelfForIndexedRows) {
  const Dataset data = TextWeighted(1);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.7;
  const QuerySearcher searcher(&data, cfg);
  // Querying with a collection row must return the row itself (sim 1).
  int found_self = 0;
  for (uint32_t i = 0; i < 50; ++i) {
    const auto matches = searcher.Query(data.Row(i));
    for (const QueryMatch& m : matches) {
      if (m.id == i) {
        ++found_self;
        EXPECT_GT(m.sim, 0.85);
        break;
      }
    }
  }
  EXPECT_GE(found_self, 48);  // ~epsilon misses allowed.
}

TEST(QuerySearcherTest, CosineRecallAgainstExactScan) {
  const Dataset data = TextWeighted(2);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.6;
  const QuerySearcher searcher(&data, cfg);
  uint64_t truth_total = 0, hit_total = 0;
  for (uint32_t i = 0; i < 120; ++i) {
    const SparseVectorView q = data.Row(i);
    const auto truth = ExactMatches(data, q, 0.6, Measure::kCosine);
    const auto got = searcher.Query(q);
    std::set<uint32_t> got_ids;
    for (const auto& m : got) got_ids.insert(m.id);
    for (uint32_t id : truth) {
      ++truth_total;
      hit_total += got_ids.contains(id);
    }
  }
  ASSERT_GT(truth_total, 100u);
  EXPECT_GE(static_cast<double>(hit_total) / truth_total, 0.92);
}

TEST(QuerySearcherTest, JaccardExactVerificationMode) {
  const Dataset data = GraphBinary(3);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.threshold = 0.5;
  cfg.exact_verification = true;  // Lite mode: exact sims, thresholded.
  const QuerySearcher searcher(&data, cfg);
  for (uint32_t i = 0; i < 60; ++i) {
    const auto matches = searcher.Query(data.Row(i));
    for (const QueryMatch& m : matches) {
      const double exact = JaccardSimilarity(data.Row(m.id), data.Row(i));
      EXPECT_DOUBLE_EQ(m.sim, exact);
      EXPECT_GE(m.sim, 0.5);
    }
  }
}

TEST(QuerySearcherTest, EstimatesAreDeltaAccurate) {
  const Dataset data = TextWeighted(4);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.6;
  cfg.bayes.delta = 0.05;
  cfg.bayes.gamma = 0.03;
  const QuerySearcher searcher(&data, cfg);
  uint64_t total = 0, bad = 0;
  for (uint32_t i = 0; i < 100; ++i) {
    for (const QueryMatch& m : searcher.Query(data.Row(i))) {
      const double exact = SparseDot(data.Row(m.id), data.Row(i));
      ++total;
      bad += std::abs(m.sim - exact) >= 0.05 + 1e-12;
    }
  }
  ASSERT_GT(total, 150u);
  EXPECT_LE(static_cast<double>(bad) / total, 3 * 0.03 + 0.02);
}

TEST(QuerySearcherTest, OutOfCollectionQueryWorks) {
  const Dataset data = GraphBinary(5);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.threshold = 0.4;
  cfg.exact_verification = true;
  const QuerySearcher searcher(&data, cfg);
  // A query equal to row 7's set plus noise tokens.
  std::vector<DimId> qset(data.Row(7).indices.begin(),
                          data.Row(7).indices.end());
  qset.push_back(data.num_dims() - 1);
  std::sort(qset.begin(), qset.end());
  qset.erase(std::unique(qset.begin(), qset.end()), qset.end());
  const std::vector<float> qvals(qset.size(), 1.0f);
  const SparseVectorView q{{qset.data(), qset.size()},
                           {qvals.data(), qvals.size()}};
  const auto matches = searcher.Query(q);
  bool found7 = false;
  for (const auto& m : matches) found7 |= (m.id == 7);
  EXPECT_TRUE(found7);
}

TEST(QuerySearcherTest, TopKTruncatesAndOrders) {
  const Dataset data = TextWeighted(6);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.3;  // Permissive: many matches.
  const QuerySearcher searcher(&data, cfg);
  const auto all = searcher.Query(data.Row(0));
  ASSERT_GE(all.size(), 3u);
  const auto top2 = searcher.Query(data.Row(0), nullptr, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].id, all[0].id);
  EXPECT_EQ(top2[1].id, all[1].id);
  EXPECT_GE(top2[0].sim, top2[1].sim);
  // Results ordered by decreasing similarity.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].sim, all[i].sim);
  }
}

TEST(QuerySearcherTest, EmptyQueryReturnsNothing) {
  const Dataset data = GraphBinary(7, 200);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.threshold = 0.5;
  const QuerySearcher searcher(&data, cfg);
  EXPECT_TRUE(searcher.Query(SparseVectorView{}).empty());
}

TEST(QuerySearcherTest, BayesParamsOutsideTheUnitIntervalThrow) {
  const Dataset data = TextWeighted(12, 200);
  for (double BayesLshParams::*field :
       {&BayesLshParams::epsilon, &BayesLshParams::delta,
        &BayesLshParams::gamma}) {
    for (const double bad : {0.0, 1.0, 2.0, std::nan("")}) {
      QuerySearchConfig cfg;
      cfg.measure = Measure::kCosine;
      cfg.threshold = 0.7;
      cfg.bayes.*field = bad;
      EXPECT_THROW(QuerySearcher(&data, cfg), std::invalid_argument) << bad;
    }
  }
}

TEST(QuerySearcherTest, StatsArePopulated) {
  const Dataset data = TextWeighted(8, 400);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.7;
  const QuerySearcher searcher(&data, cfg);
  QueryStats stats;
  const auto matches = searcher.Query(data.Row(3), &stats);
  EXPECT_GE(stats.candidates, matches.size());
  EXPECT_EQ(stats.pruned + matches.size(), stats.candidates);
  EXPECT_GT(stats.hashes_compared, 0u);
  EXPECT_GT(searcher.num_bands(), 0u);
}

TEST(QuerySearcherTest, DissimilarQueryPrunesEverything) {
  const Dataset data = GraphBinary(9, 300);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.threshold = 0.8;
  const QuerySearcher searcher(&data, cfg);
  // A set over a disjoint token universe cannot match anything.
  std::vector<DimId> qset;
  const std::vector<float> qvals(5, 1.0f);
  for (int i = 0; i < 5; ++i) {
    qset.push_back(data.num_dims() + 100 + i);
  }
  const SparseVectorView q{{qset.data(), qset.size()},
                           {qvals.data(), qvals.size()}};
  EXPECT_TRUE(searcher.Query(q).empty());
}

TEST(QuerySearcherTest, BinaryCosineMeasureSupported) {
  const Dataset data = GraphBinary(10, 400);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kBinaryCosine;
  cfg.threshold = 0.6;
  cfg.exact_verification = true;
  const QuerySearcher searcher(&data, cfg);
  int found_self = 0;
  for (uint32_t i = 0; i < 40; ++i) {
    for (const auto& m : searcher.Query(data.Row(i))) {
      if (m.id == i) {
        EXPECT_DOUBLE_EQ(m.sim, 1.0);
        ++found_self;
      }
    }
  }
  EXPECT_GE(found_self, 38);
}

}  // namespace
}  // namespace bayeslsh
