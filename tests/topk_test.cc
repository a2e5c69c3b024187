// Tests for top-k all-pairs search: the adaptive threshold descent, exact
// output ranking, floor semantics, and recall of the true top pairs.

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk_search.h"
#include "data/text_generator.h"
#include "sim/brute_force.h"
#include "sim/similarity.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

Dataset MakeCorpus(uint32_t docs, uint64_t seed) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 6000;
  cfg.avg_doc_len = 50;
  cfg.num_clusters = docs / 20;
  cfg.seed = seed;
  return L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
}

// True top-k pairs above the floor, by exact similarity.
std::vector<ScoredPair> TrueTopK(const Dataset& data, Measure measure,
                                 double floor, uint32_t k) {
  std::vector<ScoredPair> all = InvertedIndexJoin(data, floor, measure);
  std::sort(all.begin(), all.end(),
            [](const ScoredPair& x, const ScoredPair& y) {
              if (x.sim != y.sim) return x.sim > y.sim;
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(TopKAllPairsTest, ReturnsKExactlyRankedPairs) {
  const Dataset data = MakeCorpus(800, 21);
  TopKConfig cfg;
  cfg.k = 25;
  TopKStats stats;
  const auto top = TopKAllPairs(data, cfg, &stats);
  ASSERT_EQ(top.size(), 25u);
  EXPECT_GE(stats.iterations, 1u);
  for (size_t i = 0; i < top.size(); ++i) {
    // Reported similarities are exact.
    EXPECT_NEAR(top[i].sim,
                ExactSimilarity(data, top[i].a, top[i].b, Measure::kCosine),
                1e-9);
    if (i > 0) {
      EXPECT_LE(top[i].sim, top[i - 1].sim);
    }
  }
}

TEST(TopKAllPairsTest, FindsTheTrueTopPairs) {
  const Dataset data = MakeCorpus(800, 22);
  const uint32_t k = 30;
  TopKConfig cfg;
  cfg.k = k;
  const auto got = TopKAllPairs(data, cfg);
  const auto want = TrueTopK(data, Measure::kCosine, cfg.floor_threshold, k);
  ASSERT_EQ(want.size(), k);

  std::set<std::pair<uint32_t, uint32_t>> got_keys;
  for (const auto& p : got) got_keys.insert({p.a, p.b});
  uint32_t found = 0;
  for (const auto& p : want) found += got_keys.count({p.a, p.b});
  // Probabilistic completeness: generator fn-rate + verifier epsilon.
  EXPECT_GE(static_cast<double>(found) / k, 0.9);
}

TEST(TopKAllPairsTest, DescentStopsEarlyWhenEnoughPairsExistHigh) {
  // Ask for very few pairs: the corpus has near-duplicate clusters, so the
  // first (high) threshold already yields them and the descent stops.
  const Dataset data = MakeCorpus(600, 23);
  TopKConfig cfg;
  cfg.k = 3;
  TopKStats stats;
  const auto top = TopKAllPairs(data, cfg, &stats);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(stats.iterations, 1u);
  EXPECT_DOUBLE_EQ(stats.final_threshold, cfg.start_threshold);
}

TEST(TopKAllPairsTest, FloorLimitsTheSearch) {
  // Demanding more pairs than exist above the floor returns what exists,
  // all above the floor.
  const Dataset data = MakeCorpus(300, 24);
  TopKConfig cfg;
  cfg.k = 100000;
  cfg.floor_threshold = 0.5;
  TopKStats stats;
  const auto top = TopKAllPairs(data, cfg, &stats);
  const auto population = InvertedIndexJoin(data, 0.5, Measure::kCosine);
  EXPECT_LE(top.size(), population.size());
  EXPECT_LT(top.size(), cfg.k);
  EXPECT_DOUBLE_EQ(stats.final_threshold, 0.5);
  for (const auto& p : top) EXPECT_GE(p.sim, 0.5);
}

TEST(TopKAllPairsTest, WorksWithLshGeneratorAndJaccard) {
  const Dataset data = Binarize(MakeCorpus(600, 25));
  TopKConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.generator = GeneratorKind::kLsh;
  cfg.k = 10;
  cfg.start_threshold = 0.8;
  cfg.floor_threshold = 0.2;
  const auto top = TopKAllPairs(data, cfg);
  ASSERT_FALSE(top.empty());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_NEAR(top[i].sim,
                JaccardSimilarity(data.Row(top[i].a), data.Row(top[i].b)),
                1e-12);
    if (i > 0) {
      EXPECT_LE(top[i].sim, top[i - 1].sim);
    }
  }
}

TEST(TopKAllPairsTest, RefusesRadiusAndKernelMeasures) {
  // Top-k descends a similarity threshold and rescores exactly: neither a
  // Euclidean radius nor the kernel cosine fits.
  const Dataset data = MakeCorpus(200, 26);
  TopKConfig cfg;
  cfg.generator = GeneratorKind::kLsh;
  cfg.k = 10;
  for (const Measure m : {Measure::kEuclidean, Measure::kKernelCosine}) {
    cfg.measure = m;
    EXPECT_THROW(TopKAllPairs(data, cfg), std::invalid_argument)
        << MeasureName(m);
  }
}

// A config the descent cannot run is refused up front, in every build
// type: with decay = 1 the threshold never moves, and with a floor of 0
// the descent never stops.
TEST(TopKAllPairsTest, RefusesConfigsThatCannotDescend) {
  const Dataset data = MakeCorpus(60, 27);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<const char*, TopKConfig>> bad;
  auto with = [&](const char* what, auto&& edit) {
    TopKConfig cfg;
    edit(cfg);
    bad.emplace_back(what, cfg);
  };
  with("k = 0", [](TopKConfig& c) { c.k = 0; });
  with("floor = 0", [](TopKConfig& c) { c.floor_threshold = 0.0; });
  with("floor = 1", [](TopKConfig& c) { c.floor_threshold = 1.0; });
  with("floor = NaN", [&](TopKConfig& c) { c.floor_threshold = nan; });
  with("start < floor", [](TopKConfig& c) { c.start_threshold = 0.2; });
  with("start = NaN", [&](TopKConfig& c) { c.start_threshold = nan; });
  with("decay = 1", [](TopKConfig& c) { c.decay = 1.0; });
  with("decay = 0", [](TopKConfig& c) { c.decay = 0.0; });
  with("decay = NaN", [&](TopKConfig& c) { c.decay = nan; });
  for (const auto& [what, cfg] : bad) {
    EXPECT_THROW(TopKAllPairs(data, cfg), std::invalid_argument) << what;
  }
}

}  // namespace
}  // namespace bayeslsh
