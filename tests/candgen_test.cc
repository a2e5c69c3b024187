// Exactness and recall tests for the candidate-generation algorithms.
//
// AllPairs, the prefix-filter join and PPJoin+ are *exact* algorithms —
// every speedup the paper reports is measured against them, so their
// exactness is validated against brute force across randomized datasets,
// measures and thresholds. LSH banding is randomized; its derived band
// count is checked against the expected false-negative rate.

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "candgen/allpairs.h"
#include "candgen/lsh_banding.h"
#include "candgen/ppjoin.h"
#include "candgen/prefix_filter_join.h"
#include "common/bit_ops.h"
#include "common/prng.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "lsh/gaussian_source.h"
#include "sim/brute_force.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

// Compares an exact join's output against brute-force ground truth. Pairs
// whose similarity is within fp_slack of the threshold may legitimately
// differ between implementations (different floating-point summation
// orders); everything else must match exactly.
void ExpectJoinsMatch(const std::vector<ScoredPair>& result,
                      const std::vector<ScoredPair>& truth, double threshold,
                      const Dataset& data, Measure measure,
                      double fp_slack = 1e-9) {
  std::set<std::pair<uint32_t, uint32_t>> res_set, truth_set;
  for (const auto& p : result) res_set.insert({p.a, p.b});
  for (const auto& p : truth) truth_set.insert({p.a, p.b});

  for (const auto& p : truth) {
    if (!res_set.contains({p.a, p.b})) {
      EXPECT_NEAR(p.sim, threshold, fp_slack)
          << "missing pair (" << p.a << "," << p.b << ") sim=" << p.sim;
    }
  }
  for (const auto& p : result) {
    EXPECT_LT(p.a, p.b);
    if (!truth_set.contains({p.a, p.b})) {
      const double exact = ExactSimilarity(data, p.a, p.b, measure);
      EXPECT_NEAR(exact, threshold, fp_slack)
          << "spurious pair (" << p.a << "," << p.b << ") sim=" << exact;
    }
  }
}

Dataset SmallTextWeighted(uint64_t seed, uint32_t docs = 300) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 800;
  cfg.avg_doc_len = 30;
  cfg.num_clusters = 25;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  return L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
}

Dataset SmallGraphBinary(uint64_t seed, uint32_t nodes = 300) {
  GraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.avg_degree = 12;
  cfg.community_size = 4;
  cfg.num_communities = std::min(30u, nodes / cfg.community_size);
  cfg.seed = seed;
  return GenerateGraphAdjacency(cfg);
}

// ---------------------------------------------------------------------------
// AllPairs (weighted cosine)
// ---------------------------------------------------------------------------

class AllPairsExactnessTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(AllPairsExactnessTest, MatchesBruteForceOnText) {
  const auto [threshold, seed] = GetParam();
  const Dataset data = SmallTextWeighted(seed);
  const auto truth = BruteForceJoin(data, threshold, Measure::kCosine);
  const auto result = AllPairsJoin(data, threshold);
  ExpectJoinsMatch(result, truth, threshold, data, Measure::kCosine);
}

TEST_P(AllPairsExactnessTest, MatchesBruteForceOnNormalizedBinaryGraph) {
  const auto [threshold, seed] = GetParam();
  const Dataset data = BinarizeNormalized(SmallGraphBinary(seed));
  const auto truth = BruteForceJoin(data, threshold, Measure::kCosine);
  const auto result = AllPairsJoin(data, threshold);
  ExpectJoinsMatch(result, truth, threshold, data, Measure::kCosine);
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdsAndSeeds, AllPairsExactnessTest,
    ::testing::Combine(::testing::Values(0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(1u, 2u, 3u)));

TEST(AllPairsTest, CandidatesAreSupersetOfTruth) {
  const Dataset data = SmallTextWeighted(10);
  const double threshold = 0.6;
  const auto truth = BruteForceJoin(data, threshold, Measure::kCosine);
  const CandidateList cands = AllPairsCandidates(data, threshold);
  std::set<std::pair<uint32_t, uint32_t>> cand_set(cands.pairs.begin(),
                                                   cands.pairs.end());
  for (const auto& p : truth) {
    if (std::abs(p.sim - threshold) < 1e-9) continue;
    EXPECT_TRUE(cand_set.contains({p.a, p.b}))
        << "(" << p.a << "," << p.b << ") sim=" << p.sim;
  }
}

TEST(AllPairsTest, CandidateCountExceedsResultCount) {
  const Dataset data = SmallTextWeighted(11);
  const auto result = AllPairsJoin(data, 0.7);
  const CandidateList cands = AllPairsCandidates(data, 0.7);
  EXPECT_GE(cands.size(), result.size());
  // The paper's premise: candidate sets are much larger than result sets.
  EXPECT_GT(cands.size(), 4 * result.size());
}

TEST(AllPairsTest, StatsAreCoherent) {
  const Dataset data = SmallTextWeighted(12);
  AllPairsStats stats;
  AllPairsJoin(data, 0.6, &stats);
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_GT(stats.indexed_entries, 0u);
  EXPECT_LT(stats.indexed_entries, data.nnz());  // Partial indexing.
  EXPECT_EQ(stats.candidates, stats.ubound_pruned + stats.exact_verified);
}

TEST(AllPairsTest, HigherThresholdIndexesLess) {
  const Dataset data = SmallTextWeighted(13);
  AllPairsStats lo, hi;
  AllPairsJoin(data, 0.3, &lo);
  AllPairsJoin(data, 0.9, &hi);
  EXPECT_LT(hi.indexed_entries, lo.indexed_entries);
}

TEST(AllPairsTest, EmptyAndTinyDatasets) {
  DatasetBuilder b;
  EXPECT_TRUE(AllPairsJoin(std::move(b).Build(), 0.5).empty());
  DatasetBuilder b2;
  b2.AddRow({{0, 1.0f}});
  EXPECT_TRUE(AllPairsJoin(std::move(b2).Build(), 0.5).empty());
  DatasetBuilder b3;
  b3.AddRow({{0, 1.0f}});
  b3.AddRow({{0, 1.0f}});
  const auto out = AllPairsJoin(std::move(b3).Build(), 0.5);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].sim, 1.0, 1e-7);
}

// ---------------------------------------------------------------------------
// Prefix-filter join (binary AllPairs)
// ---------------------------------------------------------------------------

class PrefixFilterExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<Measure, double, uint64_t>> {};

TEST_P(PrefixFilterExactnessTest, MatchesBruteForce) {
  const auto [measure, threshold, seed] = GetParam();
  const Dataset data = SmallGraphBinary(seed);
  const auto truth = BruteForceJoin(data, threshold, measure);
  const auto result = PrefixFilterJoin(data, threshold, measure);
  ExpectJoinsMatch(result, truth, threshold, data, measure);
}

INSTANTIATE_TEST_SUITE_P(
    MeasureThresholdSeed, PrefixFilterExactnessTest,
    ::testing::Combine(::testing::Values(Measure::kJaccard,
                                         Measure::kBinaryCosine),
                       ::testing::Values(0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(4u, 5u)));

TEST(PrefixFilterTest, CandidatesSupersetOfTruth) {
  const Dataset data = SmallGraphBinary(21);
  const double threshold = 0.4;
  const auto truth = BruteForceJoin(data, threshold, Measure::kJaccard);
  const CandidateList cands =
      PrefixFilterCandidates(data, threshold, Measure::kJaccard);
  std::set<std::pair<uint32_t, uint32_t>> cand_set(cands.pairs.begin(),
                                                   cands.pairs.end());
  for (const auto& p : truth) {
    if (std::abs(p.sim - threshold) < 1e-9) continue;
    EXPECT_TRUE(cand_set.contains({p.a, p.b}));
  }
}

TEST(PrefixFilterTest, SizeFilterActuallySkips) {
  // Mix very short and very long sets so the size filter has work to do.
  DatasetBuilder b;
  for (int i = 0; i < 50; ++i) b.AddSetRow({0, 1, static_cast<DimId>(i + 2)});
  for (int i = 0; i < 5; ++i) {
    std::vector<DimId> big;
    for (DimId d = 0; d < 60; ++d) big.push_back(d);
    b.AddSetRow(big);
  }
  const Dataset data = std::move(b).Build();
  PrefixJoinStats stats;
  PrefixFilterJoin(data, 0.8, Measure::kJaccard, &stats);
  EXPECT_GT(stats.size_skipped, 0u);
}

TEST(PrefixFilterTest, CeilSafeIsConservative) {
  EXPECT_EQ(CeilSafe(3.0), 3u);
  EXPECT_EQ(CeilSafe(3.0000000001), 3u);  // FP noise above an integer.
  EXPECT_EQ(CeilSafe(3.1), 4u);
  EXPECT_EQ(CeilSafe(0.0), 0u);
  EXPECT_EQ(CeilSafe(-0.5), 0u);
  // 0.3 * 10 is 3.0000000000000004 in IEEE754 — must stay 3.
  EXPECT_EQ(CeilSafe(0.3 * 10), 3u);
}

// ---------------------------------------------------------------------------
// PPJoin / PPJoin+
// ---------------------------------------------------------------------------

class PpjoinExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<Measure, double, bool, uint64_t>> {};

TEST_P(PpjoinExactnessTest, MatchesBruteForce) {
  const auto [measure, threshold, suffix, seed] = GetParam();
  const Dataset data = SmallGraphBinary(seed);
  const auto truth = BruteForceJoin(data, threshold, measure);
  const auto result = PpjoinJoin(data, threshold, measure, suffix);
  ExpectJoinsMatch(result, truth, threshold, data, measure);
}

INSTANTIATE_TEST_SUITE_P(
    MeasureThresholdSuffixSeed, PpjoinExactnessTest,
    ::testing::Combine(::testing::Values(Measure::kJaccard,
                                         Measure::kBinaryCosine),
                       ::testing::Values(0.3, 0.5, 0.7, 0.9),
                       ::testing::Bool(), ::testing::Values(6u, 7u)));

TEST(PpjoinTest, ExactOnTextShapedSets) {
  // Zipfian token distributions stress the prefix ordering differently than
  // graphs do.
  TextCorpusConfig cfg;
  cfg.num_docs = 250;
  cfg.vocab_size = 600;
  cfg.avg_doc_len = 25;
  cfg.num_clusters = 20;
  cfg.seed = 31;
  const Dataset data = Binarize(GenerateTextCorpus(cfg));
  for (double t : {0.4, 0.6, 0.8}) {
    const auto truth = BruteForceJoin(data, t, Measure::kJaccard);
    const auto result = PpjoinJoin(data, t, Measure::kJaccard, true);
    ExpectJoinsMatch(result, truth, t, data, Measure::kJaccard);
  }
}

TEST(PpjoinTest, PositionalFilterPrunesSomething) {
  const Dataset data = SmallGraphBinary(8, 500);
  PpjoinStats stats;
  PpjoinJoin(data, 0.6, Measure::kJaccard, /*use_suffix_filter=*/false,
             &stats);
  EXPECT_GT(stats.positional_pruned, 0u);
}

TEST(PpjoinTest, SuffixFilterPrunesMoreThanPositionalAlone) {
  const Dataset data = SmallGraphBinary(9, 500);
  PpjoinStats with_suffix, without;
  PpjoinJoin(data, 0.6, Measure::kJaccard, true, &with_suffix);
  PpjoinJoin(data, 0.6, Measure::kJaccard, false, &without);
  EXPECT_GT(with_suffix.suffix_pruned, 0u);
  EXPECT_LE(with_suffix.verified, without.verified);
}

// SuffixHammingLowerBound: whenever the bound exceeds hmax, the true
// Hamming distance must exceed hmax too (no over-pruning).
TEST(SuffixFilterBoundTest, NeverOverestimatesBeyondBudget) {
  Xoshiro256StarStar rng(55);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint32_t> x, y;
    const int nx = 1 + static_cast<int>(rng.NextBounded(30));
    const int ny = 1 + static_cast<int>(rng.NextBounded(30));
    std::set<uint32_t> sx, sy;
    while (static_cast<int>(sx.size()) < nx)
      sx.insert(static_cast<uint32_t>(rng.NextBounded(60)));
    while (static_cast<int>(sy.size()) < ny)
      sy.insert(static_cast<uint32_t>(rng.NextBounded(60)));
    x.assign(sx.begin(), sx.end());
    y.assign(sy.begin(), sy.end());

    // True Hamming distance = |x| + |y| - 2 |x ∩ y|.
    std::vector<uint32_t> inter;
    std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                          std::back_inserter(inter));
    const int true_ham = static_cast<int>(x.size() + y.size()) -
                         2 * static_cast<int>(inter.size());

    const int hmax = static_cast<int>(rng.NextBounded(40));
    const int bound = SuffixHammingLowerBound(x, y, hmax);
    if (bound > hmax) {
      EXPECT_GT(true_ham, hmax)
          << "over-pruned: bound=" << bound << " true=" << true_ham
          << " hmax=" << hmax;
    }
  }
}

TEST(SuffixFilterBoundTest, ExactOnDisjointAndIdentical) {
  const std::vector<uint32_t> a = {1, 3, 5, 7};
  const std::vector<uint32_t> b = {2, 4, 6, 8};
  // Identical: bound must not exceed 0 (true Hamming 0, hmax 0 must pass).
  EXPECT_LE(SuffixHammingLowerBound(a, a, 0), 0);
  // Disjoint same-size sets, true Hamming 8. With a generous budget the
  // bound may be partial (depth-capped) but must never exceed the truth.
  const int bound = SuffixHammingLowerBound(a, b, 100);
  EXPECT_LE(bound, 8);
  EXPECT_GE(bound, 0);
}

TEST(SuffixFilterBoundTest, EmptySidesReturnSizeDifference) {
  const std::vector<uint32_t> a = {1, 2, 3};
  EXPECT_EQ(SuffixHammingLowerBound(a, {}, 10), 3);
  EXPECT_EQ(SuffixHammingLowerBound({}, a, 10), 3);
  EXPECT_EQ(SuffixHammingLowerBound({}, {}, 10), 0);
}

// ---------------------------------------------------------------------------
// LSH banding
// ---------------------------------------------------------------------------

TEST(DeriveNumBandsTest, MatchesFormula) {
  // l = ceil(log eps / log(1 - p^k)).
  const double p = 0.7, eps = 0.03;
  const uint32_t k = 4;
  const double expected =
      std::ceil(std::log(eps) / std::log(1.0 - std::pow(p, k)));
  EXPECT_EQ(DeriveNumBands(p, k, eps, 4096),
            static_cast<uint32_t>(expected));
}

TEST(DeriveNumBandsTest, EdgeCases) {
  EXPECT_EQ(DeriveNumBands(1.0, 4, 0.03, 100), 1u);    // Always collides.
  EXPECT_EQ(DeriveNumBands(0.0, 4, 0.03, 100), 100u);  // Never collides: cap.
  EXPECT_GE(DeriveNumBands(0.5, 8, 0.03, 4096), 100u); // Small p^k: many.
  EXPECT_EQ(DeriveNumBands(0.2, 16, 0.03, 64), 64u);   // Clamped to cap.
}

TEST(DeriveNumBandsTest, StricterFnRateNeedsMoreBands) {
  EXPECT_GT(DeriveNumBands(0.7, 4, 0.01, 4096),
            DeriveNumBands(0.7, 4, 0.10, 4096));
}

TEST(LshBandingTest, CandidatesAreUniqueAndOrdered) {
  const Dataset data = SmallTextWeighted(14, 200);
  const ImplicitGaussianSource src(100);
  BitSignatureStore store(&data, SrpHasher(&src));
  LshBandingParams params;
  const CandidateList cands = CosineLshCandidates(&store, 0.6, params);
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (const auto& [a, b] : cands.pairs) {
    EXPECT_LT(a, b);
    EXPECT_TRUE(seen.insert({a, b}).second) << "duplicate pair";
  }
  EXPECT_GE(cands.raw_emitted, cands.size());
}

TEST(LshBandingTest, CosineRecallMeetsExpectedRate) {
  const Dataset data = SmallTextWeighted(15, 400);
  const double threshold = 0.7;
  const auto truth = BruteForceJoin(data, threshold, Measure::kCosine);
  ASSERT_GT(truth.size(), 20u);

  const ImplicitGaussianSource src(7);
  BitSignatureStore store(&data, SrpHasher(&src));
  LshBandingParams params;
  params.expected_fn_rate = 0.03;
  const CandidateList cands = CosineLshCandidates(&store, threshold, params);
  std::set<std::pair<uint32_t, uint32_t>> cand_set(cands.pairs.begin(),
                                                   cands.pairs.end());
  uint32_t found = 0;
  for (const auto& p : truth) {
    if (cand_set.contains({p.a, p.b})) ++found;
  }
  // Expected miss rate 3%; allow sampling slack.
  EXPECT_GE(static_cast<double>(found) / truth.size(), 0.90);
}

TEST(LshBandingTest, JaccardRecallMeetsExpectedRate) {
  const Dataset data = SmallGraphBinary(16, 400);
  const double threshold = 0.5;
  const auto truth = BruteForceJoin(data, threshold, Measure::kJaccard);
  ASSERT_GT(truth.size(), 20u);

  IntSignatureStore store(&data, MinwiseHasher(9));
  LshBandingParams params;
  params.expected_fn_rate = 0.03;
  const CandidateList cands = JaccardLshCandidates(&store, threshold, params);
  std::set<std::pair<uint32_t, uint32_t>> cand_set(cands.pairs.begin(),
                                                   cands.pairs.end());
  uint32_t found = 0;
  for (const auto& p : truth) {
    if (cand_set.contains({p.a, p.b})) ++found;
  }
  EXPECT_GE(static_cast<double>(found) / truth.size(), 0.90);
}

TEST(LshBandingTest, ExplicitBandCountRespected) {
  const Dataset data = SmallGraphBinary(17, 100);
  IntSignatureStore store(&data, MinwiseHasher(2));
  LshBandingParams params;
  params.hashes_per_band = 2;
  params.num_bands = 5;
  JaccardLshCandidates(&store, 0.5, params);
  // 5 bands * 2 hashes, rounded up to the 16-int chunk.
  EXPECT_EQ(store.NumHashes(0), 16u);
}

TEST(DedupPairKeysTest, SortsAndDedups) {
  std::vector<uint64_t> keys = {PairKey(3, 4), PairKey(1, 2), PairKey(3, 4),
                                PairKey(1, 2), PairKey(0, 9)};
  const CandidateList list = DedupPairKeys(std::move(keys), nullptr);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list.raw_emitted, 5u);
  EXPECT_EQ(list.pairs[0], (std::pair<uint32_t, uint32_t>{0, 9}));
  EXPECT_EQ(list.pairs[1], (std::pair<uint32_t, uint32_t>{1, 2}));
  EXPECT_EQ(list.pairs[2], (std::pair<uint32_t, uint32_t>{3, 4}));
}

// The parallel dedupe (sorted pieces merged into one list) must return the
// sequential list and raw count through pools of 1, 3 and 8 threads.
void ExpectParallelDedupMatchesSequential(const std::vector<uint64_t>& keys) {
  std::vector<uint64_t> input = keys;
  const CandidateList want = DedupPairKeys(std::move(input), nullptr);
  ASSERT_EQ(want.raw_emitted, keys.size());
  ASSERT_TRUE(std::is_sorted(want.pairs.begin(), want.pairs.end()));
  ASSERT_EQ(std::adjacent_find(want.pairs.begin(), want.pairs.end()),
            want.pairs.end());
  for (const uint32_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    input = keys;
    const CandidateList got = DedupPairKeys(std::move(input), &pool);
    EXPECT_EQ(got.raw_emitted, want.raw_emitted)
        << threads << " threads, " << keys.size() << " keys";
    EXPECT_TRUE(got.pairs == want.pairs)
        << threads << " threads, " << keys.size() << " keys";
  }
}

TEST(DedupPairKeysTest, ParallelMatchesSequentialOnSmallInputs) {
  ExpectParallelDedupMatchesSequential({});
  ExpectParallelDedupMatchesSequential({PairKey(4, 7)});
  // Fewer keys than pieces: some workers get none.
  ExpectParallelDedupMatchesSequential({PairKey(9, 10), PairKey(1, 2)});
  ExpectParallelDedupMatchesSequential({PairKey(5, 6), PairKey(0, 3),
                                        PairKey(5, 6), PairKey(2, 8),
                                        PairKey(0, 1)});
  // All duplicates: every piece holds the same single key.
  ExpectParallelDedupMatchesSequential(
      std::vector<uint64_t>(1000, PairKey(3, 11)));
}

TEST(DedupPairKeysTest, ParallelMergesDuplicatesAcrossPieceBoundaries) {
  // Descending distinct keys, then every boundary of the 3- and 8-way
  // splits gets the same key on both of its sides.
  const uint64_t n = 120;
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = PairKey(static_cast<uint32_t>((n - i) % 7),
                      static_cast<uint32_t>(1000 - i));
  }
  for (const uint32_t threads : {3u, 8u}) {
    for (uint32_t s = 1; s < threads; ++s) {
      const uint64_t b = ThreadPool::ShardBegin(n, s, threads);
      keys[b] = keys[b - 1];
    }
  }
  ExpectParallelDedupMatchesSequential(keys);
}

TEST(DedupPairKeysTest, ParallelMatchesSequentialOnAMillionKeys) {
  // ~1 M random pair keys, ~10% of them copies of earlier keys, shuffled.
  Xoshiro256StarStar rng(2012);
  std::vector<uint64_t> keys;
  keys.reserve(1000000);
  while (keys.size() < 900000) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(20000));
    const auto b = static_cast<uint32_t>(rng.NextBounded(20000));
    if (a != b) keys.push_back(a < b ? PairKey(a, b) : PairKey(b, a));
  }
  while (keys.size() < 1000000) {
    keys.push_back(keys[rng.NextBounded(900000)]);
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  ExpectParallelDedupMatchesSequential(keys);
}

TEST(DedupPairKeysTest, NestedInsideAPoolWorkerRunsAsOnePiece) {
  const std::vector<uint64_t> keys = {PairKey(2, 3), PairKey(0, 5),
                                      PairKey(2, 3), PairKey(1, 4)};
  std::vector<uint64_t> input = keys;
  const CandidateList want = DedupPairKeys(std::move(input), nullptr);
  ThreadPool pool(3);
  CandidateList got;
  pool.RunShards(1, [&](uint32_t, uint64_t, uint64_t) {
    std::vector<uint64_t> nested = keys;
    got = DedupPairKeys(std::move(nested), &pool);
  });
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.raw_emitted, want.raw_emitted);
}

}  // namespace
}  // namespace bayeslsh
