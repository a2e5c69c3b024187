// End-to-end pipeline tests: every generator × verifier combination on
// realistic (small) workloads, checking the paper's quality guarantees,
// naming, determinism and instrumentation.

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/pipeline.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "lsh/gaussian_source.h"
#include "sim/brute_force.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

Dataset TextWeighted(uint64_t seed, uint32_t docs = 600) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 50;
  cfg.num_clusters = docs / 12;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  return L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
}

Dataset GraphBinary(uint64_t seed, uint32_t nodes = 600) {
  GraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.avg_degree = 16;
  cfg.num_communities = nodes / 12;
  cfg.community_size = 4;
  cfg.seed = seed;
  return GenerateGraphAdjacency(cfg);
}

PipelineConfig MakeConfig(Measure m, GeneratorKind g, VerifierKind v,
                          double t, uint64_t seed = 42) {
  PipelineConfig cfg;
  cfg.measure = m;
  cfg.generator = g;
  cfg.verifier = v;
  cfg.threshold = t;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Naming
// ---------------------------------------------------------------------------

TEST(AlgorithmNameTest, MatchesPaperLabels) {
  EXPECT_EQ(AlgorithmName(MakeConfig(Measure::kCosine,
                                     GeneratorKind::kAllPairs,
                                     VerifierKind::kExact, 0.7)),
            "AllPairs");
  EXPECT_EQ(AlgorithmName(MakeConfig(Measure::kCosine, GeneratorKind::kLsh,
                                     VerifierKind::kExact, 0.7)),
            "LSH");
  EXPECT_EQ(AlgorithmName(MakeConfig(Measure::kCosine, GeneratorKind::kLsh,
                                     VerifierKind::kMle, 0.7)),
            "LSH Approx");
  EXPECT_EQ(AlgorithmName(MakeConfig(Measure::kCosine, GeneratorKind::kLsh,
                                     VerifierKind::kBayesLsh, 0.7)),
            "LSH+BayesLSH");
  EXPECT_EQ(AlgorithmName(MakeConfig(Measure::kCosine,
                                     GeneratorKind::kAllPairs,
                                     VerifierKind::kBayesLsh, 0.7)),
            "AP+BayesLSH");
  EXPECT_EQ(AlgorithmName(MakeConfig(Measure::kCosine,
                                     GeneratorKind::kAllPairs,
                                     VerifierKind::kBayesLshLite, 0.7)),
            "AP+BayesLSH-Lite");
  EXPECT_EQ(AlgorithmName(MakeConfig(Measure::kCosine, GeneratorKind::kLsh,
                                     VerifierKind::kBayesLshLite, 0.7)),
            "LSH+BayesLSH-Lite");
}

// ---------------------------------------------------------------------------
// Exact paths reproduce ground truth
// ---------------------------------------------------------------------------

TEST(PipelineExactTest, AllPairsCosineMatchesGroundTruth) {
  const Dataset data = TextWeighted(1);
  const double t = 0.6;
  const auto truth = InvertedIndexJoin(data, t, Measure::kCosine);
  const auto result = RunPipeline(
      data, MakeConfig(Measure::kCosine, GeneratorKind::kAllPairs,
                       VerifierKind::kExact, t));
  EXPECT_EQ(result.algorithm, "AllPairs");
  ASSERT_EQ(result.pairs.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(result.pairs[i].a, truth[i].a);
    EXPECT_EQ(result.pairs[i].b, truth[i].b);
  }
}

TEST(PipelineExactTest, AllPairsJaccardMatchesGroundTruth) {
  const Dataset data = GraphBinary(2);
  const double t = 0.5;
  const auto truth = InvertedIndexJoin(data, t, Measure::kJaccard);
  const auto result = RunPipeline(
      data, MakeConfig(Measure::kJaccard, GeneratorKind::kAllPairs,
                       VerifierKind::kExact, t));
  EXPECT_EQ(result.pairs.size(), truth.size());
}

TEST(PipelineExactTest, LshExactRecallNearExpected) {
  const Dataset data = TextWeighted(3);
  const double t = 0.7;
  const auto truth = InvertedIndexJoin(data, t, Measure::kCosine);
  ASSERT_GT(truth.size(), 30u);
  const auto result =
      RunPipeline(data, MakeConfig(Measure::kCosine, GeneratorKind::kLsh,
                                   VerifierKind::kExact, t));
  // All output pairs are exact-verified: they must be true pairs.
  std::set<std::pair<uint32_t, uint32_t>> truth_set;
  for (const auto& p : truth) truth_set.insert({p.a, p.b});
  for (const auto& p : result.pairs) {
    EXPECT_TRUE(truth_set.contains({p.a, p.b}));
  }
  EXPECT_GE(Recall(result.pairs, truth), 0.9);
}

// ---------------------------------------------------------------------------
// BayesLSH quality guarantees end-to-end
// ---------------------------------------------------------------------------

struct QualityCase {
  Measure measure;
  GeneratorKind generator;
  VerifierKind verifier;
  double threshold;
};

class PipelineQualityTest : public ::testing::TestWithParam<QualityCase> {};

// Stable test names and printed parameters: a QualityCase printed as raw
// bytes would show its uninitialized padding, which changes from build to
// build.
std::string QualityLabel(const QualityCase& c) {
  std::string measure = MeasureName(c.measure);
  std::replace(measure.begin(), measure.end(), '-', '_');
  static const char* const kVerifiers[] = {"Exact", "Mle", "BayesLsh",
                                           "BayesLshLite"};
  return measure +
         (c.generator == GeneratorKind::kLsh ? "_Lsh_" : "_AllPairs_") +
         kVerifiers[static_cast<int>(c.verifier)] + "_t" +
         std::to_string(std::lround(c.threshold * 100));
}

void PrintTo(const QualityCase& c, std::ostream* os) {
  *os << QualityLabel(c);
}

TEST_P(PipelineQualityTest, RecallAboveNinety) {
  const QualityCase c = GetParam();
  const Dataset data = c.measure == Measure::kCosine
                           ? TextWeighted(4, 800)
                           : GraphBinary(4, 800);
  const auto truth = InvertedIndexJoin(data, c.threshold, c.measure);
  ASSERT_GT(truth.size(), 20u);
  const auto result = RunPipeline(
      data, MakeConfig(c.measure, c.generator, c.verifier, c.threshold));
  // Paper reports recall >= ~97%; small samples wobble, so gate at 90%.
  EXPECT_GE(Recall(result.pairs, truth), 0.90)
      << result.algorithm << " t=" << c.threshold;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PipelineQualityTest,
    ::testing::Values(
        QualityCase{Measure::kCosine, GeneratorKind::kAllPairs,
                    VerifierKind::kBayesLsh, 0.7},
        QualityCase{Measure::kCosine, GeneratorKind::kAllPairs,
                    VerifierKind::kBayesLshLite, 0.7},
        QualityCase{Measure::kCosine, GeneratorKind::kLsh,
                    VerifierKind::kBayesLsh, 0.7},
        QualityCase{Measure::kCosine, GeneratorKind::kLsh,
                    VerifierKind::kBayesLshLite, 0.7},
        QualityCase{Measure::kCosine, GeneratorKind::kAllPairs,
                    VerifierKind::kBayesLsh, 0.5},
        QualityCase{Measure::kJaccard, GeneratorKind::kAllPairs,
                    VerifierKind::kBayesLsh, 0.5},
        QualityCase{Measure::kJaccard, GeneratorKind::kLsh,
                    VerifierKind::kBayesLsh, 0.5},
        QualityCase{Measure::kJaccard, GeneratorKind::kLsh,
                    VerifierKind::kBayesLshLite, 0.4},
        QualityCase{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
                    VerifierKind::kBayesLsh, 0.7},
        QualityCase{Measure::kBinaryCosine, GeneratorKind::kLsh,
                    VerifierKind::kBayesLshLite, 0.6}),
    [](const ::testing::TestParamInfo<QualityCase>& info) {
      return QualityLabel(info.param);
    });

TEST(PipelineAccuracyTest, BayesLshEstimatesMeetDeltaGamma) {
  const Dataset data = TextWeighted(5, 800);
  PipelineConfig cfg = MakeConfig(Measure::kCosine, GeneratorKind::kAllPairs,
                                  VerifierKind::kBayesLsh, 0.6);
  cfg.bayes.delta = 0.05;
  cfg.bayes.gamma = 0.03;
  const auto result = RunPipeline(data, cfg);
  ASSERT_GT(result.pairs.size(), 30u);
  const ErrorStats err =
      EstimateErrors(data, Measure::kCosine, result.pairs, cfg.bayes.delta);
  // Pr[error >= delta] < gamma per pair; allow sampling slack.
  EXPECT_LE(err.frac_error_gt_custom, 3 * cfg.bayes.gamma + 0.02);
  EXPECT_LT(err.mean_abs_error, 0.05);
}

TEST(PipelineAccuracyTest, LiteOutputsAreExactlyVerified) {
  const Dataset data = GraphBinary(6);
  const auto result = RunPipeline(
      data, MakeConfig(Measure::kJaccard, GeneratorKind::kAllPairs,
                       VerifierKind::kBayesLshLite, 0.5));
  for (const auto& p : result.pairs) {
    EXPECT_DOUBLE_EQ(p.sim, ExactSimilarity(data, p.a, p.b,
                                            Measure::kJaccard));
    EXPECT_GE(p.sim, 0.5);
  }
}

// ---------------------------------------------------------------------------
// Determinism & instrumentation
// ---------------------------------------------------------------------------

TEST(PipelineDeterminismTest, SameSeedSameOutput) {
  const Dataset data = TextWeighted(7);
  const PipelineConfig cfg = MakeConfig(
      Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kBayesLsh, 0.7);
  const auto r1 = RunPipeline(data, cfg);
  const auto r2 = RunPipeline(data, cfg);
  ASSERT_EQ(r1.pairs.size(), r2.pairs.size());
  for (size_t i = 0; i < r1.pairs.size(); ++i) {
    EXPECT_EQ(r1.pairs[i].a, r2.pairs[i].a);
    EXPECT_EQ(r1.pairs[i].b, r2.pairs[i].b);
    EXPECT_EQ(r1.pairs[i].sim, r2.pairs[i].sim);
  }
  EXPECT_EQ(r1.candidates, r2.candidates);
}

TEST(PipelineDeterminismTest, DifferentSeedDifferentCandidates) {
  const Dataset data = TextWeighted(8);
  const auto r1 = RunPipeline(data, MakeConfig(Measure::kCosine,
                                               GeneratorKind::kLsh,
                                               VerifierKind::kBayesLsh, 0.7,
                                               1));
  const auto r2 = RunPipeline(data, MakeConfig(Measure::kCosine,
                                               GeneratorKind::kLsh,
                                               VerifierKind::kBayesLsh, 0.7,
                                               2));
  EXPECT_NE(r1.candidates, r2.candidates);
}

TEST(PipelineInstrumentationTest, StatsArePopulated) {
  const Dataset data = TextWeighted(9);
  const auto result = RunPipeline(
      data, MakeConfig(Measure::kCosine, GeneratorKind::kAllPairs,
                       VerifierKind::kBayesLsh, 0.7));
  EXPECT_GT(result.candidates, 0u);
  EXPECT_GT(result.verify_hashes_computed, 0u);
  EXPECT_EQ(result.vstats.pairs_in, result.candidates);
  EXPECT_EQ(result.vstats.accepted + result.vstats.pruned,
            result.vstats.pairs_in);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_FALSE(result.vstats.surviving_after_round.empty());
  EXPECT_EQ(result.vstats.surviving_after_round[0], result.candidates);
}

TEST(PipelineInstrumentationTest, PruningIsOverwhelminglyEarly) {
  // The paper's headline: the vast majority of false-positive candidates
  // die within the first few rounds.
  const Dataset data = TextWeighted(10, 800);
  const auto result = RunPipeline(
      data, MakeConfig(Measure::kCosine, GeneratorKind::kAllPairs,
                       VerifierKind::kBayesLsh, 0.7));
  const auto& curve = result.vstats.surviving_after_round;
  ASSERT_GT(curve.size(), 4u);
  ASSERT_GT(curve[0], 100u);
  // After 4 rounds (128 bits), at most a few percent survive.
  EXPECT_LT(static_cast<double>(curve[4]) / curve[0], 0.10);
}

TEST(PipelineGaussianCacheTest, SharedCacheGivesIdenticalResults) {
  const Dataset data = TextWeighted(11);
  GaussianSourceCache cache(data.num_dims(), 1024);
  PipelineConfig with_cache = MakeConfig(
      Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kBayesLsh, 0.7);
  with_cache.gaussian_cache = &cache;
  PipelineConfig without = with_cache;
  without.gaussian_cache = nullptr;

  const auto r1 = RunPipeline(data, with_cache);
  const auto r2 = RunPipeline(data, without);
  // Quantized tables perturb individual Gaussians by <= 2^-13, which can
  // flip a hash bit only for near-zero projections; candidate sets can
  // differ slightly but the result sets must agree almost everywhere.
  EXPECT_NEAR(static_cast<double>(r1.pairs.size()),
              static_cast<double>(r2.pairs.size()),
              std::max<double>(4.0, 0.05 * r2.pairs.size()));
  // And re-running with the same cache is fully deterministic.
  const auto r3 = RunPipeline(data, with_cache);
  ASSERT_EQ(r1.pairs.size(), r3.pairs.size());
  for (size_t i = 0; i < r1.pairs.size(); ++i) {
    EXPECT_EQ(r1.pairs[i].sim, r3.pairs[i].sim);
  }
}

// The measures that hash through Gaussians (SRP, p-stable) can draw them
// from a shared cache of quantized tables, as the benchmarks do. A slab
// is materialized by whichever worker first needs it and is reused by
// every later run; neither may change a pair. So fresh tables at 1, 4
// and 8 threads, and reruns over the tables each run left behind, all
// agree pair for pair.
class PipelineGaussianTablesTest : public ::testing::TestWithParam<Measure> {
};

TEST_P(PipelineGaussianTablesTest, SharedTablesIdenticalAcrossThreadCounts) {
  const Measure measure = GetParam();
  const Dataset data = measure == Measure::kBinaryCosine
                           ? GraphBinary(65, 400)
                           : TextWeighted(65, 400);
  // The Euclidean threshold is a radius.
  const double t = measure == Measure::kEuclidean ? 0.8 : 0.6;
  for (const VerifierKind v :
       {VerifierKind::kBayesLsh, VerifierKind::kBayesLshLite}) {
    PipelineConfig cfg = MakeConfig(measure, GeneratorKind::kLsh, v, t);
    GaussianSourceCache base_cache(data.num_dims(), 1024);
    cfg.gaussian_cache = &base_cache;
    const PipelineResult base = RunPipeline(data, cfg);
    EXPECT_FALSE(base.pairs.empty()) << base.algorithm;
    for (const uint32_t threads : {1u, 4u, 8u}) {
      GaussianSourceCache cache(data.num_dims(), 1024);
      cfg.gaussian_cache = &cache;
      cfg.num_threads = threads;
      const PipelineResult fresh = RunPipeline(data, cfg);
      // Both streams drew from quantized tables, not implicit Gaussians.
      for (const uint64_t seed : {GenerationSeed(42), VerificationSeed(42)}) {
        const auto* store =
            dynamic_cast<const QuantizedGaussianStore*>(cache.Get(seed).get());
        ASSERT_NE(store, nullptr);
        EXPECT_GT(store->table_bytes(), 0u) << base.algorithm;
      }
      const PipelineResult rerun = RunPipeline(data, cfg);
      for (const PipelineResult* r : {&fresh, &rerun}) {
        EXPECT_EQ(r->pairs, base.pairs)
            << base.algorithm << ", " << threads << " threads";
        EXPECT_EQ(r->candidates, base.candidates)
            << base.algorithm << ", " << threads << " threads";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GaussianMeasures, PipelineGaussianTablesTest,
    ::testing::Values(Measure::kCosine, Measure::kBinaryCosine,
                      Measure::kEuclidean),
    [](const ::testing::TestParamInfo<Measure>& info) {
      std::string name = MeasureName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(PipelineSeedsTest, DerivedSeedsDiffer) {
  EXPECT_NE(GenerationSeed(42), VerificationSeed(42));
  EXPECT_NE(GenerationSeed(42), GenerationSeed(43));
}

// ---------------------------------------------------------------------------
// Parameter knobs behave as documented
// ---------------------------------------------------------------------------

TEST(PipelineParamsTest, LooseningEpsilonPrunesMore) {
  const Dataset data = TextWeighted(12, 800);
  PipelineConfig strict = MakeConfig(Measure::kCosine,
                                     GeneratorKind::kAllPairs,
                                     VerifierKind::kBayesLsh, 0.7);
  strict.bayes.epsilon = 0.01;
  PipelineConfig loose = strict;
  loose.bayes.epsilon = 0.20;
  const auto rs = RunPipeline(data, strict);
  const auto rl = RunPipeline(data, loose);
  EXPECT_GE(rs.pairs.size(), rl.pairs.size());
  EXPECT_LE(rs.vstats.pruned, rl.vstats.pruned);
}

TEST(PipelineParamsTest, TighterDeltaComparesMoreHashes) {
  const Dataset data = TextWeighted(13, 800);
  PipelineConfig wide = MakeConfig(Measure::kCosine,
                                   GeneratorKind::kAllPairs,
                                   VerifierKind::kBayesLsh, 0.7);
  wide.bayes.delta = 0.09;
  PipelineConfig tight = wide;
  tight.bayes.delta = 0.01;
  const auto rw = RunPipeline(data, wide);
  const auto rt = RunPipeline(data, tight);
  EXPECT_GT(rt.vstats.hashes_compared, rw.vstats.hashes_compared);
}

TEST(PipelineParamsTest, MleHashCountRespected) {
  const Dataset data = GraphBinary(14);
  PipelineConfig cfg = MakeConfig(Measure::kJaccard, GeneratorKind::kLsh,
                                  VerifierKind::kMle, 0.5);
  cfg.mle_hashes = 64;
  const auto result = RunPipeline(data, cfg);
  if (result.candidates > 0) {
    // Estimates are multiples of 1/64.
    for (const auto& p : result.pairs) {
      const double scaled = p.sim * 64.0;
      EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
    }
  }
}

TEST(PipelineParamsTest, UniformPriorFallbackWorks) {
  const Dataset data = GraphBinary(15);
  PipelineConfig cfg = MakeConfig(Measure::kJaccard, GeneratorKind::kAllPairs,
                                  VerifierKind::kBayesLsh, 0.5);
  cfg.prior_sample_size = 0;  // Uniform prior.
  const auto result = RunPipeline(data, cfg);
  const auto truth = InvertedIndexJoin(data, 0.5, Measure::kJaccard);
  EXPECT_GE(Recall(result.pairs, truth), 0.85);
}

// ---------------------------------------------------------------------------
// Input validation
// ---------------------------------------------------------------------------

TEST(PipelineValidationTest, ThresholdOutsideTheMeasureDomainThrows) {
  const Dataset binary = GraphBinary(61, 120);
  const Dataset weighted = TextWeighted(61, 120);
  for (const double t : {-0.5, 0.0, 1.5,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(RunPipeline(binary, MakeConfig(Measure::kJaccard,
                                                GeneratorKind::kAllPairs,
                                                VerifierKind::kBayesLsh, t)),
                 std::invalid_argument)
        << "t=" << t;
  }
  // A Euclidean threshold is a radius: any positive value, never <= 0.
  EXPECT_NO_THROW(RunPipeline(weighted, MakeConfig(Measure::kEuclidean,
                                                   GeneratorKind::kLsh,
                                                   VerifierKind::kExact, 1.5)));
  for (const double r : {0.0, -1.0}) {
    EXPECT_THROW(RunPipeline(weighted, MakeConfig(Measure::kEuclidean,
                                                  GeneratorKind::kLsh,
                                                  VerifierKind::kExact, r)),
                 std::invalid_argument)
        << "r=" << r;
  }
}

TEST(PipelineValidationTest, BayesParamsOutsideTheUnitIntervalThrow) {
  const Dataset weighted = TextWeighted(64, 120);
  const Dataset binary = GraphBinary(64, 120);
  const struct {
    const char* name;
    double BayesLshParams::*field;
  } params[] = {{"epsilon", &BayesLshParams::epsilon},
                {"delta", &BayesLshParams::delta},
                {"gamma", &BayesLshParams::gamma}};
  for (const auto& [name, field] : params) {
    for (const double bad : {-0.1, 0.0, 1.0, 1.5, 2.0,
                             std::numeric_limits<double>::quiet_NaN()}) {
      PipelineConfig cosine = MakeConfig(
          Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kBayesLsh, 0.7);
      cosine.bayes.*field = bad;
      EXPECT_THROW(RunPipeline(weighted, cosine), std::invalid_argument)
          << name << "=" << bad;
      PipelineConfig jaccard =
          MakeConfig(Measure::kJaccard, GeneratorKind::kAllPairs,
                     VerifierKind::kBayesLshLite, 0.3);
      jaccard.bayes.*field = bad;
      EXPECT_THROW(RunPipeline(binary, jaccard), std::invalid_argument)
          << name << "=" << bad;
    }
  }
  // Anything strictly inside the interval is accepted.
  PipelineConfig loose = MakeConfig(Measure::kCosine, GeneratorKind::kLsh,
                                    VerifierKind::kBayesLsh, 0.7);
  loose.bayes.epsilon = 0.5;
  loose.bayes.delta = 0.2;
  loose.bayes.gamma = 0.2;
  EXPECT_NO_THROW(RunPipeline(weighted, loose));
}

TEST(PipelineValidationTest, UnsupportedGeneratorOrVerifierThrows) {
  const Dataset data = TextWeighted(62, 120);
  // The AllPairs generator covers the paper's three measures only.
  for (const Measure m : {Measure::kWeightedJaccard, Measure::kKernelCosine,
                          Measure::kEuclidean}) {
    EXPECT_THROW(RunPipeline(data, MakeConfig(m, GeneratorKind::kAllPairs,
                                              VerifierKind::kBayesLshLite,
                                              0.5)),
                 std::invalid_argument)
        << MeasureName(m);
  }
  // Euclidean has no hash-only estimate to threshold.
  EXPECT_THROW(RunPipeline(data, MakeConfig(Measure::kEuclidean,
                                            GeneratorKind::kLsh,
                                            VerifierKind::kMle, 0.5)),
               std::invalid_argument);
}

}  // namespace
}  // namespace bayeslsh
