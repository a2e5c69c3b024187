// The parallel engine's contract: RunPipeline (and the query/top-k paths
// built on it) produce pair-for-pair identical results for num_threads
// in {1, 2, 8}, across every generator × verifier × measure combination,
// and the hashing-overhead accounting stays within the documented
// prefetch-horizon slack of the single-threaded count.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/multiprobe.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "core/topk_search.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "lsh/gaussian_source.h"
#include "lsh/signature_store.h"
#include "lsh/srp_hasher.h"
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

void ExpectIdentical(const PipelineResult& base, const PipelineResult& got,
                     uint32_t threads) {
  ASSERT_EQ(base.pairs.size(), got.pairs.size()) << threads << " threads";
  for (size_t i = 0; i < base.pairs.size(); ++i) {
    EXPECT_EQ(base.pairs[i].a, got.pairs[i].a) << threads << " threads";
    EXPECT_EQ(base.pairs[i].b, got.pairs[i].b) << threads << " threads";
    EXPECT_EQ(base.pairs[i].sim, got.pairs[i].sim)
        << threads << " threads, pair " << i;
  }
  EXPECT_EQ(base.candidates, got.candidates) << threads << " threads";
  EXPECT_EQ(base.raw_candidates, got.raw_candidates) << threads << " threads";
}

struct Combo {
  Measure measure;
  GeneratorKind generator;
  VerifierKind verifier;
  double threshold;
};

class PipelineThreadDeterminismTest : public ::testing::TestWithParam<Combo> {
};

// Stable test names and printed parameters: a Combo printed as raw bytes
// would show its uninitialized padding, which changes from build to build.
std::string ComboLabel(const Combo& c) {
  std::string measure = MeasureName(c.measure);
  std::replace(measure.begin(), measure.end(), '-', '_');
  static const char* const kVerifiers[] = {"Exact", "Mle", "BayesLsh",
                                           "BayesLshLite"};
  return measure +
         (c.generator == GeneratorKind::kLsh ? "_Lsh_" : "_AllPairs_") +
         kVerifiers[static_cast<int>(c.verifier)];
}

void PrintTo(const Combo& c, std::ostream* os) { *os << ComboLabel(c); }

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  return ComboLabel(info.param);
}

TEST_P(PipelineThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  const Combo c = GetParam();
  // Weighted text for the real-valued measures, the binary graph for the
  // set measures.
  const bool binary =
      c.measure == Measure::kJaccard || c.measure == Measure::kBinaryCosine;
  const Dataset data = binary ? GraphBinary(21, 700) : TextWeighted(21, 700);
  PipelineConfig cfg;
  cfg.measure = c.measure;
  cfg.generator = c.generator;
  cfg.verifier = c.verifier;
  cfg.threshold = c.threshold;
  cfg.seed = 42;
  cfg.klsh.num_anchors = 64;  // KLSH only: keeps the eigensolves small.

  cfg.num_threads = 1;
  const PipelineResult base = RunPipeline(data, cfg);
  for (uint32_t threads : {2u, 8u}) {
    cfg.num_threads = threads;
    const PipelineResult got = RunPipeline(data, cfg);
    ExpectIdentical(base, got, threads);
    // Generation hashing is row-complete in both modes: identical tallies.
    EXPECT_EQ(base.gen_hashes_computed, got.gen_hashes_computed);
    // Verification hashing may exceed the single-threaded count by the
    // prefetch-horizon slack (cross-shard duplication of deep rows), but
    // never undershoots it and stays within a per-shard factor.
    EXPECT_GE(got.verify_hashes_computed, base.verify_hashes_computed);
    EXPECT_LE(got.verify_hashes_computed,
              base.verify_hashes_computed * (threads + 1));
    // The Fig. 4 survival curve is a per-pair property: identical.
    EXPECT_EQ(base.vstats.surviving_after_round,
              got.vstats.surviving_after_round);
    EXPECT_EQ(base.vstats.accepted, got.vstats.accepted);
    EXPECT_EQ(base.vstats.pruned, got.vstats.pruned);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PipelineThreadDeterminismTest,
    ::testing::Values(
        // Cosine (weighted text).
        Combo{Measure::kCosine, GeneratorKind::kAllPairs,
              VerifierKind::kExact, 0.6},
        Combo{Measure::kCosine, GeneratorKind::kAllPairs, VerifierKind::kMle,
              0.6},
        Combo{Measure::kCosine, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLsh, 0.6},
        Combo{Measure::kCosine, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLshLite, 0.6},
        Combo{Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kExact,
              0.7},
        Combo{Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kMle, 0.7},
        Combo{Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kBayesLsh,
              0.7},
        Combo{Measure::kCosine, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.7},
        // Jaccard (binary graph).
        Combo{Measure::kJaccard, GeneratorKind::kAllPairs,
              VerifierKind::kExact, 0.4},
        Combo{Measure::kJaccard, GeneratorKind::kAllPairs, VerifierKind::kMle,
              0.4},
        Combo{Measure::kJaccard, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLsh, 0.4},
        Combo{Measure::kJaccard, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLshLite, 0.4},
        Combo{Measure::kJaccard, GeneratorKind::kLsh, VerifierKind::kExact,
              0.5},
        Combo{Measure::kJaccard, GeneratorKind::kLsh, VerifierKind::kMle,
              0.5},
        Combo{Measure::kJaccard, GeneratorKind::kLsh, VerifierKind::kBayesLsh,
              0.5},
        Combo{Measure::kJaccard, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.5},
        // Binary cosine (binary graph, weighted view internally).
        Combo{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
              VerifierKind::kExact, 0.6},
        Combo{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
              VerifierKind::kMle, 0.6},
        Combo{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLsh, 0.6},
        Combo{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLshLite, 0.6},
        Combo{Measure::kBinaryCosine, GeneratorKind::kLsh,
              VerifierKind::kExact, 0.7},
        Combo{Measure::kBinaryCosine, GeneratorKind::kLsh, VerifierKind::kMle,
              0.7},
        Combo{Measure::kBinaryCosine, GeneratorKind::kLsh,
              VerifierKind::kBayesLsh, 0.7},
        Combo{Measure::kBinaryCosine, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.7},
        // Weighted Jaccard (weighted text; ICWS bands and signatures).
        Combo{Measure::kWeightedJaccard, GeneratorKind::kLsh,
              VerifierKind::kExact, 0.4},
        Combo{Measure::kWeightedJaccard, GeneratorKind::kLsh,
              VerifierKind::kMle, 0.4},
        Combo{Measure::kWeightedJaccard, GeneratorKind::kLsh,
              VerifierKind::kBayesLsh, 0.4},
        Combo{Measure::kWeightedJaccard, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.4},
        // Kernel cosine (weighted text, linear kernel; KLSH).
        Combo{Measure::kKernelCosine, GeneratorKind::kLsh,
              VerifierKind::kExact, 0.7},
        Combo{Measure::kKernelCosine, GeneratorKind::kLsh,
              VerifierKind::kMle, 0.7},
        Combo{Measure::kKernelCosine, GeneratorKind::kLsh,
              VerifierKind::kBayesLsh, 0.7},
        Combo{Measure::kKernelCosine, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.7},
        // Euclidean (unit-norm weighted text, radius 0.8; p-stable). It
        // verifies exactly: kBayesLsh runs as kBayesLshLite.
        Combo{Measure::kEuclidean, GeneratorKind::kLsh, VerifierKind::kExact,
              0.8},
        Combo{Measure::kEuclidean, GeneratorKind::kLsh,
              VerifierKind::kBayesLsh, 0.8},
        Combo{Measure::kEuclidean, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.8}),
    ComboName);

TEST(PipelineThreadShardingTest, LargeCandidateListExercisesShardedVerify) {
  // A low threshold guarantees enough candidates that the verification
  // actually shards at 8 threads (>= kMinPairsPerShard per worker) rather
  // than falling back to the sequential engine.
  const Dataset data = TextWeighted(22, 900);
  PipelineConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kAllPairs;
  cfg.verifier = VerifierKind::kBayesLsh;
  cfg.threshold = 0.4;
  cfg.seed = 7;

  cfg.num_threads = 1;
  const PipelineResult base = RunPipeline(data, cfg);
  ASSERT_GE(base.candidates, 64u * 8u)
      << "dataset too sparse to exercise the sharded path";
  cfg.num_threads = 8;
  const PipelineResult got = RunPipeline(data, cfg);
  ExpectIdentical(base, got, 8);
  EXPECT_EQ(got.threads_used, 8u);
  EXPECT_EQ(base.threads_used, 1u);
}

TEST(TopKThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  const Dataset data = TextWeighted(23, 500);
  TopKConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kAllPairs;
  cfg.k = 25;
  cfg.start_threshold = 0.9;
  cfg.floor_threshold = 0.3;
  cfg.seed = 11;

  cfg.num_threads = 1;
  const auto base = TopKAllPairs(data, cfg);
  for (uint32_t threads : {2u, 8u}) {
    cfg.num_threads = threads;
    const auto got = TopKAllPairs(data, cfg);
    ASSERT_EQ(base.size(), got.size()) << threads << " threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].a, got[i].a);
      EXPECT_EQ(base[i].b, got[i].b);
      EXPECT_EQ(base[i].sim, got[i].sim);
    }
  }
}

TEST(QuerySearchThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  const Dataset data = TextWeighted(24, 600);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.5;
  cfg.seed = 13;

  cfg.num_threads = 1;
  const QuerySearcher serial(&data, cfg);
  cfg.num_threads = 4;
  const QuerySearcher parallel(&data, cfg);

  for (uint32_t row = 0; row < 40; ++row) {
    QueryStats s1, s4;
    const auto r1 = serial.Query(data.Row(row), &s1);
    const auto r4 = parallel.Query(data.Row(row), &s4);
    ASSERT_EQ(r1.size(), r4.size()) << "query row " << row;
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].id, r4[i].id) << "query row " << row;
      EXPECT_EQ(r1[i].sim, r4[i].sim) << "query row " << row;
    }
    EXPECT_EQ(s1.candidates, s4.candidates) << "query row " << row;
  }
}

TEST(MultiProbeThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  // Multi-probe generation shards band-by-band; the candidate list (and
  // the raw pre-dedup tally) must be bit-identical between the inline run
  // and an 8-thread pool.
  const Dataset data = TextWeighted(26, 500);
  const auto gauss = std::make_shared<ImplicitGaussianSource>(uint64_t{31});
  MultiProbeParams mp;
  mp.probe_radius = 1;
  mp.num_bands = 16;

  BitSignatureStore serial_store(&data, SrpHasher(gauss.get()));
  const CandidateList base =
      MultiProbeCosineCandidates(&serial_store, 0.6, mp);
  ASSERT_GT(base.pairs.size(), 0u) << "workload generated no candidates";

  for (uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    BitSignatureStore store(&data, SrpHasher(gauss.get()));
    const CandidateList got =
        MultiProbeCosineCandidates(&store, 0.6, mp, &pool);
    ASSERT_EQ(base.pairs.size(), got.pairs.size()) << threads << " threads";
    for (size_t i = 0; i < base.pairs.size(); ++i) {
      EXPECT_EQ(base.pairs[i], got.pairs[i]) << threads << " threads";
    }
    EXPECT_EQ(base.raw_emitted, got.raw_emitted) << threads << " threads";
  }
}

TEST(QuerySearchThreadDeterminismTest, JaccardExactVerification) {
  const Dataset data = GraphBinary(25, 600);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.threshold = 0.4;
  cfg.exact_verification = true;
  cfg.seed = 17;

  cfg.num_threads = 1;
  const QuerySearcher serial(&data, cfg);
  cfg.num_threads = 4;
  const QuerySearcher parallel(&data, cfg);

  for (uint32_t row = 0; row < 40; ++row) {
    const auto r1 = serial.Query(data.Row(row));
    const auto r4 = parallel.Query(data.Row(row));
    ASSERT_EQ(r1.size(), r4.size()) << "query row " << row;
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].id, r4[i].id);
      EXPECT_EQ(r1[i].sim, r4[i].sim);
    }
  }
}

}  // namespace
}  // namespace bayeslsh
