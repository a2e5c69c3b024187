// The parallel engine's contract: RunPipeline (and the query/top-k paths
// built on it) produce pair-for-pair identical results for num_threads
// in {1, 2, 3, 8}, across every generator × verifier × measure combination,
// and the hashing-overhead accounting stays within the documented
// prefetch-horizon slack of the single-threaded count.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/allpairs.h"
#include "candgen/multiprobe.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "core/cosine_posterior.h"
#include "core/parallel_verify.h"
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

Dataset TextWeighted(uint64_t seed, uint32_t docs = 600,
                     uint32_t cluster_size = 4) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 50;
  cfg.num_clusters = docs / (3 * cluster_size);
  cfg.cluster_size = cluster_size;
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

void ExpectSamePairsInOrder(const std::vector<ScoredPair>& base,
                            const std::vector<ScoredPair>& got,
                            uint32_t threads) {
  ASSERT_EQ(base.size(), got.size()) << threads << " threads";
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].a, got[i].a) << threads << " threads";
    EXPECT_EQ(base[i].b, got[i].b) << threads << " threads";
    EXPECT_EQ(base[i].sim, got[i].sim) << threads << " threads, pair " << i;
  }
}

void ExpectIdentical(const PipelineResult& base, const PipelineResult& got,
                     uint32_t threads) {
  ExpectSamePairsInOrder(base.pairs, got.pairs, threads);
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
  // 3 threads puts the dedupe pieces and the verification blocks on
  // uneven boundaries.
  for (uint32_t threads : {2u, 3u, 8u}) {
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

// Runs `cfg` on `data` at 1, 3 and 8 threads, with enough candidates that
// verification claims blocks at 8 threads instead of falling back to the
// sequential engine, and checks every multi-threaded run against the
// 1-thread one: the same pairs, estimates and order, the same verdict
// counts, and a hashing tally inside the documented slack.
void ExpectBlockClaimedVerifyIdentical(const Dataset& data,
                                       PipelineConfig cfg) {
  cfg.num_threads = 1;
  const PipelineResult base = RunPipeline(data, cfg);
  EXPECT_EQ(base.threads_used, 1u);
  ASSERT_GE(base.candidates, kMinPairsPerShard * 8)
      << "dataset too sparse to exercise the sharded path";
  ASSERT_GT(base.pairs.size(), 0u);
  for (const uint32_t threads : {3u, 8u}) {
    cfg.num_threads = threads;
    const PipelineResult got = RunPipeline(data, cfg);
    EXPECT_EQ(got.threads_used, threads);
    ExpectIdentical(base, got, threads);
    EXPECT_EQ(base.vstats.accepted, got.vstats.accepted);
    EXPECT_EQ(base.vstats.pruned, got.vstats.pruned);
    EXPECT_EQ(base.vstats.forced_accepts, got.vstats.forced_accepts);
    EXPECT_EQ(base.vstats.exact_computed, got.vstats.exact_computed);
    EXPECT_EQ(base.vstats.hashes_compared, got.vstats.hashes_compared);
    EXPECT_EQ(base.vstats.surviving_after_round,
              got.vstats.surviving_after_round);
    EXPECT_GE(got.verify_hashes_computed, base.verify_hashes_computed);
    EXPECT_LE(got.verify_hashes_computed,
              base.verify_hashes_computed * (threads + 1));
  }
}

TEST(PipelineThreadShardingTest, LargeCandidateListExercisesShardedVerify) {
  // A low threshold guarantees enough candidates for AllPairs + BayesLSH.
  PipelineConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kAllPairs;
  cfg.verifier = VerifierKind::kBayesLsh;
  cfg.threshold = 0.4;
  cfg.seed = 7;
  ExpectBlockClaimedVerifyIdentical(TextWeighted(22, 900), cfg);
}

TEST(PipelineThreadShardingTest, CosineLshBayesLshIdenticalAcrossBlockClaims) {
  PipelineConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = VerifierKind::kBayesLsh;
  cfg.threshold = 0.7;
  cfg.seed = 9;
  ExpectBlockClaimedVerifyIdentical(TextWeighted(27, 1200), cfg);
}

TEST(PipelineThreadShardingTest,
     JaccardAllPairsLiteIdenticalAcrossBlockClaims) {
  PipelineConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.generator = GeneratorKind::kAllPairs;
  cfg.verifier = VerifierKind::kBayesLshLite;
  cfg.threshold = 0.3;
  cfg.seed = 10;
  ExpectBlockClaimedVerifyIdentical(GraphBinary(28, 1200), cfg);
}

// Every VerifyStats counter but the cache hits and misses, which depend
// on how the candidates fall to the workers' caches.
void ExpectSameVerifyCounters(const VerifyStats& base, const VerifyStats& got,
                              uint32_t threads) {
  EXPECT_EQ(base.pairs_in, got.pairs_in) << threads << " threads";
  EXPECT_EQ(base.accepted, got.accepted) << threads << " threads";
  EXPECT_EQ(base.pruned, got.pruned) << threads << " threads";
  EXPECT_EQ(base.forced_accepts, got.forced_accepts) << threads << " threads";
  EXPECT_EQ(base.exact_computed, got.exact_computed) << threads << " threads";
  EXPECT_EQ(base.hashes_compared, got.hashes_compared)
      << threads << " threads";
  EXPECT_EQ(base.surviving_after_round, got.surviving_after_round)
      << threads << " threads";
}

TEST(VerifyThreadDeterminismTest, ParallelVerifiersKeepCandidateOrder) {
  // RunPipeline sorts its output, so the parallel verifiers are driven
  // directly here, on a shuffled candidate list where any reordering of
  // the claimed blocks would show.
  const Dataset data = TextWeighted(29, 900);
  std::vector<std::pair<uint32_t, uint32_t>> pairs =
      AllPairsCandidates(data, 0.4).pairs;
  ASSERT_GE(pairs.size(), kMinPairsPerShard * 8);
  Xoshiro256StarStar rng(5);
  std::shuffle(pairs.begin(), pairs.end(), rng);

  const auto gauss = std::make_shared<ImplicitGaussianSource>(uint64_t{37});
  const CosinePosterior model(0.4);
  const BayesLshParams params;
  const uint32_t lite_hashes = 4 * params.hashes_per_round;
  const auto exact = [&data](uint32_t a, uint32_t b) {
    return SparseDot(data.Row(a), data.Row(b));
  };
  BitSignatureStore serial_store(&data, SrpHasher(gauss.get()));
  VerifyStats base_stats, base_lite_stats;
  const std::vector<ScoredPair> base =
      BayesLshVerify(model, &serial_store, pairs, params, &base_stats);
  const std::vector<ScoredPair> base_lite =
      BayesLshLiteVerify(model, &serial_store, pairs, lite_hashes, exact, 0.4,
                         params, &base_lite_stats);
  ASSERT_GT(base.size(), 0u);
  ASSERT_GT(base_lite.size(), 0u);

  for (const uint32_t threads : {3u, 8u}) {
    ThreadPool pool(threads);
    BitSignatureStore store(&data, SrpHasher(gauss.get()));
    VerifyStats stats, lite_stats;
    ExpectSamePairsInOrder(
        base,
        BayesLshVerifyParallel(model, &store, pairs, params, &pool, &stats),
        threads);
    ExpectSamePairsInOrder(
        base_lite,
        BayesLshLiteVerifyParallel(model, &store, pairs, lite_hashes, exact,
                                   0.4, params, &pool, &lite_stats),
        threads);
    ExpectSameVerifyCounters(base_stats, stats, threads);
    ExpectSameVerifyCounters(base_lite_stats, lite_stats, threads);
  }
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

// Query() at 1 and 4 threads must agree on the matches, their sims, and
// the candidates / pruned / hashes_compared counters. At 4 threads a
// query with at least 64 candidates verifies them on the within-query
// sharded path (workers' overflow shards), the rest serially: each case
// must shard at least one query and prune at least one candidate, or it
// proves nothing about the sharded loop.
void ExpectQueryIdenticalAcrossThreads(const Dataset& data,
                                       QuerySearchConfig cfg) {
  cfg.num_threads = 1;
  const QuerySearcher serial(&data, cfg);
  cfg.num_threads = 4;
  const QuerySearcher parallel(&data, cfg);

  uint32_t sharded = 0;
  uint64_t pruned = 0;
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
    EXPECT_EQ(s1.pruned, s4.pruned) << "query row " << row;
    EXPECT_EQ(s1.hashes_compared, s4.hashes_compared) << "query row " << row;
    EXPECT_EQ(s1.threads_used, 1u);
    if (s4.threads_used == 4) ++sharded;
    pruned += s1.pruned;
  }
  EXPECT_GT(sharded, 0u) << "no query reached the sharded path";
  EXPECT_GT(pruned, 0u) << "no candidate was pruned";
}

// Both verification modes of one measure.
void ExpectBothModesIdenticalAcrossThreads(const Dataset& data,
                                           QuerySearchConfig cfg) {
  for (bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact verification" : "estimation");
    cfg.exact_verification = exact;
    ExpectQueryIdenticalAcrossThreads(data, cfg);
  }
}

QuerySearchConfig QueryConfig(Measure measure, double threshold,
                              uint64_t seed) {
  QuerySearchConfig cfg;
  cfg.measure = measure;
  cfg.threshold = threshold;
  cfg.seed = seed;
  return cfg;
}

TEST(QuerySearchThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  ExpectBothModesIdenticalAcrossThreads(
      TextWeighted(24, 600), QueryConfig(Measure::kCosine, 0.5, 13));
}

TEST(QuerySearchThreadDeterminismTest, JaccardExactVerification) {
  QuerySearchConfig cfg = QueryConfig(Measure::kJaccard, 0.4, 17);
  cfg.exact_verification = true;
  ExpectQueryIdenticalAcrossThreads(GraphBinary(25, 600), cfg);
}

TEST(QuerySearchThreadDeterminismTest, JaccardEstimation) {
  ExpectQueryIdenticalAcrossThreads(GraphBinary(25, 600),
                                    QueryConfig(Measure::kJaccard, 0.4, 17));
}

TEST(QuerySearchThreadDeterminismTest, BbitJaccard) {
  // b-bit signatures shard a query like the full-width ones: the overflow
  // shards extend packed rows, and the packed query signature is shared.
  QuerySearchConfig cfg = QueryConfig(Measure::kJaccard, 0.4, 17);
  cfg.bbit = 4;
  ExpectBothModesIdenticalAcrossThreads(GraphBinary(25, 600), cfg);
}

TEST(QuerySearchThreadDeterminismTest, BinaryCosine) {
  ExpectBothModesIdenticalAcrossThreads(
      GraphBinary(27, 600), QueryConfig(Measure::kBinaryCosine, 0.4, 19));
}

TEST(QuerySearchThreadDeterminismTest, WeightedJaccard) {
  // Clusters of 100 near-duplicates give the queries enough candidates to
  // shard: unrelated documents almost never collide under ICWS.
  ExpectBothModesIdenticalAcrossThreads(
      TextWeighted(28, 600, 100),
      QueryConfig(Measure::kWeightedJaccard, 0.4, 21));
}

TEST(QuerySearchThreadDeterminismTest, KernelCosine) {
  QuerySearchConfig cfg = QueryConfig(Measure::kKernelCosine, 0.5, 23);
  cfg.kernel.tag = KernelTag::kRbf;
  cfg.kernel.gamma = 1.0;
  cfg.klsh.num_anchors = 64;
  ExpectBothModesIdenticalAcrossThreads(TextWeighted(29, 600), cfg);
}

TEST(QuerySearchThreadDeterminismTest, EuclideanLite) {
  // Euclidean verifies exactly only.
  ExpectQueryIdenticalAcrossThreads(
      TextWeighted(30, 600), QueryConfig(Measure::kEuclidean, 1.0, 25));
}

TEST(MultiProbeThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  // Multi-probe generation shards band-by-band; the candidate list, the
  // raw pre-dedup tally and the store's generation-hash tally must be
  // identical between the inline run and 2- and 8-thread pools.
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
    EXPECT_EQ(serial_store.computed(), store.computed())
        << threads << " threads";
  }
}

}  // namespace
}  // namespace bayeslsh
