// One stack, N measures: the serving-layer contracts for the measures
// that joined the persistent/dynamic/sharded interfaces in format v3 —
// weighted Jaccard (ICWS), kernel cosine (KLSH) and Euclidean radius
// search. The load-bearing guarantees, each asserted at 1 and 8 threads:
//
//   - Warm identity: a QuerySearcher warm-started from a saved-and-
//     reloaded index answers Query (with and without top_k) and
//     QueryBatch pair-for-pair identically to one built fresh from the
//     same config — including after Freeze(). For KLSH this
//     additionally pins that the anchor rows persisted in the file
//     reproduce the build's hash family.
//   - Sharded identity: a K-shard ShardedIndex equals the unsharded
//     DynamicIndex oracle over the same corpus byte-for-byte. For KLSH
//     the shards must share one full-corpus anchor sample; per-shard
//     resampling would break this immediately.
//   - Correctness floor: every returned match satisfies the measure's
//     exact predicate (distance <= radius / similarity >= threshold),
//     and every indexed row matches itself.

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/dynamic_index.h"
#include "core/index_io.h"
#include "core/query_search.h"
#include "core/sharded_index.h"
#include "data/text_generator.h"
#include "kernel/kernels.h"
#include "sim/similarity.h"
#include "vec/sparse_vector.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

Dataset TextWeighted(uint64_t seed, uint32_t docs) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 2500;
  cfg.avg_doc_len = 45;
  cfg.num_clusters = docs / 10;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  // Tf-idf keeps weights positive (ICWS needs non-negative rows); no L2
  // normalization, so Euclidean distances between near-duplicates stay
  // small relative to the cluster diameter.
  return TfIdfTransform(GenerateTextCorpus(cfg));
}

struct MeasureCase {
  const char* name;
  Measure measure;
  // Similarity threshold, or the distance radius for kEuclidean.
  double threshold;
};

constexpr MeasureCase kCases[] = {
    {"wjaccard", Measure::kWeightedJaccard, 0.5},
    {"klsh", Measure::kKernelCosine, 0.7},
    {"euclidean", Measure::kEuclidean, 4.0},
};

constexpr uint32_t kRows = 200;

QuerySearchConfig ServeConfigFor(const MeasureCase& c, uint32_t threads) {
  QuerySearchConfig cfg;
  cfg.measure = c.measure;
  cfg.threshold = c.threshold;
  cfg.seed = 42;
  cfg.num_threads = threads;
  if (c.measure == Measure::kKernelCosine) {
    cfg.kernel.tag = KernelTag::kRbf;
    cfg.kernel.gamma = 0.05;
    cfg.klsh.num_anchors = 64;
  }
  return cfg;
}

IndexBuildConfig BuildConfigFor(const MeasureCase& c, uint32_t threads) {
  IndexBuildConfig icfg;
  icfg.measure = c.measure;
  icfg.threshold = c.threshold;
  icfg.seed = 42;
  icfg.num_threads = threads;
  if (c.measure == Measure::kKernelCosine) {
    icfg.kernel.tag = KernelTag::kRbf;
    icfg.kernel.gamma = 0.05;
    icfg.klsh.num_anchors = 64;
  }
  return icfg;
}

// The exact predicate a returned match must satisfy. For kEuclidean the
// engine reports sim = -distance, so the floor is -radius.
double ExactScore(const MeasureCase& c, const Dataset& data, uint32_t id,
                  const SparseVectorView& q, const Kernel* kernel) {
  switch (c.measure) {
    case Measure::kWeightedJaccard:
      return WeightedJaccardSimilarity(data.Row(id), q);
    case Measure::kKernelCosine:
      return KernelCosine(*kernel, data.Row(id), q);
    case Measure::kEuclidean:
      return -SparseEuclideanDistance(data.Row(id), q);
    default:
      ADD_FAILURE() << "unexpected measure";
      return 0.0;
  }
}

void ExpectSameMatches(const std::vector<QueryMatch>& a,
                       const std::vector<QueryMatch>& b, const char* what,
                       uint32_t qid) {
  ASSERT_EQ(a.size(), b.size()) << what << ", query " << qid;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << ", query " << qid;
    EXPECT_EQ(a[i].sim, b[i].sim) << what << ", query " << qid;
  }
}

class MeasureServing
    : public ::testing::TestWithParam<std::tuple<MeasureCase, uint32_t>> {};

TEST_P(MeasureServing, WarmLoadedEqualsFreshBuild) {
  const auto& [c, threads] = GetParam();
  const Dataset data = TextWeighted(31, kRows);
  const QuerySearchConfig cfg = ServeConfigFor(c, threads);

  const QuerySearcher fresh(&data, cfg);

  Dataset copy = data;
  const std::unique_ptr<PersistentIndex> built =
      PersistentIndex::Build(std::move(copy), BuildConfigFor(c, threads));
  std::stringstream file;
  built->Save(file);
  const std::unique_ptr<PersistentIndex> loaded = PersistentIndex::Load(file);
  ASSERT_EQ(loaded->measure(), c.measure);
  const QuerySearcher warm(loaded.get(), cfg);

  std::vector<SparseVectorView> queries;
  for (uint32_t q = 0; q < kRows; q += 11) queries.push_back(data.Row(q));

  for (uint32_t i = 0; i < queries.size(); ++i) {
    ExpectSameMatches(fresh.Query(queries[i]), warm.Query(queries[i]),
                      "warm vs fresh", i);
    ExpectSameMatches(fresh.Query(queries[i], nullptr, 5),
                      warm.Query(queries[i], nullptr, 5), "warm top-k", i);
  }

  // The batched engine and the frozen store serve the same answers.
  const auto fresh_batch = fresh.QueryBatch(queries);
  const auto warm_batch = warm.QueryBatch(queries);
  ASSERT_EQ(fresh_batch.size(), warm_batch.size());
  for (uint32_t i = 0; i < fresh_batch.size(); ++i) {
    ExpectSameMatches(fresh_batch[i], warm_batch[i], "warm batch", i);
  }

  QuerySearcher frozen(loaded.get(), cfg);
  frozen.Freeze();
  for (uint32_t i = 0; i < queries.size(); ++i) {
    ExpectSameMatches(fresh.Query(queries[i]), frozen.Query(queries[i]),
                      "frozen vs fresh", i);
  }
}

TEST_P(MeasureServing, ShardedEqualsUnsharded) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = TextWeighted(32, kRows);
  const IndexBuildConfig build = BuildConfigFor(c, threads);

  ShardedIndexConfig scfg;
  scfg.num_shards = 4;
  scfg.num_threads = threads;
  ShardedIndex sharded(corpus, build, scfg);

  Dataset copy = corpus;
  DynamicIndexConfig dcfg;
  dcfg.num_threads = threads;
  const DynamicIndex oracle(PersistentIndex::Build(std::move(copy), build),
                            dcfg);

  std::vector<SparseVectorView> queries;
  for (uint32_t q = 0; q < kRows; q += 13) queries.push_back(corpus.Row(q));

  for (uint32_t i = 0; i < queries.size(); ++i) {
    QueryStats stats;
    ExpectSameMatches(sharded.Query(queries[i], &stats),
                      oracle.Query(queries[i]), "sharded vs unsharded", i);
    EXPECT_EQ(stats.shards_answered, scfg.num_shards);
    ExpectSameMatches(sharded.Query(queries[i], nullptr, 5),
                      oracle.Query(queries[i], nullptr, 5), "sharded top-k",
                      i);
  }
}

TEST_P(MeasureServing, MatchesSatisfyTheExactPredicate) {
  const auto& [c, threads] = GetParam();
  const Dataset data = TextWeighted(33, kRows);
  QuerySearchConfig cfg = ServeConfigFor(c, threads);
  // Exact verification makes the reported score the measure's true value,
  // so the floor check is exact (Euclidean always verifies exactly).
  cfg.exact_verification = true;
  const QuerySearcher searcher(&data, cfg);
  const std::unique_ptr<const Kernel> kernel =
      c.measure == Measure::kKernelCosine ? MakeKernel(cfg.kernel) : nullptr;

  const double floor =
      c.measure == Measure::kEuclidean ? -c.threshold : c.threshold;
  uint32_t self_hits = 0;
  for (uint32_t q = 0; q < kRows; q += 7) {
    const auto matches = searcher.Query(data.Row(q));
    for (const QueryMatch& m : matches) {
      if (m.id == q) ++self_hits;
      const double exact =
          ExactScore(c, data, m.id, data.Row(q), kernel.get());
      EXPECT_GE(m.sim, floor) << "query " << q << " match " << m.id;
      EXPECT_NEAR(m.sim, exact, 1e-9)
          << "query " << q << " match " << m.id;
    }
  }
  // Every row matches itself (sim 1 / distance 0): banding cannot miss
  // an identical signature.
  EXPECT_EQ(self_hits, (kRows + 6) / 7);
}

// The dynamic layer: rows added after a warm load are served with the
// same hash family as the base (for KLSH, the base's persisted anchors),
// so a compaction that re-folds them changes nothing.
TEST_P(MeasureServing, DynamicAddThenCompactIsStable) {
  const auto& [c, threads] = GetParam();
  const Dataset all = TextWeighted(34, kRows + 20);

  DatasetBuilder base_builder(all.num_dims());
  DatasetBuilder extra_builder(all.num_dims());
  for (uint32_t r = 0; r < kRows; ++r) {
    const SparseVectorView v = all.Row(r);
    std::vector<std::pair<uint32_t, float>> entries;
    for (uint32_t e = 0; e < v.size(); ++e) {
      entries.emplace_back(v.indices[e], v.values[e]);
    }
    base_builder.AddRow(entries);
  }
  for (uint32_t r = kRows; r < all.num_vectors(); ++r) {
    const SparseVectorView v = all.Row(r);
    std::vector<std::pair<uint32_t, float>> entries;
    for (uint32_t e = 0; e < v.size(); ++e) {
      entries.emplace_back(v.indices[e], v.values[e]);
    }
    extra_builder.AddRow(entries);
  }

  DynamicIndexConfig dcfg;
  dcfg.num_threads = threads;
  DynamicIndex dyn(PersistentIndex::Build(std::move(base_builder).Build(),
                                          BuildConfigFor(c, threads)),
                   dcfg);
  const Dataset extra = std::move(extra_builder).Build();
  for (uint32_t r = 0; r < extra.num_vectors(); ++r) dyn.Add(extra.Row(r));

  std::vector<SparseVectorView> queries;
  for (uint32_t q = 0; q < all.num_vectors(); q += 17) {
    queries.push_back(all.Row(q));
  }
  std::vector<std::vector<QueryMatch>> before;
  before.reserve(queries.size());
  for (const SparseVectorView& q : queries) before.push_back(dyn.Query(q));

  dyn.Compact();
  for (uint32_t i = 0; i < queries.size(); ++i) {
    ExpectSameMatches(before[i], dyn.Query(queries[i]),
                      "compaction changed answers", i);
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<MeasureCase, uint32_t>>& info) {
  return std::string(std::get<0>(info.param).name) + "_" +
         std::to_string(std::get<1>(info.param)) + "thread";
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, MeasureServing,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(1u, 8u)),
    CaseName);

// A warm searcher serving a Euclidean index below its build radius hashes
// queries with the index's p-stable width (2 x the build radius), the one
// its buckets and signatures were hashed with, so every indexed row still
// finds itself at distance 0 — at any thread count.
TEST(MeasureServingEuclidean, WarmBelowBuildRadiusFindsEveryRow) {
  constexpr MeasureCase kRadius9 = {"euclidean", Measure::kEuclidean, 9.0};
  const Dataset data = TextWeighted(31, 400);
  Dataset copy = data;
  const std::unique_ptr<PersistentIndex> index =
      PersistentIndex::Build(std::move(copy), BuildConfigFor(kRadius9, 1));

  for (uint32_t threads : {1u, 4u}) {
    QuerySearchConfig cfg = ServeConfigFor(kRadius9, threads);
    cfg.threshold = 6.0;
    const QuerySearcher warm(index.get(), cfg);
    uint32_t rows = 0, found = 0;
    for (uint32_t row = 0; row < data.num_vectors(); ++row) {
      if (data.Row(row).empty()) continue;
      ++rows;
      for (const QueryMatch& m : warm.Query(data.Row(row))) {
        if (m.id == row && m.sim == 0.0) ++found;
      }
    }
    EXPECT_EQ(found, rows) << threads << " threads";
  }
}

// Dense clustered rows: `rows` points in `dims` dimensions around 30
// centres drawn from N(0, 3^2), with unit Gaussian noise; row r belongs to
// cluster r % 30. Fewer rows give a prefix of the same rows.
Dataset GaussianClusters(uint32_t rows, uint32_t dims, uint64_t seed) {
  constexpr uint32_t kClusters = 30;
  Xoshiro256StarStar rng(seed);
  std::vector<std::vector<double>> centres(kClusters,
                                           std::vector<double>(dims));
  for (auto& centre : centres) {
    for (double& x : centre) x = 3.0 * rng.NextGaussian();
  }
  DatasetBuilder builder(dims);
  for (uint32_t r = 0; r < rows; ++r) {
    std::vector<std::pair<uint32_t, float>> entries;
    for (uint32_t d = 0; d < dims; ++d) {
      entries.emplace_back(d, static_cast<float>(centres[r % kClusters][d] +
                                                 rng.NextGaussian()));
    }
    builder.AddRow(std::move(entries));
  }
  return std::move(builder).Build();
}

// A Euclidean DynamicIndex served below its build radius hashes its delta
// segment with the base's family (the p-stable width of the build
// radius), as the compacted base will, so one Compact() changes no answer
// at any thread count. Dense clustered rows are needed: on the text
// corpora a delta hashed at the serving radius gives the same answers.
TEST(MeasureServingEuclidean, DeltaBelowBuildRadiusSurvivesCompaction) {
  constexpr MeasureCase kRadius6 = {"euclidean", Measure::kEuclidean, 6.0};
  const Dataset all = GaussianClusters(600, 16, 2012);
  const Dataset base = GaussianClusters(300, 16, 2012);  // Rows 0-299.

  for (uint32_t threads : {1u, 4u}) {
    DynamicIndexConfig dcfg;
    dcfg.threshold = 4.0;
    dcfg.num_threads = threads;
    DynamicIndex dyn(
        PersistentIndex::Build(base, BuildConfigFor(kRadius6, threads)),
        dcfg);
    for (uint32_t r = 300; r < all.num_vectors(); ++r) dyn.Add(all.Row(r));

    std::vector<std::vector<QueryMatch>> before;
    before.reserve(all.num_vectors());
    for (uint32_t q = 0; q < all.num_vectors(); ++q) {
      before.push_back(dyn.Query(all.Row(q)));
    }
    dyn.Compact();
    uint32_t changed = 0;
    for (uint32_t q = 0; q < all.num_vectors(); ++q) {
      changed += dyn.Query(all.Row(q)) != before[q] ? 1 : 0;
    }
    EXPECT_EQ(changed, 0u) << threads << " threads";
  }
}

}  // namespace
}  // namespace bayeslsh
