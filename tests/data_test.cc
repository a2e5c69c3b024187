// Tests for the synthetic data generators and the scaled paper-dataset
// configurations.

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "data/graph_generator.h"
#include "data/paper_datasets.h"
#include "data/text_generator.h"
#include "data/zipf.h"
#include "sim/brute_force.h"
#include "sim/similarity.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

// ---------------------------------------------------------------------------
// Zipf sampler
// ---------------------------------------------------------------------------

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
  const ZipfSampler z(1000, 1.0);
  double sum = 0.0;
  for (uint32_t k = 0; k < 1000; ++k) sum += z.Probability(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, RankProbabilitiesFollowPowerLaw) {
  const double s = 1.2;
  const ZipfSampler z(5000, s);
  // P(k) / P(2k) = 2^s.
  for (uint32_t k : {1u, 4u, 16u, 64u}) {
    EXPECT_NEAR(z.Probability(k - 1) / z.Probability(2 * k - 1),
                std::pow(2.0, s), 1e-9);
  }
}

TEST(ZipfSamplerTest, ExponentZeroIsUniform) {
  const ZipfSampler z(100, 0.0);
  for (uint32_t k = 0; k < 100; ++k) {
    EXPECT_NEAR(z.Probability(k), 0.01, 1e-12);
  }
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesMatch) {
  const ZipfSampler z(50, 1.0);
  Xoshiro256StarStar rng(1);
  std::vector<int> counts(50, 0);
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) ++counts[z.Sample(rng)];
  for (uint32_t k : {0u, 1u, 5u, 20u}) {
    const double expected = z.Probability(k) * trials;
    EXPECT_NEAR(counts[k], expected, 5.0 * std::sqrt(expected) + 5.0);
  }
}

// ---------------------------------------------------------------------------
// Text generator
// ---------------------------------------------------------------------------

TEST(TextGeneratorTest, ProducesRequestedShape) {
  TextCorpusConfig cfg;
  cfg.num_docs = 500;
  cfg.vocab_size = 2000;
  cfg.avg_doc_len = 40;
  cfg.num_clusters = 20;
  cfg.seed = 9;
  const Dataset d = GenerateTextCorpus(cfg);
  EXPECT_EQ(d.num_vectors(), 500u);
  EXPECT_LE(d.num_dims(), 2000u);
  const DatasetStats s = d.Stats();
  // Bag-of-words merging shrinks unique terms below token count; expect the
  // mean unique length within a loose band of the token target.
  EXPECT_GT(s.avg_length, 15.0);
  EXPECT_LT(s.avg_length, 45.0);
  for (uint32_t i = 0; i < d.num_vectors(); ++i) {
    EXPECT_GT(d.RowLength(i), 0u);
  }
}

TEST(TextGeneratorTest, DeterministicPerSeed) {
  TextCorpusConfig cfg;
  cfg.num_docs = 100;
  cfg.vocab_size = 500;
  cfg.num_clusters = 20;  // Default 150 would not fit 100 docs.
  cfg.seed = 5;
  const Dataset a = GenerateTextCorpus(cfg);
  const Dataset b = GenerateTextCorpus(cfg);
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.indices(), b.indices());
  EXPECT_EQ(a.values(), b.values());
  cfg.seed = 6;
  const Dataset c = GenerateTextCorpus(cfg);
  EXPECT_NE(a.indices(), c.indices());
}

TEST(TextGeneratorTest, PlantedClustersAreSimilar) {
  TextCorpusConfig cfg;
  cfg.num_docs = 400;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 60;
  cfg.num_clusters = 30;
  cfg.cluster_size = 4;
  cfg.mutation_max = 0.3;  // Mild mutations -> clearly similar clones.
  cfg.seed = 11;
  const Dataset d =
      L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
  // Average within-cluster cosine must dwarf the background similarity.
  double within = 0.0;
  int cnt = 0;
  for (uint32_t c = 0; c < 30; ++c) {
    const uint32_t base = c * 4;
    for (uint32_t m = 1; m < 4; ++m) {
      within += SparseDot(d.Row(base), d.Row(base + m));
      ++cnt;
    }
  }
  within /= cnt;
  double background = 0.0;
  int bcnt = 0;
  for (uint32_t i = 150; i < 250; i += 7) {
    for (uint32_t j = i + 3; j < 350; j += 41) {
      background += SparseDot(d.Row(i), d.Row(j));
      ++bcnt;
    }
  }
  background /= bcnt;
  EXPECT_GT(within, 0.5);
  EXPECT_LT(background, 0.2);
  EXPECT_GT(within, background + 0.3);
}

TEST(TextGeneratorTest, MutationSweepPopulatesSimilarityBands) {
  TextCorpusConfig cfg;
  cfg.num_docs = 600;
  cfg.vocab_size = 4000;
  cfg.avg_doc_len = 60;
  cfg.num_clusters = 60;
  cfg.cluster_size = 4;
  cfg.mutation_min = 0.02;
  cfg.mutation_max = 0.65;
  cfg.seed = 12;
  const Dataset d =
      L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
  // Collect within-cluster sims and check several bands are hit.
  int bands[5] = {0, 0, 0, 0, 0};  // [0.5,0.6), ..., [0.9,1.0].
  for (uint32_t c = 0; c < 60; ++c) {
    for (uint32_t m = 1; m < 4; ++m) {
      const double s = SparseDot(d.Row(c * 4), d.Row(c * 4 + m));
      if (s >= 0.5) {
        const int band = std::min(4, static_cast<int>((s - 0.5) / 0.1));
        ++bands[band];
      }
    }
  }
  int populated = 0;
  for (int b : bands) populated += (b > 0);
  EXPECT_GE(populated, 4) << "similarity bands too sparse";
}

TEST(TextGeneratorTest, RejectsPlantedClustersThatDoNotFit) {
  TextCorpusConfig cfg;
  cfg.num_docs = 40;
  cfg.vocab_size = 500;
  cfg.num_clusters = 10;  // 10 clusters of 4 fill the corpus exactly.
  EXPECT_EQ(GenerateTextCorpus(cfg).num_vectors(), 40u);
  cfg.num_clusters = 11;
  EXPECT_THROW(GenerateTextCorpus(cfg), std::invalid_argument);
  cfg.num_clusters = 1;
  cfg.cluster_size = 0;
  EXPECT_THROW(GenerateTextCorpus(cfg), std::invalid_argument);
  // Even an empty corpus cannot hold one planted document.
  cfg.num_docs = 0;
  cfg.cluster_size = 1;
  EXPECT_THROW(GenerateTextCorpus(cfg), std::invalid_argument);
}

// At the boundary the fit check admits, every document is planted: no
// background row is left, and every cluster, the last one included, is
// still a group of near-duplicates.
TEST(TextGeneratorTest, ClustersFillingEveryDocStayPlanted) {
  TextCorpusConfig cfg;
  cfg.num_docs = 120;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 60;
  cfg.num_clusters = 30;
  cfg.cluster_size = 4;
  cfg.mutation_max = 0.3;
  cfg.seed = 17;
  const Dataset d =
      L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
  ASSERT_EQ(d.num_vectors(), 120u);
  for (uint32_t c = 0; c < 30; ++c) {
    const uint32_t base = c * 4;
    double within = 0.0;
    for (uint32_t m = 1; m < 4; ++m) {
      within += SparseDot(d.Row(base), d.Row(base + m));
    }
    EXPECT_GT(within / 3, 0.5) << "cluster " << c;
  }
}

// A corpus with no planted cluster is all background: what `generate`
// writes when --vectors is smaller than one cluster.
TEST(TextGeneratorTest, ZeroClustersWritesBackgroundOnly) {
  TextCorpusConfig cfg;
  cfg.vocab_size = 1000;
  cfg.num_clusters = 0;
  cfg.seed = 18;
  for (const uint32_t docs : {0u, 1u, 3u}) {
    cfg.num_docs = docs;
    const Dataset d = GenerateTextCorpus(cfg);
    ASSERT_EQ(d.num_vectors(), docs);
    for (uint32_t i = 0; i < docs; ++i) {
      EXPECT_GE(d.RowLength(i), 1u) << docs << " docs, row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Graph generator
// ---------------------------------------------------------------------------

TEST(GraphGeneratorTest, ProducesRequestedShape) {
  GraphConfig cfg;
  cfg.num_nodes = 800;
  cfg.avg_degree = 15;
  cfg.num_communities = 40;
  cfg.seed = 13;
  const Dataset d = GenerateGraphAdjacency(cfg);
  EXPECT_EQ(d.num_vectors(), 800u);
  EXPECT_EQ(d.num_dims(), 800u);
  const DatasetStats s = d.Stats();
  EXPECT_GT(s.avg_length, 6.0);
  EXPECT_LT(s.avg_length, 30.0);
  for (uint32_t i = 0; i < d.num_vectors(); ++i) {
    EXPECT_GE(d.RowLength(i), cfg.min_degree);
  }
}

TEST(GraphGeneratorTest, InDegreesAreHeavyTailed) {
  GraphConfig cfg;
  cfg.num_nodes = 2000;
  cfg.avg_degree = 20;
  cfg.num_communities = 0;
  cfg.seed = 14;
  const Dataset d = GenerateGraphAdjacency(cfg);
  const auto freq = d.DimFrequencies();  // In-degrees.
  uint32_t max_in = 0;
  uint64_t total = 0;
  for (uint32_t f : freq) {
    max_in = std::max(max_in, f);
    total += f;
  }
  const double mean_in = static_cast<double>(total) / freq.size();
  // Heavy tail: the most popular node has far more than the mean in-degree.
  EXPECT_GT(max_in, 10 * mean_in);
}

TEST(GraphGeneratorTest, CommunitiesAreSimilar) {
  GraphConfig cfg;
  cfg.num_nodes = 600;
  cfg.avg_degree = 20;
  cfg.num_communities = 30;
  cfg.community_size = 4;
  cfg.rewire_max = 0.3;
  cfg.seed = 15;
  const Dataset d = GenerateGraphAdjacency(cfg);
  double within = 0.0;
  int cnt = 0;
  for (uint32_t c = 0; c < 30; ++c) {
    const uint32_t base = c * 4;
    for (uint32_t m = 1; m < 4; ++m) {
      within += JaccardSimilarity(d.Row(base), d.Row(base + m));
      ++cnt;
    }
  }
  within /= cnt;
  EXPECT_GT(within, 0.4);
}

TEST(GraphGeneratorTest, DeterministicPerSeed) {
  GraphConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_communities = 60;  // Default 200 would not fit 300 nodes.
  cfg.seed = 16;
  const Dataset a = GenerateGraphAdjacency(cfg);
  const Dataset b = GenerateGraphAdjacency(cfg);
  EXPECT_EQ(a.indices(), b.indices());
}

TEST(GraphGeneratorTest, RejectsPlantedCommunitiesThatDoNotFit) {
  GraphConfig cfg;
  cfg.num_nodes = 500;  // The default 200 communities of 4 need 800.
  EXPECT_THROW(GenerateGraphAdjacency(cfg), std::invalid_argument);
  cfg.num_communities = 125;  // Fills the graph exactly.
  EXPECT_EQ(GenerateGraphAdjacency(cfg).num_vectors(), 500u);
  cfg.community_size = 0;
  EXPECT_THROW(GenerateGraphAdjacency(cfg), std::invalid_argument);
}

// The graph twin of ClustersFillingEveryDocStayPlanted: with every node
// planted, each community, the last one included, keeps its overlap and
// every row its minimum degree.
TEST(GraphGeneratorTest, CommunitiesFillingEveryNodeStayPlanted) {
  GraphConfig cfg;
  cfg.num_nodes = 120;
  cfg.avg_degree = 20;
  cfg.num_communities = 30;
  cfg.community_size = 4;
  cfg.rewire_max = 0.3;
  cfg.seed = 19;
  const Dataset d = GenerateGraphAdjacency(cfg);
  ASSERT_EQ(d.num_vectors(), 120u);
  for (uint32_t i = 0; i < d.num_vectors(); ++i) {
    EXPECT_GE(d.RowLength(i), cfg.min_degree);
  }
  for (uint32_t c = 0; c < 30; ++c) {
    const uint32_t base = c * 4;
    double within = 0.0;
    for (uint32_t m = 1; m < 4; ++m) {
      within += JaccardSimilarity(d.Row(base), d.Row(base + m));
    }
    EXPECT_GT(within / 3, 0.4) << "community " << c;
  }
}

// ---------------------------------------------------------------------------
// Paper dataset configs
// ---------------------------------------------------------------------------

TEST(PaperDatasetsTest, AllSixEnumerated) {
  const auto all = AllPaperDatasets();
  EXPECT_EQ(all.size(), 6u);
  for (const auto ds : all) {
    EXPECT_FALSE(PaperDatasetName(ds).empty());
  }
  EXPECT_EQ(BinaryExperimentDatasets().size(), 3u);
}

TEST(PaperDatasetsTest, GraphShapedFlag) {
  EXPECT_FALSE(IsGraphShaped(PaperDataset::kRcv1));
  EXPECT_FALSE(IsGraphShaped(PaperDataset::kWikiWords100k));
  EXPECT_TRUE(IsGraphShaped(PaperDataset::kWikiLinks));
  EXPECT_TRUE(IsGraphShaped(PaperDataset::kOrkut));
  EXPECT_TRUE(IsGraphShaped(PaperDataset::kTwitter));
}

TEST(PaperDatasetsTest, ScaledShapesPreserveRelativeGeometry) {
  // Small scale for test speed; relative shapes must match Table 1's
  // qualitative structure.
  const double scale = 0.08;
  const auto rcv1 = MakeRawPaperDataset(PaperDataset::kRcv1, scale).Stats();
  const auto ww100k =
      MakeRawPaperDataset(PaperDataset::kWikiWords100k, scale).Stats();
  const auto wikilinks =
      MakeRawPaperDataset(PaperDataset::kWikiLinks, scale).Stats();
  const auto twitter =
      MakeRawPaperDataset(PaperDataset::kTwitter, scale).Stats();

  // WikiWords100K has much longer documents than RCV1.
  EXPECT_GT(ww100k.avg_length, 2.0 * rcv1.avg_length);
  // WikiLinks has short vectors; Twitter very long ones.
  EXPECT_LT(wikilinks.avg_length, 40.0);
  EXPECT_GT(twitter.avg_length, 5.0 * wikilinks.avg_length);
  // Graph datasets: dim == number of nodes.
  EXPECT_EQ(MakeRawPaperDataset(PaperDataset::kOrkut, scale).num_dims(),
            MakeRawPaperDataset(PaperDataset::kOrkut, scale).num_vectors());
}

TEST(PaperDatasetsTest, WeightedViewIsUnitNormalized) {
  const Dataset d =
      MakeWeightedPaperDataset(PaperDataset::kRcv1, 0.05);
  for (uint32_t i = 0; i < std::min(d.num_vectors(), 50u); ++i) {
    if (d.RowLength(i) == 0) continue;
    EXPECT_NEAR(SparseNorm2(d.Row(i)), 1.0, 1e-5);
  }
}

TEST(PaperDatasetsTest, BinaryViewHasUnitValues) {
  const Dataset d = MakeBinaryPaperDataset(PaperDataset::kOrkut, 0.05);
  for (uint32_t i = 0; i < std::min(d.num_vectors(), 20u); ++i) {
    for (float v : d.Row(i).values) EXPECT_FLOAT_EQ(v, 1.0f);
  }
}

TEST(PaperDatasetsTest, ContainsThresholdCrossingPairs) {
  // The whole point of the planted structure: every dataset must contain
  // pairs above the paper's highest threshold (0.9) and the lowest (0.5/0.3).
  const Dataset d =
      MakeWeightedPaperDataset(PaperDataset::kRcv1, 0.08);
  const auto truth = InvertedIndexJoin(d, 0.5, Measure::kCosine);
  ASSERT_FALSE(truth.empty());
  int high = 0;
  for (const auto& p : truth) {
    if (p.sim >= 0.9) ++high;
  }
  EXPECT_GT(high, 0);
  EXPECT_GT(truth.size(), static_cast<size_t>(high));
}

}  // namespace
}  // namespace bayeslsh
