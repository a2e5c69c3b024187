// Euclidean nearest-neighbour retrieval with Bayesian candidate pruning —
// the paper's §6 future-work scenario, on an embedding-lookup workload.
//
// A collection of dense "embedding" vectors is indexed once with E2LSH
// (p-stable) banding; queries then retrieve all embeddings within a radius
// (and the k nearest), with candidates pruned by the Euclidean distance
// posterior before any exact distance is computed.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/euclidean_neighbors

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bayeslsh/bayeslsh.h"

int main() {
  using namespace bayeslsh;

  // 1. Simulate an embedding table: a slowly drifting sequence (think
  //    frames of a video, or versions of a document embedding), so nearby
  //    ids are nearby in space and distances form a continuum.
  constexpr uint32_t kCount = 5000, kDim = 32;
  constexpr double kRadius = 1.0;
  Xoshiro256StarStar rng(7);
  const double step = kRadius / 25.0;  // ~20 in-radius neighbours per side.
  std::vector<double> x(kDim, 0.0);
  DatasetBuilder builder(kDim);
  for (uint32_t i = 0; i < kCount; ++i) {
    std::vector<std::pair<DimId, float>> entries;
    for (uint32_t d = 0; d < kDim; ++d) {
      x[d] += step * rng.NextGaussian();
      entries.emplace_back(d, static_cast<float>(x[d]));
    }
    builder.AddRow(std::move(entries));
  }
  const Dataset embeddings = std::move(builder).Build();

  // 2. Build the index. The bucket width (2 x radius), band count, and the
  //    pruning schedule all derive from the radius; epsilon bounds the
  //    probability that a true neighbour is pruned. Scores are negated
  //    distances (larger is closer).
  QuerySearchConfig cfg;
  cfg.measure = Measure::kEuclidean;
  cfg.threshold = kRadius;
  cfg.bayes.epsilon = 0.03;
  cfg.seed = 7;
  const QuerySearcher index(&embeddings, cfg);
  std::printf(
      "index: %u bands x %u hashes, bucket width %.2f, %u embeddings\n\n",
      index.num_bands(), index.hashes_per_band(), 2.0 * kRadius,
      embeddings.num_vectors());

  // 3. Query: the 5 nearest neighbours of a few probe embeddings. Every
  //    candidate the posterior does not prune gets an exact distance.
  for (const uint32_t probe : {100u, 2500u, 4900u}) {
    QueryStats stats;
    const auto top = index.Query(embeddings.Row(probe), &stats, 5);
    std::printf(
        "probe %4u: %llu candidates, %llu pruned, %llu exact distances\n",
        probe, static_cast<unsigned long long>(stats.candidates),
        static_cast<unsigned long long>(stats.pruned),
        static_cast<unsigned long long>(stats.candidates - stats.pruned));
    for (const auto& m : top) {
      std::printf("    id %4u  distance %.4f\n", m.id, -m.sim);
    }
  }

  // 4. The same machinery as a self-join: every pair of embeddings within
  //    the radius (deduplication candidates, say).
  PipelineConfig join;
  join.measure = Measure::kEuclidean;
  join.generator = GeneratorKind::kLsh;
  join.verifier = VerifierKind::kBayesLshLite;
  join.threshold = kRadius;
  join.bayes.epsilon = 0.03;
  join.seed = 7;
  const PipelineResult result = RunPipeline(embeddings, join);
  std::printf(
      "\nself-join: %llu candidates -> %zu pairs within radius %.1f "
      "(%.1f%% of candidates pruned before exact verification)\n",
      static_cast<unsigned long long>(result.candidates),
      result.pairs.size(), kRadius,
      100.0 * result.vstats.pruned /
          std::max<uint64_t>(1, result.candidates));
  return 0;
}
