// Extension bench (paper §6 future work): BayesLSH-Lite-style candidate
// pruning for Euclidean nearest-neighbour retrieval over p-stable (E2LSH)
// hashes.
//
// Workload: a random-walk point sequence (x_{i+1} = x_i + step * N(0, I)),
// so pairwise distances form a *continuum* — banding at radius r emits
// candidates out to several r, and a genuine share of them are junk the
// pruner can burn. (Well-separated Gaussian clusters are deceptively easy
// here: banding alone is already near-perfect and leaves pruning nothing
// to do.) Three pipelines per configuration:
//
//   * brute force      — exact O(n^2) scan (ground truth),
//   * E2LSH            — banding candidates, exact distance for every
//                        candidate (the classical pipeline),
//   * E2LSH + Bayes    — banding candidates, posterior pruning at ε, exact
//                        distance only for survivors (the paper's
//                        anticipated Lite analogue).
//
// Expected shape: pruning removes the majority of candidate exact-distance
// computations at ε-controlled recall, echoing Fig. 4's burn-down; its
// *wall-clock* value grows with dimensionality (exact distances are O(d),
// hash comparisons O(1)), so the dimension sweep shows the crossover. The
// ε sweep mirrors Table 5's ε column.

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/prng.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "lsh/gaussian_source.h"

using namespace bayeslsh;
using namespace bayeslsh::bench;

namespace {

// Random-walk sequence: E[d(i, j)^2] = |i - j| * step^2 * dim, so the step
// is chosen to put ~20 sequence neighbours on each side within the radius.
Dataset MakeWalkPoints(uint32_t count, uint32_t dim, double radius,
                       uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  const double step = radius / std::sqrt(20.0 * dim);
  std::vector<double> x(dim, 0.0);
  DatasetBuilder builder(dim);
  for (uint32_t i = 0; i < count; ++i) {
    std::vector<std::pair<DimId, float>> entries;
    for (uint32_t d = 0; d < dim; ++d) {
      x[d] += step * rng.NextGaussian();
      entries.emplace_back(d, static_cast<float>(x[d]));
    }
    builder.AddRow(std::move(entries));
  }
  return std::move(builder).Build();
}

double JoinRecall(const std::vector<ScoredPair>& output,
                  const std::vector<ScoredPair>& truth) {
  if (truth.empty()) return 1.0;
  std::set<std::pair<uint32_t, uint32_t>> out_keys;
  for (const auto& p : output) out_keys.insert({p.a, p.b});
  uint64_t found = 0;
  for (const auto& p : truth) found += out_keys.count({p.a, p.b});
  return static_cast<double>(found) / truth.size();
}

// Every pair within the radius (ScoredPair::sim is the negated distance).
std::vector<ScoredPair> BruteForceRadiusPairs(const Dataset& data,
                                              double radius) {
  return BruteForceJoin(data, -radius, Measure::kEuclidean);
}

// The radius join: p-stable banding, then exact distances for every
// candidate (kExact) or for the survivors of posterior pruning at ε
// (kBayesLshLite). Gaussians come from the §4.3 quantized tables.
PipelineResult RadiusJoin(const Dataset& data, double radius,
                          VerifierKind verifier, double epsilon,
                          GaussianSourceCache* gaussians) {
  PipelineConfig cfg;
  cfg.measure = Measure::kEuclidean;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = verifier;
  cfg.threshold = radius;
  cfg.bayes.epsilon = epsilon;
  cfg.seed = BenchSeed();
  cfg.gaussian_cache = gaussians;
  return RunPipeline(data, cfg);
}

// Quantized tables deep enough for the banding hashes and the 128-hash
// pruning budget at radius 1.
constexpr uint32_t kStoredHashes = 128;

}  // namespace

int main() {
  const double scale = BenchScale();
  const uint32_t count = static_cast<uint32_t>(1500 * scale);
  const double radius = 1.0;

  PrintHeader("Extension: Euclidean NN retrieval with Bayesian pruning "
              "(random-walk points, radius 1.0, dimension sweep)");

  std::printf("%-18s %6s %10s %12s %14s %10s\n", "pipeline", "dim",
              "seconds", "candidates", "exact dists", "recall");
  PrintRule(80);
  for (const uint32_t dim : {16u, 64u, 256u}) {
    const Dataset data = MakeWalkPoints(count, dim, radius, BenchSeed());
    GaussianSourceCache gaussians(dim, kStoredHashes);
    WallTimer bf_timer;
    const auto truth = BruteForceRadiusPairs(data, radius);
    const double bf_secs = bf_timer.Seconds();
    const uint64_t n = data.num_vectors();
    std::printf("%-18s %6u %10.3f %12s %14llu %9.1f%%\n", "brute force",
                dim, bf_secs, "-",
                static_cast<unsigned long long>(n * (n - 1) / 2), 100.0);

    for (const bool prune : {false, true}) {
      const PipelineResult result = RadiusJoin(
          data, radius,
          prune ? VerifierKind::kBayesLshLite : VerifierKind::kExact, 0.03,
          &gaussians);
      std::printf("%-18s %6u %10.3f %12llu %14llu %9.1f%%\n",
                  prune ? "E2LSH+Bayes prune" : "E2LSH (no prune)", dim,
                  result.total_seconds,
                  static_cast<unsigned long long>(result.candidates),
                  static_cast<unsigned long long>(
                      prune ? result.vstats.exact_computed
                            : result.candidates),
                  100.0 * JoinRecall(result.pairs, truth));
    }
  }

  const Dataset data = MakeWalkPoints(count, 64, radius, BenchSeed());
  GaussianSourceCache gaussians(64, kStoredHashes);

  PrintHeader("Recall parameter ε: pruning aggressiveness "
              "(dim 64, E2LSH+Bayes prune)");
  {
    const auto truth = BruteForceRadiusPairs(data, radius);
    std::printf("%-10s %10s %14s %14s %10s\n", "epsilon", "seconds",
                "pruned", "exact dists", "recall");
    PrintRule(64);
    for (const double eps : {0.01, 0.03, 0.05, 0.09, 0.20}) {
      const PipelineResult result = RadiusJoin(
          data, radius, VerifierKind::kBayesLshLite, eps, &gaussians);
      std::printf("%-10.2f %10.3f %14llu %14llu %9.1f%%\n", eps,
                  result.total_seconds,
                  static_cast<unsigned long long>(result.vstats.pruned),
                  static_cast<unsigned long long>(
                      result.vstats.exact_computed),
                  100.0 * JoinRecall(result.pairs, truth));
    }
  }

  PrintHeader("Query mode: indexed radius queries (dim 64, radius 1.0)");
  {
    QuerySearchConfig cfg;
    cfg.measure = Measure::kEuclidean;
    cfg.threshold = radius;
    cfg.seed = BenchSeed();
    WallTimer build_timer;
    const QuerySearcher searcher(&data, cfg);
    const double build_secs = build_timer.Seconds();

    Xoshiro256StarStar rng(BenchSeed());
    const uint32_t kQueries = 200;
    uint64_t truth_total = 0, found = 0, exact = 0, cands = 0;
    WallTimer query_timer;
    for (uint32_t q = 0; q < kQueries; ++q) {
      const uint32_t base =
          static_cast<uint32_t>(rng.NextBounded(data.num_vectors()));
      const auto matches = searcher.Query(data.Row(base));
      QueryStats stats;
      (void)searcher.Query(data.Row(base), &stats);
      // Every candidate the posterior does not prune is measured exactly.
      exact += stats.candidates - stats.pruned;
      cands += stats.candidates;
      // Truth for this query.
      for (uint32_t i = 0; i < data.num_vectors(); ++i) {
        const double d =
            SparseEuclideanDistance(data.Row(base), data.Row(i));
        if (d <= radius) {
          ++truth_total;
          for (const auto& m : matches) {
            if (m.id == i) {
              ++found;
              break;
            }
          }
        }
      }
    }
    std::printf("index build: %.3f s; %u queries: %.3f s total\n",
                build_secs, kQueries, query_timer.Seconds());
    std::printf(
        "avg candidates/query: %.1f; avg exact distances/query: %.1f; "
        "recall: %.1f%%\n",
        static_cast<double>(cands) / (2 * kQueries),
        static_cast<double>(exact) / (2 * kQueries),
        truth_total ? 100.0 * found / truth_total : 100.0);
  }
  return 0;
}
