// Kernelized similarity search: finding near-duplicate image descriptors
// under an RBF ("learned metric") kernel with KLSH + BayesLSH.
//
// This is the paper's named future-work scenario (§6): the similarity is
// k(x, y) = exp(-gamma ||x - y||^2), whose feature map is implicit, so
// plain SRP hashing does not apply — hash directions must be built inside
// the span of sampled anchor objects (Kulis & Grauman's KLSH). Hashing is
// now genuinely expensive (one anchor-kernel row per object), which is
// exactly where BayesLSH's lazy hashing and early pruning pay off.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/kernel_similarity_search

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bayeslsh/bayeslsh.h"

int main() {
  using namespace bayeslsh;

  // 1. Simulate a descriptor collection: 30 scenes, 30 shots each. Shots of
  //    the same scene are small perturbations of the scene's descriptor.
  constexpr uint32_t kScenes = 30, kShots = 30, kDim = 64;
  Xoshiro256StarStar rng(2012);
  DatasetBuilder builder(kDim);
  for (uint32_t scene = 0; scene < kScenes; ++scene) {
    std::vector<double> proto(kDim);
    for (auto& x : proto) x = 4.0 * rng.NextGaussian();
    for (uint32_t shot = 0; shot < kShots; ++shot) {
      std::vector<std::pair<DimId, float>> entries;
      for (uint32_t d = 0; d < kDim; ++d) {
        entries.emplace_back(
            d, static_cast<float>(proto[d] + 0.25 * rng.NextGaussian()));
      }
      builder.AddRow(std::move(entries));
    }
  }
  const Dataset descriptors = std::move(builder).Build();

  // 2. The "learned" similarity: an RBF kernel. Since k(x, x) = 1, the
  //    kernel cosine equals the kernel value, so threshold 0.7 means
  //    "descriptors within RBF similarity 0.7".
  const RbfKernel kernel(0.036);

  // 3. Search. BayesLSH-Lite is the recommended verifier for kernels: it
  //    prunes with cheap hash comparisons and reports *exact* kernel
  //    cosines for survivors, sidestepping the KLSH span-projection bias
  //    that pure hash-based estimates inherit.
  PipelineConfig cfg;
  cfg.measure = Measure::kKernelCosine;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = VerifierKind::kBayesLshLite;
  cfg.threshold = 0.7;
  cfg.kernel = {.tag = KernelTag::kRbf, .gamma = 0.036};
  cfg.klsh.num_anchors = 128;  // More anchors = tighter collision law.
  cfg.seed = 7;

  const PipelineResult result = RunPipeline(descriptors, cfg);

  // Kernel evaluations spent: every object's anchor kernel row (shared by
  // the banding and verification hashes), every object's self-kernel, and
  // one cross evaluation per candidate that survived pruning.
  const uint64_t n = descriptors.num_vectors();
  const double exact_join_evals =
      static_cast<double>(n) * (n - 1) / 2 + static_cast<double>(n);
  const double spent = static_cast<double>(
      n * std::min<uint64_t>(cfg.klsh.num_anchors, n) + n +
      result.vstats.exact_computed);
  std::printf(
      "KLSH+BayesLSH-Lite: %llu candidates -> %zu matching pairs in %.3f s\n"
      "kernel evaluations: %.2e (exact all-pairs join would need %.2e, "
      "%.1fx more)\n"
      "%.1f%% of candidates pruned by Bayesian inference before any exact "
      "kernel work\n\n",
      static_cast<unsigned long long>(result.candidates),
      result.pairs.size(), result.total_seconds, spent, exact_join_evals,
      exact_join_evals / spent,
      100.0 * result.vstats.pruned /
          std::max<uint64_t>(1, result.vstats.pairs_in));

  // 4. Show the best matches; same-scene shots should dominate.
  std::vector<ScoredPair> top = result.pairs;
  std::sort(top.begin(), top.end(),
            [](const ScoredPair& a, const ScoredPair& b) {
              return a.sim > b.sim;
            });
  std::printf("%10s %10s %12s %8s\n", "shot A", "shot B", "kernel sim",
              "scene?");
  for (size_t i = 0; i < std::min<size_t>(10, top.size()); ++i) {
    const bool same_scene = top[i].a / kShots == top[i].b / kShots;
    std::printf("%10u %10u %12.4f %8s\n", top[i].a, top[i].b, top[i].sim,
                same_scene ? "same" : "DIFF");
  }
  return 0;
}
