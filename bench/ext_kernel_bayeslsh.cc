// Extension bench (paper §6 future work): BayesLSH for kernelized
// similarity search via KLSH (Kulis & Grauman [12]).
//
// Workload: clustered dense "descriptor" vectors under an RBF kernel —
// the learned-metric regime the paper's future-work section motivates,
// where one exact similarity costs kernel evaluations and one hash costs
// p of them, so candidate pruning and lazy hashing matter more than for
// sparse dot products.
//
// Sections:
//   1. Algorithm roster vs threshold: exact kernel join (the quadratic
//      baseline), KLSH + exact verification, KLSH + BayesLSH,
//      KLSH + BayesLSH-Lite. Expected shape: BayesLSH variants win once
//      the candidate set dwarfs the result set, mirroring Fig. 3.
//   2. Direction-construction ablation: Gaussian-Nyström (exact
//      span-spherical law) vs Kulis & Grauman's subset-CLT at t = 0.7.
//   3. Anchor-count sweep: recall and time vs p (span quality economics).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/prng.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "kernel/kernels.h"

using namespace bayeslsh;
using namespace bayeslsh::bench;

namespace {

// Cluster noise and RBF width are tuned together so intra-cluster kernel
// cosines land in the paper's threshold band [0.5, 0.95] (E[d^2] =
// 2 * noise^2 * dim = 8, exp(-gamma * 8) ~ 0.75) while inter-cluster
// similarities are ~0.
constexpr double kDescriptorNoise = 0.25;
constexpr double kRbfGamma = 0.036;
constexpr uint32_t kDescriptorDim = 64;

Dataset MakeDescriptorData(uint32_t clusters, uint32_t per_cluster,
                           uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  DatasetBuilder builder(kDescriptorDim);
  for (uint32_t c = 0; c < clusters; ++c) {
    std::vector<double> center(kDescriptorDim);
    for (auto& x : center) x = 4.0 * rng.NextGaussian();
    for (uint32_t i = 0; i < per_cluster; ++i) {
      std::vector<std::pair<DimId, float>> entries;
      for (uint32_t d = 0; d < kDescriptorDim; ++d) {
        entries.emplace_back(
            d, static_cast<float>(center[d] +
                                  kDescriptorNoise * rng.NextGaussian()));
      }
      builder.AddRow(std::move(entries));
    }
  }
  return std::move(builder).Build();
}

double RecallOf(const std::vector<ScoredPair>& output,
                const std::vector<ScoredPair>& truth) {
  return Recall(output, truth);
}

// One KLSH join over `data` under the bench's RBF kernel.
PipelineResult KernelJoin(const Dataset& data, double t, VerifierKind verifier,
                          uint32_t anchors,
                          KlshDirection direction =
                              KlshDirection::kGaussianNystrom) {
  PipelineConfig cfg;
  cfg.measure = Measure::kKernelCosine;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = verifier;
  cfg.threshold = t;
  cfg.kernel = {.tag = KernelTag::kRbf, .gamma = kRbfGamma};
  cfg.klsh.num_anchors = anchors;
  cfg.klsh.direction = direction;
  cfg.seed = BenchSeed();
  return RunPipeline(data, cfg);
}

// Kernel evaluations a join spends: every object's anchor kernel row
// (computed once, shared by the banding and verification hashes), plus,
// when the verifier scores exactly, every object's self-kernel and one
// cross evaluation per exactly scored candidate.
double KernelEvals(const PipelineResult& res, uint64_t n, uint32_t anchors,
                   VerifierKind verifier) {
  double evals = static_cast<double>(n) * std::min<uint64_t>(anchors, n);
  if (verifier == VerifierKind::kExact) {
    evals += static_cast<double>(n + res.candidates);
  } else if (verifier == VerifierKind::kBayesLshLite) {
    evals += static_cast<double>(n + res.vstats.exact_computed);
  }
  return evals;
}

}  // namespace

int main() {
  const double scale = BenchScale();
  const uint32_t clusters = static_cast<uint32_t>(40 * scale);
  const Dataset data = MakeDescriptorData(clusters, 40, BenchSeed());
  const RbfKernel kernel(kRbfGamma);

  PrintHeader(
      "Extension: kernelized BayesLSH (RBF descriptors, " +
      std::to_string(data.num_vectors()) + " vectors, dim " +
      std::to_string(kDescriptorDim) + ")");

  // Section 1: roster vs threshold.
  std::printf("%-22s %6s %10s %12s %12s %10s %10s\n", "algorithm", "t",
              "seconds", "kernel evals", "candidates", "recall", "mean err");
  PrintRule(92);
  for (const double t : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    WallTimer bf_timer;
    const auto truth = KernelBruteForceJoin(data, kernel, t);
    const double bf_seconds = bf_timer.Seconds();
    const uint64_t n = data.num_vectors();
    std::printf("%-22s %6.1f %10.3f %12.2e %12s %9.1f%% %10s\n",
                "exact kernel join", t, bf_seconds,
                static_cast<double>(n) * (n - 1) / 2 + n, "-", 100.0, "-");

    for (const VerifierKind v :
         {VerifierKind::kExact, VerifierKind::kBayesLsh,
          VerifierKind::kBayesLshLite}) {
      const auto res = KernelJoin(data, t, v, 128);
      double mean_err = 0.0;
      if (!res.pairs.empty() && v == VerifierKind::kBayesLsh) {
        for (const auto& p : res.pairs) {
          mean_err += std::abs(
              p.sim - KernelCosine(kernel, data.Row(p.a), data.Row(p.b)));
        }
        mean_err /= static_cast<double>(res.pairs.size());
      }
      const char* name = v == VerifierKind::kExact ? "KLSH+exact"
                         : v == VerifierKind::kBayesLsh
                             ? "KLSH+BayesLSH"
                             : "KLSH+BayesLSH-Lite";
      std::printf("%-22s %6.1f %10.3f %12.2e %12llu %9.1f%% %10.4f\n", name,
                  t, res.total_seconds, KernelEvals(res, n, 128, v),
                  static_cast<unsigned long long>(res.candidates),
                  100.0 * RecallOf(res.pairs, truth), mean_err);
    }
  }

  // Section 2: direction construction ablation at t = 0.7.
  PrintHeader("Direction construction: Gaussian-Nystrom vs subset-CLT "
              "(t = 0.7, KLSH+BayesLSH)");
  {
    const auto truth = KernelBruteForceJoin(data, kernel, 0.7);
    std::printf("%-22s %10s %12s %10s %10s\n", "direction", "seconds",
                "candidates", "recall", "mean err");
    PrintRule(70);
    for (const KlshDirection dir :
         {KlshDirection::kGaussianNystrom, KlshDirection::kSubsetClt}) {
      const auto res =
          KernelJoin(data, 0.7, VerifierKind::kBayesLsh, 128, dir);
      double mean_err = 0.0;
      for (const auto& p : res.pairs) {
        mean_err += std::abs(
            p.sim - KernelCosine(kernel, data.Row(p.a), data.Row(p.b)));
      }
      if (!res.pairs.empty()) mean_err /= static_cast<double>(res.pairs.size());
      std::printf("%-22s %10.3f %12llu %9.1f%% %10.4f\n",
                  dir == KlshDirection::kGaussianNystrom ? "gaussian-nystrom"
                                                         : "subset-clt",
                  res.total_seconds,
                  static_cast<unsigned long long>(res.candidates),
                  100.0 * RecallOf(res.pairs, truth), mean_err);
    }
  }

  // Section 3: anchor count sweep.
  PrintHeader("Anchor count p: span quality vs hashing cost "
              "(t = 0.7, KLSH+BayesLSH)");
  {
    const auto truth = KernelBruteForceJoin(data, kernel, 0.7);
    std::printf("%-10s %10s %14s %10s %10s\n", "anchors", "seconds",
                "kernel evals", "recall", "mean err");
    PrintRule(62);
    for (const uint32_t p : {32u, 64u, 128u, 256u}) {
      const auto res = KernelJoin(data, 0.7, VerifierKind::kBayesLsh, p);
      double mean_err = 0.0;
      for (const auto& pr : res.pairs) {
        mean_err += std::abs(
            pr.sim - KernelCosine(kernel, data.Row(pr.a), data.Row(pr.b)));
      }
      if (!res.pairs.empty()) mean_err /= static_cast<double>(res.pairs.size());
      std::printf("%-10u %10.3f %14.2e %9.1f%% %10.4f\n", p,
                  res.total_seconds,
                  KernelEvals(res, data.num_vectors(), p,
                              VerifierKind::kBayesLsh),
                  100.0 * RecallOf(res.pairs, truth), mean_err);
    }
  }

  // Section 4: collection-size scaling. Exact-join kernel evaluations grow
  // as n^2/2, KLSH hashing as n * p — the asymptotic argument for
  // kernelized BayesLSH even where wall-clock at bench scale is dominated
  // by candidate handling.
  PrintHeader("Collection-size scaling: kernel evaluations, exact join vs "
              "KLSH+BayesLSH-Lite (t = 0.7)");
  {
    std::printf("%-10s %14s %14s %10s %12s %12s\n", "vectors", "exact evals",
                "klsh evals", "ratio", "exact secs", "klsh secs");
    PrintRule(80);
    for (const uint32_t c : {10u, 20u, 40u, 80u}) {
      const Dataset d = MakeDescriptorData(c, 40, BenchSeed() + c);
      const uint64_t n = d.num_vectors();
      WallTimer bf;
      const auto truth = KernelBruteForceJoin(d, kernel, 0.7);
      const double bf_secs = bf.Seconds();
      const double exact_evals =
          static_cast<double>(n) * (n - 1) / 2 + static_cast<double>(n);
      const auto res = KernelJoin(d, 0.7, VerifierKind::kBayesLshLite, 128);
      const double klsh_evals =
          KernelEvals(res, n, 128, VerifierKind::kBayesLshLite);
      std::printf("%-10llu %14.2e %14.2e %9.1fx %12.3f %12.3f\n",
                  static_cast<unsigned long long>(n), exact_evals, klsh_evals,
                  exact_evals / klsh_evals, bf_secs, res.total_seconds);
    }
  }
  return 0;
}
