// Extension bench: weighted Jaccard all-pairs search via ICWS minwise
// hashing + BayesLSH.
//
// The paper's Jaccard experiments binarize the data (§5: "For Jaccard and
// Binary Cosine, we only report results on ..." the binary versions) — as
// did the systems it compares against (PPJoin+ only accepts sets). ICWS
// (lsh/icws_hasher.h) removes the restriction: collisions happen with
// probability exactly the generalized Jaccard J_w, so the same conjugate
// Beta machinery runs on tf-idf weights directly.
//
// Sections:
//   1. Quality motivation: how badly does binarizing distort the weighted
//      Jaccard? (Fraction of binary-Jaccard "true pairs" that are not
//      weighted-Jaccard true pairs, and vice versa.)
//   2. Pipelines vs threshold: exact weighted join (inverted index),
//      ICWS banding + exact verification, ICWS + BayesLSH,
//      ICWS + BayesLSH-Lite — time / candidates / recall / accuracy.

#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/pipeline.h"

using namespace bayeslsh;
using namespace bayeslsh::bench;

namespace {

// Exact weighted-Jaccard join via an inverted index over co-occurring
// pairs (J_w = 0 for disjoint supports, so exactness mirrors
// InvertedIndexJoin's argument).
std::vector<ScoredPair> ExactWeightedJoin(const Dataset& data, double t) {
  std::vector<std::vector<uint32_t>> postings(data.num_dims());
  for (uint32_t row = 0; row < data.num_vectors(); ++row) {
    for (const DimId d : data.Row(row).indices) postings[d].push_back(row);
  }
  std::vector<uint64_t> keys;
  for (const auto& plist : postings) {
    for (size_t i = 0; i < plist.size(); ++i) {
      for (size_t j = i + 1; j < plist.size(); ++j) {
        keys.push_back(PairKey(plist[i], plist[j]));
      }
    }
  }
  const CandidateList cands = DedupPairKeys(std::move(keys), nullptr);
  std::vector<ScoredPair> out;
  for (const auto& [a, b] : cands.pairs) {
    const double s = WeightedJaccardSimilarity(data.Row(a), data.Row(b));
    if (s >= t) out.push_back({a, b, s});
  }
  return out;
}

}  // namespace

int main() {
  BenchDataset ds = PrepareDataset(PaperDataset::kRcv1, Measure::kCosine);
  // Tf-idf weighted rows, un-normalized scale: reuse the cosine view's
  // weights (weighted Jaccard is scale sensitive, which is the point).
  const Dataset& data = ds.data;

  PrintHeader("Extension: weighted Jaccard via ICWS (" + ds.name +
              ", tf-idf weights, " + std::to_string(data.num_vectors()) +
              " vectors)");

  // Section 1: binarization distortion.
  {
    const double t = 0.4;
    const auto weighted = ExactWeightedJoin(data, t);
    const auto binary = InvertedIndexJoin(data, t, Measure::kJaccard);
    std::set<std::pair<uint32_t, uint32_t>> wset, bset;
    for (const auto& p : weighted) wset.insert({p.a, p.b});
    for (const auto& p : binary) bset.insert({p.a, p.b});
    uint64_t both = 0;
    for (const auto& k : wset) both += bset.count(k);
    std::printf(
        "threshold %.1f: %zu weighted-Jaccard pairs, %zu binary-Jaccard "
        "pairs, %llu common\n"
        "-> binarizing misses %.1f%% of weighted pairs and adds %.1f%% "
        "spurious ones\n",
        t, weighted.size(), binary.size(),
        static_cast<unsigned long long>(both),
        weighted.empty()
            ? 0.0
            : 100.0 * (weighted.size() - both) / weighted.size(),
        binary.empty() ? 0.0
                       : 100.0 * (binary.size() - both) / binary.size());
  }

  // Section 2: pipelines vs threshold. Ground truth computed once at the
  // lowest threshold and filtered; each verifier runs its own pipeline
  // (same seed, hence the same candidates), its "seconds" including
  // candidate generation.
  WallTimer exact_timer;
  const auto truth_all = ExactWeightedJoin(data, 0.3);
  const double exact_secs = exact_timer.Seconds();

  std::printf("\n%-22s %6s %10s %12s %10s %10s\n", "algorithm", "t",
              "seconds", "candidates", "recall", "mean err");
  PrintRule(76);
  for (const double t : {0.3, 0.4, 0.5, 0.6}) {
    std::vector<ScoredPair> truth;
    for (const auto& p : truth_all) {
      if (p.sim >= t) truth.push_back(p);
    }
    std::printf("%-22s %6.1f %10.3f %12s %9.1f%% %10s\n",
                "exact weighted join", t, exact_secs, "-", 100.0, "-");

    for (const VerifierKind v :
         {VerifierKind::kExact, VerifierKind::kBayesLsh,
          VerifierKind::kBayesLshLite}) {
      PipelineConfig cfg;
      cfg.measure = Measure::kWeightedJaccard;
      cfg.generator = GeneratorKind::kLsh;
      cfg.verifier = v;
      cfg.threshold = t;
      cfg.bayes.hashes_per_round = 16;
      cfg.bayes.max_hashes = 2048;
      cfg.lite_max_hashes = 64;
      cfg.seed = BenchSeed();
      const PipelineResult res = RunPipeline(data, cfg);
      double mean_err = 0.0;
      if (v == VerifierKind::kBayesLsh && !res.pairs.empty()) {
        for (const auto& p : res.pairs) {
          mean_err += std::abs(p.sim - WeightedJaccardSimilarity(
                                           data.Row(p.a), data.Row(p.b)));
        }
        mean_err /= static_cast<double>(res.pairs.size());
      }
      const char* name = v == VerifierKind::kExact      ? "ICWS+exact"
                         : v == VerifierKind::kBayesLsh ? "ICWS+BayesLSH"
                                                        : "ICWS+BayesLSH-Lite";
      std::printf("%-22s %6.1f %10.3f %12llu %9.1f%% %10.4f\n", name, t,
                  res.total_seconds,
                  static_cast<unsigned long long>(res.candidates),
                  100.0 * Recall(res.pairs, truth), mean_err);
    }
  }
  return 0;
}
