#include "core/pipeline.h"

#include <cassert>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "candgen/allpairs.h"
#include "candgen/candidates.h"
#include "candgen/prefix_filter_join.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/classical.h"
#include "core/parallel_verify.h"
#include "euclidean/distance_posterior.h"
#include "stats/beta_distribution.h"
#include "vec/transforms.h"

namespace bayeslsh {

namespace {

// The verifier actually run: a distance measure has no hash-only estimate,
// so BayesLSH verification runs as BayesLSH-Lite — as QuerySearcher forces
// exact verification for it.
VerifierKind EffectiveVerifier(const PipelineConfig& c) {
  return TraitsOf(c.measure).distance &&
                 c.verifier == VerifierKind::kBayesLsh
             ? VerifierKind::kBayesLshLite
             : c.verifier;
}

// Throws std::invalid_argument for a generator or verifier the measure
// does not support.
void CheckSupported(const PipelineConfig& c) {
  const MeasureTraits& traits = TraitsOf(c.measure);
  if (c.generator == GeneratorKind::kAllPairs && !traits.allpairs_generator) {
    throw std::invalid_argument(
        "PipelineConfig: the AllPairs generator covers cosine, jaccard and "
        "binary-cosine; " + MeasureName(c.measure) +
        " needs the LSH generator");
  }
  if (c.verifier == VerifierKind::kMle && traits.mle_hashes == 0) {
    throw std::invalid_argument(
        "PipelineConfig: " + MeasureName(c.measure) +
        " has no MLE estimate; it verifies exactly (BayesLSH-Lite or "
        "exact)");
  }
}

// Fits the Jaccard Beta prior from a uniform sample of candidate pairs,
// as recommended in paper §4.1, on the measure's own similarities (plain
// or weighted Jaccard).
//
// One robustness addition over the paper: the fitted prior's strength
// (alpha + beta, the "equivalent pseudo-hash count") is capped. Candidate
// sets dominated by near-zero similarities — AllPairs feeds routinely are —
// produce method-of-moments fits with alpha + beta in the hundreds, a prior
// so opinionated that no realistic number of hash matches can rescue a true
// pair from pruning (recall collapses). Capping preserves the fitted mean
// while keeping the paper's "the data swamps the prior" premise
// (see Appendix A of the paper) actually true.
constexpr double kMaxPriorStrength = 5.0;

BetaDistribution FitJaccardPrior(const PairScorer& exact,
                                 const CandidateList& candidates,
                                 uint32_t sample_size, uint64_t seed) {
  if (sample_size == 0 || candidates.pairs.empty()) {
    return BetaDistribution(1.0, 1.0);
  }
  Xoshiro256StarStar rng(Mix64(seed, 0xBE7A0F17ULL));
  std::vector<double> sims;
  sims.reserve(sample_size);
  const uint64_t total = candidates.pairs.size();
  for (uint32_t i = 0; i < sample_size; ++i) {
    const auto& [a, b] = candidates.pairs[rng.NextBounded(total)];
    sims.push_back(exact(a, b));
  }
  const BetaDistribution fit = BetaDistribution::FitMethodOfMoments(sims);
  const double strength = fit.alpha() + fit.beta();
  if (strength <= kMaxPriorStrength) return fit;
  const double scale = kMaxPriorStrength / strength;
  return BetaDistribution(fit.alpha() * scale, fit.beta() * scale);
}

}  // namespace

std::string AlgorithmName(const PipelineConfig& config) {
  const VerifierKind verifier = EffectiveVerifier(config);
  if (config.generator == GeneratorKind::kAllPairs &&
      verifier == VerifierKind::kExact) {
    return "AllPairs";
  }
  const std::string gen =
      config.generator == GeneratorKind::kAllPairs ? "AP" : "LSH";
  switch (verifier) {
    case VerifierKind::kExact:
      return "LSH";  // Exact-verification LSH: the paper's plain "LSH".
    case VerifierKind::kMle:
      return gen == "LSH" ? "LSH Approx" : "AP+MLE";
    case VerifierKind::kBayesLsh:
      return gen + "+BayesLSH";
    case VerifierKind::kBayesLshLite:
      return gen + "+BayesLSH-Lite";
  }
  return "unknown";
}

PipelineResult RunPipeline(const Dataset& data, const PipelineConfig& config) {
  PipelineResult result;
  result.algorithm = AlgorithmName(config);
  WallTimer total_timer;

  // Validates the threshold domain and the kernel; KLSH samples its
  // anchors from `data` here.
  const MeasureFamily family(
      {.measure = config.measure,
       .threshold = config.threshold,
       .seed = config.seed,
       .bbit = 0,
       .kernel = config.kernel,
       .klsh = config.klsh,
       .klsh_anchors = nullptr},
      &data, "PipelineConfig", config.gaussian_cache);
  CheckSupported(config);
  const MeasureTraits& traits = family.traits();
  const VerifierKind verifier = EffectiveVerifier(config);

  // Shared worker pool for both phases (null = sequential paper-faithful
  // execution). Results are identical either way; see the config comment.
  const uint32_t num_threads = ResolveNumThreads(config.num_threads);
  result.threads_used = num_threads;
  std::unique_ptr<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  if (num_threads > 1) {
    pool_storage = std::make_unique<ThreadPool>(num_threads);
    pool = pool_storage.get();
  }

  const Measure measure = config.measure;
  const double t = config.threshold;
  const BayesLshParams bayes = ResolveBayesParams(measure, config.bayes);
  const uint32_t lite_h = config.lite_max_hashes != 0
                              ? config.lite_max_hashes
                              : traits.lite_hashes;

  // For binary cosine, AllPairs and SRP operate on the weighted view.
  // (SRP signs are scale-invariant, so hashing the plain binary rows would
  // be equivalent; using one view keeps the code paths uniform.)
  const bool needs_weighted_view = measure == Measure::kBinaryCosine;
  Dataset weighted_view;
  const Dataset* cosine_data = &data;
  if (needs_weighted_view) {
    weighted_view = BinarizeNormalized(data);
    cosine_data = &weighted_view;
  }

  // --- Special case: native exact AllPairs join. ---
  if (config.generator == GeneratorKind::kAllPairs &&
      verifier == VerifierKind::kExact) {
    WallTimer timer;
    if (traits.bit_signatures) {
      result.pairs = AllPairsJoin(*cosine_data, t, nullptr, pool);
    } else {
      result.pairs = PrefixFilterJoin(data, t, Measure::kJaccard, nullptr,
                                      pool);
    }
    result.generate_seconds = timer.Seconds();
    result.total_seconds = total_timer.Seconds();
    return result;
  }

  // --- Phase 1: candidate generation. ---
  CandidateList candidates;
  WallTimer gen_timer;
  if (config.generator == GeneratorKind::kAllPairs) {
    if (traits.bit_signatures) {
      candidates = AllPairsCandidates(*cosine_data, t, nullptr, pool);
    } else {
      candidates = PrefixFilterCandidates(data, t, Measure::kJaccard,
                                          nullptr, pool);
    }
  } else {
    // The measure's banding shape (throws on one no index could hold).
    const BandingShape shape = ResolveBandingShape(measure, t, config.banding);
    const HashStream gen = family.Generation();
    if (gen.bits != nullptr) {
      BitSignatureStore store(cosine_data, gen.bits);
      candidates = LshCandidates(&store, shape, pool);
      result.gen_hashes_computed = store.computed();
    } else {
      IntSignatureStore store(&data, gen.ints);
      candidates = LshCandidates(&store, shape, pool);
      result.gen_hashes_computed = store.computed();
    }
  }
  result.generate_seconds = gen_timer.Seconds();
  result.candidates = candidates.size();
  result.raw_candidates = candidates.raw_emitted;

  // --- Phase 2: verification. ---
  WallTimer verify_timer;

  // Exact scores serve exact verification, the Lite survivors and the
  // Jaccard prior fit. The scorer is built only for those runs: the kernel
  // cosine evaluates every row's self-kernel up front.
  std::optional<PairScorer> scorer;
  if (verifier == VerifierKind::kExact ||
      verifier == VerifierKind::kBayesLshLite ||
      (verifier == VerifierKind::kBayesLsh && !traits.bit_signatures)) {
    scorer.emplace(family.Scorer(data, pool));
  }
  auto exact = [&scorer](uint32_t a, uint32_t b) { return (*scorer)(a, b); };

  if (verifier == VerifierKind::kExact) {
    result.pairs = ExactVerify(candidates.pairs, family.score_threshold(),
                               exact, nullptr, pool);
  } else {
    const uint32_t mle_n =
        config.mle_hashes != 0 ? config.mle_hashes : traits.mle_hashes;
    // Runs the MLE, BayesLSH or BayesLSH-Lite verifier with `model` over
    // `store` (exact verification hashes nothing and never gets here).
    const auto verify = [&](const auto& model, auto* store) {
      switch (verifier) {
        case VerifierKind::kMle:
          return MleVerify(
              store, candidates.pairs, t, mle_n,
              traits.bit_signatures ? SrpRToCosine : MinwiseRToJaccard,
              nullptr, pool);
        case VerifierKind::kBayesLsh:
          return BayesLshVerifyParallel(model, store, candidates.pairs,
                                        bayes, pool, &result.vstats);
        default:
          return BayesLshLiteVerifyParallel(
              model, store, candidates.pairs,
              lite_h - lite_h % bayes.hashes_per_round, exact,
              family.score_threshold(), bayes, pool, &result.vstats);
      }
    };
    const HashStream ver = family.Verification();
    if (ver.bits != nullptr) {
      BitSignatureStore store(cosine_data, ver.bits);
      result.pairs = verify(CosinePosterior(t), &store);
      result.verify_hashes_computed = store.computed();
    } else {
      IntSignatureStore store(&data, ver.ints);
      if (traits.distance) {
        result.pairs = verify(
            EuclideanPosterior::MakeForRadius(t, family.pstable_width()),
            &store);
      } else {
        // Plain and weighted Jaccard: the prior is fitted on the measure's
        // own similarities (MLE needs no prior).
        const JaccardPosterior model(
            t, verifier == VerifierKind::kMle
                   ? BetaDistribution(1.0, 1.0)
                   : FitJaccardPrior(*scorer, candidates,
                                     config.prior_sample_size, config.seed));
        result.pairs = verify(model, &store);
      }
      result.verify_hashes_computed = store.computed();
    }
  }
  result.verify_seconds = verify_timer.Seconds();

  SortByIds(&result.pairs);
  result.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace bayeslsh
