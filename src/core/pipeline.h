// End-to-end all-pairs similarity search pipelines: candidate generation ×
// verification, covering every algorithm the paper benchmarks.
//
//   generator \ verifier |  kExact   |  kMle       |  kBayesLsh     | kBayesLshLite
//   ---------------------+-----------+-------------+----------------+---------------
//   kAllPairs            |  AllPairs*|     —       | AP+BayesLSH    | AP+BayesLSH-Lite
//   kLsh                 |  LSH      | LSH Approx  | LSH+BayesLSH   | LSH+BayesLSH-Lite
//
//   * kAllPairs × kExact runs the native AllPairs join (its internal
//     verification with upper-bound pruning), not generate-then-verify —
//     matching how the baseline is deployed in the paper.
//
// PPJoin+ does not fit the generate/verify split (it is exact and
// prefix-organized); benchmarks call PpjoinJoin directly.
//
// Measure handling: kCosine expects L2-normalized real-valued rows;
// kJaccard and kBinaryCosine expect binary rows (values ignored). For
// kBinaryCosine the pipeline internally builds the 1/sqrt(len)-normalized
// view where AllPairs and SRP need weighted vectors. The serving-stack
// measures run through the same hash families as QuerySearcher
// (core/measure_table.h), with the LSH generator only — the AllPairs
// generator covers the paper's three measures:
//
//   * kWeightedJaccard: ICWS bands and signatures, the Jaccard posterior
//     with a prior fitted on weighted-Jaccard samples.
//   * kKernelCosine: KLSH bands and signatures against `kernel`, the cosine
//     posterior; exact scores are kernel cosines.
//   * kEuclidean: `threshold` is a radius and ScoredPair::sim holds the
//     negated distance (sim/similarity.h). p-stable bands and signatures
//     prune; survivors are always verified exactly, so kBayesLsh runs as
//     kBayesLshLite and kMle is refused.
//
// An unsupported combination or a threshold outside the measure's domain
// (a similarity in (0, 1], a radius > 0) throws std::invalid_argument.

#ifndef BAYESLSH_CORE_PIPELINE_H_
#define BAYESLSH_CORE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "candgen/lsh_banding.h"
#include "common/thread_pool.h"
#include "core/bayes_lsh.h"
#include "core/measure_table.h"
#include "kernel/kernels.h"
#include "kernel/klsh.h"
#include "lsh/gaussian_source.h"
#include "sim/brute_force.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

enum class GeneratorKind { kAllPairs, kLsh };
enum class VerifierKind { kExact, kMle, kBayesLsh, kBayesLshLite };

struct PipelineConfig {
  Measure measure = Measure::kCosine;
  GeneratorKind generator = GeneratorKind::kAllPairs;
  VerifierKind verifier = VerifierKind::kBayesLsh;
  double threshold = 0.7;

  // ε / δ / γ and the per-round hash count for the BayesLSH verifiers.
  // bayes.hashes_per_round / bayes.max_hashes of 0 select the per-measure
  // defaults of core/measure_table.h (32 / 4096 for cosine-like bits,
  // 16 / 512 for minwise and ICWS ints, 32 / 512 for p-stable ints).
  BayesLshParams bayes = {.hashes_per_round = 0, .max_hashes = 0};

  // BayesLSH-Lite hash budget h; 0 selects the paper defaults
  // (128 cosine-like and Euclidean / 64 Jaccard-like).
  uint32_t lite_max_hashes = 0;

  // Fixed hash count for kMle ("LSH Approx"); 0 selects the paper defaults
  // (2048 cosine-like / 360 Jaccard-like).
  uint32_t mle_hashes = 0;

  // Candidate generation (kLsh generator).
  LshBandingParams banding;

  // Jaccard and weighted-Jaccard prior: fit Beta by method-of-moments on
  // the exact similarities of this many randomly sampled candidates
  // (0 = uniform prior).
  uint32_t prior_sample_size = 300;

  // Master seed; candidate-generation and verification hashes use
  // independent streams derived from it (see DESIGN.md §6).
  uint64_t seed = 42;

  // kKernelCosine only: the kernel the measure is defined against and the
  // KLSH hash-family shape, as in QuerySearchConfig. klsh.seed is ignored;
  // the anchors are sampled from the data with the master seed, exactly as
  // an index build samples them.
  KernelSpec kernel;
  KlshParams klsh;

  // Worker threads for candidate generation and verification. 0 = all
  // hardware threads, 1 (the default) = the paper's single-threaded
  // execution. Results are pair-for-pair identical for every value — see
  // docs/ARCHITECTURE.md, "Concurrency model". The only quantities that
  // may vary with the thread count are instrumentation: hashing-overhead
  // tallies (bounded prefetch-horizon slack), cache hit/miss counters,
  // and generator-side skip counters (PrefixJoinStats::size_skipped).
  uint32_t num_threads = 1;

  // Optional shared Gaussian providers (SRP and p-stable projections)
  // keyed by derived seed, letting a benchmark reuse quantized tables
  // across pipeline runs. May be null.
  GaussianSourceCache* gaussian_cache = nullptr;
};

struct PipelineResult {
  std::string algorithm;  // e.g. "LSH+BayesLSH".
  std::vector<ScoredPair> pairs;

  uint64_t candidates = 0;      // After dedup.
  uint64_t raw_candidates = 0;  // Before dedup (LSH multiplicity).

  double generate_seconds = 0.0;  // Candidate generation (incl. hashing).
  double verify_seconds = 0.0;    // Verification (incl. lazy hashing).
  double total_seconds = 0.0;

  uint64_t gen_hashes_computed = 0;     // Banding signature hashes.
  uint64_t verify_hashes_computed = 0;  // Verification signature hashes.

  uint32_t threads_used = 1;  // Resolved num_threads for this run.

  VerifyStats vstats;  // Populated by the BayesLSH verifiers.
};

// Human-readable algorithm name matching the paper's labels (of the
// verifier actually run: BayesLSH-Lite for kEuclidean's kBayesLsh).
std::string AlgorithmName(const PipelineConfig& config);

// Runs one full pipeline on `data` (prepared per the measure conventions
// above). Throws std::invalid_argument on an invalid config.
PipelineResult RunPipeline(const Dataset& data, const PipelineConfig& config);

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_PIPELINE_H_
