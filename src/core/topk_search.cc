#include "core/topk_search.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "sim/similarity.h"

namespace bayeslsh {

std::vector<ScoredPair> TopKAllPairs(const Dataset& data,
                                     const TopKConfig& config,
                                     TopKStats* stats) {
  // Written so that NaN fails each test. A decay of 1 would never lower
  // the threshold, and a floor of 0 would never stop the descent.
  if (config.k == 0) {
    throw std::invalid_argument("TopKConfig: k must be at least 1");
  }
  if (!(config.floor_threshold > 0.0 && config.floor_threshold < 1.0)) {
    throw std::invalid_argument(
        "TopKConfig: floor_threshold must be in (0, 1)");
  }
  if (!(config.start_threshold >= config.floor_threshold)) {
    throw std::invalid_argument(
        "TopKConfig: start_threshold must be >= floor_threshold");
  }
  if (!(config.decay > 0.0 && config.decay < 1.0)) {
    throw std::invalid_argument("TopKConfig: decay must be in (0, 1)");
  }
  if (config.measure == Measure::kKernelCosine ||
      config.measure == Measure::kEuclidean) {
    throw std::invalid_argument(
        "TopKConfig: top-k descends a similarity threshold and rescores "
        "with ExactSimilarity, so it serves neither a Euclidean radius nor "
        "the kernel cosine");
  }

  WallTimer timer;
  TopKStats local;

  PipelineConfig run;
  run.measure = config.measure;
  run.generator = config.generator;
  // Estimation-mode verification: the descent only needs "enough pairs",
  // and the survivors get exact similarities below anyway.
  run.verifier = VerifierKind::kBayesLsh;
  run.bayes = config.bayes;
  run.banding = config.banding;
  run.seed = config.seed;
  run.num_threads = config.num_threads;

  std::vector<ScoredPair> survivors;
  double t = config.start_threshold;
  while (true) {
    run.threshold = t;
    PipelineResult result = RunPipeline(data, run);
    ++local.iterations;
    local.final_threshold = t;
    local.candidates = result.candidates;
    survivors = std::move(result.pairs);
    if (survivors.size() >= config.k || t <= config.floor_threshold) break;
    t = std::max(config.floor_threshold, t * config.decay);
  }

  // Exact similarities for the survivors; the estimate-based pipeline
  // output may include pairs below the floor (δ slack) — drop those.
  // Sharded across a pool when configured (per-survivor work is
  // independent; the sort below canonicalizes the order).
  const uint32_t num_threads = ResolveNumThreads(config.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1 && survivors.size() >= 2 * num_threads) {
    pool = std::make_unique<ThreadPool>(num_threads);
  }
  std::vector<ScoredPair> rescored(survivors.size());
  ParallelFor(pool.get(), 0, survivors.size(), [&](uint64_t i) {
    const ScoredPair& p = survivors[i];
    rescored[i] = {p.a, p.b, ExactSimilarity(data, p.a, p.b, config.measure)};
  });
  std::vector<ScoredPair> exact;
  exact.reserve(survivors.size());
  for (const ScoredPair& p : rescored) {
    if (p.sim >= config.floor_threshold) exact.push_back(p);
  }
  std::sort(exact.begin(), exact.end(),
            [](const ScoredPair& x, const ScoredPair& y) {
              if (x.sim != y.sim) return x.sim > y.sim;
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  if (exact.size() > config.k) exact.resize(config.k);

  local.total_seconds = timer.Seconds();
  if (stats != nullptr) *stats = local;
  return exact;
}

}  // namespace bayeslsh
