// Sharded candidate verification: the parallel drivers for the BayesLSH /
// BayesLSH-Lite engines of core/bayes_lsh.h.
//
// Strategy (docs/ARCHITECTURE.md, "Concurrency model"):
//
//   1. Prefetch: every row appearing in the candidate list (found by
//      marking one byte per row) is grown to the prefetch horizon (one
//      signature chunk — enough for the first rounds, where the vast
//      majority of candidates die), in parallel over disjoint row ranges.
//   2. Claim blocks: the candidate list is cut into kBlocksPerWorker
//      contiguous blocks per worker, and workers claim blocks in
//      increasing order from an atomic counter until none is left. The
//      expensive (deep-hashed) pairs bunch in parts of the (a, b)-sorted
//      list, so a static one-range-per-worker split leaves workers idle.
//      Each worker owns a private InferenceCache (memoization is
//      per-worker) and a private overflow store for the rare pairs that
//      outlive the horizon, and runs the same per-pair loop as the
//      sequential engine over each block it claims.
//   3. Merge: block outputs are concatenated in block order — which *is*
//      candidate order, since blocks are contiguous ranges of the input —
//      and per-worker stats are summed. Overflow hashing work is folded
//      into the shared store's tally.
//
// Results are bit-identical to the sequential engines for any thread
// count and any claiming order: hash values are pure functions of
// (hasher, row, chunk), each pair's verdict depends only on its own match
// counts, and the merge preserves input order. The only quantities that
// legitimately vary with the thread count are cache hit/miss counters and
// the hashing tally's overflow component (bounded by cross-worker
// duplication of overflow rows).

#ifndef BAYESLSH_CORE_PARALLEL_VERIFY_H_
#define BAYESLSH_CORE_PARALLEL_VERIFY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/bayes_lsh_impl.h"

namespace bayeslsh {

// Below this many candidates per worker, sharding costs more than it saves
// and the sequential engine is used directly.
inline constexpr uint64_t kMinPairsPerShard = 64;

// Candidate blocks per worker of the block-claiming verifier. Smaller
// blocks even out the workers' finishing times; larger ones extend each
// overflow row on fewer workers. On a 4,500-row cosine LSH join at 4
// threads (4-vCPU x86-64), 64 left the slowest worker at ~1.1 s against
// ~1.3 s with 16 and ~1.5 s with 4, for ~2% more overflow hashing.
inline constexpr uint32_t kBlocksPerWorker = 64;

namespace internal {

// Grows every row referenced by `pairs` to `horizon` hashes, sharded over
// row ranges. Returns the total hashing work done (the caller folds it
// into the store's tally).
template <typename Store>
uint64_t PrefetchPairRows(
    Store* store, const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t horizon, ThreadPool* pool) {
  std::vector<uint8_t> referenced(store->num_rows(), 0);
  for (const auto& [a, b] : pairs) {
    referenced[a] = 1;
    referenced[b] = 1;
  }
  return ParallelWorkSum(pool, referenced.size(), [&](uint64_t row) {
    return referenced[row] != 0
               ? store->EnsureRowUncounted(static_cast<uint32_t>(row), horizon)
               : uint64_t{0};
  });
}

// Sums `from` into `into` (surviving_after_round element-wise; `from` may
// be empty for workers that ran no blocks).
inline void MergeVerifyStats(VerifyStats* into, const VerifyStats& from) {
  into->accepted += from.accepted;
  into->pruned += from.pruned;
  into->forced_accepts += from.forced_accepts;
  into->exact_computed += from.exact_computed;
  into->hashes_compared += from.hashes_compared;
  for (size_t r = 0; r < from.surviving_after_round.size(); ++r) {
    if (r >= into->surviving_after_round.size()) {
      into->surviving_after_round.resize(r + 1, 0);
    }
    into->surviving_after_round[r] += from.surviving_after_round[r];
  }
  into->cache.concentration_hits += from.cache.concentration_hits;
  into->cache.concentration_misses += from.cache.concentration_misses;
}

// Shared prefetch/claim/merge scaffolding of the two parallel drivers
// below. `run_range(cache, match, begin, end, &out, &stats)` runs the
// engine-specific per-pair loop over one block; everything else — the
// prefetch, per-worker cache + overflow construction, block claiming and
// the order-preserving merge — is engine-independent.
template <typename Model, typename Store, typename RangeFn>
std::vector<ScoredPair> ShardedVerifyDriver(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t cache_budget, const BayesLshParams& params, ThreadPool* pool,
    VerifyStats* stats, const RangeFn& run_range) {
  assert(params.hashes_per_round > 0 &&
         cache_budget % params.hashes_per_round == 0);
  const uint32_t rounds = cache_budget / params.hashes_per_round;

  // The horizon: one verification round (growth rounds it up to whole
  // chunks).
  store->AddComputed(
      PrefetchPairRows(store, pairs, params.hashes_per_round, pool));

  const uint32_t num_workers = pool->num_threads();
  const auto num_blocks = static_cast<uint32_t>(std::min<uint64_t>(
      pairs.size(), uint64_t{kBlocksPerWorker} * num_workers));
  std::vector<std::vector<ScoredPair>> block_out(num_blocks);
  struct Worker {
    VerifyStats stats;
    uint64_t overflow_work = 0;
  };
  std::vector<Worker> workers(num_workers);
  std::atomic<uint32_t> next_block{0};
  // One unit per worker; a nested call runs as worker 0 claiming every
  // block.
  pool->RunShards(num_workers, [&](uint32_t w, uint64_t, uint64_t) {
    Worker& worker = workers[w];
    worker.stats.surviving_after_round.assign(rounds + 1, 0);
    InferenceCache<Model> cache(&model, params.hashes_per_round,
                                cache_budget, params.epsilon, params.delta,
                                params.gamma);
    typename Store::OverflowShard overflow(store);
    const auto match = [&overflow](uint32_t a, uint32_t b, uint32_t from,
                                   uint32_t to) {
      return overflow.MatchCount(a, b, from, to);
    };
    for (uint32_t block;
         (block = next_block.fetch_add(1, std::memory_order_relaxed)) <
         num_blocks;) {
      run_range(cache, match,
                ThreadPool::ShardBegin(pairs.size(), block, num_blocks),
                ThreadPool::ShardBegin(pairs.size(), block + 1, num_blocks),
                &block_out[block], &worker.stats);
    }
    worker.stats.cache = cache.stats();
    worker.overflow_work = overflow.computed();
  });

  std::vector<ScoredPair> out;
  VerifyStats merged;
  merged.pairs_in = pairs.size();
  merged.surviving_after_round.assign(rounds + 1, 0);
  uint64_t overflow_total = 0;
  for (const std::vector<ScoredPair>& block : block_out) {
    out.insert(out.end(), block.begin(), block.end());
  }
  for (const Worker& worker : workers) {
    MergeVerifyStats(&merged, worker.stats);
    overflow_total += worker.overflow_work;
  }
  store->AddComputed(overflow_total);
  if (stats != nullptr) *stats = merged;
  return out;
}

}  // namespace internal

// BayesLSH (Algorithm 1), sharded across `pool`. Falls back to the
// sequential BayesLshVerify when the pool is null/single-threaded or the
// candidate list is too small to shard profitably. Output is identical to
// the sequential engine (same pairs, same estimates, same order).
template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshVerifyParallel(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const BayesLshParams& params, ThreadPool* pool,
    VerifyStats* stats = nullptr) {
  if (pool == nullptr || pool->num_threads() <= 1 ||
      pairs.size() < kMinPairsPerShard * pool->num_threads()) {
    return BayesLshVerify(model, store, pairs, params, stats);
  }
  return internal::ShardedVerifyDriver(
      model, store, pairs, params.max_hashes, params, pool, stats,
      [&](InferenceCache<Model>& cache, const auto& match, uint64_t begin,
          uint64_t end, std::vector<ScoredPair>* out, VerifyStats* st) {
        internal::BayesVerifyPairRange(model, cache, match, pairs, begin,
                                       end, out, st);
      });
}

// BayesLSH-Lite (Algorithm 2), sharded across `pool`. exact_sim must be
// safe to call concurrently (it only reads the dataset).
template <typename Model, typename Store, typename ExactFn>
std::vector<ScoredPair> BayesLshLiteVerifyParallel(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t max_prune_hashes, const ExactFn& exact_sim, double threshold,
    const BayesLshParams& params, ThreadPool* pool,
    VerifyStats* stats = nullptr) {
  if (pool == nullptr || pool->num_threads() <= 1 ||
      pairs.size() < kMinPairsPerShard * pool->num_threads()) {
    return BayesLshLiteVerify(model, store, pairs, max_prune_hashes,
                              exact_sim, threshold, params, stats);
  }
  return internal::ShardedVerifyDriver(
      model, store, pairs, max_prune_hashes, params, pool, stats,
      [&](InferenceCache<Model>& cache, const auto& match, uint64_t begin,
          uint64_t end, std::vector<ScoredPair>* out, VerifyStats* st) {
        internal::LiteVerifyPairRange(cache, match, exact_sim, threshold,
                                      pairs, begin, end, out, st);
      });
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_PARALLEL_VERIFY_H_
