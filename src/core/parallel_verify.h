// Sharded verification: ShardRounds, the one function that runs the rounds
// of core/bayes_lsh_impl.h over a pool, for the parallel join engines
// below and for QuerySearcher's within-query sharding (docs/ARCHITECTURE.md,
// "Verification by claimed blocks"):
//
//   1. Prefetch: under the store's growth lock, held to the end, the rows
//      the candidates reference are grown to one round (rounded up to
//      whole chunks), where most candidates die. A frozen store skips it.
//   2. Claim blocks: the candidates are cut into the caller's count of
//      contiguous blocks, which the workers claim in increasing order
//      from an atomic counter. Each worker owns one inference cache and
//      one overflow shard for the rows that outlive the prefetch.
//   3. Merge: block outputs concatenate in block order, which is candidate
//      order, and stats are summed; overflow work joins the store's tally
//      and overflow rows are merged back into the store.
//
// Results are bit-identical to the serial loop for any thread count and
// any claiming order: hash values are pure functions of (hasher, row,
// chunk) and each candidate's verdict depends only on its own match
// counts. Only the cache hit/miss counters and the tally's overflow
// component (cross-worker duplication of overflow rows) vary.

#ifndef BAYESLSH_CORE_PARALLEL_VERIFY_H_
#define BAYESLSH_CORE_PARALLEL_VERIFY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/bayes_lsh_impl.h"

namespace bayeslsh {

// Below this many candidates per worker, sharding costs more than it saves
// and the sequential engine is used directly.
inline constexpr uint64_t kMinPairsPerShard = 64;

// Candidate blocks per worker of a sharded join. Smaller blocks even out
// the workers' finishing times; larger ones extend each overflow row on
// fewer workers. On a 4,500-row cosine LSH join at 4 threads (4-vCPU
// x86-64), 64 left the slowest worker at ~1.1 s against ~1.3 s with 16
// and ~1.5 s with 4, for ~2% more overflow hashing.
inline constexpr uint32_t kBlocksPerWorker = 64;

namespace internal {

// The rows `pairs` reference, ascending (one mark per row).
inline std::vector<uint32_t> PairRows(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t num_rows) {
  std::vector<uint8_t> referenced(num_rows, 0);
  for (const auto& [a, b] : pairs) referenced[a] = referenced[b] = 1;
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < num_rows; ++row) {
    if (referenced[row] != 0) rows.push_back(row);
  }
  return rows;
}

// Grows `rows` to n hashes, sharded over `pool`, and merges the work into
// the store's tally once.
template <typename Store>
void PrefetchRows(Store* store, std::span<const uint32_t> rows, uint32_t n,
                  ThreadPool* pool) {
  store->AddComputed(ParallelWorkSum(pool, rows.size(), [&](uint64_t i) {
    return store->EnsureRowUncounted(rows[i], n);
  }));
}

// Sums `from` into `into` (surviving_after_round element-wise; `from`'s
// curve is `into`'s size, or empty for a worker that never ran).
inline void MergeVerifyStats(VerifyStats* into, const VerifyStats& from) {
  into->accepted += from.accepted;
  into->pruned += from.pruned;
  into->forced_accepts += from.forced_accepts;
  into->exact_computed += from.exact_computed;
  into->hashes_compared += from.hashes_compared;
  for (size_t r = 0; r < from.surviving_after_round.size(); ++r) {
    into->surviving_after_round[r] += from.surviving_after_round[r];
  }
  into->cache.concentration_hits += from.cache.concentration_hits;
  into->cache.concentration_misses += from.cache.concentration_misses;
}

// Verifies `count` candidates, whose rows are `rows`, in
// `num_blocks` contiguous blocks claimed by `pool`'s workers (steps 1–3
// above). cache_for(w) returns worker w's inference cache; run_block(cache,
// overflow, begin, end, &out, &stats) runs the verification rounds over
// candidates [begin, end) with matches through the worker's overflow
// shard. *stats arrives with pairs_in set and the curve sized as the
// caller wants it; the workers' counters are summed into it.
template <typename Out, typename Store, typename CacheFor, typename RunBlock>
std::vector<Out> ShardRounds(Store* store, std::span<const uint32_t> rows,
                             uint32_t horizon, uint64_t count,
                             uint32_t num_blocks, ThreadPool* pool,
                             const CacheFor& cache_for,
                             const RunBlock& run_block, VerifyStats* stats) {
  const auto growth_lock = store->GrowthLock();
  if (!store->frozen()) PrefetchRows(store, rows, horizon, pool);

  struct Worker {
    VerifyStats stats;
    std::optional<typename Store::OverflowShard> overflow;
  };
  std::vector<Worker> workers(pool->num_threads());
  std::vector<std::vector<Out>> block_out(num_blocks);
  const size_t curve = stats->surviving_after_round.size();
  std::atomic<uint32_t> next_block{0};
  // One unit per worker; a nested call runs as worker 0 claiming every
  // block.
  pool->RunShards(workers.size(), [&](uint32_t w, uint64_t, uint64_t) {
    Worker& worker = workers[w];
    worker.stats.surviving_after_round.assign(curve, 0);
    auto& cache = cache_for(w);
    auto& overflow = worker.overflow.emplace(store);
    for (uint32_t block;
         (block = next_block.fetch_add(1, std::memory_order_relaxed)) <
         num_blocks;) {
      run_block(cache, overflow,
                ThreadPool::ShardBegin(count, block, num_blocks),
                ThreadPool::ShardBegin(count, block + 1, num_blocks),
                &block_out[block], &worker.stats);
    }
  });

  std::vector<Out> out;
  for (const std::vector<Out>& block : block_out) {
    out.insert(out.end(), block.begin(), block.end());
  }
  uint64_t overflow_work = 0;
  for (Worker& worker : workers) {
    MergeVerifyStats(stats, worker.stats);
    if (!worker.overflow.has_value()) continue;
    overflow_work += worker.overflow->computed();
    worker.overflow->MergeInto(store);
  }
  store->AddComputed(overflow_work);
  return out;
}

// Both parallel join engines: the serial join when the pool is
// single-threaded or the list too small to shard profitably, else
// ShardRounds over kBlocksPerWorker blocks per worker, each with its cache.
template <typename Model, typename Store>
std::vector<ScoredPair> VerifyJoinParallel(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, uint32_t budget,
    const std::function<double(uint32_t, uint32_t)>* exact_sim,
    double threshold, const BayesLshParams& params, ThreadPool* pool,
    VerifyStats* stats) {
  const uint32_t workers = pool == nullptr ? 1 : pool->num_threads();
  if (workers <= 1 || pairs.size() < kMinPairsPerShard * workers) {
    return VerifyJoin(model, store, pairs, budget, exact_sim, threshold,
                      params, stats);
  }
  VerifyStats local = JoinStats(pairs.size(), budget, params);
  std::vector<std::optional<InferenceCache<Model>>> caches(workers);
  std::vector<ScoredPair> out = ShardRounds<ScoredPair>(
      store, PairRows(pairs, store->num_rows()), params.hashes_per_round,
      pairs.size(),
      static_cast<uint32_t>(std::min<uint64_t>(
          pairs.size(), uint64_t{kBlocksPerWorker} * workers)),
      pool,
      [&](uint32_t w) -> InferenceCache<Model>& {
        return caches[w].emplace(&model, params.hashes_per_round, budget,
                                 params.epsilon, params.delta, params.gamma);
      },
      [&](InferenceCache<Model>& cache, auto& overflow, uint64_t begin,
          uint64_t end, std::vector<ScoredPair>* block_out, VerifyStats* st) {
        JoinRounds(model, cache, &overflow, pairs, begin, end, exact_sim,
                   threshold, block_out, st);
      },
      &local);
  if (stats != nullptr) *stats = local;
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
  return internal::VerifyJoinParallel(model, store, pairs, params.max_hashes,
                                      nullptr, 0.0, params, pool, stats);
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
  const std::function<double(uint32_t, uint32_t)> exact(exact_sim);
  return internal::VerifyJoinParallel(model, store, pairs, max_prune_hashes,
                                      &exact, threshold, params, pool, stats);
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_PARALLEL_VERIFY_H_
