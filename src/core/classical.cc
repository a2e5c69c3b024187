#include "core/classical.h"

#include <utility>

#include "core/parallel_verify.h"

namespace bayeslsh {

namespace {

// Shared sharding driver: verify(idx, out, stats) appends idx's verdict.
// Shards are contiguous input ranges, so concatenating their outputs in
// shard order reproduces the sequential output exactly.
template <typename VerifyFn>
std::vector<ScoredPair> ShardedVerify(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, ThreadPool* pool,
    ClassicalStats* stats, const VerifyFn& verify) {
  struct Part {
    std::vector<ScoredPair> out;
    ClassicalStats stats;
  };
  const bool shard = pool != nullptr &&
                     pairs.size() >= kMinPairsPerShard * pool->num_threads();
  Part all = ParallelReduce(
      shard ? pool : nullptr, pairs.size(), Part{},
      [&](uint32_t, uint64_t begin, uint64_t end) {
        Part part;
        for (uint64_t i = begin; i < end; ++i) verify(i, &part.out, &part.stats);
        return part;
      },
      [](Part acc, Part part) {
        acc.out.insert(acc.out.end(), part.out.begin(), part.out.end());
        acc.stats.accepted += part.stats.accepted;
        acc.stats.hashes_compared += part.stats.hashes_compared;
        return acc;
      });
  all.stats.pairs_in = pairs.size();
  if (stats != nullptr) *stats = all.stats;
  return std::move(all.out);
}

}  // namespace

std::vector<ScoredPair> ExactVerify(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, double threshold,
    const std::function<double(uint32_t, uint32_t)>& exact_sim,
    ClassicalStats* stats, ThreadPool* pool) {
  return ShardedVerify(
      pairs, pool, stats,
      [&](size_t i, std::vector<ScoredPair>* out, ClassicalStats* st) {
        const auto& [a, b] = pairs[i];
        const double s = exact_sim(a, b);
        if (s >= threshold) {
          out->push_back({a, b, s});
          ++st->accepted;
        }
      });
}

template <typename Store>
std::vector<ScoredPair> MleVerify(
    Store* store, const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    double threshold, uint32_t num_hashes, double (*estimate)(double),
    ClassicalStats* stats, ThreadPool* pool) {
  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        pairs.size() >= kMinPairsPerShard * pool->num_threads();
  if (parallel) {
    // Fixed verification depth: prefetching involved rows to num_hashes is
    // exactly what the sequential lazy path hashes, so the tally matches.
    internal::PrefetchRows(store, internal::PairRows(pairs, store->num_rows()),
                           num_hashes, pool);
  }
  return ShardedVerify(
      pairs, parallel ? pool : nullptr, stats,
      [&, parallel](size_t i, std::vector<ScoredPair>* out,
                    ClassicalStats* st) {
        const auto& [a, b] = pairs[i];
        const uint32_t m =
            parallel ? store->MatchCountReadOnly(a, b, 0, num_hashes)
                     : store->MatchCount(a, b, 0, num_hashes);
        st->hashes_compared += num_hashes;
        const double est = estimate(static_cast<double>(m) / num_hashes);
        if (est >= threshold) {
          out->push_back({a, b, est});
          ++st->accepted;
        }
      });
}

template std::vector<ScoredPair> MleVerify(
    BitSignatureStore*, const std::vector<std::pair<uint32_t, uint32_t>>&,
    double, uint32_t, double (*)(double), ClassicalStats*, ThreadPool*);
template std::vector<ScoredPair> MleVerify(
    IntSignatureStore*, const std::vector<std::pair<uint32_t, uint32_t>>&,
    double, uint32_t, double (*)(double), ClassicalStats*, ThreadPool*);

}  // namespace bayeslsh
