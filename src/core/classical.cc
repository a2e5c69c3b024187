#include "core/classical.h"

#include <algorithm>

#include "core/parallel_verify.h"
#include "lsh/srp_hasher.h"

namespace bayeslsh {

namespace {

// Shared sharding driver: verify(idx, out, stats) appends idx's verdict.
// Shards are contiguous input ranges, so concatenating their outputs in
// shard order reproduces the sequential output exactly.
template <typename VerifyFn>
std::vector<ScoredPair> ShardedVerify(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, ThreadPool* pool,
    ClassicalStats* stats, const VerifyFn& verify) {
  ClassicalStats local;
  local.pairs_in = pairs.size();
  std::vector<ScoredPair> out;
  if (pool == nullptr || pool->num_threads() <= 1 ||
      pairs.size() < kMinPairsPerShard * pool->num_threads()) {
    for (size_t i = 0; i < pairs.size(); ++i) verify(i, &out, &local);
  } else {
    const uint32_t num_shards = pool->num_threads();
    struct Shard {
      std::vector<ScoredPair> out;
      ClassicalStats stats;
    };
    std::vector<Shard> shards(num_shards);
    pool->RunShards(pairs.size(),
                    [&](uint32_t s, uint64_t begin, uint64_t end) {
                      for (uint64_t i = begin; i < end; ++i) {
                        verify(i, &shards[s].out, &shards[s].stats);
                      }
                    });
    for (Shard& shard : shards) {
      out.insert(out.end(), shard.out.begin(), shard.out.end());
      local.accepted += shard.stats.accepted;
      local.hashes_compared += shard.stats.hashes_compared;
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
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

std::vector<ScoredPair> MleVerifyCosine(
    BitSignatureStore* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, double threshold,
    uint32_t num_hashes, ClassicalStats* stats, ThreadPool* pool) {
  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        pairs.size() >= kMinPairsPerShard * pool->num_threads();
  if (parallel) {
    // Fixed verification depth: prefetching involved rows to num_hashes is
    // exactly what the sequential lazy path hashes, so the tally matches.
    store->AddComputed(
        internal::PrefetchPairRows(store, pairs, num_hashes, pool));
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
        const double est = SrpRToCosine(static_cast<double>(m) / num_hashes);
        if (est >= threshold) {
          out->push_back({a, b, est});
          ++st->accepted;
        }
      });
}

std::vector<ScoredPair> MleVerifyJaccard(
    IntSignatureStore* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, double threshold,
    uint32_t num_hashes, ClassicalStats* stats, ThreadPool* pool) {
  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        pairs.size() >= kMinPairsPerShard * pool->num_threads();
  if (parallel) {
    store->AddComputed(
        internal::PrefetchPairRows(store, pairs, num_hashes, pool));
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
        const double est = static_cast<double>(m) / num_hashes;
        if (est >= threshold) {
          out->push_back({a, b, est});
          ++st->accepted;
        }
      });
}

}  // namespace bayeslsh
