#include "candgen/prefix_filter_join.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "common/bit_ops.h"

namespace bayeslsh {

namespace {

// Rows re-tokenized by frequency rank and sorted by size.
struct BinaryReordered {
  std::vector<uint32_t> orig_id;             // By processing position.
  std::vector<std::vector<uint32_t>> rows;   // Ranked tokens, ascending.
};

BinaryReordered ReorderBinary(const Dataset& data, ThreadPool* pool) {
  BinaryReordered r;
  const uint32_t n = data.num_vectors();
  const uint32_t d = data.num_dims();
  const std::vector<uint32_t> freq = data.DimFrequencies();
  std::vector<uint32_t> dims(d);
  std::iota(dims.begin(), dims.end(), 0u);
  // Rare tokens first: ascending frequency.
  std::sort(dims.begin(), dims.end(), [&](uint32_t a, uint32_t b) {
    return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
  });
  std::vector<uint32_t> rank_of(d);
  for (uint32_t i = 0; i < d; ++i) rank_of[dims[i]] = i;

  r.orig_id.resize(n);
  std::iota(r.orig_id.begin(), r.orig_id.end(), 0u);
  std::sort(r.orig_id.begin(), r.orig_id.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t la = data.RowLength(a), lb = data.RowLength(b);
    return la != lb ? la < lb : a < b;
  });

  r.rows.resize(n);
  ParallelFor(pool, 0, n, [&](uint64_t p) {
    const SparseVectorView v = data.Row(r.orig_id[p]);
    auto& row = r.rows[p];
    row.resize(v.size());
    for (uint32_t k = 0; k < v.size(); ++k) row[k] = rank_of[v.indices[k]];
    std::sort(row.begin(), row.end());
  });
  return r;
}

uint32_t PrefixLength(uint32_t size, double threshold, Measure measure) {
  if (size == 0) return 0;
  const double frac = measure == Measure::kJaccard
                          ? threshold
                          : threshold * threshold;  // Binary cosine.
  const uint32_t need = CeilSafe(frac * size);
  return need >= size ? 1u : size - need + 1u;
}

uint32_t MinSize(uint32_t probe_size, double threshold, Measure measure) {
  const double frac = measure == Measure::kJaccard
                          ? threshold
                          : threshold * threshold;
  return CeilSafe(frac * probe_size);
}

// Exact overlap by merge of two ascending token arrays.
uint32_t MergeOverlap(const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b) {
  uint32_t o = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++o;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return o;
}

double SetSimilarity(uint32_t overlap, uint32_t la, uint32_t lb,
                     Measure measure) {
  if (measure == Measure::kJaccard) {
    const uint32_t uni = la + lb - overlap;
    return uni == 0 ? 0.0 : static_cast<double>(overlap) / uni;
  }
  if (la == 0 || lb == 0) return 0.0;
  return overlap / std::sqrt(static_cast<double>(la) * lb);
}

struct Posting {
  uint32_t pos;   // Processing position.
  uint32_t size;  // Row size (for the lazy size filter).
};

// Two-phase core (cf. AllPairsCore): phase 1 builds the full prefix index
// in processing order, phase 2 probes each row against the entries indexed
// before it (early break on the position-sorted posting lists) — identical
// to the classical interleaved formulation, but shardable over probe rows.
void PrefixFilterCore(const Dataset& data, double threshold, Measure measure,
                      std::vector<ScoredPair>* out_matches,
                      std::vector<uint64_t>* out_candidates,
                      PrefixJoinStats* stats, ThreadPool* pool) {
  assert(threshold > 0.0 && threshold <= 1.0);
  assert(measure == Measure::kJaccard || measure == Measure::kBinaryCosine);
  const uint32_t n = data.num_vectors();
  BinaryReordered r = ReorderBinary(data, pool);

  // --- Phase 1: full prefix index, in position order. ---
  std::vector<std::vector<Posting>> index(data.num_dims());
  for (uint32_t p = 0; p < n; ++p) {
    const auto& x = r.rows[p];
    const auto size = static_cast<uint32_t>(x.size());
    const uint32_t px = PrefixLength(size, threshold, measure);
    for (uint32_t k = 0; k < px && k < size; ++k) {
      index[x[k]].push_back({p, size});
    }
  }

  // --- Phase 2: probe, sharded over probe rows. ---
  const uint32_t num_shards = pool != nullptr ? pool->num_threads() : 1u;
  struct ProbeShard {
    std::vector<uint64_t> keys;
    std::vector<ScoredPair> matches;
    PrefixJoinStats stats;
  };
  std::vector<ProbeShard> shards(num_shards);
  auto probe = [&](uint32_t shard, uint64_t p_begin, uint64_t p_end) {
    ProbeShard& sh = shards[shard];
    std::vector<uint32_t> stamp(n, UINT32_MAX);
    std::vector<uint32_t> touched;
    // Worker-local lazy size-filter front pointers: rows are indexed in
    // increasing size order and probed in increasing minsize order within
    // the shard, so undersized entries cluster at the front, as in the
    // interleaved formulation.
    std::vector<uint32_t> front(data.num_dims(), 0);
    for (uint32_t p = static_cast<uint32_t>(p_begin); p < p_end; ++p) {
      const auto& x = r.rows[p];
      const auto size = static_cast<uint32_t>(x.size());
      const uint32_t px = PrefixLength(size, threshold, measure);
      const uint32_t minsize = MinSize(size, threshold, measure);

      touched.clear();
      for (uint32_t k = 0; k < px && k < size; ++k) {
        const uint32_t w = x[k];
        const auto& list = index[w];
        uint32_t& f = front[w];
        while (f < list.size() && list[f].size < minsize) {
          ++f;
          ++sh.stats.size_skipped;
        }
        for (uint32_t e = f; e < list.size(); ++e) {
          const uint32_t q = list[e].pos;
          if (q >= p) break;  // Lists are sorted by position.
          if (stamp[q] != p) {
            stamp[q] = p;
            touched.push_back(q);
          }
        }
      }
      sh.stats.candidates += touched.size();

      if (out_candidates != nullptr) {
        for (uint32_t q : touched) {
          const uint32_t a = r.orig_id[q], b = r.orig_id[p];
          sh.keys.push_back(a < b ? PairKey(a, b) : PairKey(b, a));
        }
      }
      if (out_matches != nullptr) {
        for (uint32_t q : touched) {
          ++sh.stats.verified;
          const uint32_t o = MergeOverlap(x, r.rows[q]);
          const double s = SetSimilarity(
              o, size, static_cast<uint32_t>(r.rows[q].size()), measure);
          if (s >= threshold) {
            const uint32_t a = r.orig_id[q], b = r.orig_id[p];
            sh.matches.push_back(a < b ? ScoredPair{a, b, s}
                                       : ScoredPair{b, a, s});
          }
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->RunShards(n, probe);
  } else {
    probe(0, 0, n);
  }

  PrefixJoinStats local;
  for (ProbeShard& sh : shards) {
    if (out_candidates != nullptr) {
      out_candidates->insert(out_candidates->end(), sh.keys.begin(),
                             sh.keys.end());
    }
    if (out_matches != nullptr) {
      out_matches->insert(out_matches->end(), sh.matches.begin(),
                          sh.matches.end());
    }
    local.candidates += sh.stats.candidates;
    local.size_skipped += sh.stats.size_skipped;
    local.verified += sh.stats.verified;
  }
  if (stats != nullptr) *stats = local;
}

}  // namespace

std::vector<ScoredPair> PrefixFilterJoin(const Dataset& data,
                                         double threshold, Measure measure,
                                         PrefixJoinStats* stats,
                                         ThreadPool* pool) {
  std::vector<ScoredPair> matches;
  PrefixFilterCore(data, threshold, measure, &matches, nullptr, stats, pool);
  std::sort(matches.begin(), matches.end(),
            [](const ScoredPair& a, const ScoredPair& b) {
              return a.a != b.a ? a.a < b.a : a.b < b.b;
            });
  return matches;
}

CandidateList PrefixFilterCandidates(const Dataset& data, double threshold,
                                     Measure measure, PrefixJoinStats* stats,
                                     ThreadPool* pool) {
  std::vector<uint64_t> keys;
  PrefixFilterCore(data, threshold, measure, nullptr, &keys, stats, pool);
  return DedupPairKeys(std::move(keys), pool);
}

}  // namespace bayeslsh
