// The exact joins' shared skeleton, private to src/candgen: one sharded
// probe driver for AllPairs (candgen/allpairs.h), the prefix-filter join
// (candgen/prefix_filter_join.h) and PPJoin (candgen/ppjoin.h), and the
// scaffolding of the two binary joins, defined in prefix_filter_join.cc.
// Each join keeps only its own probe body.

#ifndef BAYESLSH_CANDGEN_EXACT_JOIN_IMPL_H_
#define BAYESLSH_CANDGEN_EXACT_JOIN_IMPL_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "candgen/prefix_filter_join.h"
#include "common/bit_ops.h"
#include "common/thread_pool.h"
#include "sim/brute_force.h"
#include "vec/dataset.h"

namespace bayeslsh {
namespace internal {

// One shard's output of an exact join's probe loop, in probe order:
// candidate keys or verified pairs, as the mode asks, plus the join's
// counters.
template <typename Stats>
struct ProbeOutput {
  std::vector<uint64_t> keys;
  std::vector<ScoredPair> pairs;
  Stats stats;

  // Both record the pair of original ids x and y smaller id first.
  void AddKey(uint32_t x, uint32_t y) {
    keys.push_back(x < y ? PairKey(x, y) : PairKey(y, x));
  }
  void AddPair(uint32_t x, uint32_t y, double sim) {
    pairs.push_back(x < y ? ScoredPair{x, y, sim} : ScoredPair{y, x, sim});
  }
};

// The exact joins' one probe driver: runs probe(begin, end, &out) over
// the rows [0, n) through ParallelReduce and appends the shards' outputs
// in shard order, so the result is the sequential one at any thread
// count. The first shard's vectors are moved, and each later shard's are
// freed once appended; `counters` (pointers to Stats' uint64_t members)
// name the counters summed across shards.
template <typename Stats, typename ProbeFn, typename... Counter>
ProbeOutput<Stats> ProbeRows(ThreadPool* pool, uint32_t n,
                             const ProbeFn& probe, Counter... counters) {
  using Out = ProbeOutput<Stats>;
  const auto append = [](auto* acc, auto* part) {
    if (acc->empty()) {
      *acc = std::move(*part);
    } else {
      acc->insert(acc->end(), part->begin(), part->end());
    }
  };
  return ParallelReduce(
      pool, n, Out{},
      [&](uint32_t, uint64_t begin, uint64_t end) {
        Out out;
        probe(static_cast<uint32_t>(begin), static_cast<uint32_t>(end), &out);
        return out;
      },
      [&](Out acc, Out part) {
        append(&acc.keys, &part.keys);
        append(&acc.pairs, &part.pairs);
        ((acc.stats.*counters += part.stats.*counters), ...);
        return acc;
      });
}

// The binary joins' one argument check: throws std::invalid_argument
// ("<who>: ...") unless `measure` is kJaccard or kBinaryCosine and
// `threshold` lies in (0, 1] (NaN does not). Returns frac, the share of
// a row's size both filters work with: t for Jaccard, t^2 for binary
// cosine.
double SizeFraction(double threshold, Measure measure, const std::string& who);

// Rows re-tokenized by frequency rank and sorted by size.
struct BinaryReordered {
  std::vector<uint32_t> orig_id;             // By processing position.
  std::vector<std::vector<uint32_t>> rows;   // Ranked tokens, ascending.
};

// Ranks tokens by increasing document frequency (rare first, ties by id)
// and orders rows by increasing size (ties by id).
BinaryReordered ReorderBinary(const Dataset& data, ThreadPool* pool);

// Prefix length of a row of `size` tokens: size - ceil(frac size) + 1,
// at least 1 (0 for an empty row).
inline uint32_t PrefixLength(uint32_t size, double frac) {
  if (size == 0) return 0;
  const uint32_t need = CeilSafe(frac * size);
  return need >= size ? 1u : size - need + 1u;
}

// Smallest indexed-row size the size filter admits for a probe row of
// `size` tokens.
inline uint32_t MinSize(uint32_t size, double frac) {
  return CeilSafe(frac * size);
}

// Exact overlap by merge of two ascending token arrays.
inline uint32_t MergeOverlap(const std::vector<uint32_t>& a,
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

// Jaccard or binary cosine of two sets of sizes la and lb.
inline double SetSimilarity(uint32_t overlap, uint32_t la, uint32_t lb,
                            Measure measure) {
  if (measure == Measure::kJaccard) {
    const uint32_t uni = la + lb - overlap;
    return uni == 0 ? 0.0 : static_cast<double>(overlap) / uni;
  }
  if (la == 0 || lb == 0) return 0.0;
  return overlap / std::sqrt(static_cast<double>(la) * lb);
}

// One prefix-index entry: 8 bytes, as the Jaccard join's probe scans
// them. PPJoin's (kOffset) also holds the token's offset within the
// indexed row, for its positional filter.
template <bool kOffset>
struct PrefixPosting {
  uint32_t pos;   // Processing position of the indexed row.
  uint32_t size;  // Its size (lazy size filter).
};
template <>
struct PrefixPosting<true> : PrefixPosting<false> {
  uint32_t offset;
};

// Phase 1 of both binary joins: every row's prefix tokens, indexed in
// processing order, so each posting list is sorted by position. Probing
// row p against the entries with pos < p (an early break) then
// reproduces the classical interleaved formulation exactly, while the
// probe loop shards over row ranges.
template <bool kOffset>
std::vector<std::vector<PrefixPosting<kOffset>>> BuildPrefixIndex(
    const BinaryReordered& r, uint32_t num_dims, double frac) {
  std::vector<std::vector<PrefixPosting<kOffset>>> index(num_dims);
  for (uint32_t p = 0; p < r.rows.size(); ++p) {
    const std::vector<uint32_t>& x = r.rows[p];
    const auto size = static_cast<uint32_t>(x.size());
    const uint32_t px = PrefixLength(size, frac);
    for (uint32_t k = 0; k < px && k < size; ++k) {
      if constexpr (kOffset) {
        index[x[k]].push_back({{p, size}, k});
      } else {
        index[x[k]].push_back({p, size});
      }
    }
  }
  return index;
}

}  // namespace internal
}  // namespace bayeslsh

#endif  // BAYESLSH_CANDGEN_EXACT_JOIN_IMPL_H_
