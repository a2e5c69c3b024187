// Prefix-filtering exact join for binary vectors — the AllPairs adaptation
// used for the paper's "Binary, Jaccard" experiments (AP columns of
// Table 2 / Figure 3(g)-(i)).
//
// Tokens are ranked by increasing document frequency (rare first); rows are
// processed in increasing size order. For a Jaccard threshold t:
//
//   * size filter: a pair (y, x) with |y| <= |x| can only qualify if
//     |y| >= t |x|;
//   * prefix filter: x's "prefix" is its first |x| - ceil(t |x|) + 1 tokens;
//     qualifying pairs must share at least one token lying in both rows'
//     prefixes, so only prefixes are indexed and probed.
//
// For binary cosine the same structure holds with t^2 in place of t.
// Survivors are verified by an exact merge.
//
// Like AllPairs, it offers an exact-join mode and a candidate-emit mode
// (the feed for AP+BayesLSH on binary Jaccard data). Its scaffolding (the
// checked threshold, the reordering, the filter arithmetic, the exact
// similarity and the prefix index; candgen/exact_join_impl.h, defined in
// prefix_filter_join.cc) is also PPJoin's (candgen/ppjoin.h), which adds
// only its own probe body.

#ifndef BAYESLSH_CANDGEN_PREFIX_FILTER_JOIN_H_
#define BAYESLSH_CANDGEN_PREFIX_FILTER_JOIN_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "candgen/candidates.h"
#include "common/thread_pool.h"
#include "sim/brute_force.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

struct PrefixJoinStats {
  uint64_t candidates = 0;      // Distinct pairs reaching verification.
  uint64_t size_skipped = 0;    // Posting entries skipped by the size filter.
  uint64_t verified = 0;        // Exact merges performed.
};

// Exact join over the index sets of `data` (values are ignored). Throws
// std::invalid_argument unless `measure` is kJaccard or kBinaryCosine and
// threshold lies in (0, 1].
//
// Two-phase like AllPairs: the full prefix index is built first, then the
// probe loop shards over row ranges (per-worker accumulators and size-
// filter fronts); output is identical for any thread count. The
// `size_skipped` instrumentation counter is the exception: per-worker
// fronts re-skip undersized entries, so it can overcount under sharding.
std::vector<ScoredPair> PrefixFilterJoin(const Dataset& data,
                                         double threshold, Measure measure,
                                         PrefixJoinStats* stats = nullptr,
                                         ThreadPool* pool = nullptr);

// Candidate-emit mode: all pairs passing the size + prefix filters.
CandidateList PrefixFilterCandidates(const Dataset& data, double threshold,
                                     Measure measure,
                                     PrefixJoinStats* stats = nullptr,
                                     ThreadPool* pool = nullptr);

// Conservative integer ceilings for filter arithmetic: never larger than the
// exact mathematical ceiling, so filters only err on the safe (admit) side.
inline uint32_t CeilSafe(double v) {
  const double c = std::ceil(v - 1e-9);
  return c <= 0.0 ? 0u : static_cast<uint32_t>(c);
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CANDGEN_PREFIX_FILTER_JOIN_H_
