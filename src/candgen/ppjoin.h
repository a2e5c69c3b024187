// PPJoin and PPJoin+ (Xiao, Wang, Lin & Yu, WWW 2008): exact similarity
// joins for binary vectors — the paper's strongest exact baseline on the
// binary experiments (Figures 3(g)-(l), Table 2).
//
// PPJoin = prefix filtering (as in candgen/prefix_filter_join.h) plus
// *positional* filtering: when probe token k of x matches index entry
// (y, j), the remaining overlap is at most 1 + min(|x|-k-1, |y|-j-1), so a
// pair whose accumulated count plus that bound cannot reach the required
// overlap α(x, y) is dead and never revisited. α is
//
//     Jaccard:       ceil( t/(1+t) (|x| + |y|) )
//     binary cosine: ceil( t sqrt(|x| |y|) )
//
// PPJoin+ adds *suffix* filtering on a pair's first encounter: a recursive
// probe-partition of the two suffixes lower-bounds their Hamming distance;
// if it exceeds H_max = |xs| + |ys| - 2 (α - 1), the pair is pruned without
// an exact merge. Depth is capped (kSuffixFilterMaxDepth), trading filter
// strength for probe cost, exactly as in the original paper.
//
// Everything but that probe body is the prefix-filter join's scaffolding
// (candgen/exact_join_impl.h): the checked threshold, the reordering, the
// prefix length and size filter, the exact overlap and similarity, and the
// position-ordered prefix index, whose entries here also hold each token's
// offset. Its probe loop runs through internal::ProbeRows, the one driver
// of the three exact joins.

#ifndef BAYESLSH_CANDGEN_PPJOIN_H_
#define BAYESLSH_CANDGEN_PPJOIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "sim/brute_force.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

inline constexpr int kSuffixFilterMaxDepth = 2;

struct PpjoinStats {
  uint64_t encounters = 0;         // First-time candidate encounters.
  uint64_t positional_pruned = 0;  // Killed by the positional filter.
  uint64_t suffix_pruned = 0;      // Killed by the suffix filter.
  uint64_t verified = 0;           // Exact merges performed.
};

// Exact join over index sets. Throws std::invalid_argument unless
// `measure` is kJaccard or kBinaryCosine and threshold lies in (0, 1].
// use_suffix_filter=false gives plain PPJoin, true gives PPJoin+. With a
// pool, the probe loop shards over row ranges (two-phase, as in
// candgen/prefix_filter_join.h) with identical output and counters.
std::vector<ScoredPair> PpjoinJoin(const Dataset& data, double threshold,
                                   Measure measure,
                                   bool use_suffix_filter = true,
                                   PpjoinStats* stats = nullptr,
                                   ThreadPool* pool = nullptr);

// Lower bound on the Hamming distance between two ascending token arrays,
// by recursive probe partitioning (Algorithm "SuffixFilter" of the PPJoin+
// paper). It never prunes a qualifying pair: whenever the returned value
// is > hmax, the true Hamming distance is also > hmax. Exposed for direct
// unit testing.
int SuffixHammingLowerBound(std::span<const uint32_t> x,
                            std::span<const uint32_t> y, int hmax,
                            int depth = 1);

}  // namespace bayeslsh

#endif  // BAYESLSH_CANDGEN_PPJOIN_H_
