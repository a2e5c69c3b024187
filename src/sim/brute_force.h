// Brute-force all-pairs similarity join: the ground truth against which the
// exactness of AllPairs / PPJoin+ and the recall of every randomized method
// is measured.
//
// O(n^2) pairs, each verified with an O(|x| + |y|) merge — only suitable for
// the scaled datasets used in tests and benchmarks, which is precisely its
// job.

#ifndef BAYESLSH_SIM_BRUTE_FORCE_H_
#define BAYESLSH_SIM_BRUTE_FORCE_H_

#include <cstdint>
#include <vector>

#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

// One output pair of an all-pairs join. Always a < b.
struct ScoredPair {
  uint32_t a = 0;
  uint32_t b = 0;
  double sim = 0.0;

  friend bool operator==(const ScoredPair&, const ScoredPair&) = default;
};

// Sorts pairs by (a, b), the order every join returns. The oracles below
// keep their own comparator, so a fault here cannot hide in both.
void SortByIds(std::vector<ScoredPair>* pairs);

// All pairs (i < j) with similarity >= threshold, in lexicographic order.
std::vector<ScoredPair> BruteForceJoin(const Dataset& data, double threshold,
                                       Measure measure);

// Inverted-index accelerated exact join. Produces the same output as
// BruteForceJoin but only touches co-occurring pairs; used to compute ground
// truth on the benchmark datasets where the plain quadratic scan is too slow.
// Exactness relies on similarities being 0 for non-co-occurring pairs, which
// holds for all three measures when threshold > 0.
std::vector<ScoredPair> InvertedIndexJoin(const Dataset& data,
                                          double threshold, Measure measure);

}  // namespace bayeslsh

#endif  // BAYESLSH_SIM_BRUTE_FORCE_H_
