#include "sim/brute_force.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bayeslsh {

void SortByIds(std::vector<ScoredPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const ScoredPair& x, const ScoredPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
}

std::vector<ScoredPair> BruteForceJoin(const Dataset& data, double threshold,
                                       Measure measure) {
  std::vector<ScoredPair> out;
  const uint32_t n = data.num_vectors();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      const double s = ExactSimilarity(data, i, j, measure);
      if (s >= threshold) out.push_back({i, j, s});
    }
  }
  return out;
}

std::vector<ScoredPair> InvertedIndexJoin(const Dataset& data,
                                          double threshold, Measure measure) {
  assert(threshold > 0.0 &&
         "InvertedIndexJoin misses zero-similarity pairs; use "
         "BruteForceJoin for threshold 0");
  // The accumulator trick below only covers the paper's three core
  // measures; the serving-stack measures (weighted Jaccard, kernel cosine,
  // Euclidean) fall back to the quadratic scan.
  if (measure != Measure::kCosine && measure != Measure::kJaccard &&
      measure != Measure::kBinaryCosine) {
    return BruteForceJoin(data, threshold, measure);
  }
  const uint32_t n = data.num_vectors();
  std::vector<ScoredPair> out;

  // Postings grown incrementally: dim -> rows (among 0..i-1) containing it,
  // with their weights. Processing rows in order guarantees each pair is
  // scored exactly once (j < i).
  struct Posting {
    uint32_t row;
    float weight;
  };
  std::vector<std::vector<Posting>> index(data.num_dims());

  std::vector<double> acc(n, 0.0);
  // stamp[j] == i marks that row j already has an accumulator entry for the
  // current probe row i (robust even if a partial sum crosses zero).
  std::vector<uint32_t> stamp(n, UINT32_MAX);
  std::vector<uint32_t> touched;
  for (uint32_t i = 0; i < n; ++i) {
    const SparseVectorView x = data.Row(i);
    touched.clear();
    for (uint32_t k = 0; k < x.size(); ++k) {
      const DimId d = x.indices[k];
      const float xw = x.values[k];
      for (const Posting& p : index[d]) {
        if (stamp[p.row] != i) {
          stamp[p.row] = i;
          acc[p.row] = 0.0;
          touched.push_back(p.row);
        }
        if (measure == Measure::kCosine) {
          acc[p.row] += static_cast<double>(xw) * p.weight;
        } else {
          acc[p.row] += 1.0;  // Overlap count for the set measures.
        }
      }
      index[d].push_back({i, xw});
    }
    for (uint32_t j : touched) {
      double s = 0.0;
      switch (measure) {
        case Measure::kCosine:
          s = acc[j];
          break;
        case Measure::kJaccard: {
          const double inter = acc[j];
          s = inter / (x.size() + data.RowLength(j) - inter);
          break;
        }
        case Measure::kBinaryCosine:
          s = acc[j] /
              std::sqrt(static_cast<double>(x.size()) * data.RowLength(j));
          break;
        default:
          break;  // Unreachable: non-core measures returned above.
      }
      if (s >= threshold) out.push_back({j, i, s});
    }
  }
  std::sort(out.begin(), out.end(), [](const ScoredPair& a,
                                       const ScoredPair& b) {
    return a.a != b.a ? a.a < b.a : a.b < b.b;
  });
  return out;
}

}  // namespace bayeslsh
