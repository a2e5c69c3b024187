#include "sim/similarity.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/measure_table.h"

namespace bayeslsh {

std::string MeasureName(Measure m) { return TraitsOf(m).name; }

double CosineSimilarity(const SparseVectorView& a, const SparseVectorView& b) {
  const double na = SparseNorm2(a), nb = SparseNorm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return SparseDot(a, b) / (na * nb);
}

double JaccardSimilarity(const SparseVectorView& a,
                         const SparseVectorView& b) {
  const uint32_t inter = SparseOverlap(a, b);
  const uint32_t uni = a.size() + b.size() - inter;
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / uni;
}

double WeightedJaccardSimilarity(const SparseVectorView& a,
                                 const SparseVectorView& b) {
  double min_sum = 0.0, max_sum = 0.0;
  size_t i = 0, j = 0;
  const size_t na = a.indices.size(), nb = b.indices.size();
  while (i < na && j < nb) {
    const DimId da = a.indices[i], db = b.indices[j];
    if (da == db) {
      const double wa = a.values[i], wb = b.values[j];
      min_sum += std::min(wa, wb);
      max_sum += std::max(wa, wb);
      ++i;
      ++j;
    } else if (da < db) {
      max_sum += a.values[i];
      ++i;
    } else {
      max_sum += b.values[j];
      ++j;
    }
  }
  for (; i < na; ++i) max_sum += a.values[i];
  for (; j < nb; ++j) max_sum += b.values[j];
  return max_sum > 0.0 ? min_sum / max_sum : 0.0;
}

double BinaryCosineSimilarity(const SparseVectorView& a,
                              const SparseVectorView& b) {
  if (a.empty() || b.empty()) return 0.0;
  const uint32_t inter = SparseOverlap(a, b);
  return inter / std::sqrt(static_cast<double>(a.size()) * b.size());
}

double ExactSimilarity(const SparseVectorView& a, const SparseVectorView& b,
                       Measure measure) {
  switch (measure) {
    case Measure::kCosine:
      return SparseDot(a, b);  // Rows are pre-normalized by convention.
    case Measure::kJaccard:
      return JaccardSimilarity(a, b);
    case Measure::kBinaryCosine:
      return BinaryCosineSimilarity(a, b);
    case Measure::kWeightedJaccard:
      return WeightedJaccardSimilarity(a, b);
    case Measure::kKernelCosine:
      // The kernel cosine needs the kernel object; callers score it
      // through core/measure_table.h instead.
      throw std::logic_error(
          "ExactSimilarity: kernel cosine requires a kernel");
    case Measure::kEuclidean:
      return -SparseEuclideanDistance(a, b);  // Negated-distance convention.
  }
  return 0.0;
}

double ExactSimilarity(const Dataset& data, uint32_t i, uint32_t j,
                       Measure measure) {
  return ExactSimilarity(data.Row(i), data.Row(j), measure);
}

}  // namespace bayeslsh
