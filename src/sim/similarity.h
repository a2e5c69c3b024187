// Exact similarity measures and the Measure enumeration used across the
// pipeline.
//
// The paper evaluates three settings:
//   * kCosine       — cosine on real-valued (tf-idf) vectors,
//   * kJaccard      — Jaccard on binary vectors (sets),
//   * kBinaryCosine — cosine on binary vectors: |x ∩ y| / sqrt(|x| |y|).
//
// Convention: for kCosine the dataset rows are expected to be L2-normalized
// (see vec/transforms.h), so cosine(x, y) == dot(x, y). ExactSimilarity()
// below does not re-normalize.

#ifndef BAYESLSH_SIM_SIMILARITY_H_
#define BAYESLSH_SIM_SIMILARITY_H_

#include <string>

#include "vec/dataset.h"
#include "vec/sparse_vector.h"

namespace bayeslsh {

enum class Measure {
  kCosine,        // Real-valued vectors, rows pre-normalized to unit L2.
  kJaccard,       // Binary vectors (values ignored; indices are the set).
  kBinaryCosine,  // Binary vectors (values ignored).

  // Serving-stack measures beyond the paper's three core settings. Their
  // scores follow the same "larger is more similar" convention, so every
  // sort/merge/top-k path works unchanged:
  kWeightedJaccard,  // Non-negative weights; ICWS hashes (lsh/icws_hasher.h).
  kKernelCosine,     // Kernel cosine via KLSH (kernel/klsh.h). Exact scores
                     // need the kernel, so ExactSimilarity() rejects it.
  kEuclidean,        // Radius search; scores are NEGATED distances and the
                     // "threshold"/"sim" fields hold the radius / -distance
                     // (euclidean/pstable_hasher.h holds the hash family).
};

// The measure's name, as the CLI's --measure flag takes it
// (core/measure_table.h holds it).
std::string MeasureName(Measure m);

// Cosine similarity of two arbitrary (not necessarily normalized) vectors.
// Returns 0 if either vector is empty.
double CosineSimilarity(const SparseVectorView& a, const SparseVectorView& b);

// Jaccard similarity of the index sets: |a ∩ b| / |a ∪ b|.
// Returns 0 if both are empty.
double JaccardSimilarity(const SparseVectorView& a, const SparseVectorView& b);

// Generalized (weighted) Jaccard: Σ min(a_d, b_d) / Σ max(a_d, b_d) over
// non-negative weights; equals JaccardSimilarity on 0/1 weights. Returns 0
// if both vectors are empty. The similarity measure of the ICWS hash
// family (lsh/icws_hasher.h).
double WeightedJaccardSimilarity(const SparseVectorView& a,
                                 const SparseVectorView& b);

// Binary cosine: |a ∩ b| / sqrt(|a| |b|) over index sets.
double BinaryCosineSimilarity(const SparseVectorView& a,
                              const SparseVectorView& b);

// Dispatch on the measure, on the score axis: kEuclidean returns the
// negated distance, and kKernelCosine, which needs a kernel, throws
// std::logic_error (core/measure_table.h scores it). For kCosine this
// computes a plain dot product (rows are assumed pre-normalized, per the
// convention above).
double ExactSimilarity(const SparseVectorView& a, const SparseVectorView& b,
                       Measure measure);
double ExactSimilarity(const Dataset& data, uint32_t i, uint32_t j,
                       Measure measure);

}  // namespace bayeslsh

#endif  // BAYESLSH_SIM_SIMILARITY_H_
