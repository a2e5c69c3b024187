// LSH banding index: the classical candidate-generation scheme described in
// paper §2.
//
// Each object gets l signatures, each the concatenation of k hashes; any
// pair sharing at least one signature becomes a candidate. For a collision
// probability p per hash at the similarity threshold, the number of bands
// needed for an expected false-negative rate ε is
//
//     l = ceil( log ε / log(1 - p^k) )          [Xiao et al., TODS 2011]
//
// with p = t for minwise/Jaccard and p = c2r(t) = 1 - arccos(t)/π for
// SRP/cosine.
//
// This header resolves the banding shape (k, l) for a measure and
// threshold, and spells the join's candidate generator: grow a generation
// store to l*k hashes, emit every bucket's pairs band by band with
// BandingIndex::BucketPairs (candgen/banding_index.h) and deduplicate. The
// signatures come from the same lazy stores used for verification, but
// the pipeline draws them from an independent seed: BayesLSH's posterior
// math assumes the verification hashes are unbiased, which hashes already
// conditioned on a band collision are not (DESIGN.md §6).

#ifndef BAYESLSH_CANDGEN_LSH_BANDING_H_
#define BAYESLSH_CANDGEN_LSH_BANDING_H_

#include <cstdint>

#include "candgen/candidates.h"
#include "common/thread_pool.h"
#include "lsh/signature_store.h"
#include "sim/similarity.h"

namespace bayeslsh {

struct LshBandingParams {
  // Hashes concatenated per signature (k). 0 selects the per-measure
  // default: 8 bits for cosine, 3 ints for Jaccard.
  uint32_t hashes_per_band = 0;

  // Number of bands (l). 0 derives l from expected_fn_rate at the threshold.
  uint32_t num_bands = 0;

  // Expected false-negative rate ε used to derive l (paper uses 0.03).
  double expected_fn_rate = 0.03;

  // Safety cap on the derived l.
  uint32_t max_bands = 4096;
};

inline constexpr uint32_t kDefaultCosineBandBits = 8;
inline constexpr uint32_t kDefaultJaccardBandInts = 3;
inline constexpr uint32_t kDefaultEuclideanBandInts = 4;

// l = ceil(log ε / log(1 - p^k)), clamped to [1, max_bands].
uint32_t DeriveNumBands(double collision_prob_at_threshold, uint32_t k,
                        double fn_rate, uint32_t max_bands);

// A fully resolved banding shape: k hashes per band × l bands.
struct BandingShape {
  uint32_t hashes_per_band = 0;  // k.
  uint32_t num_bands = 0;        // l.
};

// Resolves the 0-means-default fields of `params` for the given measure
// and threshold: k falls back to the per-measure default, l is derived
// from the expected false-negative rate at the threshold's collision
// probability (p = t for Jaccard and weighted Jaccard, p = c2r(t) for
// cosine-like measures including the kernel cosine, and for Euclidean the
// p-stable collision probability at the radius with the serving stack's
// width convention w = 2 * radius — a scale-free constant). Shared by the
// pipeline, the query searcher and the persistent-index builder, so all
// three agree on the shape and refuse the same shapes (CheckBandingShape).
BandingShape ResolveBandingShape(Measure measure, double threshold,
                                 const LshBandingParams& params);

// Throws std::invalid_argument unless the shape has 1..64 hashes per band
// and at least one band: a bit band key is one 64-bit word, and the index
// file's loader refuses any other shape.
void CheckBandingShape(const BandingShape& shape);

// Candidate pairs from banding a generation store (bit or int layout) in
// `shape`: the store grows to l*k hashes per row, counted in its
// computed(). Empty rows are never candidates. With a pool, growth shards
// over rows and pair emission over bands; the output is identical for any
// thread count.
template <typename Layout>
CandidateList LshCandidates(SignatureStore<Layout>* store, BandingShape shape,
                            ThreadPool* pool = nullptr);

// LshCandidates in the cosine and Jaccard shapes of `params`.
CandidateList CosineLshCandidates(BitSignatureStore* store, double threshold,
                                  const LshBandingParams& params,
                                  ThreadPool* pool = nullptr);
CandidateList JaccardLshCandidates(IntSignatureStore* store, double threshold,
                                   const LshBandingParams& params,
                                   ThreadPool* pool = nullptr);

}  // namespace bayeslsh

#endif  // BAYESLSH_CANDGEN_LSH_BANDING_H_
