// Multi-probe LSH candidate generation (after Lv, Josephson, Wang,
// Charikar & Li, VLDB'07 — the paper's reference [17]).
//
// Classical banding needs l independent bands to reach a target recall;
// the index memory and hashing work scale with l. Multi-probe keeps each
// band but *probes* additional buckets whose signature is close to the
// query's, trading lookup work for bands: with bit signatures (our SRP
// bands) the natural probe set is every signature within Hamming distance
// <= probe_radius of the row's own signature, since near-misses of a
// similar pair differ in few bit positions.
//
// (Lv et al. probe quantized p-stable coordinates by ±1 steps; the
// Hamming-ball probe set is the established adaptation of their idea to
// bit signatures — each probed bucket is exactly one "step" away in the
// signature lattice. DESIGN.md records this substitution.)
//
// A pair is generated when its signatures in some band differ in at most
// probe_radius positions. The per-band hit probability at similarity
// threshold t is therefore binomial instead of p^k:
//
//     hit(p, k, r) = Σ_{i=0}^{r} C(k, i) p^{k-i} (1 - p)^i,
//
// with p = c2r(t), and the band count derives as
// l = ceil(log ε / log(1 - hit)) — fewer bands for the same ε as r grows.
//
// The generator shares the join's emitter, BandingIndex::BucketPairs
// (candgen/banding_index.h): it takes the distance-0 pairs from it and
// passes it the probe masks, so that each bucket also pairs with the
// bucket whose key is its own XOR a mask. The verification stage is
// unchanged (BayesLSH does not care where candidates come from — the
// paper's modularity claim).

#ifndef BAYESLSH_CANDGEN_MULTIPROBE_H_
#define BAYESLSH_CANDGEN_MULTIPROBE_H_

#include <cstdint>

#include "candgen/candidates.h"
#include "common/thread_pool.h"
#include "lsh/signature_store.h"

namespace bayeslsh {

struct MultiProbeParams {
  // Hashes per band (k); 0 selects the cosine default (8 bits).
  uint32_t hashes_per_band = 0;

  // Bands (l); 0 derives from expected_fn_rate at the threshold, with the
  // probe radius accounted for.
  uint32_t num_bands = 0;

  // Hamming radius probed within each band. 0 reduces to plain banding;
  // radius r costs sum_{i<=r} C(k, i) lookups per row per band.
  uint32_t probe_radius = 1;

  double expected_fn_rate = 0.03;
  uint32_t max_bands = 4096;
};

// Per-band hit probability with probing: Pr[<= probe_radius of k bits
// disagree] when each bit agrees independently with probability
// collision_prob.
double MultiProbeBandHitProb(double collision_prob, uint32_t k,
                             uint32_t probe_radius);

// l = ceil(log eps / log(1 - hit)), clamped to [1, max_bands].
uint32_t DeriveNumBandsMultiProbe(double collision_prob_at_threshold,
                                  uint32_t k, uint32_t probe_radius,
                                  double fn_rate, uint32_t max_bands);

// Candidate pairs for cosine similarity: multi-probe banding over SRP bit
// signatures. Grows the store to num_bands * hashes_per_band bits for
// every row, counted in its computed(). raw_emitted counts bucket-pair
// emissions before dedup. Throws std::invalid_argument for a shape
// CheckBandingShape refuses (candgen/lsh_banding.h).
//
// A non-null pool shards growth over rows and pair emission over bands;
// the candidate list, raw_emitted and the store's tally are identical for
// any thread count.
CandidateList MultiProbeCosineCandidates(BitSignatureStore* store,
                                         double threshold,
                                         const MultiProbeParams& params,
                                         ThreadPool* pool = nullptr);

}  // namespace bayeslsh

#endif  // BAYESLSH_CANDGEN_MULTIPROBE_H_
