// Improved Consistent Weighted Sampling (ICWS; Ioffe, ICDM'10) — minwise
// hashing for *weighted* Jaccard similarity.
//
// The paper's Jaccard instantiation (§4.1) only covers binary vectors
// (sets); its §5 notes that real-valued representations "lead to better
// similarity assessments" but restricts Jaccard experiments to binarized
// data, as did the prior work it cites ([24], [26]). ICWS removes that
// restriction: for non-negative weighted vectors x, y, each ICWS hash
// collides with probability exactly the generalized (weighted) Jaccard
//
//     J_w(x, y) = Σ_d min(x_d, y_d) / Σ_d max(x_d, y_d),
//
// which coincides with plain Jaccard on 0/1 weights. Because Equation 1
// of the paper holds verbatim with S = J_w, the *entire* BayesLSH stack —
// JaccardPosterior (conjugate Beta), the inference cache, both engines —
// applies unchanged; only the hash family is new. This is the paper's
// portability claim exercised a third time (after b-bit minwise and KLSH).
//
// Per hash k and dimension d with weight w > 0, ICWS draws (all
// counter-based, so lazily recomputable):
//
//     r, c ~ Gamma(2, 1),  β ~ U[0, 1)
//     t    = floor(ln w / r + β)
//     ln y = r (t − β)
//     ln a = ln c − ln y − r
//
// and outputs the (d, t) pair of the dimension minimizing a. Two hashes
// agree iff both the winning dimension and its t agree; we compress (d, t)
// into a 32-bit fingerprint (cross-pair fingerprint collisions happen with
// probability 2^-32 per comparison — far below every statistical tolerance
// in this library).

#ifndef BAYESLSH_LSH_ICWS_HASHER_H_
#define BAYESLSH_LSH_ICWS_HASHER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "lsh/store_base.h"
#include "vec/dataset.h"
#include "vec/sparse_vector.h"

namespace bayeslsh {

// Number of ICWS hash values produced per chunk (mirrors minwise).
inline constexpr uint32_t kIcwsChunkInts = 16;

class IcwsHasher {
 public:
  explicit IcwsHasher(uint64_t seed) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  // Computes hashes [16*chunk, 16*chunk + 16) of v into out[0..15].
  // Weights must be non-negative; zero weights never win a sample (they
  // are skipped), and the empty vector gets a fixed sentinel per hash.
  void HashChunk(const SparseVectorView& v, uint32_t chunk,
                 uint32_t* out) const;

 private:
  uint64_t seed_;
};

// IntChunkHasher adapter: lets the generalized IntSignatureStore (and with
// it the whole serving stack) carry ICWS weighted-Jaccard signatures.
class IcwsChunkHasher final : public IntChunkHasher {
 public:
  explicit IcwsChunkHasher(IcwsHasher icws) : icws_(icws) {}

  void HashChunk(const SparseVectorView& v, uint32_t /*row*/, uint32_t chunk,
                 uint32_t* out) const override {
    icws_.HashChunk(v, chunk, out);
  }
  uint32_t chunk_ints() const override { return kIcwsChunkInts; }
  SignatureKind kind() const override { return SignatureKind::kIcwsInts; }

  const IcwsHasher& icws() const { return icws_; }

 private:
  IcwsHasher icws_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_ICWS_HASHER_H_
