// Minwise hashing for Jaccard similarity (Broder et al., STOC'98).
//
// Each hash function is a random order on the feature universe; h_i(x) is
// the minimum element of x under that order, so
//
//   Pr[h_i(x) == h_i(y)] = |x ∩ y| / |x ∪ y| = Jaccard(x, y).
//
// We realize the random orders with a counter-based hash: element d is
// ranked by Mix64(seed, i, d), and the signature stores the low 32 bits of
// the minimal rank (integer hashes, 4 bytes each, as in the paper). Hashes
// are produced 16 at a time to mirror the chunked lazy signature growth of
// the SRP path. Every Jaccard and b-bit signature — the index build, the
// delta insert, compaction, a query's generation and verification
// signatures and the joins' verification — is hashed by HashChunk.

#ifndef BAYESLSH_LSH_MINWISE_HASHER_H_
#define BAYESLSH_LSH_MINWISE_HASHER_H_

#include <cstdint>

#include "vec/sparse_vector.h"

namespace bayeslsh {

// Number of minhash values produced per chunk.
inline constexpr uint32_t kMinhashChunkInts = 16;

class MinwiseHasher {
 public:
  explicit MinwiseHasher(uint64_t seed) : seed_(seed) {}

  // Computes hashes [16*chunk, 16*chunk + 16) of the index set of v into
  // out[0..15] (the hash index wraps in uint32_t, so chunk 2^28 repeats
  // chunk 0). The empty set gets a fixed sentinel-derived value (two empty
  // sets agree on every hash, consistent with Jaccard(∅, ∅) = 1 conventions;
  // our generators never emit empty rows). A non-empty set takes an AVX2
  // body when simd::Enabled(): Mix64(d) once per element, the 16 ranks as
  // four 4-lane vectors, an unsigned lane-wise minimum. It writes the
  // scalar loop's values bit for bit (tests/simd_kernels_test.cc pins
  // them), so saved signatures never depend on which path hashed them.
  void HashChunk(const SparseVectorView& v, uint32_t chunk,
                 uint32_t* out) const;

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_MINWISE_HASHER_H_
