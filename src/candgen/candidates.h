// Common types for the candidate-generation phase.
//
// Candidate generators produce *unverified* pairs; the verification phase
// (exact, MLE, or BayesLSH — see core/) decides which of them are true
// positives. The paper's central observation is that generators emit orders
// of magnitude more candidates than there are result pairs, so the list also
// carries bookkeeping used by the figures (e.g. Fig. 4 plots how fast
// BayesLSH burns this list down).

#ifndef BAYESLSH_CANDGEN_CANDIDATES_H_
#define BAYESLSH_CANDGEN_CANDIDATES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace bayeslsh {

// A duplicate-free list of candidate pairs (a < b in every pair), sorted by
// (a, b): every generator returns it in this order whatever its thread
// count.
struct CandidateList {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;

  // Pairs emitted before deduplication (LSH emits one copy per colliding
  // band). Equal to pairs.size() for generators that are duplicate-free.
  uint64_t raw_emitted = 0;

  uint64_t size() const { return pairs.size(); }
};

// Sorts pair keys, removes duplicates, and converts to a CandidateList
// sorted by (a, b), with raw_emitted = keys.size(). Consumes (and frees)
// the keys vector. Keys encode (a << 32) | b.
//
// With a multi-threaded pool, each worker sorts one equal-size piece of
// `keys` in place and drops the piece's own duplicates; one merge then
// writes the pieces' union straight into CandidateList::pairs. The result
// is the sequential one, and no second key buffer is allocated.
CandidateList DedupPairKeys(std::vector<uint64_t>&& keys, ThreadPool* pool);

}  // namespace bayeslsh

#endif  // BAYESLSH_CANDGEN_CANDIDATES_H_
