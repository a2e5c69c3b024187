// AllPairs (Bayardo, Ma & Srikant, WWW 2007) for cosine similarity on
// real-valued vectors — the paper's exact state-of-the-art baseline and one
// of the two candidate generators fed to BayesLSH.
//
// Sketch: rows are L2-normalized, so cosine(x, y) = dot(x, y). Dimensions
// are processed in decreasing document-frequency order and vectors in
// decreasing max-weight order. For each vector, a prefix of its features is
// withheld from the inverted index: feature f can stay unindexed as long as
// the running bound
//
//     b = Σ_(features so far) min(maxweight_dim(V), maxweight(x)) · x[f]
//
// stays below the threshold t. Any later probe vector z (which has
// maxweight(z) <= maxweight(x)) satisfies dot(z, prefix(x)) <= b < t, so a
// pair that shares *no indexed feature* cannot reach the threshold — making
// candidate generation from the partial index exact. Verification adds the
// accumulated indexed score A[y] to an exact dot with the unindexed prefix,
// guarded by an upper-bound test.
//
// (We deliberately omit Bayardo's `remscore` candidate-admission heuristic;
// see DESIGN.md §6 — the partial-index bound above is the one we can prove
// exact, and exactness of this module is load-bearing for every speedup
// table.)
//
// Two modes:
//   * AllPairsJoin        — the exact join (generation + internal verify),
//   * AllPairsCandidates  — emit the candidate pairs (everything admitted to
//                           the score accumulator) *without* verification;
//                           this is the candidate feed for AP+BayesLSH.
//
// Binary cosine reuses this module on BinarizeNormalized(data). Binary
// Jaccard uses candgen/prefix_filter_join.h instead. The probe loop runs
// through internal::ProbeRows (candgen/exact_join_impl.h), the one
// sharded probe driver of the three exact joins; the probe body is this
// file's.

#ifndef BAYESLSH_CANDGEN_ALLPAIRS_H_
#define BAYESLSH_CANDGEN_ALLPAIRS_H_

#include <cstdint>
#include <vector>

#include "candgen/candidates.h"
#include "common/thread_pool.h"
#include "sim/brute_force.h"
#include "vec/dataset.h"

namespace bayeslsh {

// Instrumentation shared by both modes.
struct AllPairsStats {
  uint64_t candidates = 0;        // Pairs admitted to the accumulator.
  uint64_t ubound_pruned = 0;     // Candidates killed by the upper bound.
  uint64_t exact_verified = 0;    // Candidates that needed an exact dot.
  uint64_t indexed_entries = 0;   // Size of the partial inverted index.
};

// Exact all-pairs cosine join: all pairs (i < j) with dot >= threshold.
// Rows of `data` must be L2-normalized. Throws std::invalid_argument
// unless threshold lies in (0, 1].
//
// Both modes run in two phases (build the full index bound-split first,
// then probe every vector against entries indexed before it), which lets a
// pool shard the probe loop over row ranges with per-worker accumulators;
// results are identical for any thread count, including none.
std::vector<ScoredPair> AllPairsJoin(const Dataset& data, double threshold,
                                     AllPairsStats* stats = nullptr,
                                     ThreadPool* pool = nullptr);

// Candidate-only mode: emits every pair admitted to the accumulator.
CandidateList AllPairsCandidates(const Dataset& data, double threshold,
                                 AllPairsStats* stats = nullptr,
                                 ThreadPool* pool = nullptr);

}  // namespace bayeslsh

#endif  // BAYESLSH_CANDGEN_ALLPAIRS_H_
