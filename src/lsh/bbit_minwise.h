// b-bit minwise hashing for Jaccard similarity (Li & König, WWW'10 —
// reference [15] of the paper).
//
// Instead of storing each minhash as a 32-bit integer, only its lowest b
// bits are kept. Two b-bit values collide when the underlying minhashes
// collide (probability J, the Jaccard similarity) or when they differ but
// their low b bits happen to agree (probability 2^-b for a counter-based
// hash over a large universe). The per-hash collision probability is thus
//
//     Pr[collision] = c + (1 - c) J,   c = 2^-b,
//
// an affine "noise floor" on top of the plain minwise model. (Li & König's
// exact C also carries O(|x|/D) set-size corrections, which vanish for the
// sparse, high-dimensional data this library targets; DESIGN.md records the
// substitution.) BayesLSH accommodates the changed likelihood with a new
// posterior model (core/bbit_posterior.h) — nothing in the engine changes,
// which is exactly the paper's portability claim.
//
// The payoff is storage and comparison speed: a b = 2 signature packs 32
// hashes into one word, so a round of k = 32 hash comparisons is a single
// XOR + fold + popcount instead of 32 integer compares. The price is
// information per hash, quantified by the posterior's wider spread; the
// ablation bench (bench/ablation_bbit_minwise.cc) measures the trade.

#ifndef BAYESLSH_LSH_BBIT_MINWISE_H_
#define BAYESLSH_LSH_BBIT_MINWISE_H_

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/simd_ops.h"
#include "lsh/minwise_hasher.h"
#include "lsh/signature_store.h"
#include "vec/sparse_vector.h"

namespace bayeslsh {

// True iff b is a supported signature width: a power of two in [1, 32].
// (64 is excluded: a 64-bit "b-bit" hash is just the full hash and would
// need none of this machinery.)
inline constexpr bool IsValidBbitWidth(uint32_t b) {
  return b >= 1 && b <= 32 && std::has_single_bit(b);
}

// Mask with the lowest bit of every b-bit group set, e.g. 0x1111... for
// b = 4. Requires IsValidBbitWidth(b).
inline constexpr uint64_t BbitGroupLsbMask(uint32_t b) {
  uint64_t mask = 0;
  for (uint32_t g = 0; g < 64 / b; ++g) mask |= 1ULL << (g * b);
  return mask;
}

// Packs the low b bits of full-width minwise hashes into the packed layout
// described above: hashes[i - from] becomes group i for i in [from, n),
// ORed into `words` (which must be sized for n values and zero where the
// new groups land). `from` must be a multiple of kMinhashChunkInts. Used
// both by the store's own growth and to pack externally hashed query
// signatures so MatchingBbitGroups can compare a query against stored
// rows.
void PackBbitValues(const uint32_t* hashes, uint32_t from, uint32_t n,
                    uint32_t bits_per_hash, uint64_t* words);

// Number of b-bit groups in [from, to) that agree between the packed
// sequences `a` and `b`. Group j of a sequence occupies bits
// [b*(j % vpw), b*(j % vpw + 1)) of word j / vpw with vpw = 64 / b values
// per word. Requires from <= to and both arrays to cover group to - 1.
//
// Word-parallel: the diff word's bits are OR-folded into each group's
// lowest bit (shifts of b/2, b/4, ..., 1 stay within a group's reach), so
// one popcount counts the disagreeing groups of a whole word. Partial
// head/tail words are masked here; the run of full words in the middle
// goes through simd::MatchingBbitGroupsWords (AVX2 when available, the
// scalar fold loop otherwise).
inline uint32_t MatchingBbitGroups(const uint64_t* a, const uint64_t* b,
                                   uint32_t from, uint32_t to,
                                   uint32_t bits_per_hash) {
  assert(from <= to && IsValidBbitWidth(bits_per_hash));
  if (from == to) return 0;
  const uint32_t vpw = 64 / bits_per_hash;
  const uint64_t lsb_mask = BbitGroupLsbMask(bits_per_hash);
  const uint32_t first_word = from / vpw;
  const uint32_t last_word = (to - 1) / vpw;
  const uint32_t head_off = from % vpw;
  const uint32_t tail_off = to % vpw;  // 0 means the last word is full.
  // Matching groups [glo, ghi) of word w.
  const auto partial = [&](uint32_t w, uint32_t glo, uint32_t ghi) {
    uint64_t diff = a[w] ^ b[w];
    for (uint32_t s = bits_per_hash >> 1; s >= 1; s >>= 1) diff |= diff >> s;
    uint64_t mask = lsb_mask;
    if (glo > 0) mask &= ~0ULL << (glo * bits_per_hash);
    if (ghi < vpw) mask &= (1ULL << (ghi * bits_per_hash)) - 1;
    return (ghi - glo) - static_cast<uint32_t>(std::popcount(diff & mask));
  };
  if (first_word == last_word && (head_off != 0 || tail_off != 0)) {
    return partial(first_word, head_off, tail_off == 0 ? vpw : tail_off);
  }
  uint32_t matches = 0;
  uint32_t w = first_word;
  if (head_off != 0) {
    matches += partial(w, head_off, vpw);
    ++w;
  }
  const uint32_t full_end = tail_off == 0 ? last_word + 1 : last_word;
  matches += simd::MatchingBbitGroupsWords(a + w, b + w, full_end - w,
                                           bits_per_hash, lsb_mask);
  if (tail_off != 0) matches += partial(last_word, 0, tail_off);
  return matches;
}

// Packed b-bit minwise signatures, the row layout of BbitSignatureStore
// (lsh/signature_store.h): hash j of a row is group j % (64 / b) of word
// j / (64 / b), as for MatchingBbitGroups. A growth chunk is 64 hash
// values — four minwise chunks, b words — so a pair pruned after 64 hashes
// costs each endpoint exactly one growth step. The store's tally counts
// the underlying minwise hashes: the b-bit truncation saves storage, not
// hashing. The section kind is kBbitPacked and records b, so a loader
// with a different width fails.
class BbitLayout {
 public:
  using Elem = uint64_t;

  // Requires IsValidBbitWidth(bits_per_hash).
  BbitLayout(MinwiseHasher minwise, uint32_t bits_per_hash)
      : minwise_(minwise), bits_per_hash_(bits_per_hash) {
    assert(IsValidBbitWidth(bits_per_hash));
  }

  uint32_t hashes_per_elem() const { return 64 / bits_per_hash_; }
  static constexpr uint32_t chunk_hashes() { return 64; }
  uint8_t bits_per_hash() const {
    return static_cast<uint8_t>(bits_per_hash_);
  }
  static constexpr SignatureKind kind() { return SignatureKind::kBbitPacked; }

  void Fill(const SparseVectorView& v, uint32_t row, uint32_t chunk,
            uint64_t* out) const;
  uint32_t Match(const uint64_t* a, const uint64_t* b, uint32_t from,
                 uint32_t to) const {
    return MatchingBbitGroups(a, b, from, to, bits_per_hash_);
  }

 private:
  MinwiseHasher minwise_;
  uint32_t bits_per_hash_;
};

// The lazy b-bit store; satisfies the same MatchCount contract the
// BayesLSH engines consume.
using BbitSignatureStore = SignatureStore<BbitLayout>;

// Instantiated once, in signature_store.cc.
extern template class SignatureStore<BbitLayout>;
extern template class SignatureOverflowShard<BbitLayout>;

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_BBIT_MINWISE_H_
