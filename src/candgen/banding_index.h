// The LSH banding table (paper §2): per band, a hash map from the band's
// key to the rows in that bucket. It is the one place where a generation
// signature becomes band keys and rows are grouped by key, and every
// consumer goes through it:
//
//  - the all-pairs join (candgen/lsh_banding.h) emits every bucket's pairs
//    with BucketPairs, which groups one band at a time per worker and
//    never holds the whole table;
//  - multi-probe (candgen/multiprobe.h) does the same, passing the XOR
//    masks of its Hamming ball to BucketPairs;
//  - the persistent index (core/index_io.h) builds the table and saves it
//    as the index file's banding section;
//  - the query searcher (core/query_search.h) builds it (or borrows an
//    index's), probes it once per query, and grows it row by row with
//    Insert as the delta segment takes rows.
//
// Callers hash; the table keys. A generation signature is a span over
// packed bit words (SRP, KLSH: a band's key is its k consecutive bits) or
// over u32 hash values (minwise, ICWS, p-stable: a Mix64 chain over the
// band's k values, seeded per band so identical runs in different bands do
// not alias), covering at least l*k hashes. Generation hashes are an
// independent stream from verification hashes (DESIGN.md §6).
//
// Determinism: Build and BucketPairs grow the store over rows and then
// work over bands (each band is owned by exactly one worker), so their
// output is independent of the thread count; bucket row lists are in
// ascending row order by construction, and inserting rows in ascending id
// order after a build reproduces the batch build of the longer collection.
// Save() writes each band's keys in sorted order, making the serialized
// form byte-stable.

#ifndef BAYESLSH_CANDGEN_BANDING_INDEX_H_
#define BAYESLSH_CANDGEN_BANDING_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "lsh/signature_store.h"
#include "vec/dataset.h"

namespace bayeslsh {

class BandingIndex {
 public:
  using Buckets = std::unordered_map<uint64_t, std::vector<uint32_t>>;

  BandingIndex() = default;

  uint32_t num_bands() const { return static_cast<uint32_t>(bands_.size()); }
  uint32_t hashes_per_band() const { return hashes_per_band_; }

  const Buckets& band(uint32_t b) const { return bands_[b]; }

  // Rows in `band` whose key equals `key`, or nullptr when the bucket is
  // empty.
  const std::vector<uint32_t>* Find(uint32_t band, uint64_t key) const {
    const auto it = bands_[band].find(key);
    return it == bands_[band].end() ? nullptr : &it->second;
  }

  // Builds a k x l table over every non-empty row of a generation store
  // (empty rows have similarity 0 to everything and are never
  // candidates). Grows each row to l*k hashes first, sharded over `pool`
  // and counted in the store's computed().
  template <typename Layout>
  static BandingIndex Build(SignatureStore<Layout>* store, uint32_t k,
                            uint32_t l, ThreadPool* pool = nullptr);

  // Build over a throwaway store of `data` hashed with the generation
  // hasher that is set, `bits` or `ints`: the index build and a fresh
  // searcher, whose banding hashes are never reused for verification.
  static BandingIndex Build(const Dataset& data,
                            std::shared_ptr<const WordChunkHasher> bits,
                            std::shared_ptr<const IntChunkHasher> ints,
                            uint32_t k, uint32_t l,
                            ThreadPool* pool = nullptr);

  // The key of band `band` of a generation signature, k hashes per band.
  static uint64_t Key(std::span<const uint64_t> words, uint32_t band,
                      uint32_t k) {
    return CosineKey(words.data(), static_cast<uint32_t>(words.size()), band,
                     k);
  }
  static uint64_t Key(std::span<const uint32_t> ints, uint32_t band,
                      uint32_t k) {
    return JaccardKey(ints.data(), band, k);
  }

  // Appends `row` to its bucket in every band: the delta segment's growth
  // path (core/dynamic_index.h). Inserting the rows of an appended range
  // in ascending id order, skipping empty rows as Build does, reproduces
  // Build over the whole collection. Not concurrent-safe with Find —
  // callers serialize inserts against probes.
  template <typename Elem>
  void Insert(std::span<const Elem> sig, uint32_t row) {
    for (uint32_t b = 0; b < num_bands(); ++b) {
      bands_[b][Key(sig, b, hashes_per_band_)].push_back(row);
    }
  }

  // Appends the rows of every bucket `sig` falls into, band by band (a row
  // sharing several of them appears once per shared band): the per-query
  // probe.
  template <typename Elem>
  void Probe(std::span<const Elem> sig, std::vector<uint32_t>* out) const {
    for (uint32_t b = 0; b < num_bands(); ++b) {
      const std::vector<uint32_t>* bucket =
          Find(b, Key(sig, b, hashes_per_band_));
      if (bucket != nullptr) out->insert(out->end(), bucket->begin(),
                                         bucket->end());
    }
  }

  // Every pair of rows that share a bucket of the k x l table over a
  // generation store, as PairKey(a, b) with a < b, once per band they
  // share: the join's emitter. Grows the store as Build does, then shards
  // over bands without building the table: each worker groups one band at
  // a time by sorting its (key, row) entries, so memory stays at 16 bytes
  // per row per worker. Each of `probe_masks` adds the pairs a bucket
  // forms with the bucket whose key is its own XOR the mask (multi-probe
  // over bit keys; candgen/multiprobe.h). The key multiset is the same at
  // any thread count; the join deduplicates it with DedupPairKeys
  // (candgen/candidates.h).
  template <typename Layout>
  static std::vector<uint64_t> BucketPairs(
      SignatureStore<Layout>* store, uint32_t k, uint32_t l,
      ThreadPool* pool = nullptr, std::span<const uint64_t> probe_masks = {});

  // Band keys of raw signatures; `words`/`ints` must cover l*k hashes.
  // `num_words` is the length of the `words` array (bounds-asserted by
  // ExtractBits in Debug builds).
  static uint64_t CosineKey(const uint64_t* words, uint32_t num_words,
                            uint32_t band, uint32_t k);
  static uint64_t JaccardKey(const uint32_t* ints, uint32_t band,
                             uint32_t k);

  // Serializes the table as the "Banding section" of docs/FORMATS.md —
  // deterministic (keys sorted per band). Load validates structure (sorted
  // unique keys, non-empty buckets, row ids < num_rows) and throws IoError
  // on corruption, leaving the index unchanged.
  void Save(std::ostream& out) const;
  static BandingIndex Load(std::istream& in, uint32_t num_rows);

 private:
  BandingIndex(uint32_t k, uint32_t l) : hashes_per_band_(k), bands_(l) {}

  uint32_t hashes_per_band_ = 0;
  std::vector<Buckets> bands_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_CANDGEN_BANDING_INDEX_H_
