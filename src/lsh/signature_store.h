// Lazy, chunk-grown signature storage.
//
// BayesLSH's cost model depends on hashing each object only as much as
// needed: a pair pruned after 32 bits should not force its endpoints to be
// hashed 2048 times. A store grows each row's signature on demand, in
// whole chunks (64 bits for SRP, 16 ints for minwise, 64 values for b-bit
// minwise), and tracks the total hashing work done — which the pipeline
// reports as "hashing overhead", mirroring the paper's discussion of
// amortized hashing costs.
//
// One store template, SignatureStore<Layout>, serves every hash family.
// Its row layout supplies only what differs between families: the element
// type, the hashes per element and per growth chunk, how a chunk is
// filled, the match kernel and the section's bits-per-hash byte
// (BitLayout and IntLayout below, BbitLayout in lsh/bbit_minwise.h).
// Growth, the tally, the growth mutex, freezing, mmap views, row adoption
// and serialization are written once, here.
//
// Concurrency: a store moves through three states (docs/ARCHITECTURE.md,
// "Concurrency model"):
//
// 1. Cold / lazy (the paper's model). Growth happens on demand. The
//    serving-path entry point MatchAgainstQuery serializes growth and the
//    row read behind an internal mutex, so concurrent query threads are
//    safe; the bulk-growth APIs (EnsureRow / EnsureAll / MatchCount)
//    remain single-threaded unless the caller coordinates.
//
// 2. Two-phase sharded verification:
//
//   Phase A (prefetch) — workers grow disjoint row ranges via
//     EnsureRowUncounted (distinct rows touch distinct vectors, so no
//     synchronization is needed), accumulate the hashing work privately,
//     and the coordinator merges it with AddComputed. A coordinator that
//     shares the store with concurrent serving threads must hold
//     GrowthLock() across both phases.
//
//   Phase B (verify) — growth pauses; workers use the read-only
//     MatchCountReadOnly against the prefetched signatures, and route the
//     rare pairs that outlive the prefetch horizon through a private
//     OverflowShard, which extends copies of the shared rows locally.
//     Overflow hashing is merged into the shared tally after the join, so
//     the "hash only as much as needed" accounting stays intact up to
//     cross-shard duplication of overflow rows (the documented
//     prefetch-horizon slack).
//
// 3. Frozen (immutable-once-published serving). After every row is grown
//    to the largest depth any future lookup can request, Freeze() makes
//    the store permanently immutable: every MatchCount path takes a
//    lock-free read-only fast path, zero-work tally merges are dropped,
//    and any call that would actually mutate the store is a programming
//    error (asserted). Frozen stores can serve any number of concurrent
//    readers with no synchronization at all.

#ifndef BAYESLSH_LSH_SIGNATURE_STORE_H_
#define BAYESLSH_LSH_SIGNATURE_STORE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bit_ops.h"
#include "common/simd_ops.h"
#include "lsh/minwise_hasher.h"
#include "lsh/srp_hasher.h"
#include "lsh/store_base.h"
#include "vec/dataset.h"

namespace bayeslsh {

// --- row layouts ---
//
// A layout holds the hash family and describes one row: Elem is the
// stored element; hashes_per_elem() hash positions share an element and a
// growth chunk is chunk_hashes() positions (a whole number of elements);
// Fill writes chunk `chunk` of vector v (collection row `row`, or
// kNoStoreRow) into the chunk's elements; Match counts the positions in
// [from, to) where two rows agree; bits_per_hash() is the section's
// bits-per-hash byte (docs/FORMATS.md); kind() its kind tag.

// Packed bits, one 64-bit word per chunk: hash i of a row is bit i % 64
// of word i / 64 (SRP by default; any WordChunkHasher family, e.g. KLSH).
class BitLayout {
 public:
  using Elem = uint64_t;

  explicit BitLayout(SrpHasher srp)
      : BitLayout(std::make_shared<SrpChunkHasher>(srp)) {}
  explicit BitLayout(std::shared_ptr<const WordChunkHasher> hasher)
      : hasher_(std::move(hasher)) {}

  static constexpr uint32_t hashes_per_elem() { return 64; }
  static constexpr uint32_t chunk_hashes() { return 64; }
  static constexpr uint8_t bits_per_hash() { return 0; }
  SignatureKind kind() const { return hasher_->kind(); }

  void Fill(const SparseVectorView& v, uint32_t row, uint32_t chunk,
            uint64_t* out) const {
    *out = hasher_->HashChunk(v, row, chunk);
  }
  static uint32_t Match(const uint64_t* a, const uint64_t* b, uint32_t from,
                        uint32_t to) {
    return MatchingBits(a, b, from, to);
  }

 private:
  std::shared_ptr<const WordChunkHasher> hasher_;
};

// Full-width u32 hash values, hash i at index i (minwise by default; any
// IntChunkHasher family, e.g. ICWS or p-stable). A chunk is the hasher's
// chunk_ints() values: 16 for minwise and ICWS, 64 for p-stable.
class IntLayout {
 public:
  using Elem = uint32_t;

  explicit IntLayout(MinwiseHasher minwise)
      : IntLayout(std::make_shared<MinwiseChunkHasher>(minwise)) {}
  explicit IntLayout(std::shared_ptr<const IntChunkHasher> hasher)
      : hasher_(std::move(hasher)), chunk_hashes_(hasher_->chunk_ints()) {}

  static constexpr uint32_t hashes_per_elem() { return 1; }
  uint32_t chunk_hashes() const { return chunk_hashes_; }
  static constexpr uint8_t bits_per_hash() { return 0; }
  SignatureKind kind() const { return hasher_->kind(); }

  void Fill(const SparseVectorView& v, uint32_t row, uint32_t chunk,
            uint32_t* out) const {
    hasher_->HashChunk(v, row, chunk, out);
  }
  static uint32_t Match(const uint32_t* a, const uint32_t* b, uint32_t from,
                        uint32_t to) {
    return simd::CountEqualU32(a + from, b + from, to - from);
  }

 private:
  std::shared_ptr<const IntChunkHasher> hasher_;
  uint32_t chunk_hashes_;
};

template <typename Layout>
class SignatureOverflowShard;

// The lazily grown signature store over one collection; see the header
// comment. Hash position i of a row is the one the layout places there;
// every length below counts hash positions unless it says elements.
template <typename Layout>
class SignatureStore final : public SignatureStoreBase {
 public:
  using Elem = typename Layout::Elem;

  // The per-shard overflow view of this store (see header comment).
  using OverflowShard = SignatureOverflowShard<Layout>;

  // `data` must outlive the store; the layout is built from the remaining
  // arguments (a hasher, plus the width for b-bit).
  template <typename... LayoutArgs>
  explicit SignatureStore(const Dataset* data, LayoutArgs&&... layout_args)
      : data_(data),
        layout_(std::forward<LayoutArgs>(layout_args)...),
        rows_(data->num_vectors()) {}

  SignatureKind kind() const { return layout_.kind(); }
  uint32_t num_rows() const override {
    return static_cast<uint32_t>(rows_.size());
  }

  // Growth quantum in hash positions.
  uint32_t chunk_hashes() const { return layout_.chunk_hashes(); }

  // Hash positions currently held for a row.
  uint32_t HashesHeld(uint32_t row) const {
    return HeldElems(row) * layout_.hashes_per_elem();
  }

  // A row's elements, in the layout's packing.
  const Elem* Signature(uint32_t row) const {
    if (!views_.empty() &&
        views_[row].second > static_cast<uint32_t>(rows_[row].size())) {
      return views_[row].first;
    }
    return rows_[row].data();
  }

  // The value of hash j of a row: a bit, a b-bit group or a full hash
  // (test and debug access). Requires j < HashesHeld(row).
  uint32_t HashValue(uint32_t row, uint32_t j) const;

  // Grows row's signature to at least n hash positions (rounded up to
  // whole chunks), counted in computed().
  void EnsureRow(uint32_t row, uint32_t n) {
    AddComputed(EnsureRowUncounted(row, n));
  }

  // Grows every row to at least n hash positions.
  void EnsureAll(uint32_t n);

  // EnsureRow without touching the shared computed() tally; returns the
  // hash positions newly computed. Safe to call concurrently for distinct
  // rows — workers accumulate the returned work privately and merge it
  // with AddComputed() after the join.
  uint64_t EnsureRowUncounted(uint32_t row, uint32_t n) override;

  // Merges privately accounted hashing work into computed(). A zero merge
  // is dropped without touching memory, so protocol code may call this
  // unconditionally even while a frozen store serves concurrent readers.
  void AddComputed(uint64_t n) override {
    if (n != 0) computed_.fetch_add(n, std::memory_order_relaxed);
  }

  // Total hash positions computed so far across all rows — for b-bit,
  // the underlying minwise hashes (truncation saves storage, not
  // hashing). A relaxed atomic: safe to poll from any thread while an
  // unfrozen store grows concurrently.
  uint64_t computed() const override {
    return computed_.load(std::memory_order_relaxed);
  }

  // Number of hash positions in [from, to) where rows a and b agree,
  // growing both signatures as needed. On a frozen store this takes the
  // lock-free read-only fast path (both rows must already cover `to`).
  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to);

  // Read-only MatchCount: requires both rows already grown to `to`.
  // Safe to call concurrently while no thread is growing the store.
  uint32_t MatchCountReadOnly(uint32_t a, uint32_t b, uint32_t from,
                              uint32_t to) const {
    assert(from <= to);
    assert(HashesHeld(a) >= to && HashesHeld(b) >= to);
    return layout_.Match(Signature(a), Signature(b), from, to);
  }

  // Serving-path match of one stored row against an external query
  // signature in the same layout over positions [from, to).
  //
  // This is the one extension point behind `QuerySearcher::Query() const`:
  // on a frozen store it is lock-free and purely read-only (the row must
  // already cover `to`); on an unfrozen store the lazy row growth and the
  // row read are serialized by the internal growth mutex, so concurrent
  // callers are safe and the only observable mutation is the computed()
  // tally. No unsynchronized const-cast-style mutation is reachable from
  // a const searcher.
  uint32_t MatchAgainstQuery(uint32_t row, const Elem* query, uint32_t from,
                             uint32_t to);

  // --- frozen-state serving ---

  // Makes the store permanently immutable. The caller must first have
  // grown every row to the largest depth any future lookup can request
  // (QuerySearcher::Freeze does this); a growth call that still needs work
  // after Freeze() is a programming error. Publishing the frozen store to
  // other threads must happen-after this call (any synchronizing handoff
  // does).
  void Freeze() override { frozen_.store(true, std::memory_order_release); }
  bool frozen() const override {
    return frozen_.load(std::memory_order_acquire);
  }

  // Exclusive hold of the growth mutex, for a multi-step growth protocol
  // (e.g. the within-query sharded path: prefetch, overflow, merge) that
  // must exclude concurrent MatchAgainstQuery callers. Returns an empty
  // (lock-free) lock when frozen — a frozen store needs no exclusion.
  std::unique_lock<std::mutex> GrowthLock() {
    if (frozen()) return {};
    return std::unique_lock<std::mutex>(growth_mu_);
  }

  // Extends the store by one (empty, lazily grown) signature row for a
  // row just appended to the collection — the LSM delta growth path
  // (core/dynamic_index.h). Serialized against serving-path growth by the
  // growth mutex; never legal on a frozen store (asserted). Callers must
  // still exclude concurrent readers of num_rows()/Signature() while
  // appending, exactly as for any other structural growth.
  void AppendRow() override {
    assert(!frozen());
    std::lock_guard<std::mutex> lock(growth_mu_);
    rows_.emplace_back();
    if (!views_.empty()) views_.emplace_back(nullptr, 0);
  }

  // --- row adoption from a store of the same layout (same kind and
  // width) ---

  // Adopts every row of `other` that is longer than the local one (warm
  // start from a persistent index). Rows that `other` holds as mmap views
  // are borrowed as views (the index — and thus the mapping — must outlive
  // this store, per the QuerySearcher warm-start contract); owned rows are
  // copied. Does not touch the tally: the adopted hashes were accounted
  // when `other` computed them. Both stores must cover datasets with the
  // same rows.
  void CopyRowsFrom(const SignatureStoreBase& other) override;

  // Replaces `row` with a copy of row `source_row` of `source` when that
  // one is longer (the build-time adoption of core/index_io.h); the two
  // rows must hold the same content. Does not touch the tally. Safe to
  // call concurrently for distinct rows.
  void AdoptRow(uint32_t row, const SignatureStoreBase& source,
                uint32_t source_row) override;

  // --- serialization ---

  // Serializes every grown row plus the computed() tally as one signature
  // section tagged with kind() and the layout's bits-per-hash byte
  // (docs/FORMATS.md). Deterministic: the bytes depend only on the rows,
  // the tally, and the stream position when `align_blob` is set (format
  // v2+ pads the row blob to a page boundary so it can be mapped instead
  // of copied).
  void Save(std::ostream& out, bool align_blob = false) const override;

  // Replaces this store's rows and tally with a previously saved section.
  // The store must cover a dataset with the same row count (signatures are
  // a pure function of (hasher, row), so the caller is responsible for
  // pairing the section with the dataset and hasher seed it was grown
  // under — the persistent index header enforces this). `padded` selects
  // the format v2 wire layout (alignment pad before the blob). Throws
  // IoError on a malformed or truncated section, or one of another kind or
  // width; the store is unchanged on throw.
  void Load(std::istream& in, bool padded = false) override;

  // Zero-copy variant of Load for an index file mapped read-only at
  // `mapped_base` (`in` must be a stream over that same mapping): rows
  // become views into the mapping instead of owned copies, so loading does
  // no signature allocation or copying at all. The mapping must outlive
  // the store (core/index_io.h owns both). Requires the v2 page-aligned
  // layout; throws IoError otherwise. A view-backed row behaves exactly
  // like an owned one — growth past the mapped depth first materializes
  // the mapped prefix into an owned copy (uncounted: the writer accounted
  // those hashes).
  void LoadViews(std::istream& in, const char* mapped_base,
                 size_t mapped_size) override;

  // Bytes of signature storage currently held across all rows.
  uint64_t signature_bytes() const;

  const Dataset* data() const { return data_; }
  const Layout& layout() const { return layout_; }

  // The per-layout spellings the benchmark harness (perfbench/) compiles
  // against.
  uint32_t NumBits(uint32_t row) const { return HashesHeld(row); }
  uint32_t NumHashes(uint32_t row) const { return HashesHeld(row); }
  void EnsureBits(uint32_t row, uint32_t n) { EnsureRow(row, n); }
  void EnsureHashes(uint32_t row, uint32_t n) { EnsureRow(row, n); }
  uint64_t bits_computed() const { return computed(); }
  uint64_t hashes_computed() const { return computed(); }

 private:
  friend OverflowShard;

  // Elements a row logically holds: the longer of the owned vector and the
  // mmap view (growth materializes the view into the vector, so whichever
  // is longer is current).
  uint32_t HeldElems(uint32_t row) const {
    const auto own = static_cast<uint32_t>(rows_[row].size());
    if (views_.empty()) return own;
    return views_[row].second > own ? views_[row].second : own;
  }

  // n rounded up to whole chunks.
  uint32_t ChunkAligned(uint32_t n) const {
    const uint32_t chunk = layout_.chunk_hashes();
    return (n + chunk - 1) / chunk * chunk;
  }

  // Appends the chunks of row `row` that *r (a chunk-aligned prefix of
  // the row) lacks to cover n hash positions; returns the hash positions
  // computed. Reads only the dataset and the layout, so overflow shards
  // grow their private copies with it too.
  uint64_t Grow(uint32_t row, uint32_t n, std::vector<Elem>* r) const;

  // `other` as this store's type; see the adoption contract above.
  const SignatureStore& Peer(const SignatureStoreBase& other) const;

  // Replaces row's signature with a longer already-computed copy, without
  // touching the tally; a no-op unless `r` is longer. Never adopts into a
  // frozen store.
  void Adopt(uint32_t row, std::vector<Elem>&& r) {
    if (r.size() > HeldElems(row)) {
      assert(!frozen());
      rows_[row] = std::move(r);
    }
  }

  const Dataset* data_;
  Layout layout_;
  std::vector<std::vector<Elem>> rows_;
  // Zero-copy row views into an mmap'd index (LoadViews): empty in copy
  // mode, else parallel to rows_. See HeldElems for the row invariant.
  std::vector<std::pair<const Elem*, uint32_t>> views_;
  std::atomic<uint64_t> computed_{0};
  std::atomic<bool> frozen_{false};
  std::mutex growth_mu_;  // Serving-path growth (see MatchAgainstQuery).
};

// --- per-shard overflow store (phase B of the two-phase protocol) ---
//
// Each verification worker owns one shard. MatchCount (row against row) and
// MatchAgainstQuery (row against a query signature) serve ranges covered
// by the shared store's prefetched signatures read-only; a row that needs
// deeper hashes copies the shared prefix once and extends the copy
// locally with the same layout (hash values are a pure function of
// (hasher, row, chunk), so results are identical to sequential growth).
// computed() reports only locally computed hashes — copies of prefetched
// prefixes are never double-counted.
template <typename Layout>
class SignatureOverflowShard {
 public:
  using Store = SignatureStore<Layout>;
  using Elem = typename Layout::Elem;

  explicit SignatureOverflowShard(const Store* base) : base_(base) {}

  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to);

  // Store::MatchAgainstQuery through this shard: positions the shared
  // store already covers are read from it, deeper ones from the
  // shard-local extension of the row (the within-query sharded path of
  // core/query_search.h).
  uint32_t MatchAgainstQuery(uint32_t row, const Elem* query, uint32_t from,
                             uint32_t to);

  // Folds this shard's extended rows back into `store` (which must be the
  // base it was built over) so later phases and queries reuse the hashing
  // work instead of recomputing it. Call after the parallel join, while
  // no other thread touches the store; leaves the shard empty. Does not
  // change any tally — pair computed() with Store::AddComputed() as usual.
  void MergeInto(Store* store);

  // Hash positions computed locally by this shard.
  uint64_t computed() const { return computed_; }

 private:
  // The shard's copy of `row`, grown to cover n hash positions.
  const Elem* Row(uint32_t row, uint32_t n);

  const Store* base_;
  std::unordered_map<uint32_t, std::vector<Elem>> rows_;
  uint64_t computed_ = 0;
};

// Bit signatures (SRP / cosine by default, KLSH) and integer signatures
// (minwise / Jaccard by default, ICWS, p-stable); the b-bit store is
// BbitSignatureStore (lsh/bbit_minwise.h).
using BitSignatureStore = SignatureStore<BitLayout>;
using IntSignatureStore = SignatureStore<IntLayout>;

// Instantiated once, in signature_store.cc.
extern template class SignatureStore<BitLayout>;
extern template class SignatureStore<IntLayout>;
extern template class SignatureOverflowShard<BitLayout>;
extern template class SignatureOverflowShard<IntLayout>;

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_SIGNATURE_STORE_H_
