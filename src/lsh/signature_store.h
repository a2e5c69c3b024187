// Lazy, chunk-grown signature storage.
//
// BayesLSH's cost model depends on hashing each object only as much as
// needed: a pair pruned after 32 bits should not force its endpoints to be
// hashed 2048 times. These stores grow each row's signature on demand, in
// whole chunks (64 bits for SRP, 16 ints for minwise), and track the total
// hashing work done — which the pipeline reports as "hashing overhead",
// mirroring the paper's discussion of amortized hashing costs.
//
// Concurrency: a store moves through three states (docs/ARCHITECTURE.md,
// "Concurrency model"):
//
// 1. Cold / lazy (the paper's model). Growth happens on demand. The
//    serving-path entry point MatchAgainstQuery serializes growth and the
//    row read behind an internal mutex, so concurrent query threads are
//    safe; the bulk-growth APIs (EnsureBits / EnsureAllBits / MatchCount)
//    remain single-threaded unless the caller coordinates.
//
// 2. Two-phase sharded verification:
//
//   Phase A (prefetch) — workers grow disjoint row ranges via
//     EnsureBitsUncounted / EnsureHashesUncounted (distinct rows touch
//     distinct vectors, so no synchronization is needed), accumulate the
//     hashing work privately, and the coordinator merges it with
//     AddBitsComputed / AddHashesComputed. A coordinator that shares the
//     store with concurrent serving threads must hold GrowthLock() across
//     both phases.
//
//   Phase B (verify) — growth pauses; workers use the read-only
//     MatchCountReadOnly against the prefetched signatures, and route the
//     rare pairs that outlive the prefetch horizon through a private
//     BitOverflowShard / IntOverflowShard, which extends copies of the
//     shared rows locally. Overflow hashing is merged into the shared
//     tally after the join, so the "hash only as much as needed"
//     accounting stays intact up to cross-shard duplication of overflow
//     rows (the documented prefetch-horizon slack).
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
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bit_ops.h"
#include "lsh/minwise_hasher.h"
#include "lsh/srp_hasher.h"
#include "lsh/store_base.h"
#include "vec/dataset.h"

namespace bayeslsh {

class BitOverflowShard;
class IntOverflowShard;

// Bit signatures, one packed word per chunk (SRP / cosine by default; any
// WordChunkHasher family, e.g. KLSH). Hash i of row v is bit i%64 of word
// i/64.
class BitSignatureStore final : public SignatureStoreBase {
 public:
  // Hashes per lazily grown chunk.
  static constexpr uint32_t kChunkHashes = static_cast<uint32_t>(kBitsPerWord);

  // The per-shard overflow view of this store (see header comment).
  using OverflowShard = BitOverflowShard;

  // Both referents must outlive the store.
  BitSignatureStore(const Dataset* data, SrpHasher hasher);

  // Generalized form: signatures come from any word-chunk hash family; the
  // serialized section carries the hasher's kind() tag.
  BitSignatureStore(const Dataset* data,
                    std::shared_ptr<const WordChunkHasher> hasher);

  uint32_t num_rows() const override {
    return static_cast<uint32_t>(words_.size());
  }

  // Grows row's signature to at least n_bits hashes (rounded up to chunks).
  void EnsureBits(uint32_t row, uint32_t n_bits);

  // EnsureBits without touching the shared bits_computed() tally; returns
  // the bits newly computed. Safe to call concurrently for distinct rows —
  // workers accumulate the returned work privately and merge it with
  // AddBitsComputed() after the join.
  uint64_t EnsureBitsUncounted(uint32_t row, uint32_t n_bits);

  // Merges privately accounted hashing work into bits_computed(). A zero
  // merge is dropped without touching memory, so protocol code may call
  // this unconditionally even while a frozen store serves concurrent
  // readers. The tally is a relaxed atomic: bits_computed() may be polled
  // from any thread while an unfrozen store grows concurrently.
  void AddBitsComputed(uint64_t bits) {
    if (bits != 0) bits_computed_.fetch_add(bits, std::memory_order_relaxed);
  }

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

  // Serving-path match of one stored row against an external query
  // signature (packed bit words, hash i at bit i) over positions
  // [from, to).
  //
  // This is the one extension point behind `QuerySearcher::Query() const`:
  // on a frozen store it is lock-free and purely read-only (the row must
  // already cover `to` bits); on an unfrozen store the lazy row growth and
  // the row read are serialized by the internal growth mutex, so
  // concurrent callers are safe and the only observable mutation is the
  // bits_computed() tally. No unsynchronized const-cast-style mutation is
  // reachable from a const searcher.
  uint32_t MatchAgainstQuery(uint32_t row, const uint64_t* query_words,
                             uint32_t from, uint32_t to);

  // Exclusive hold of the growth mutex, for a multi-step growth protocol
  // (e.g. the within-query sharded path: prefetch, overflow, merge) that
  // must exclude concurrent MatchAgainstQuery callers. Returns an empty
  // (lock-free) lock when frozen — a frozen store needs no exclusion.
  std::unique_lock<std::mutex> GrowthLock() override {
    if (frozen()) return {};
    return std::unique_lock<std::mutex>(growth_mu_);
  }

  // Extends the store by one (empty, lazily grown) signature row for a
  // row just appended to the collection — the LSM delta growth path
  // (core/dynamic_index.h). Serialized against serving-path growth by the
  // growth mutex; never legal on a frozen store (asserted). Callers must
  // still exclude concurrent readers of num_rows()/Words() while
  // appending, exactly as for any other structural growth.
  void AppendRow() override {
    assert(!frozen());
    std::lock_guard<std::mutex> lock(growth_mu_);
    words_.emplace_back();
    if (!views_.empty()) views_.emplace_back(nullptr, 0);
  }

  // Grows every row to at least n_bits hashes.
  void EnsureAllBits(uint32_t n_bits);

  // Bits currently available for a row.
  uint32_t NumBits(uint32_t row) const {
    return HeldWords(row) * static_cast<uint32_t>(kBitsPerWord);
  }

  const uint64_t* Words(uint32_t row) const {
    if (!views_.empty() &&
        views_[row].second > static_cast<uint32_t>(words_[row].size())) {
      return views_[row].first;
    }
    return words_[row].data();
  }

  // Number of hash positions in [from, to) where rows a and b agree,
  // growing both signatures as needed. On a frozen store this takes the
  // lock-free read-only fast path (both rows must already cover `to`).
  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to);

  // Read-only MatchCount: requires both rows already grown to `to` bits.
  // Safe to call concurrently while no thread is growing the store.
  uint32_t MatchCountReadOnly(uint32_t a, uint32_t b, uint32_t from,
                              uint32_t to) const;

  // Replaces row's signature with a longer already-computed copy (an
  // overflow shard folding its work back after a parallel join — see
  // BitOverflowShard::MergeInto). Does NOT touch bits_computed(): the
  // computing shard already accounted the work. No-op if the store
  // already covers at least as many bits. Never adopts into a frozen
  // store.
  void AdoptWords(uint32_t row, std::vector<uint64_t>&& words) {
    if (words.size() > HeldWords(row)) {
      assert(!frozen());
      words_[row] = std::move(words);
    }
  }

  // Total hash bits computed so far across all rows (instrumentation;
  // safe to read from any thread).
  uint64_t bits_computed() const {
    return bits_computed_.load(std::memory_order_relaxed);
  }

  // Serializes every grown row plus the bits_computed() tally as one
  // signature section tagged with the hasher's kind() (docs/FORMATS.md).
  // Deterministic: the bytes depend only on the rows, the tally, and the
  // stream position when `align_blob` is set (format v2+ pads the row blob
  // to a page boundary so it can be mapped instead of copied).
  void Save(std::ostream& out, bool align_blob = false) const override;

  // Replaces this store's rows and tally with a previously saved section.
  // The store must cover a dataset with the same row count (signatures are
  // a pure function of (hasher, row), so the caller is responsible for
  // pairing the section with the dataset and hasher seed it was grown
  // under — the persistent index header enforces this). `padded` selects
  // the format v2 wire layout (alignment pad before the blob). Throws
  // IoError on a malformed or truncated section; the store is unchanged on
  // throw.
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

  // Adopts every row of `other` that is longer than the local one (warm
  // start from a persistent index). Rows that `other` holds as mmap views
  // are borrowed as views (the index — and thus the mapping — must outlive
  // this store, per the QuerySearcher warm-start contract); owned rows are
  // copied. Does not touch the tally: the adopted hashes were accounted
  // when `other` computed them. Both stores must cover datasets with the
  // same row count.
  void CopyRowsFrom(const BitSignatureStore& other);

  const Dataset* data() const { return data_; }
  const WordChunkHasher& hasher() const { return *hasher_; }

  // --- SignatureStoreBase contract (bit-flavoured methods above) ---
  SignatureKind kind() const override { return hasher_->kind(); }
  uint32_t chunk_hashes() const override { return kChunkHashes; }
  uint32_t HashesHeld(uint32_t row) const override { return NumBits(row); }
  void EnsureRow(uint32_t row, uint32_t n) override { EnsureBits(row, n); }
  void EnsureAll(uint32_t n) override { EnsureAllBits(n); }
  uint64_t EnsureRowUncounted(uint32_t row, uint32_t n) override {
    return EnsureBitsUncounted(row, n);
  }
  void AddComputed(uint64_t n) override { AddBitsComputed(n); }
  uint64_t computed() const override { return bits_computed(); }

 private:
  // Words a row logically holds: the longer of the owned vector and the
  // mmap view (growth materializes the view into the vector, so whichever
  // is longer is current).
  uint32_t HeldWords(uint32_t row) const {
    const auto own = static_cast<uint32_t>(words_[row].size());
    if (views_.empty()) return own;
    return views_[row].second > own ? views_[row].second : own;
  }

  const Dataset* data_;
  std::shared_ptr<const WordChunkHasher> hasher_;
  std::vector<std::vector<uint64_t>> words_;
  // Zero-copy row views into an mmap'd index (LoadViews): empty in copy
  // mode, else parallel to words_. See HeldWords for the row invariant.
  std::vector<std::pair<const uint64_t*, uint32_t>> views_;
  std::atomic<uint64_t> bits_computed_{0};
  std::atomic<bool> frozen_{false};
  std::mutex growth_mu_;  // Serving-path growth (see MatchAgainstQuery).
};

// Integer signatures (minwise / Jaccard by default; any IntChunkHasher
// family, e.g. ICWS or p-stable — the chunk size follows the hasher).
class IntSignatureStore final : public SignatureStoreBase {
 public:
  // The minwise growth quantum; the generalized ctor's quantum is
  // hasher->chunk_ints() (see chunk_hashes()).
  static constexpr uint32_t kChunkHashes = kMinhashChunkInts;

  using OverflowShard = IntOverflowShard;

  IntSignatureStore(const Dataset* data, MinwiseHasher hasher);

  // Generalized form: signatures come from any int-chunk hash family; the
  // serialized section carries the hasher's kind() tag.
  IntSignatureStore(const Dataset* data,
                    std::shared_ptr<const IntChunkHasher> hasher);

  uint32_t num_rows() const override {
    return static_cast<uint32_t>(hashes_.size());
  }

  void EnsureHashes(uint32_t row, uint32_t n_hashes);

  // Two-phase protocol counterparts of EnsureBitsUncounted /
  // AddBitsComputed (see BitSignatureStore; zero merges are dropped, the
  // tally is a relaxed atomic readable from any thread).
  uint64_t EnsureHashesUncounted(uint32_t row, uint32_t n_hashes);
  void AddHashesComputed(uint64_t n) {
    if (n != 0) hashes_computed_.fetch_add(n, std::memory_order_relaxed);
  }

  // Frozen-state serving; see the BitSignatureStore counterparts. The
  // query signature is a plain array of full-width hash values, hash i at
  // index i.
  void Freeze() override { frozen_.store(true, std::memory_order_release); }
  bool frozen() const override {
    return frozen_.load(std::memory_order_acquire);
  }
  uint32_t MatchAgainstQuery(uint32_t row, const uint32_t* query_hashes,
                             uint32_t from, uint32_t to);
  std::unique_lock<std::mutex> GrowthLock() override {
    if (frozen()) return {};
    return std::unique_lock<std::mutex>(growth_mu_);
  }

  // See BitSignatureStore::AppendRow.
  void AppendRow() override {
    assert(!frozen());
    std::lock_guard<std::mutex> lock(growth_mu_);
    hashes_.emplace_back();
    if (!views_.empty()) views_.emplace_back(nullptr, 0);
  }

  void EnsureAllHashes(uint32_t n_hashes);

  uint32_t NumHashes(uint32_t row) const { return HeldHashes(row); }

  const uint32_t* Hashes(uint32_t row) const {
    if (!views_.empty() &&
        views_[row].second > static_cast<uint32_t>(hashes_[row].size())) {
      return views_[row].first;
    }
    return hashes_[row].data();
  }

  // Number of hash positions in [from, to) where rows a and b agree,
  // growing both signatures as needed.
  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to);

  // Read-only MatchCount: requires both rows already grown to `to` hashes.
  uint32_t MatchCountReadOnly(uint32_t a, uint32_t b, uint32_t from,
                              uint32_t to) const;

  // See BitSignatureStore::AdoptWords.
  void AdoptHashes(uint32_t row, std::vector<uint32_t>&& hashes) {
    if (hashes.size() > HeldHashes(row)) {
      assert(!frozen());
      hashes_[row] = std::move(hashes);
    }
  }

  uint64_t hashes_computed() const {
    return hashes_computed_.load(std::memory_order_relaxed);
  }

  // Serialization + warm start; see the BitSignatureStore counterparts.
  // The section kind is the hasher's kind() tag.
  void Save(std::ostream& out, bool align_blob = false) const override;
  void Load(std::istream& in, bool padded = false) override;
  void LoadViews(std::istream& in, const char* mapped_base,
                 size_t mapped_size) override;
  void CopyRowsFrom(const IntSignatureStore& other);

  const Dataset* data() const { return data_; }
  const IntChunkHasher& hasher() const { return *hasher_; }

  // --- SignatureStoreBase contract (int-flavoured methods above) ---
  SignatureKind kind() const override { return hasher_->kind(); }
  uint32_t chunk_hashes() const override { return hasher_->chunk_ints(); }
  uint32_t HashesHeld(uint32_t row) const override { return NumHashes(row); }
  void EnsureRow(uint32_t row, uint32_t n) override { EnsureHashes(row, n); }
  void EnsureAll(uint32_t n) override { EnsureAllHashes(n); }
  uint64_t EnsureRowUncounted(uint32_t row, uint32_t n) override {
    return EnsureHashesUncounted(row, n);
  }
  void AddComputed(uint64_t n) override { AddHashesComputed(n); }
  uint64_t computed() const override { return hashes_computed(); }

 private:
  // See BitSignatureStore::HeldWords.
  uint32_t HeldHashes(uint32_t row) const {
    const auto own = static_cast<uint32_t>(hashes_[row].size());
    if (views_.empty()) return own;
    return views_[row].second > own ? views_[row].second : own;
  }

  const Dataset* data_;
  std::shared_ptr<const IntChunkHasher> hasher_;
  std::vector<std::vector<uint32_t>> hashes_;
  // Zero-copy row views (LoadViews); see BitSignatureStore::views_.
  std::vector<std::pair<const uint32_t*, uint32_t>> views_;
  std::atomic<uint64_t> hashes_computed_{0};
  std::atomic<bool> frozen_{false};
  std::mutex growth_mu_;  // Serving-path growth (see MatchAgainstQuery).
};

// --- per-shard overflow stores (phase B of the two-phase protocol) ---
//
// Each verification worker owns one shard. MatchCount (row against row) and
// MatchAgainstQuery (row against a query signature) serve ranges covered
// by the shared store's prefetched signatures read-only; a row that needs
// deeper hashes copies the shared prefix once and extends the copy
// locally with the same hasher (hash values are a pure function of
// (hasher, row, chunk), so results are identical to sequential growth).
// computed() reports only locally computed hashes — copies of prefetched
// prefixes are never double-counted.

class BitOverflowShard {
 public:
  explicit BitOverflowShard(const BitSignatureStore* base) : base_(base) {}

  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to);

  // BitSignatureStore::MatchAgainstQuery through this shard: positions the
  // shared store already covers are read from it, deeper ones from the
  // shard-local extension of the row (the within-query sharded path of
  // core/query_search.h).
  uint32_t MatchAgainstQuery(uint32_t row, const uint64_t* query_words,
                             uint32_t from, uint32_t to);

  // Folds this shard's extended rows back into `store` (which must be the
  // base it was built over) so later phases and queries reuse the hashing
  // work instead of recomputing it. Call after the parallel join, while
  // no other thread touches the store; leaves the shard empty. Does not
  // change any tally — pair computed() with AddBitsComputed() as usual.
  void MergeInto(BitSignatureStore* store);

  // Hash bits computed locally by this shard.
  uint64_t computed() const { return bits_computed_; }

 private:
  const std::vector<uint64_t>& Row(uint32_t row, uint32_t n_bits);

  const BitSignatureStore* base_;
  std::unordered_map<uint32_t, std::vector<uint64_t>> rows_;
  uint64_t bits_computed_ = 0;
};

class IntOverflowShard {
 public:
  explicit IntOverflowShard(const IntSignatureStore* base) : base_(base) {}

  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to);

  // See BitOverflowShard::MatchAgainstQuery.
  uint32_t MatchAgainstQuery(uint32_t row, const uint32_t* query_hashes,
                             uint32_t from, uint32_t to);

  // See BitOverflowShard::MergeInto.
  void MergeInto(IntSignatureStore* store);

  uint64_t computed() const { return hashes_computed_; }

 private:
  const std::vector<uint32_t>& Row(uint32_t row, uint32_t n_hashes);

  const IntSignatureStore* base_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> rows_;
  uint64_t hashes_computed_ = 0;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_SIGNATURE_STORE_H_
