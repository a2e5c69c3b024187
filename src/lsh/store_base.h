// The type-erased lifecycle of a signature store, plus the chunk-hasher
// indirection that lets the one store template serve many hash families.
//
// Every signature store is a SignatureStore<Layout> (lsh/signature_store.h)
// and moves through one lifecycle: lazily grown rows -> two-phase sharded
// prefetch -> Freeze() -> lock-free serving, with Save/Load/LoadViews,
// CopyRowsFrom, AdoptRow and AppendRow riding along. SignatureStoreBase is
// the slice of that lifecycle a caller needs without knowing the row
// layout: the persistent index (core/index_io.h) builds, saves and loads
// its store through it, and the query searcher (core/query_search.h)
// freezes and grows its store through it. WordChunkHasher and
// IntChunkHasher make the bit and int layouts reusable for every measure
// whose signatures are 64-bit words (SRP, KLSH) or fixed-width integer
// runs (minwise, ICWS, p-stable) — LevelDB's pluggable-comparator shape:
// one store interface, N measure backends.
//
// Hashers receive the row id so implementations that cache expensive
// per-row work (KLSH anchor kernel rows) can key it; hashing an external
// vector (a query) passes kNoRow. Hash values must be pure functions of
// (hasher state, vector, chunk) — every determinism and warm-start identity
// guarantee in the serving stack rests on that.

#ifndef BAYESLSH_LSH_STORE_BASE_H_
#define BAYESLSH_LSH_STORE_BASE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "common/thread_pool.h"
#include "lsh/minwise_hasher.h"
#include "lsh/srp_hasher.h"
#include "vec/sparse_vector.h"

namespace bayeslsh {

// Signature-kind tags used by the serialized store sections (docs/FORMATS.md
// §"Signature section"). The tag is the first byte of a section, so a loader
// pointed at the wrong store kind fails immediately instead of
// reinterpreting bits.
enum class SignatureKind : uint8_t {
  kSrpBits = 0,      // BitSignatureStore: packed SRP bits, u64 words.
  kMinwiseInts = 1,  // IntSignatureStore: full-width minwise hashes, u32.
  kBbitPacked = 2,   // BbitSignatureStore: b-bit packed minwise, u64 words.
  kIcwsInts = 3,     // IntSignatureStore: ICWS weighted-Jaccard hashes, u32.
  kPstableInts = 4,  // IntSignatureStore: p-stable buckets, i32 bit-cast u32.
  kKlshBits = 5,     // BitSignatureStore: packed KLSH bits, u64 words.
};

// Row id passed to a chunk hasher when the vector is not a collection row
// (a query), so per-row caches are bypassed.
inline constexpr uint32_t kNoStoreRow = 0xffffffffu;

// Hash family producing one packed 64-bit word (64 sign bits) per chunk.
class WordChunkHasher {
 public:
  virtual ~WordChunkHasher() = default;

  // Hash bits [64*chunk, 64*chunk + 64) of v, hash 64*chunk + j at bit j.
  // `row` is the collection row id backing v, or kNoStoreRow.
  virtual uint64_t HashChunk(const SparseVectorView& v, uint32_t row,
                             uint32_t chunk) const = 0;

  virtual SignatureKind kind() const = 0;
};

// Hash family producing chunk_ints() consecutive u32 values per chunk.
class IntChunkHasher {
 public:
  virtual ~IntChunkHasher() = default;

  // Hashes [chunk_ints()*chunk, chunk_ints()*(chunk+1)) of v into out.
  virtual void HashChunk(const SparseVectorView& v, uint32_t row,
                         uint32_t chunk, uint32_t* out) const = 0;

  // Growth quantum in hash values (16 for minwise/ICWS, 64 for p-stable).
  virtual uint32_t chunk_ints() const = 0;

  virtual SignatureKind kind() const = 0;
};

// The layout-independent lifecycle operations; SignatureStore<Layout>
// (lsh/signature_store.h) is the one implementation and documents each.
class SignatureStoreBase {
 public:
  virtual ~SignatureStoreBase() = default;

  virtual uint32_t num_rows() const = 0;

  // Two-phase growth: uncounted per-row growth to >= n hash positions
  // (safe concurrently for distinct rows) returning the work done, merged
  // later via AddComputed into the computed() tally.
  virtual uint64_t EnsureRowUncounted(uint32_t row, uint32_t n) = 0;
  virtual void AddComputed(uint64_t n) = 0;
  virtual uint64_t computed() const = 0;

  // Grows every row to >= n hash positions, sharded over `pool` (null
  // runs inline), and merges the work into computed() once — the same
  // tally at any thread count.
  void EnsureAll(uint32_t n, ThreadPool* pool = nullptr) {
    AddComputed(ParallelWorkSum(pool, num_rows(), [&](uint64_t row) {
      return EnsureRowUncounted(static_cast<uint32_t>(row), n);
    }));
  }

  virtual void Freeze() = 0;
  virtual bool frozen() const = 0;
  virtual void AppendRow() = 0;

  // Row adoption from a store of the same layout (same kind and width).
  virtual void CopyRowsFrom(const SignatureStoreBase& other) = 0;
  virtual void AdoptRow(uint32_t row, const SignatureStoreBase& source,
                        uint32_t source_row) = 0;

  // Section serialization (docs/FORMATS.md §"Signature section").
  virtual void Save(std::ostream& out, bool align_blob) const = 0;
  virtual void Load(std::istream& in, bool padded) = 0;
  virtual void LoadViews(std::istream& in, const char* mapped_base,
                         size_t mapped_size) = 0;
};

// --- adapters for the original hash families ---

class SrpChunkHasher final : public WordChunkHasher {
 public:
  explicit SrpChunkHasher(SrpHasher srp) : srp_(srp) {}

  uint64_t HashChunk(const SparseVectorView& v, uint32_t /*row*/,
                     uint32_t chunk) const override {
    return srp_.HashChunk(v, chunk);
  }
  SignatureKind kind() const override { return SignatureKind::kSrpBits; }

  const SrpHasher& srp() const { return srp_; }

 private:
  SrpHasher srp_;
};

class MinwiseChunkHasher final : public IntChunkHasher {
 public:
  explicit MinwiseChunkHasher(MinwiseHasher minwise) : minwise_(minwise) {}

  void HashChunk(const SparseVectorView& v, uint32_t /*row*/, uint32_t chunk,
                 uint32_t* out) const override {
    minwise_.HashChunk(v, chunk, out);
  }
  uint32_t chunk_ints() const override { return kMinhashChunkInts; }
  SignatureKind kind() const override { return SignatureKind::kMinwiseInts; }

  const MinwiseHasher& minwise() const { return minwise_; }

 private:
  MinwiseHasher minwise_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_STORE_BASE_H_
