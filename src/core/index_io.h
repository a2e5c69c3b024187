// Persistent index: build once, serve many queries.
//
// Every serving session previously re-paid the full index-construction
// bill — hashing each collection row l*k times for the banding buckets and
// re-growing verification signatures from zero. PersistentIndex splits
// that cost out of the serve path: an offline Build() materializes the
// complete serving state (collection + banding buckets + prefetched
// verification signatures), Save() writes it as one versioned binary file
// (docs/FORMATS.md, "Index file"), and Load() adopts it back in a single
// I/O-bound pass. A QuerySearcher constructed from a loaded index answers
// queries pair-for-pair identically to one built from scratch — signatures
// are pure functions of (seed, row), so persistence changes where hashing
// happens, never what is returned.
//
// File integrity: the header carries magic bytes, a format version, an
// endianness canary, and a config fingerprint (a Mix64 chain over the
// build configuration and collection shape). Truncated, corrupt,
// version-bumped or mis-configured files fail loading with IndexError and
// leave no partially initialized object behind; the CLI maps that to exit
// code 2.
//
// Ownership: the index owns its dataset and is handled through
// std::unique_ptr (internal stores point at the owned dataset, so the
// object is non-movable). Searchers constructed from an index require it
// to outlive them and copy its signature rows, so many searchers can
// serve from one loaded index independently.

#ifndef BAYESLSH_CORE_INDEX_IO_H_
#define BAYESLSH_CORE_INDEX_IO_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "candgen/banding_index.h"
#include "candgen/lsh_banding.h"
#include "core/measure_table.h"
#include "kernel/kernels.h"
#include "kernel/klsh.h"
#include "lsh/bbit_minwise.h"
#include "lsh/signature_store.h"
#include "sim/similarity.h"
#include "vec/dataset.h"
#include "vec/io.h"

namespace bayeslsh {

// Raised on malformed, truncated, version- or config-mismatched index
// files, and on attempts to pair an index with an incompatible config.
class IndexError : public IoError {
 public:
  using IoError::IoError;
};

// On-disk format version written to index files by default. Version 2
// page-aligns every signature blob (docs/FORMATS.md) so LoadFileMmap can
// map the slabs read-only instead of copying them. Version 3 extends the
// measure tag with weighted Jaccard (ICWS), kernel cosine (KLSH) and
// Euclidean, and adds the KLSH measure-config section (kernel spec +
// family shape + anchor rows) for kernel-cosine indexes. Load still
// accepts version-1 and -2 files (v1 is copying-load only), and Save can
// be asked to emit any supported version — though only v3 can carry the
// new measures.
inline constexpr uint32_t kIndexFormatVersion = 3;

// Oldest format version Load still reads.
inline constexpr uint32_t kIndexMinFormatVersion = 1;

// IndexBuildConfig::prefetch_hashes sentinel: prefetch every row to the
// default per-candidate serving budget (BayesLshParams::max_hashes, 4096
// hashes). An index built this way holds the fully hashed, frozen-form
// signatures: QuerySearcher::Freeze() on a searcher warm-started from it
// (at default budgets) is a pure state flip with zero additional hashing.
// The file format is unchanged — only how much of each row is
// materialized.
inline constexpr uint32_t kPrefetchFull = 0xffffffffu;

// The hash family (MeasureSpec) plus how to build the index. The spec's
// threshold is the similarity threshold (or Euclidean radius) the banding
// shape is derived for. Serving at a higher threshold is always safe;
// serving below the build threshold raises the banding false-negative
// rate beyond the configured ε. For kKernelCosine the built index
// persists its anchors, and every component hashing against the index
// must use them (warm searchers adopt them with the index's spec). Null
// klsh_anchors samples min(klsh.num_anchors, data rows) from the dataset
// with the master seed; compaction passes the base index's spec, anchors
// included, so adopted signatures stay valid.
struct IndexBuildConfig : MeasureSpec {
  // Banding shape; 0 fields are resolved exactly as by QuerySearcher
  // (ResolveBandingShape), so a fresh searcher and an index built from the
  // same config agree.
  LshBandingParams banding;

  // Verification hashes prefetched per row at build time, rounded up to
  // whole chunks; 0 selects one verification round (32 cosine bits / 16
  // Jaccard ints — the horizon the sharded query path prefetches anyway),
  // kPrefetchFull the full default serving budget (the fully hashed form
  // a frozen searcher serves from). More prefetch makes the serve path
  // cheaper at the price of a bigger index file; it never changes query
  // results.
  uint32_t prefetch_hashes = 0;

  // Worker threads for the build (0 = all hardware threads).
  uint32_t num_threads = 1;
};

// Warm-start material for Build(): a map from each row of the new
// dataset to the row of an existing index holding the same content, so
// the build adopts that row's already-computed verification signature
// instead of re-hashing it (signatures are pure functions of
// (seed, row content), so adopted and recomputed bytes are identical).
// This is what makes compaction (core/dynamic_index.h) cheap: folding a
// small delta into a large base re-hashes only the delta rows.
//
// source_rows[i] names the source row for new row i, or kFreshRow for a
// row with no donor (hashed from scratch as usual). The caller owns the
// content-equality guarantee — Build can and does check that the source
// index's (measure, seed, bbit) match the config, but not the row bytes.
class PersistentIndex;

struct SignatureAdoption {
  static constexpr uint32_t kFreshRow = 0xffffffffu;

  const PersistentIndex* source = nullptr;
  std::vector<uint32_t> source_rows;
};

class PersistentIndex {
 public:
  PersistentIndex(const PersistentIndex&) = delete;
  PersistentIndex& operator=(const PersistentIndex&) = delete;

  // Builds the full serving state over `data` (which must already follow
  // the measure conventions of sim/similarity.h — the index stores the
  // rows as given). Throws std::invalid_argument on invalid config
  // (e.g. bbit with a cosine measure).
  //
  // With a non-null `adopt`, verification signatures are copied per row
  // from adopt->source wherever source_rows names a donor (see
  // SignatureAdoption); throws std::invalid_argument when the source's
  // (measure, seed, bbit) disagree with the config or the map's shape is
  // wrong. Banding generation hashes (l*k per row) are always recomputed
  // — they are never stored per row, only bucketed.
  static std::unique_ptr<PersistentIndex> Build(
      Dataset data, const IndexBuildConfig& cfg,
      const SignatureAdoption* adopt = nullptr);

  // Deserializes an index. Throws IndexError on any malformed input:
  // wrong magic, unsupported version, nonzero reserved header byte,
  // corrupt fingerprint, truncated or structurally invalid sections.
  // expect_eof = false skips the trailing-bytes check so an index can be
  // embedded as a section of an enclosing stream (the dynamic-index
  // manifest, core/dynamic_index.h — the enclosing reader owns the
  // end-of-file framing); standalone loads keep the default strict
  // framing. LoadFile additionally fails closed on paths that are not
  // readable non-empty regular files (directories, zero-byte files).
  static std::unique_ptr<PersistentIndex> Load(std::istream& in,
                                               bool expect_eof = true);
  static std::unique_ptr<PersistentIndex> LoadFile(const std::string& path);

  // Zero-copy load: maps the file read-only and resolves every signature
  // row to a view into the mapping, so warm start is O(1) in signature
  // bytes (pages fault in on first use). Requires a standalone format-v2
  // file (page-aligned blobs); v1 or embedded files fail with IndexError
  // telling the caller to re-save. The index owns the mapping; it is
  // released with the index. On platforms without mmap this falls back to
  // the copying LoadFile.
  static std::unique_ptr<PersistentIndex> LoadFileMmap(
      const std::string& path);

  // True when this index serves signature rows out of an mmap'd file
  // (constructed by LoadFileMmap).
  bool mmap_backed() const { return mapping_ != nullptr; }

  // Serializes the index (deterministic: equal indexes produce equal
  // bytes). `format_version` selects the wire layout — the default v2
  // (page-aligned, mmap-able) or v1 for compatibility fixtures. Throws
  // IndexError on write failure or an unsupported version.
  void Save(std::ostream& out,
            uint32_t format_version = kIndexFormatVersion) const;
  void SaveFile(const std::string& path,
                uint32_t format_version = kIndexFormatVersion) const;

  // The hash family the index was built with: its threshold is the build
  // threshold and, for kKernelCosine, it holds the kernel, the family
  // shape and the anchor rows (the kernel fields of the other measures
  // are defaults). Every component that rebuilds the index's family —
  // warm searchers, delta segments, compaction, shards — takes it whole.
  const MeasureSpec& spec() const { return spec_; }

  const Dataset& data() const { return data_; }
  Measure measure() const { return spec_.measure; }
  double build_threshold() const { return spec_.threshold; }
  uint64_t seed() const { return spec_.seed; }
  uint32_t hashes_per_band() const { return k_; }
  uint32_t num_bands() const { return l_; }
  uint32_t bbit() const { return spec_.bbit; }
  SignatureKind signature_kind() const;
  const BandingIndex& banding() const { return banding_; }

  // The verification signature store, of signature_kind().
  const SignatureStoreBase& store() const { return *store_; }

  // Mix64 chain over (format version, measure, signature kind, bbit, seed,
  // threshold bits, banding shape, collection shape) — the value stored in
  // and checked against the file header. The chain is seeded with the
  // file's format version, so a v1 and a v2 file of the same index carry
  // different fingerprints and neither validates as the other.
  uint64_t Fingerprint(uint32_t format_version = kIndexFormatVersion) const;

  ~PersistentIndex();  // Out-of-line: MappedFile is incomplete here.

 private:
  struct MappedFile;  // RAII mmap handle (index_io.cc).

  // Shared body of Load and LoadFileMmap. A non-null `mapped_base` means
  // `in` streams over that mapping and signature sections resolve to
  // zero-copy views (requires format v2).
  static std::unique_ptr<PersistentIndex> LoadInternal(std::istream& in,
                                                       bool expect_eof,
                                                       const char* mapped_base,
                                                       size_t mapped_size);

  PersistentIndex() = default;

  // Creates the empty verification store matching the measure and bbit.
  void InitStore(const HashStream& verification);

  Dataset data_;
  MeasureSpec spec_;
  uint32_t k_ = 0;
  uint32_t l_ = 0;
  BandingIndex banding_;

  // The verification store; its hasher owns what it hashes with
  // (core/measure_table.h).
  std::unique_ptr<SignatureStoreBase> store_;

  // Non-null only for LoadFileMmap indexes: keeps the mapping the stores'
  // row views point into alive for the life of the index. (Destruction
  // order vs the stores is immaterial — store destructors free owned
  // vectors and never dereference views.)
  std::unique_ptr<MappedFile> mapping_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_INDEX_IO_H_
