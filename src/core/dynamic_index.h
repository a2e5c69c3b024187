// Dynamic index: LSM-style layering of a small mutable delta segment over
// the frozen PersistentIndex base, so the corpus can change while serving
// without a full rebuild per insert.
//
// The paper's pipeline is a build-once system: PersistentIndex freezes the
// whole serving state at construction, and before this subsystem any
// Add/Remove forced a complete rebuild and re-freeze. DynamicIndex applies
// the standard log-structured answer (an immutable base plus a mutable
// in-memory delta, merged at read time and compacted in the background —
// the memtable/SSTable split of LSM stores):
//
//   Add(v)     appends the vector to the delta segment: the delta's
//              Dataset grows a row, its signature stores grow an empty
//              lazily hashed row, and its banding buckets take an
//              incremental insert — O(l*k) hashing, never a rebuild.
//   Remove(id) records a tombstone; the row stays physically present in
//              its segment until the next compaction and is subtracted
//              from every query result.
//   Query()    fans out over {frozen base, delta}, maps each segment's
//              physical rows to stable logical ids, drops tombstoned
//              ids, and merges the per-segment result lists into one
//              similarity-ordered answer.
//   Compact()  folds the live rows of both segments into a new frozen
//              base (PersistentIndex::Build over the merged corpus),
//              clears the delta and the tombstone set, and preserves
//              every logical id. The rebuild runs against a snapshot
//              with no lock held — readers keep serving the old
//              segments for its whole duration — and the finished base
//              is swapped in under a brief exclusive lock that only
//              moves pointers and re-homes rows added meanwhile.
//              Signatures are pure functions of (seed, content), so the
//              new base adopts the old base's already-computed
//              signature rows verbatim (SignatureAdoption,
//              core/index_io.h) and re-hashes only former delta rows.
//
// Ids: Add assigns monotonically increasing logical ids that survive
// compaction (an id is never reused, even after Remove). QueryMatch::id
// holds logical ids, so callers can hold them across any interleaving of
// Add/Remove/Compact.
//
// Determinism: signatures and banding keys are pure functions of
// (seed, row content), so a row hashes identically whether it lives in
// the base, the delta, or a rebuilt corpus; per-candidate BayesLSH
// verification depends only on (query, candidate) — never on other
// candidates. Query results after ANY interleaving of Add/Remove/Compact
// are therefore pair-for-pair identical to a from-scratch rebuild over
// the same logical corpus, for every signature kind and thread count
// (asserted by tests/dynamic_index_test.cc). The one read-side cost of
// deferral: tombstoned rows remain candidates until compaction (they are
// verified, then subtracted), so QueryStats may count more candidates
// than a rebuild would — the classic LSM read amplification, reclaimed by
// Compact().
//
// Concurrency: queries and Save (both read-only) take a shared lock and
// may run concurrently from any number of threads (the segment searchers
// are internally synchronized); Add/Remove take an exclusive lock and
// may be called from any thread, serialized against each other, against
// queries, and against Save. Compact (explicit or auto-triggered) runs
// its rebuild lock-free against a snapshot; concurrent compactions are
// serialized among themselves, and only the final segment swap excludes
// readers.
//
// Durability: without a WAL, mutations are durable only at the next
// SaveFile — a crash loses everything since the last checkpoint. After
// AttachWal(path), every Add/Remove is appended to the checksummed log
// (core/wal.h, format BLSHWL1E) and flushed BEFORE it takes effect or is
// acknowledged; reattaching after a crash replays the log over the
// manifest checkpoint, so the recovered index is query-identical to a
// from-scratch rebuild of exactly the acknowledged mutation prefix.
// SaveFile checkpoints the full state and resets the log (replay is
// idempotent across the crash window between those two steps). Log
// corruption that cannot be a torn tail fails closed with WalError.
//
// Persistence: Save/Load use the versioned segment manifest format
// (magic BLSHDX1E — docs/FORMATS.md, "Dynamic index manifest"): logical
// id maps, the embedded frozen base index, the delta rows, and the
// tombstone list, with a fingerprint end marker. Loading rebuilds the
// delta's (small, by invariant) serving state; malformed manifests throw
// IndexError and the CLI maps them to exit code 2.

#ifndef BAYESLSH_CORE_DYNAMIC_INDEX_H_
#define BAYESLSH_CORE_DYNAMIC_INDEX_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include <shared_mutex>

#include "core/index_io.h"
#include "core/query_search.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

// On-disk manifest version written to and accepted from manifest files.
inline constexpr uint32_t kManifestFormatVersion = 1;

struct DynamicIndexConfig {
  // Serving threshold; 0 serves at the base index's build threshold.
  // Thresholds below the build threshold raise the banding false-negative
  // rate beyond the configured ε, exactly as for QuerySearcher.
  double threshold = 0.0;

  // Exact verification of unpruned candidates (the Lite behaviour).
  bool exact_verification = false;

  // Worker threads for segment queries, QueryBatch sharding and
  // compaction builds (0 = all hardware threads, 1 = sequential).
  uint32_t num_threads = 1;

  // Size-tiered auto-compaction triggers, checked after every mutation;
  // a trigger schedules one background compaction (never stacking a
  // second behind a running one — the policy re-fires on the next
  // mutation if still due). 0 disables a trigger; both default off, so
  // compaction stays explicit unless asked for.
  //
  // Fires when the delta holds at least this many rows (the memtable
  // size trigger: bounds delta query cost and manifest reload work).
  uint32_t auto_compact_delta_rows = 0;
  // Fires when tombstones exceed this fraction of all physical rows
  // (the garbage trigger: bounds ghost-candidate read amplification).
  double auto_compact_tombstone_fraction = 0.0;

  // With a WAL attached, fsync the log on every acknowledged mutation.
  // Off, the guarantee is process-crash durability (the data reached the
  // kernel — it survives SIGKILL, not power loss); on, it extends to
  // machine crashes at the cost of a device round trip per mutation.
  bool wal_sync = false;
};

// What AttachWal recovered from an existing log (all zero for a fresh
// one): applied counts mutations replayed into the index, skipped counts
// records already covered by the manifest checkpoint (the crash window
// between checkpoint write and log reset), tail_truncated reports that a
// torn tail — an in-flight, never-acknowledged append — was discarded
// and repaired.
struct WalRecovery {
  uint64_t records = 0;
  uint64_t applied = 0;
  uint64_t skipped = 0;
  bool tail_truncated = false;
};

// A serveable, updatable index: frozen base + mutable delta + tombstones.
// Measure, seed, b-bit width and banding shape are taken from the base
// index and apply to every future delta row and compaction.
class DynamicIndex {
 public:
  // Takes ownership of the frozen base. Logical ids 0..n-1 map to the
  // base's rows. Throws std::invalid_argument on a null base.
  DynamicIndex(std::unique_ptr<PersistentIndex> base,
               const DynamicIndexConfig& cfg);

  ~DynamicIndex();
  DynamicIndex(const DynamicIndex&) = delete;
  DynamicIndex& operator=(const DynamicIndex&) = delete;

  // Appends one vector to the delta segment and returns its logical id.
  // The vector must follow the measure conventions of sim/similarity.h
  // (kCosine: L2-normalized; kJaccard/kBinaryCosine: binary) and its
  // dimensions must be < num_dims() — std::invalid_argument otherwise.
  // Empty vectors are accepted (they can never match a query), matching
  // the batch build's handling of empty corpus rows.
  uint32_t Add(const SparseVectorView& v);

  // Tombstones a logical id. Returns false (and changes nothing) when the
  // id was never assigned or is already removed — so callers can fail
  // closed on typo'd ids. The row is physically reclaimed at the next
  // Compact().
  bool Remove(uint32_t id);

  // True iff `id` is assigned and not tombstoned.
  bool Contains(uint32_t id) const;

  // Merge-on-query serving: all live rows x with s(x, q) >= threshold,
  // sorted by decreasing similarity (ties by ascending logical id) —
  // pair-for-pair what a from-scratch rebuild over the live corpus would
  // return. top_k != 0 keeps the first top_k live matches: segments
  // answer in full and the cut follows the merge, so a tombstoned base
  // row can never displace a live delta row from the top k. stats, when
  // given, receives the summed segment stats (see the header comment on
  // read amplification; threads_used is the max over segments). Safe to
  // call concurrently from any number of threads.
  std::vector<QueryMatch> Query(const SparseVectorView& q,
                                QueryStats* stats = nullptr,
                                uint32_t top_k = 0) const;

  // Batched serving: slot i answers queries[i], each merged across
  // segments and cut to top_k exactly as Query() does. Results are
  // identical to a serial Query() loop for any thread count.
  std::vector<std::vector<QueryMatch>> QueryBatch(
      std::span<const SparseVectorView> queries,
      QueryStats* stats = nullptr, uint32_t top_k = 0) const;

  // Folds the delta and the tombstones into a new frozen base over the
  // live rows (in logical-id order), preserving every logical id, and
  // resets the delta to the rows added after the compaction snapshot.
  // Queries before and after return identical results (asserted); a
  // Compact with an empty delta and no tombstones is a no-op, so
  // double-compaction is idempotent.
  //
  // The rebuild runs on the calling thread but OFF the serving lock:
  // concurrent queries keep serving the old segments for its whole
  // duration, and only the final pointer swap takes the exclusive lock
  // (re-homing rows added meanwhile — they stay in the delta). Old-base
  // signatures are adopted, not recomputed (see the header comment).
  // Concurrent Compact calls (including auto-triggered background ones)
  // serialize against each other.
  void Compact();

  // Attaches (and replays) the write-ahead log at `path` — see the
  // header comment on durability. Call once, before the first mutation;
  // a fresh path starts an empty log, an existing one is replayed over
  // the current (checkpoint) state and repaired if its tail was torn.
  // Throws WalError on log corruption that cannot be a torn tail (the
  // fail-closed cases), std::logic_error if a WAL is already attached.
  WalRecovery AttachWal(const std::string& path);

  // Blocks until no background (auto-triggered) compaction is running,
  // then rethrows the error that ended the most recent one, if any.
  // Called by the destructor (which swallows errors instead).
  void WaitForCompaction();

  // Bounded drain: waits at most `timeout_seconds` for the background
  // compaction to finish. Returns true (and rethrows any saved error)
  // when the worker is drained within the budget; false when the
  // compaction is still running at expiry — the worker keeps running and
  // a later wait can reap it. The server drain path uses this so one
  // wedged compaction cannot hang shutdown: report, don't block forever.
  bool WaitForCompaction(double timeout_seconds);

  // Test hook: runs at the start of every compaction body, while
  // concurrent readers are still serving the old segments — lets tests
  // make a compaction arbitrarily slow (or wedge it) to pin the bounded
  // WaitForCompaction contract. Empty function clears the hook.
  void SetCompactHookForTest(std::function<void()> hook);

  // Crash-harness fault injection, forwarded to the attached WAL (see
  // WalWriter::SetCrashAfterBytes): after `total_bytes` physically
  // logged bytes, die mid-append leaving a genuinely torn log. Throws
  // std::logic_error without an attached WAL.
  void SetWalCrashAfterBytes(uint64_t total_bytes,
                             std::function<void()> on_crash = {});

  // Serializes the manifest (docs/FORMATS.md, "Dynamic index manifest").
  // Deterministic for a given state. Throws IndexError on write failure.
  void Save(std::ostream& out) const;
  void SaveFile(const std::string& path) const;

  // Deserializes a manifest. Throws IndexError on any malformed input —
  // bad magic or version, nonzero reserved field, id maps out of order,
  // tombstones naming unknown ids, embedded section corruption, or a
  // fingerprint/end-marker mismatch. LoadFile fails closed on paths that
  // are not readable non-empty regular files.
  static std::unique_ptr<DynamicIndex> Load(std::istream& in,
                                            const DynamicIndexConfig& cfg);
  static std::unique_ptr<DynamicIndex> LoadFile(
      const std::string& path, const DynamicIndexConfig& cfg);

  // True iff the file starts with the dynamic-manifest magic — the cheap
  // dispatch test the CLI uses to serve either index kind behind one
  // --index flag. False on unreadable or short files (the loaders then
  // produce the real diagnostic).
  static bool SniffFile(const std::string& path);

  // Snapshot of the live corpus in ascending logical-id order (base rows
  // first, then delta rows — base ids always precede delta ids), with
  // the matching logical ids written to *ids when non-null. Takes the
  // shared lock, so the snapshot is a consistent cut against concurrent
  // mutations. This is the repartitioning source the sharded serving
  // front-end (core/sharded_index.h) uses to spread one loaded index
  // over K shards.
  Dataset LiveCorpus(std::vector<uint32_t>* ids = nullptr) const;

  // Shape and config accessors (safe from any thread). spec() is the
  // base's hash family (its threshold is the build threshold), pinned at
  // construction and kept by every compaction: the delta segment hashes
  // with it, and so does anything that rebuilds the index elsewhere.
  const MeasureSpec& spec() const;
  Measure measure() const;
  uint32_t num_dims() const;
  uint32_t num_bands() const;        // Banding shape shared by all
  uint32_t hashes_per_band() const;  //   segments and compactions.

  uint32_t num_base_rows() const;   // Physical rows in the frozen base.
  uint32_t num_delta_rows() const;  // Physical rows in the delta.
  uint32_t num_tombstones() const;
  uint32_t num_live() const;        // base + delta - tombstones.

  // Verification hash work recorded by the current base index's own
  // store (bits for SRP, underlying minwise hashes otherwise) —
  // instrumentation for the adoption guarantee: a compaction that folds
  // only tombstones produces a base whose store did zero fresh hashing.
  uint64_t base_hash_work() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_DYNAMIC_INDEX_H_
