// Query-mode similarity search: the general problem of paper §1 ("given a
// query object q, retrieve all objects from D with s(x, q) > t"), as
// opposed to the all-pairs self-join the benchmarks focus on.
//
// An index is built once over the collection (LSH banding buckets plus the
// lazy signature store); each query is then hashed, probed against the
// buckets, and its candidates are verified with BayesLSH — so the paper's
// pruning machinery amortizes across queries exactly as it does across
// pairs in the self-join. Supports threshold queries and top-k (top-k is
// implemented as a threshold query with a similarity-ordered cut, the
// standard adaptation).
//
// Queries do not mutate the index and may use vectors not present in the
// collection. With num_threads > 1 the searcher owns a worker pool: the
// index build shards over bands, QueryBatch() shards over queries, and a
// single large Query() shards its candidate verification over candidates
// (results identical to single-threaded for any thread count).
//
// Concurrency model (docs/ARCHITECTURE.md, "Freeze & serve"):
// Query()/QueryTopK()/QueryBatch() are safe to call concurrently from any
// number of threads, on one shared searcher. On a *frozen* searcher (see
// Freeze()) the signature store is immutable and concurrent queries read
// it lock-free — the intended serving mode. On an unfrozen searcher the
// lazy signature growth is serialized by a mutex inside the store, so
// concurrent queries are still correct but contend on growth; freeze
// before sharing a searcher across serving threads. Freeze() itself and
// the constructors are not concurrent-safe: complete them before handing
// the searcher to other threads.

#ifndef BAYESLSH_CORE_QUERY_SEARCH_H_
#define BAYESLSH_CORE_QUERY_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "candgen/lsh_banding.h"
#include "core/bayes_lsh.h"
#include "kernel/klsh.h"
#include "lsh/gaussian_source.h"
#include "lsh/signature_store.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

class PersistentIndex;  // core/index_io.h

struct QuerySearchConfig {
  Measure measure = Measure::kCosine;

  // Similarity threshold t in (0, 1] — except for kEuclidean, where it is
  // the query *radius* (> 0, unbounded above): matches are rows within that
  // distance and their QueryMatch::sim fields hold negated distances
  // (sim/similarity.h). Euclidean serving always verifies survivors
  // exactly, so exact_verification is implied. A threshold outside the
  // measure's domain throws std::invalid_argument (core/measure_table.h).
  double threshold = 0.7;

  // Verification: BayesLSH estimation by default; exact verification of
  // unpruned candidates (the Lite behaviour) if true.
  bool exact_verification = false;

  BayesLshParams bayes;          // hashes_per_round/max_hashes 0 = defaults.
  uint32_t lite_max_hashes = 0;  // 0 = measure default (128 / 64).
  LshBandingParams banding;      // Index shape; num_bands 0 = derive.
  uint64_t seed = 42;

  // Jaccard only: verify with b-bit minwise signatures of this width
  // (lsh/bbit_minwise.h) instead of full 32-bit hashes — 8x smaller
  // signature storage at b = 4. Candidate generation is unchanged. 0 keeps
  // full-width hashes. With b-bit signatures a single query's verification
  // runs sequentially (the index build still shards, and QueryBatch still
  // shards over queries); results remain identical for every thread count.
  uint32_t bbit = 0;

  // kKernelCosine only: the kernel the measure is defined against and the
  // KLSH hash-family shape. klsh.seed is ignored — the master `seed` above
  // derives the generation/verification hash streams, exactly as for every
  // other measure.
  KernelSpec kernel;
  KlshParams klsh;

  // kKernelCosine only: pre-sampled anchor rows shared across serving
  // components. KLSH signatures are pure functions of
  // (anchors, kernel, seed, row content), so sharded/unsharded and
  // warm/fresh identity holds exactly when every hasher sees the same
  // anchors — the sharded builder samples them once from the full corpus
  // and passes them down here. Null (the default) samples
  // min(klsh.num_anchors, collection size) rows from the collection with
  // the master seed.
  std::shared_ptr<const Dataset> klsh_anchors;

  // Worker threads for the index build, QueryBatch() query sharding, and
  // within-query verification sharding (0 = all hardware threads, 1 =
  // sequential). Concurrent calls are safe at any setting — see the class
  // comment.
  uint32_t num_threads = 1;
};

// One query result.
struct QueryMatch {
  uint32_t id = 0;    // Row in the indexed collection.
  double sim = 0.0;   // Estimate (or exact value with exact_verification).

  friend bool operator==(const QueryMatch&, const QueryMatch&) = default;
};

struct QueryStats {
  uint64_t candidates = 0;
  uint64_t pruned = 0;
  uint64_t hashes_compared = 0;

  // Matches that survived verification but were subtracted because their
  // logical id is tombstoned (core/dynamic_index.h) — the LSM read
  // amplification made visible: work spent verifying rows that can never
  // be served, reclaimed by Compact(). Always 0 for a plain
  // QuerySearcher, which has no notion of removal.
  uint64_t ghost_candidates = 0;

  // Sharded-serving robustness counters (core/sharded_index.h). A plain
  // QuerySearcher / DynamicIndex never sets these; ShardedIndex adds, per
  // fan-out call: shards_total += K, shards_answered += the shards whose
  // sub-results made it into the merge, deadline_expired += 1 when the
  // query's deadline cut the fan-out short (a *partial* answer), and the
  // serve front-end adds rejected_overload += 1 per admission rejection.
  // shards_answered < shards_total is the degradation signal: the result
  // is exact over the answered shards and silent about the rest.
  uint64_t shards_total = 0;
  uint64_t shards_answered = 0;
  uint64_t deadline_expired = 0;
  uint64_t rejected_overload = 0;

  // Worker threads the call *actually* used — not the configured count.
  // 1 whenever verification ran serially: a single-thread searcher, a
  // candidate list too small to shard, b-bit verification, or a Query()
  // that found the worker pool busy (the try-lock fallback) all report 1
  // even when num_threads asked for more. Merging two stats takes the
  // max, so an aggregate answers "what was the widest parallelism any
  // part of this serve reached".
  uint32_t threads_used = 0;

  // Folds another accumulator into this one: counters add, threads_used
  // takes the max — the one merge rule, shared by QuerySearcher's batch
  // aggregation and DynamicIndex's segment aggregation.
  void MergeFrom(const QueryStats& other) {
    candidates += other.candidates;
    pruned += other.pruned;
    hashes_compared += other.hashes_compared;
    ghost_candidates += other.ghost_candidates;
    shards_total += other.shards_total;
    shards_answered += other.shards_answered;
    deadline_expired += other.deadline_expired;
    rejected_overload += other.rejected_overload;
    threads_used = std::max(threads_used, other.threads_used);
  }
};

// Threshold / top-k search over a fixed collection.
//
// The collection must follow the measure conventions of sim/similarity.h
// (kCosine: L2-normalized rows; kJaccard/kBinaryCosine: binary rows) and
// must outlive the searcher.
class QuerySearcher {
 public:
  QuerySearcher(const Dataset* data, const QuerySearchConfig& config);

  // Warm start: serves from a persistent index (core/index_io.h) instead
  // of building banding buckets and hashing signatures from scratch — the
  // collection is the index's dataset. The index must outlive the
  // searcher. config must agree with the index on measure, seed, bbit and
  // (when set explicitly) banding shape — IndexError otherwise; the
  // threshold may differ, but thresholds below the index's build threshold
  // raise the banding false-negative rate beyond the configured ε. Queries
  // hash with the index's families, built for its build threshold (for
  // Euclidean, the p-stable width of the build radius). Query results are
  // pair-for-pair identical to a fresh build with the same config
  // (signatures are pure functions of (seed, row)) — for Euclidean, when
  // served at the build radius.
  QuerySearcher(const PersistentIndex* index,
                const QuerySearchConfig& config);

  ~QuerySearcher();

  QuerySearcher(const QuerySearcher&) = delete;
  QuerySearcher& operator=(const QuerySearcher&) = delete;

  // All collection rows x with s(x, q) >= threshold (subject to the
  // BayesLSH guarantees), sorted by decreasing similarity. Safe to call
  // concurrently (see the class comment); on a frozen searcher the call
  // performs zero signature-store mutations.
  std::vector<QueryMatch> Query(const SparseVectorView& q,
                                QueryStats* stats = nullptr) const;

  // The k most similar rows among those reaching the threshold; ties by id.
  std::vector<QueryMatch> QueryTopK(const SparseVectorView& q, uint32_t k,
                                    QueryStats* stats = nullptr) const;

  // Batched multi-client serving: answers queries[i] into slot i of the
  // result, sharding over *queries* (one pool shard, inference cache and
  // stats accumulator per worker, merged in query order). Each query runs
  // the same verify loop as Query(), so results are pair-for-pair
  // identical to a serial Query() loop, for any thread count. top_k != 0
  // truncates each query's matches as QueryTopK would. *stats, when
  // given, receives the per-query stats summed in query order — exactly
  // the totals a serial Query() loop would accumulate. Empty queries get
  // empty results. Concurrent QueryBatch calls serialize on the worker
  // pool; Query() calls arriving while a batch is in flight verify
  // sequentially instead of waiting for the pool.
  std::vector<std::vector<QueryMatch>> QueryBatch(
      std::span<const SparseVectorView> queries,
      QueryStats* stats = nullptr, uint32_t top_k = 0) const;

  // Eagerly grows every collection row's verification signature to the
  // full per-candidate hash budget (bayes.max_hashes, or lite_max_hashes
  // under exact_verification) and freezes the signature store — the
  // cold → prefetched → frozen endpoint of the serving state machine.
  // After this, queries perform zero signature-store mutations
  // (bits_computed()/hashes_computed() stay constant) and read the store
  // lock-free. Warm construction from a fully prefetched PersistentIndex
  // (IndexBuildConfig::prefetch_hashes = kPrefetchFull) makes this a
  // no-op top-up. Idempotent, one-way, NOT concurrent-safe: freeze before
  // sharing the searcher across threads.
  void Freeze();
  bool frozen() const;

  // Extends the serving state over rows appended (Dataset::AppendRow) to
  // the collection since construction or the previous sync — the LSM
  // delta growth path (core/dynamic_index.h): each new row gets an empty
  // lazily grown signature-store row and is inserted into the banding
  // buckets with generation-seed hashes, leaving the searcher in exactly
  // the state a fresh build over the grown collection would produce
  // (query results are pair-for-pair identical — asserted by
  // tests/dynamic_index_test.cc). Only legal on a searcher that owns its
  // banding table (built from a Dataset, not warm-started from a
  // PersistentIndex) and is not frozen — std::logic_error otherwise. NOT
  // concurrent-safe: callers serialize against queries, as DynamicIndex
  // does.
  void SyncAppendedRows();

  // Hashing-work tallies of the engaged verification signature store:
  // bits for cosine-like measures, minwise hashes for Jaccard (full-width
  // or b-bit); the non-engaged tally reads 0. Instrumentation, and the
  // frozen-serving invariant checked by tests: a frozen searcher's
  // tallies never change.
  uint64_t bits_computed() const;
  uint64_t hashes_computed() const;

  uint32_t num_bands() const { return num_bands_; }
  uint32_t hashes_per_band() const { return hashes_per_band_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  uint32_t num_bands_ = 0;
  uint32_t hashes_per_band_ = 0;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_QUERY_SEARCH_H_
