// Sharded serving front-end: K DynamicIndex shards behind one query
// router, with graceful degradation as a first-class contract.
//
// A searcher's worker pool shards one query or one batch inside one
// process; the millions-of-users shape (ROADMAP) is a hash-partitioned
// corpus across K independent index shards behind a router that fans out
// each query, merges top-k across shards, and *degrades* instead of
// hanging when a shard is slow or dead:
//
//            Add(v) / Remove(id)             Query(q, stats, top_k)
//                  |                                     |
//            ShardOfId(seed,id,K)                   fan-out to K
//                  |                            (skip open breakers)
//                  v                                     v
//        +-------+-------+-------+        +-------+-------+-------+
//        |shard 0|shard 1|  ...  |        |shard 0|shard 1|  ...  |
//        | Dyn   | Dyn   |       |        |  exec |  exec |       |
//        | Index | Index |       |        | thread| thread|       |
//        +-------+-------+-------+        +---+---+---+---+-------+
//                                             |       |
//                                   collect with per-shard timeout
//                                   and per-query deadline; merge
//                                   (sim desc, id asc); truncate k
//
// Partitioning. Every logical id is assigned by the router (dense,
// monotonically increasing, never reused — the same contract as
// DynamicIndex) and placed on shard ShardOfId(seed, id, K), a seeded
// Mix64 hash. Signatures are pure functions of (seed, row content) and
// per-candidate BayesLSH verification depends only on (query, candidate)
// — never on other candidates or their shard — so a healthy K-shard
// index answers every query *identically* to a single unsharded index
// over the same corpus: the per-shard result lists are disjoint subsets
// of the unsharded result list, and the merge re-sorts them with the
// same (sim desc, id asc) order (asserted byte-for-byte by
// tests/degraded_serve_test.cc for SRP/minwise/b-bit at 1 and 8
// threads).
//
// Degradation contract (the point of this layer):
//   - Per-query deadline (ServeOptions::deadline_seconds): the router
//     stops collecting when the budget expires and returns the merged
//     results of the shards that HAVE answered, stats flagged
//     deadline_expired with shards_answered < shards_total. The answer
//     is exact over the answered shards and silent about the rest — the
//     anytime shape of BayesLSH's incremental pruning at the router
//     level.
//   - Per-shard health: each shard has a consecutive-failure
//     CircuitBreaker (core/serve_control.h). Shard errors and per-shard
//     timeouts count as failures; an open breaker is skipped instantly
//     (no waiting on a known-dead shard), and after the backoff a single
//     half-open probe rides the next query — success restores the shard
//     to full service.
//   - A wedged shard hangs only its own executor thread; the router
//     times out, degrades the answer, and keeps serving.
// Admission control (per-client token buckets) lives one level up, in
// the serve front-end (tools/bayeslsh_cli.cc `serve`), because "client"
// is a protocol notion; the primitives are in core/serve_control.h.
//
// Threads: each shard executor answers its sub-query through
// DynamicIndex::Query, so with num_threads > 1 a shard whose candidate
// list is large enough shards that query's verification over its own
// worker pool (QueryStats::threads_used reports it), and the K shards do
// so concurrently. Answers are identical at every thread count.
//
// Concurrency: the constructor builds the K shards concurrently, one
// builder thread per shard, joins them all, rethrows the first failure
// (lowest shard number) if any build threw, and only then starts the
// shard executors. Query is safe from any number of threads (the router
// fan-out state is per-call; shard executors are internally
// synchronized). Add/Remove serialize against each other and
// against the id map reads inside queries via a shared_mutex, exactly as
// in DynamicIndex. The destructor shuts down the fault injector (waking
// wedged executors) and joins all executor threads.

#ifndef BAYESLSH_CORE_SHARDED_INDEX_H_
#define BAYESLSH_CORE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dynamic_index.h"
#include "core/index_io.h"
#include "core/query_search.h"
#include "core/serve_control.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

struct ShardedIndexConfig {
  // Number of shards K (>= 1; 1 is a valid degenerate deployment).
  uint32_t num_shards = 2;

  // Serving threshold / verification mode / threads, forwarded to every
  // shard's DynamicIndexConfig (threshold 0 = the build threshold).
  double threshold = 0.0;
  bool exact_verification = false;
  uint32_t num_threads = 1;

  // Per-shard circuit breaker parameters.
  BreakerConfig breaker;

  // Upper bound on waiting for any single shard's sub-result, even
  // without a query deadline; a shard exceeding it counts a breaker
  // failure and the query degrades. 0 = wait forever (a wedged shard
  // then only degrades queries that carry their own deadline). This
  // timeout, a query deadline and a drain timeout each count as a
  // century when longer.
  double shard_timeout_seconds = 0.0;
};

// Per-query serving options.
struct ServeOptions {
  // Wall-clock budget for the whole fan-out; expiry returns the current
  // best (partial) results. 0 = no deadline.
  double deadline_seconds = 0.0;
};

// The health snapshot reported per shard (see shard_state()).
struct ShardState {
  BreakerState breaker = BreakerState::kClosed;
  uint32_t consecutive_failures = 0;
  uint32_t num_live = 0;  // Live logical ids routed to this shard.
};

class ShardedIndex {
 public:
  // Partitions `data` row-by-row (row i gets logical id i, lands on
  // ShardOfId(build.seed, i, K)) and builds one frozen PersistentIndex +
  // DynamicIndex per shard with the same build config — so every shard
  // agrees on (measure, seed, banding shape, bbit) and signatures are
  // shard-independent. The K shards build concurrently, each at
  // build.num_threads; if any build throws, the constructor rethrows the
  // lowest-numbered shard's exception once every build has finished, with
  // no executor started. Throws std::invalid_argument for
  // num_shards == 0.
  ShardedIndex(Dataset data, const IndexBuildConfig& build,
               const ShardedIndexConfig& cfg);

  ~ShardedIndex();
  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  // The partitioning function: which shard owns logical id `id` in a
  // K-shard deployment seeded with `seed`. Pure; exposed so tests can
  // construct cross-shard scenarios deterministically.
  static uint32_t ShardOfId(uint64_t seed, uint32_t id, uint32_t num_shards);

  // Routed mutations: the router assigns the next logical id (dense,
  // monotonic, never reused), forwards to the owning shard, and keeps
  // the global<->shard-local id mapping. Same argument contract as
  // DynamicIndex::Add/Remove. Mutations bypass breakers and deadlines —
  // durability belongs to the write path, degradation to the read path.
  uint32_t Add(const SparseVectorView& v);
  bool Remove(uint32_t id);
  bool Contains(uint32_t id) const;

  // Fan-out threshold query: all live rows x with s(x, q) >= threshold
  // across answered shards, merged (sim desc, ties by ascending logical
  // id) — identical to a single unsharded index when all K shards
  // answer. top_k != 0 keeps the k best; the cut follows the merge, so
  // shard boundaries can never displace a better match. stats (when
  // given) receives the merged shard stats plus the robustness counters
  // (QueryStats: shards_total/shards_answered/deadline_expired).
  std::vector<QueryMatch> Query(const SparseVectorView& q,
                                QueryStats* stats = nullptr,
                                uint32_t top_k = 0,
                                const ServeOptions& opts = {}) const;

  // Drains every shard's background compaction. The bounded overload
  // returns false if any shard's compaction was still running when its
  // share of the timeout expired — the server drain path uses it so a
  // wedged compaction cannot hang shutdown.
  void WaitForCompaction();
  bool WaitForCompaction(double timeout_seconds);

  // Fault injection hook for tests and the open-loop bench; applied by
  // every shard executor before it runs a sub-query.
  ShardFaultInjector& fault_injector() const;

  // Health snapshot of one shard at `now` (seconds on the router's
  // steady clock — pass Now()).
  ShardState shard_state(uint32_t shard) const;
  double Now() const;

  uint32_t num_shards() const;
  Measure measure() const;
  uint32_t num_dims() const;
  uint32_t num_live() const;
  uint64_t seed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_SHARDED_INDEX_H_
