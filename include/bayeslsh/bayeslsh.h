// BayesLSH — Bayesian candidate pruning and similarity estimation for
// locality-sensitive hashing.
//
// Umbrella header for the public API. A minimal all-pairs search is:
//
//   #include "bayeslsh/bayeslsh.h"
//
//   bayeslsh::Dataset corpus = /* build or load */;
//   corpus = bayeslsh::L2NormalizeRows(bayeslsh::TfIdfTransform(corpus));
//
//   bayeslsh::PipelineConfig cfg;
//   cfg.measure = bayeslsh::Measure::kCosine;
//   cfg.generator = bayeslsh::GeneratorKind::kAllPairs;
//   cfg.verifier = bayeslsh::VerifierKind::kBayesLsh;
//   cfg.threshold = 0.7;
//   auto result = bayeslsh::RunPipeline(corpus, cfg);
//   // result.pairs: {a, b, estimated similarity}
//
// See the top-level README.md for build instructions and the module map,
// docs/ARCHITECTURE.md for the end-to-end design, docs/CLI.md for the
// command-line tool, docs/FORMATS.md for every on-disk format, and
// examples/ for runnable programs.
//
// ---------------------------------------------------------------------------
// Main entry points
// ---------------------------------------------------------------------------
//
/// \defgroup entrypoints Main entry points
///
/// **All-pairs search** — `RunPipeline(data, PipelineConfig)`
/// (core/pipeline.h): one-shot batch join producing every pair with
/// similarity above the threshold, combining a candidate generator
/// (AllPairs / LSH banding) with a verifier (exact, MLE, BayesLSH,
/// BayesLSH-Lite). \see PipelineConfig for measure, threshold, seed and
/// `num_threads`; results are pair-for-pair identical for every thread
/// count.
///
/// **Top-k all-pairs** — `TopKAllPairs(data, TopKConfig)`
/// (core/topk_search.h): the k most similar pairs above a floor, via
/// adaptive threshold descent over the pipeline.
///
/// **Query serving** — `QuerySearcher` (core/query_search.h): build (or
/// load) an index over a fixed collection once, then answer per-query
/// threshold / top-k searches. `QuerySearcher(const Dataset*, config)`
/// builds from scratch; `QuerySearcher(const PersistentIndex*, config)`
/// warm-starts from a built or loaded index and answers pair-for-pair
/// identically. For concurrent traffic, `Freeze()` pins the signature
/// store to an immutable lock-free serving form and `QueryBatch()`
/// shards a whole batch of queries across the worker pool — results
/// identical to a serial `Query()` loop at any thread count, safe from
/// any number of caller threads.
///
/// **Persistence** — `PersistentIndex` (core/index_io.h): `Build()` the
/// full serving state offline, `Save()/SaveFile()` it as one versioned
/// binary file (docs/FORMATS.md), `Load()/LoadFile()` it back in a single
/// I/O-bound pass. Loading throws `IndexError` on truncated, corrupt,
/// version-bumped or config-mismatched files — never a crash or a
/// partially initialized index. The `bayeslsh_cli` `index` / `query`
/// subcommands expose the same flow on the command line.
///
/// **Dynamic updates** — `DynamicIndex` (core/dynamic_index.h): LSM-style
/// layering of a mutable delta segment over the frozen base, so the
/// corpus can change while serving. `Add()`/`Remove()` mutate the delta
/// (tombstones for removals), queries merge {base, delta} minus
/// tombstones — pair-for-pair identical to a from-scratch rebuild of the
/// live corpus — and `Compact()` folds everything into a new frozen base,
/// preserving logical ids. `Save()/Load()` persist the whole state as a
/// versioned segment manifest; the CLI `add` / `remove` / `compact`
/// subcommands (and `query` on a manifest) expose the same flow.
///
/// **Sharded serving** — `ShardedIndex` (core/sharded_index.h): K
/// `DynamicIndex` shards (hash-partitioned corpus) behind a query router
/// that fans out, merges top-k across shards (identical to one unsharded
/// index when healthy), and degrades gracefully: per-query deadlines
/// return flagged partial results, per-shard circuit breakers skip dead
/// shards and probe for recovery, and `ShardFaultInjector` drives every
/// degraded path in tests. `Query(q, stats, top_k)` is the one query
/// call on every serving layer (`top_k` 0 keeps every match). The
/// admission-control primitives (per-client token buckets,
/// `core/serve_control.h`) back the CLI's long-lived `serve` front-end.
///
/// **Data** — `Dataset` / `DatasetBuilder` (vec/dataset.h) hold the CSR
/// collection; `ReadDatasetAutoFile` / `WriteDataset[Binary]File`
/// (vec/io.h) read and write the text and binary dataset formats;
/// vec/transforms.h provides tf-idf weighting and L2 normalization.

#ifndef BAYESLSH_BAYESLSH_H_
#define BAYESLSH_BAYESLSH_H_

// Substrates.
#include "common/prng.h"                 // IWYU pragma: export
#include "common/thread_pool.h"          // IWYU pragma: export
#include "common/timer.h"                // IWYU pragma: export
#include "stats/beta_distribution.h"     // IWYU pragma: export
#include "stats/binomial.h"              // IWYU pragma: export
#include "stats/special_functions.h"     // IWYU pragma: export
#include "vec/dataset.h"                 // IWYU pragma: export
#include "vec/io.h"                      // IWYU pragma: export
#include "vec/sparse_vector.h"           // IWYU pragma: export
#include "vec/transforms.h"              // IWYU pragma: export

// Similarity measures and exact joins.
#include "sim/brute_force.h"             // IWYU pragma: export
#include "sim/similarity.h"              // IWYU pragma: export

// LSH hash families and signatures.
#include "lsh/bbit_minwise.h"            // IWYU pragma: export
#include "lsh/gaussian_source.h"         // IWYU pragma: export
#include "lsh/icws_hasher.h"             // IWYU pragma: export
#include "lsh/minwise_hasher.h"          // IWYU pragma: export
#include "lsh/signature_store.h"         // IWYU pragma: export
#include "lsh/srp_hasher.h"              // IWYU pragma: export

// Kernel functions and the KLSH hash family (paper §6 future work).
#include "kernel/dense_matrix.h"         // IWYU pragma: export
#include "kernel/kernels.h"              // IWYU pragma: export
#include "kernel/klsh.h"                 // IWYU pragma: export

// The p-stable hash family and distance posterior (paper §6 future work).
#include "euclidean/distance_posterior.h"  // IWYU pragma: export
#include "euclidean/pstable_hasher.h"      // IWYU pragma: export

// Candidate generation.
#include "candgen/allpairs.h"            // IWYU pragma: export
#include "candgen/banding_index.h"       // IWYU pragma: export
#include "candgen/lsh_banding.h"         // IWYU pragma: export
#include "candgen/multiprobe.h"          // IWYU pragma: export
#include "candgen/ppjoin.h"              // IWYU pragma: export
#include "candgen/prefix_filter_join.h"  // IWYU pragma: export

// The BayesLSH core.
#include "core/bayes_lsh.h"              // IWYU pragma: export
#include "core/bbit_posterior.h"         // IWYU pragma: export
#include "core/classical.h"              // IWYU pragma: export
#include "core/cosine_posterior.h"       // IWYU pragma: export
#include "core/dynamic_index.h"          // IWYU pragma: export
#include "core/index_io.h"               // IWYU pragma: export
#include "core/jaccard_posterior.h"      // IWYU pragma: export
#include "core/measure_table.h"          // IWYU pragma: export
#include "core/metrics.h"                // IWYU pragma: export
#include "core/pipeline.h"               // IWYU pragma: export
#include "core/query_search.h"           // IWYU pragma: export
#include "core/serve_control.h"          // IWYU pragma: export
#include "core/sharded_index.h"          // IWYU pragma: export
#include "core/topk_search.h"            // IWYU pragma: export
#include "core/wal.h"                    // IWYU pragma: export

// Synthetic workloads.
#include "data/graph_generator.h"        // IWYU pragma: export
#include "data/paper_datasets.h"         // IWYU pragma: export
#include "data/text_generator.h"         // IWYU pragma: export

#endif  // BAYESLSH_BAYESLSH_H_
