// Concurrent batch serving (core/query_search.h): QueryBatch must be
// pair-for-pair identical to a serial Query() loop for SRP, minwise and
// b-bit verification at 1/2/8 threads, frozen or not; frozen searchers
// must serve concurrent callers with zero signature-store mutations; and
// QueryStats must aggregate to exactly the serial counts under the
// sharded-verification overflow protocol. The whole suite runs under the
// ThreadSanitizer CI job (its name matches the job's -R regex).

#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_io.h"
#include "core/query_search.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

constexpr uint32_t kQueries = 48;

Dataset TextWeighted(uint64_t seed, uint32_t docs = 500) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 50;
  cfg.num_clusters = docs / 10;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  return L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
}

Dataset GraphBinary(uint64_t seed, uint32_t nodes = 500) {
  GraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.avg_degree = 16;
  cfg.num_communities = nodes / 10;
  cfg.community_size = 4;
  cfg.seed = seed;
  return GenerateGraphAdjacency(cfg);
}

// The three verification modes of the acceptance matrix.
enum class Mode { kSrp, kMinwise, kBbit };

Dataset ModeData(Mode mode, uint64_t seed) {
  return mode == Mode::kSrp ? TextWeighted(seed) : GraphBinary(seed);
}

QuerySearchConfig ModeConfig(Mode mode, uint32_t num_threads) {
  QuerySearchConfig cfg;
  cfg.measure = mode == Mode::kSrp ? Measure::kCosine : Measure::kJaccard;
  cfg.threshold = mode == Mode::kSrp ? 0.6 : 0.4;
  cfg.bbit = mode == Mode::kBbit ? 4 : 0;
  cfg.num_threads = num_threads;
  return cfg;
}

std::vector<SparseVectorView> QueryViews(const Dataset& data, uint32_t n) {
  std::vector<SparseVectorView> views;
  for (uint32_t i = 0; i < n && i < data.num_vectors(); ++i) {
    views.push_back(data.Row(i));
  }
  return views;
}

// Serial reference: one Query() per view on a 1-thread searcher, stats
// summed in query order.
std::vector<std::vector<QueryMatch>> SerialReference(
    const QuerySearcher& searcher,
    const std::vector<SparseVectorView>& queries, QueryStats* total) {
  std::vector<std::vector<QueryMatch>> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats qs;
    out[i] = searcher.Query(queries[i], &qs);
    if (total != nullptr) {
      total->candidates += qs.candidates;
      total->pruned += qs.pruned;
      total->hashes_compared += qs.hashes_compared;
    }
  }
  return out;
}

class ConcurrentServeModeTest : public ::testing::TestWithParam<Mode> {};

// The acceptance criterion: QueryBatch results are pair-for-pair identical
// to a serial Query() loop at 1/2/8 threads — on cold searchers and on
// frozen ones, which additionally must not touch the signature store.
TEST_P(ConcurrentServeModeTest, BatchIdenticalToSerialLoopAt128Threads) {
  const Mode mode = GetParam();
  const Dataset data = ModeData(mode, 11);
  const std::vector<SparseVectorView> queries = QueryViews(data, kQueries);

  const QuerySearcher reference(&data, ModeConfig(mode, 1));
  const std::vector<std::vector<QueryMatch>> expected =
      SerialReference(reference, queries, nullptr);

  for (uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));

    QuerySearcher cold(&data, ModeConfig(mode, threads));
    EXPECT_FALSE(cold.frozen());
    EXPECT_EQ(cold.QueryBatch(queries), expected);

    cold.Freeze();
    EXPECT_TRUE(cold.frozen());
    const uint64_t bits_before = cold.bits_computed();
    const uint64_t hashes_before = cold.hashes_computed();
    EXPECT_EQ(cold.QueryBatch(queries), expected);
    for (const SparseVectorView& q : queries) {
      ASSERT_EQ(cold.Query(q), expected[&q - queries.data()]);
    }
    EXPECT_EQ(cold.bits_computed(), bits_before);
    EXPECT_EQ(cold.hashes_computed(), hashes_before);
  }
}

// Satellite: exact QueryStats across thread counts — candidates, pruned
// and hashes_compared may not drop or double-count when the per-worker
// overflow-shard protocol engages (within-query sharding at 8 threads)
// or when QueryBatch merges per-worker stats shards.
TEST_P(ConcurrentServeModeTest, StatsExactAt1Vs8Threads) {
  const Mode mode = GetParam();
  const Dataset data = ModeData(mode, 12);
  const std::vector<SparseVectorView> queries = QueryViews(data, kQueries);

  const QuerySearcher serial(&data, ModeConfig(mode, 1));
  QueryStats serial_total;
  SerialReference(serial, queries, &serial_total);
  ASSERT_GT(serial_total.candidates, 0u);
  ASSERT_GT(serial_total.hashes_compared, 0u);

  const QuerySearcher sharded(&data, ModeConfig(mode, 8));
  QueryStats sharded_total;
  for (const SparseVectorView& q : queries) {
    QueryStats qs;
    sharded.Query(q, &qs);
    sharded_total.candidates += qs.candidates;
    sharded_total.pruned += qs.pruned;
    sharded_total.hashes_compared += qs.hashes_compared;
  }
  EXPECT_EQ(sharded_total.candidates, serial_total.candidates);
  EXPECT_EQ(sharded_total.pruned, serial_total.pruned);
  EXPECT_EQ(sharded_total.hashes_compared, serial_total.hashes_compared);

  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE("batch threads=" + std::to_string(threads));
    const QuerySearcher batcher(&data, ModeConfig(mode, threads));
    QueryStats batch_total;
    batcher.QueryBatch(queries, &batch_total);
    EXPECT_EQ(batch_total.candidates, serial_total.candidates);
    EXPECT_EQ(batch_total.pruned, serial_total.pruned);
    EXPECT_EQ(batch_total.hashes_compared, serial_total.hashes_compared);
  }
}

// Satellite: frozen-store round trip. A fully prefetched index serves an
// entire QueryBatch with hashes_computed()/bits_computed() constant — no
// hidden rehashing anywhere on the serve path.
TEST_P(ConcurrentServeModeTest, FrozenIndexRoundTripServesWithZeroHashing) {
  const Mode mode = GetParam();
  const Dataset data = ModeData(mode, 13);
  const std::vector<SparseVectorView> queries = QueryViews(data, kQueries);

  IndexBuildConfig icfg;
  icfg.measure = mode == Mode::kSrp ? Measure::kCosine : Measure::kJaccard;
  icfg.threshold = mode == Mode::kSrp ? 0.6 : 0.4;
  icfg.bbit = mode == Mode::kBbit ? 4 : 0;
  icfg.prefetch_hashes = kPrefetchFull;
  const auto built = PersistentIndex::Build(data, icfg);

  std::stringstream file;
  built->Save(file);
  file.seekg(0);
  const auto loaded = PersistentIndex::Load(file);

  QuerySearcher searcher(loaded.get(), ModeConfig(mode, 2));
  const uint64_t bits0 = searcher.bits_computed();
  const uint64_t hashes0 = searcher.hashes_computed();
  // The index already holds the fully hashed form: freezing is a pure
  // state flip, with no top-up hashing.
  searcher.Freeze();
  EXPECT_EQ(searcher.bits_computed(), bits0);
  EXPECT_EQ(searcher.hashes_computed(), hashes0);

  const QuerySearcher reference(&data, ModeConfig(mode, 1));
  EXPECT_EQ(searcher.QueryBatch(queries),
            SerialReference(reference, queries, nullptr));
  EXPECT_EQ(searcher.bits_computed(), bits0);
  EXPECT_EQ(searcher.hashes_computed(), hashes0);
}

// Concurrent const Query() calls on one shared frozen searcher: correct
// results from every thread, zero store mutations. This is the serving
// mode the class comment documents; TSan checks the lock-free reads.
TEST_P(ConcurrentServeModeTest, FrozenSearcherServesConcurrentCallers) {
  const Mode mode = GetParam();
  const Dataset data = ModeData(mode, 14);
  const std::vector<SparseVectorView> queries = QueryViews(data, kQueries);

  const QuerySearcher reference(&data, ModeConfig(mode, 1));
  const std::vector<std::vector<QueryMatch>> expected =
      SerialReference(reference, queries, nullptr);

  QuerySearcher searcher(&data, ModeConfig(mode, 2));
  searcher.Freeze();
  const uint64_t bits0 = searcher.bits_computed();
  const uint64_t hashes0 = searcher.hashes_computed();

  constexpr uint32_t kClients = 8;
  std::vector<std::vector<std::vector<QueryMatch>>> got(
      kClients, std::vector<std::vector<QueryMatch>>(queries.size()));
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client serves the full workload, interleaved with the rest.
      for (size_t i = 0; i < queries.size(); ++i) {
        got[c][i] = searcher.Query(queries[i]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (uint32_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c], expected) << "client " << c;
  }
  EXPECT_EQ(searcher.bits_computed(), bits0);
  EXPECT_EQ(searcher.hashes_computed(), hashes0);
}

// Satellite: the cold (unfrozen) path no longer hides unsynchronized
// const-mutation — concurrent Query() calls on an unfrozen searcher are
// correct too, with lazy growth serialized inside the store.
TEST_P(ConcurrentServeModeTest, UnfrozenSearcherServesConcurrentCallers) {
  const Mode mode = GetParam();
  const Dataset data = ModeData(mode, 15);
  const std::vector<SparseVectorView> queries = QueryViews(data, kQueries);

  const QuerySearcher reference(&data, ModeConfig(mode, 1));
  const std::vector<std::vector<QueryMatch>> expected =
      SerialReference(reference, queries, nullptr);

  // 2 worker threads: concurrent callers also race for the pool
  // (within-query sharding falls back to the serial path when busy).
  const QuerySearcher searcher(&data, ModeConfig(mode, 2));
  constexpr uint32_t kClients = 4;
  std::vector<std::vector<std::vector<QueryMatch>>> got(
      kClients, std::vector<std::vector<QueryMatch>>(queries.size()));
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < queries.size(); ++i) {
        got[c][i] = searcher.Query(queries[i]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (uint32_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c], expected) << "client " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ConcurrentServeModeTest,
                         ::testing::Values(Mode::kSrp, Mode::kMinwise,
                                           Mode::kBbit),
                         [](const auto& info) {
                           switch (info.param) {
                             case Mode::kSrp:
                               return "Srp";
                             case Mode::kMinwise:
                               return "Minwise";
                             default:
                               return "Bbit";
                           }
                         });

TEST(ConcurrentServeTest, EmptyBatchAndEmptyQueriesAreWellDefined) {
  const Dataset data = TextWeighted(16, 300);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.6;
  cfg.num_threads = 2;
  const QuerySearcher searcher(&data, cfg);

  QueryStats stats;
  stats.candidates = 99;  // Must be reset.
  EXPECT_TRUE(searcher.QueryBatch({}, &stats).empty());
  EXPECT_EQ(stats.candidates, 0u);

  // An empty query inside a batch yields an empty slot; the rest serve
  // normally.
  std::vector<SparseVectorView> queries = QueryViews(data, 8);
  queries[3] = SparseVectorView{};
  const auto results = searcher.QueryBatch(queries);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_TRUE(results[3].empty());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == 3) continue;
    EXPECT_EQ(results[i], searcher.Query(queries[i])) << "query " << i;
  }
}

TEST(ConcurrentServeTest, BatchTopKTruncatesLikeQueryTopK) {
  const Dataset data = TextWeighted(17, 300);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.3;  // Permissive: many matches to truncate.
  cfg.num_threads = 2;
  const QuerySearcher searcher(&data, cfg);

  const std::vector<SparseVectorView> queries = QueryViews(data, 12);
  const auto results = searcher.QueryBatch(queries, nullptr, /*top_k=*/2);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i], searcher.Query(queries[i], nullptr, 2))
        << "query " << i;
  }
}

// --- honest threads_used reporting ---
// QueryStats::threads_used must report the thread count actually used,
// never the configured one: a 1-thread searcher, a candidate list too
// small to shard, b-bit verification, and a busy worker pool all serve
// serially and must say so.

TEST(ConcurrentServeTest, ThreadsUsedReportsSerialPathsAsOne) {
  const Dataset data = TextWeighted(21, 400);
  const std::vector<SparseVectorView> queries = QueryViews(data, 8);

  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.3;  // Permissive: large candidate lists.
  cfg.num_threads = 1;
  const QuerySearcher serial(&data, cfg);
  QueryStats qs;
  serial.Query(queries[0], &qs);
  EXPECT_EQ(qs.threads_used, 1u);
  serial.QueryBatch(queries, &qs);
  EXPECT_EQ(qs.threads_used, 1u);

  // A 4-thread searcher shards a query only when the candidate list
  // reaches 16 per worker; pin both sides of that cliff.
  cfg.num_threads = 4;
  const QuerySearcher sharded(&data, cfg);
  bool saw_sharded = false;
  for (const SparseVectorView& q : queries) {
    QueryStats stats;
    sharded.Query(q, &stats);
    if (stats.candidates >= 16 * 4) {
      EXPECT_EQ(stats.threads_used, 4u)
          << stats.candidates << " candidates should shard";
      saw_sharded = true;
    } else {
      EXPECT_EQ(stats.threads_used, 1u)
          << stats.candidates << " candidates must serve serially";
    }
  }
  ASSERT_TRUE(saw_sharded) << "corpus produced no shardable query; the "
                              "4-thread assertion was vacuous";
  QueryStats batch_stats;
  sharded.QueryBatch(queries, &batch_stats);
  EXPECT_EQ(batch_stats.threads_used, 4u);
  // A batch runs each query on one worker, so fewer queries than threads
  // leave the other workers idle.
  for (const size_t n : {size_t{1}, size_t{2}}) {
    sharded.QueryBatch(std::span(queries).first(n), &batch_stats);
    EXPECT_EQ(batch_stats.threads_used, n) << n << "-query batch";
  }

  // b-bit verification shards a query on the same candidate-count
  // boundary, and QueryBatch shards over queries.
  const Dataset graph = GraphBinary(22, 400);
  QuerySearchConfig bcfg;
  bcfg.measure = Measure::kJaccard;
  bcfg.threshold = 0.3;
  bcfg.bbit = 4;
  bcfg.num_threads = 4;
  const QuerySearcher bbit(&graph, bcfg);
  const std::vector<SparseVectorView> gqueries = QueryViews(graph, 8);
  bool saw_bbit_sharded = false;
  bool saw_bbit_serial = false;
  for (const SparseVectorView& q : gqueries) {
    QueryStats stats;
    bbit.Query(q, &stats);
    if (stats.candidates >= 16 * 4) {
      EXPECT_EQ(stats.threads_used, 4u)
          << stats.candidates << " b-bit candidates should shard";
      saw_bbit_sharded = true;
    } else {
      EXPECT_EQ(stats.threads_used, 1u)
          << stats.candidates << " b-bit candidates must serve serially";
      saw_bbit_serial = true;
    }
  }
  EXPECT_TRUE(saw_bbit_sharded) << "no b-bit query sharded";
  EXPECT_TRUE(saw_bbit_serial) << "no b-bit query served serially";
  QueryStats bstats;
  bbit.QueryBatch(gqueries, &bstats);
  EXPECT_EQ(bstats.threads_used, 4u);
}

// A batch gives each query to one worker, so it reports one thread per
// query up to the pool width, on both sides of that width, and 1 for an
// empty batch.
TEST(ConcurrentServeTest, BatchThreadsUsedIsOnePerQueryUpToPoolWidth) {
  const Dataset data = TextWeighted(24, 300);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.6;
  cfg.num_threads = 4;
  const QuerySearcher searcher(&data, cfg);
  const std::vector<SparseVectorView> queries = QueryViews(data, 6);
  const uint32_t expect[] = {1, 1, 2, 3, 4, 4, 4};
  for (size_t n = 0; n <= queries.size(); ++n) {
    QueryStats stats;
    searcher.QueryBatch(std::span(queries).first(n), &stats);
    EXPECT_EQ(stats.threads_used, expect[n]) << n << "-query batch";
  }
}

// While a batch holds the worker pool, concurrent Query() calls take the
// try-lock serial fallback — and must report 1 thread, not the
// configured 4. The batch itself always reports its worker count.
TEST(ConcurrentServeTest, ThreadsUsedHonestUnderContention) {
  const Dataset data = TextWeighted(23, 400);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.3;
  cfg.num_threads = 4;
  QuerySearcher searcher(&data, cfg);
  searcher.Freeze();
  const std::vector<SparseVectorView> queries = QueryViews(data, 32);

  std::thread batcher([&] {
    for (int round = 0; round < 4; ++round) {
      QueryStats bs;
      searcher.QueryBatch(queries, &bs);
      ASSERT_EQ(bs.threads_used, 4u);
    }
  });
  // Whether a concurrent Query() wins the pool or falls back is timing-
  // dependent; the invariant is that it reports whichever path it took.
  uint32_t observed_serial = 0, observed_sharded = 0;
  for (int i = 0; i < 24; ++i) {
    QueryStats qs;
    const auto result = searcher.Query(queries[i % queries.size()], &qs);
    ASSERT_TRUE(qs.threads_used == 1u || qs.threads_used == 4u)
        << "threads_used=" << qs.threads_used;
    (qs.threads_used == 1u ? observed_serial : observed_sharded) += 1;
    ASSERT_EQ(result, searcher.Query(queries[i % queries.size()]));
  }
  batcher.join();
  EXPECT_EQ(observed_serial + observed_sharded, 24u);
}

TEST(ConcurrentServeTest, FreezeIsIdempotent) {
  const Dataset data = GraphBinary(18, 300);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.threshold = 0.4;
  QuerySearcher searcher(&data, cfg);
  searcher.Freeze();
  const uint64_t after_first = searcher.hashes_computed();
  ASSERT_GT(after_first, 0u);
  searcher.Freeze();
  EXPECT_EQ(searcher.hashes_computed(), after_first);
  EXPECT_TRUE(searcher.frozen());
}

}  // namespace
}  // namespace bayeslsh
