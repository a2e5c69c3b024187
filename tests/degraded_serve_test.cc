// Tests for the sharded serving layer (core/sharded_index.h) and its
// robustness primitives (core/serve_control.h). The load-bearing
// contracts:
//
//   - Healthy identity: a K-shard index answers every query, with and
//     without top_k, byte-identically to one unsharded index over the
//     same corpus, for SRP/minwise/b-bit at 1 and 8 threads — including
//     cross-shard ties (equal similarity merges by ascending id) — and a
//     shard with a large candidate list shards that query over its pool.
//   - Degraded-mode semantics, pinned exactly: a deadline hit returns
//     flagged partial results within budget + fixed slack; a dead shard
//     yields precisely the surviving shards' rows and recovers after the
//     breaker's half-open probe; overload is an immediate rejection.
//   - The serve-control state machines themselves (token bucket,
//     admission, breaker) under an explicit fake clock — fully
//     deterministic.
//
// The ServeControl*/ShardedServe*/DegradedServe* suites run under TSan
// in CI (concurrent clients against one router, mutations during
// fan-out).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_index.h"
#include "core/index_io.h"
#include "core/query_search.h"
#include "core/serve_control.h"
#include "core/sharded_index.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

Dataset TextWeighted(uint64_t seed, uint32_t docs) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 50;
  cfg.num_clusters = docs / 10;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  return L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
}

Dataset GraphBinary(uint64_t seed, uint32_t nodes) {
  GraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.avg_degree = 16;
  cfg.num_communities = nodes / 10;
  cfg.community_size = 4;
  cfg.seed = seed;
  return GenerateGraphAdjacency(cfg);
}

std::vector<std::pair<DimId, float>> Entries(const SparseVectorView& v) {
  std::vector<std::pair<DimId, float>> e;
  for (uint32_t i = 0; i < v.size(); ++i) {
    e.emplace_back(v.indices[i], v.values[i]);
  }
  return e;
}

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// ---------------------------------------------------------------------------
// ServeControl: the deterministic state machines, driven by a fake clock
// ---------------------------------------------------------------------------

TEST(ServeControlTokenBucket, BurstThenSustainedRate) {
  TokenBucket bucket(/*tokens_per_second=*/2.0, /*burst=*/3.0, /*now=*/0.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));  // Burst capacity exhausted.
  EXPECT_FALSE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(0.4));  // 0.8 tokens refilled: still < 1.
  EXPECT_TRUE(bucket.TryAcquire(0.5));   // 1.0 refilled.
  EXPECT_FALSE(bucket.TryAcquire(0.5));
  // Refill caps at burst: after a long idle stretch, exactly 3 tokens.
  EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_FALSE(bucket.TryAcquire(100.0));
}

TEST(ServeControlTokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(0.0));
}

TEST(ServeControlAdmission, PerClientBucketsAreIndependent) {
  AdmissionConfig cfg;
  cfg.tokens_per_second = 1.0;
  cfg.burst = 1.0;
  AdmissionController ctl(cfg);
  EXPECT_TRUE(ctl.TryAdmit("alice", 0.0));
  // Alice's bucket is empty; Bob's is untouched.
  EXPECT_FALSE(ctl.TryAdmit("alice", 0.0));
  EXPECT_TRUE(ctl.TryAdmit("bob", 0.0));
  // Refill readmits Alice.
  EXPECT_TRUE(ctl.TryAdmit("alice", 1.5));
  EXPECT_EQ(ctl.rejected_total(), 1u);
}

// Six clients race on one controller at a fixed clock. Each has its own
// bucket, so each is admitted exactly `burst` times however the threads
// interleave, and every other attempt counts as one rejection.
TEST(ServeControlAdmission, ConcurrentClientsEachGetExactlyTheirBurst) {
  constexpr int kClients = 6;
  constexpr int kAttempts = 50;
  constexpr int kBurst = 5;
  AdmissionConfig cfg;
  cfg.tokens_per_second = 1.0;
  cfg.burst = kBurst;
  AdmissionController ctl(cfg);
  std::vector<int> admitted(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string client = "client" + std::to_string(c);
      for (int i = 0; i < kAttempts; ++i) {
        if (ctl.TryAdmit(client, 0.0)) ++admitted[c];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(admitted[c], kBurst) << "client " << c;
  }
  EXPECT_EQ(ctl.rejected_total(), uint64_t{kClients * (kAttempts - kBurst)});
}

TEST(ServeControlBreaker, OpensAfterConsecutiveFailuresAndProbes) {
  BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_seconds = 10.0;
  CircuitBreaker breaker(cfg);
  EXPECT_EQ(breaker.state(0.0), BreakerState::kClosed);

  // Two failures + a success: the consecutive count resets.
  EXPECT_TRUE(breaker.AllowRequest(0.0));
  breaker.RecordFailure(0.0);
  EXPECT_TRUE(breaker.AllowRequest(1.0));
  breaker.RecordFailure(1.0);
  EXPECT_TRUE(breaker.AllowRequest(2.0));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.consecutive_failures(), 0u);

  // Three consecutive failures open it.
  for (double t : {3.0, 4.0, 5.0}) {
    EXPECT_TRUE(breaker.AllowRequest(t));
    breaker.RecordFailure(t);
  }
  EXPECT_EQ(breaker.state(5.0), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(6.0));     // Backoff not elapsed.
  EXPECT_FALSE(breaker.AllowRequest(14.9));

  // Backoff elapsed: exactly ONE half-open probe is admitted.
  EXPECT_EQ(breaker.state(15.1), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(15.1));
  EXPECT_FALSE(breaker.AllowRequest(15.2));  // Probe already in flight.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(15.3), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(15.3));
  breaker.RecordSuccess();
}

TEST(ServeControlBreaker, FailedProbeReopensWithFreshBackoff) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_seconds = 5.0;
  CircuitBreaker breaker(cfg);
  ASSERT_TRUE(breaker.AllowRequest(0.0));
  breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.state(0.0), BreakerState::kOpen);
  ASSERT_TRUE(breaker.AllowRequest(5.5));  // Half-open probe.
  breaker.RecordFailure(5.5);              // Probe failed.
  EXPECT_EQ(breaker.state(5.6), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(10.0));  // Fresh backoff from 5.5.
  EXPECT_TRUE(breaker.AllowRequest(10.6));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(10.7), BreakerState::kClosed);
}

TEST(ServeControlBreaker, AbandonedProbeFreesTheSlot) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_seconds = 1.0;
  CircuitBreaker breaker(cfg);
  ASSERT_TRUE(breaker.AllowRequest(0.0));
  breaker.RecordFailure(0.0);
  ASSERT_TRUE(breaker.AllowRequest(1.5));  // Probe rides a query...
  breaker.RecordAbandoned();               // ...whose deadline expired.
  // The slot is free: the next request probes again instead of being
  // locked out by a probe that will never report.
  EXPECT_TRUE(breaker.AllowRequest(1.6));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(1.7), BreakerState::kClosed);
}

TEST(ServeControlInjector, FailNextCountsDown) {
  ShardFaultInjector injector(2);
  injector.FailNext(0, 2);
  EXPECT_THROW(injector.BeforeShardQuery(0), ShardFault);
  EXPECT_NO_THROW(injector.BeforeShardQuery(1));  // Other shard untouched.
  EXPECT_THROW(injector.BeforeShardQuery(0), ShardFault);
  EXPECT_NO_THROW(injector.BeforeShardQuery(0));  // Count exhausted.
}

TEST(ServeControlInjector, ShutdownReleasesWedgedWaiter) {
  ShardFaultInjector injector(1);
  injector.Wedge(0);
  std::atomic<bool> threw{false};
  std::thread waiter([&] {
    try {
      injector.BeforeShardQuery(0);
    } catch (const ShardFault&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  injector.Shutdown();
  waiter.join();
  EXPECT_TRUE(threw.load());
}

// ---------------------------------------------------------------------------
// ShardedServe: healthy K-shard == unsharded, for every signature kind
// ---------------------------------------------------------------------------

struct ServeCase {
  const char* name;
  Measure measure;
  uint32_t bbit;
  double threshold;
};

constexpr uint32_t kRows = 180;
constexpr uint32_t kShards = 4;

Dataset MakeCorpus(const ServeCase& c, uint64_t seed, uint32_t rows) {
  return c.measure == Measure::kJaccard ? GraphBinary(seed, rows)
                                        : TextWeighted(seed, rows);
}

IndexBuildConfig BuildConfigFor(const ServeCase& c, uint32_t threads) {
  IndexBuildConfig icfg;
  icfg.measure = c.measure;
  icfg.threshold = c.threshold;
  icfg.bbit = c.bbit;
  icfg.seed = 42;
  icfg.num_threads = threads;
  return icfg;
}

// The unsharded oracle over the same corpus: ShardedIndex global ids are
// row ids, exactly like DynamicIndex logical ids, so results compare
// directly.
std::unique_ptr<DynamicIndex> BuildOracle(const ServeCase& c,
                                          const Dataset& corpus,
                                          uint32_t threads) {
  Dataset copy = corpus;
  DynamicIndexConfig dcfg;
  dcfg.num_threads = threads;
  return std::make_unique<DynamicIndex>(
      PersistentIndex::Build(std::move(copy), BuildConfigFor(c, threads)),
      dcfg);
}

class ShardedServeIdentity
    : public ::testing::TestWithParam<std::tuple<ServeCase, uint32_t>> {};

TEST_P(ShardedServeIdentity, HealthyShardedEqualsUnsharded) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 7, kRows);

  ShardedIndexConfig scfg;
  scfg.num_shards = kShards;
  scfg.num_threads = threads;
  ShardedIndex sharded(corpus, BuildConfigFor(c, threads), scfg);
  auto oracle = BuildOracle(c, corpus, threads);

  std::vector<SparseVectorView> queries;
  for (uint32_t q = 0; q < kRows; q += 13) queries.push_back(corpus.Row(q));

  // Every match, and the top 5, byte-identical per query. A deadline
  // past the steady clock's range (1e10 s) bounds nothing.
  const ServeOptions huge{.deadline_seconds = 1e10};
  for (const SparseVectorView& q : queries) {
    QueryStats stats;
    EXPECT_EQ(sharded.Query(q, &stats), oracle->Query(q));
    EXPECT_EQ(stats.shards_total, kShards);
    EXPECT_EQ(stats.shards_answered, kShards);
    EXPECT_EQ(stats.deadline_expired, 0u);
    EXPECT_EQ(sharded.Query(q, nullptr, 5), oracle->Query(q, nullptr, 5));
    QueryStats huge_stats;
    EXPECT_EQ(sharded.Query(q, &huge_stats, 0, huge), oracle->Query(q));
    EXPECT_EQ(huge_stats.deadline_expired, 0u);
  }
}

TEST_P(ShardedServeIdentity, RoutedMutationsMatchUnshardedOracle) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 8, kRows + 24);

  ShardedIndexConfig scfg;
  scfg.num_shards = kShards;
  scfg.num_threads = threads;
  Dataset base = Dataset(corpus.num_dims(), {0}, {}, {});
  {
    DatasetBuilder b(corpus.num_dims());
    for (uint32_t r = 0; r < kRows; ++r) b.AddRow(Entries(corpus.Row(r)));
    base = std::move(b).Build();
  }
  ShardedIndex sharded(base, BuildConfigFor(c, threads), scfg);
  auto oracle = BuildOracle(c, base, threads);

  // Both assign dense monotonic ids, so the streams stay aligned.
  for (uint32_t r = kRows; r < kRows + 24; ++r) {
    EXPECT_EQ(sharded.Add(corpus.Row(r)), oracle->Add(corpus.Row(r)));
  }
  for (uint32_t id : {3u, 50u, kRows + 5u, kRows + 11u}) {
    EXPECT_TRUE(sharded.Remove(id));
    EXPECT_TRUE(oracle->Remove(id));
    EXPECT_FALSE(sharded.Remove(id));  // Double-remove fails closed.
    EXPECT_FALSE(sharded.Contains(id));
  }
  EXPECT_FALSE(sharded.Remove(kRows + 24));  // Never assigned.
  EXPECT_EQ(sharded.num_live(), oracle->num_live());

  for (uint32_t q = 0; q < kRows + 24; q += 17) {
    EXPECT_EQ(sharded.Query(corpus.Row(q)), oracle->Query(corpus.Row(q)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ShardedServeIdentity,
    ::testing::Combine(
        ::testing::Values(
            ServeCase{"srp_cosine", Measure::kCosine, 0, 0.6},
            ServeCase{"minwise_jaccard", Measure::kJaccard, 0, 0.4},
            ServeCase{"bbit_jaccard", Measure::kJaccard, 2, 0.4}),
        ::testing::Values(1u, 8u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

// Cross-shard tie-breaking: duplicate rows have EXACTLY equal similarity
// to any query (signatures are pure functions of row content), and the
// duplicates land on different shards — the merge must interleave them
// by ascending global id, byte-identically to the unsharded searcher.
class ShardedServeTies
    : public ::testing::TestWithParam<std::tuple<ServeCase, uint32_t>> {};

TEST_P(ShardedServeTies, EqualSimAcrossShardsMergesById) {
  const auto& [c, threads] = GetParam();
  const Dataset src = MakeCorpus(c, 9, kRows);
  // Rows kRows..kRows+5 are copies of row 0; rows kRows+6..kRows+11
  // copies of row 1.
  DatasetBuilder b(src.num_dims());
  for (uint32_t r = 0; r < kRows; ++r) b.AddRow(Entries(src.Row(r)));
  for (int i = 0; i < 6; ++i) b.AddRow(Entries(src.Row(0)));
  for (int i = 0; i < 6; ++i) b.AddRow(Entries(src.Row(1)));
  const Dataset corpus = std::move(b).Build();

  // The duplicates must genuinely span shards, or this test is vacuous.
  const IndexBuildConfig icfg = BuildConfigFor(c, threads);
  std::vector<bool> hit(kShards, false);
  for (uint32_t id = kRows; id < kRows + 6; ++id) {
    hit[ShardedIndex::ShardOfId(icfg.seed, id, kShards)] = true;
  }
  int distinct = 0;
  for (bool h : hit) distinct += h ? 1 : 0;
  ASSERT_GE(distinct, 2) << "duplicates all hashed to one shard; change "
                            "the duplicate count or seed";

  ShardedIndexConfig scfg;
  scfg.num_shards = kShards;
  scfg.num_threads = threads;
  ShardedIndex sharded(corpus, icfg, scfg);
  auto oracle = BuildOracle(c, corpus, threads);

  for (uint32_t q : {0u, 1u, 4u}) {
    const auto got = sharded.Query(corpus.Row(q));
    const auto want = oracle->Query(corpus.Row(q));
    EXPECT_EQ(got, want);
    EXPECT_EQ(sharded.Query(corpus.Row(q), nullptr, 4),
              oracle->Query(corpus.Row(q), nullptr, 4));
  }
  // Sanity: querying row 0 really does return the duplicate group as an
  // equal-similarity run in ascending-id order.
  const auto matches = sharded.Query(corpus.Row(0));
  std::vector<uint32_t> dup_ids;
  for (const QueryMatch& m : matches) {
    if (m.id == 0 || (m.id >= kRows && m.id < kRows + 6)) {
      dup_ids.push_back(m.id);
    }
  }
  EXPECT_EQ(dup_ids.size(), 7u);
  EXPECT_TRUE(std::is_sorted(dup_ids.begin(), dup_ids.end()));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ShardedServeTies,
    ::testing::Combine(
        ::testing::Values(
            ServeCase{"srp_cosine", Measure::kCosine, 0, 0.6},
            ServeCase{"minwise_jaccard", Measure::kJaccard, 0, 0.4},
            ServeCase{"bbit_jaccard", Measure::kJaccard, 2, 0.4}),
        ::testing::Values(1u, 8u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ShardedServe, MoreShardsThanRowsServesEmptyShards) {
  const ServeCase c{"srp_cosine", Measure::kCosine, 0, 0.6};
  const Dataset corpus = MakeCorpus(c, 10, 30);
  ShardedIndexConfig scfg;
  scfg.num_shards = 8;  // Several shards get zero rows at 30 rows.
  ShardedIndex sharded(corpus, BuildConfigFor(c, 1), scfg);
  auto oracle = BuildOracle(c, corpus, 1);
  for (uint32_t q = 0; q < 30; ++q) {
    EXPECT_EQ(sharded.Query(corpus.Row(q)), oracle->Query(corpus.Row(q)));
  }
  // Adds route into (possibly empty) shards and stay queryable.
  const uint32_t id = sharded.Add(corpus.Row(0));
  EXPECT_EQ(id, 30u);
  EXPECT_TRUE(sharded.Contains(id));
}

// Each shard answers a query through DynamicIndex::Query, so a shard
// whose candidate list reaches 16 per worker shards its verification over
// its own pool. A query reports 4 threads when some shard's list reaches
// 64 candidates and 1 when none does, and answers exactly as a 1-thread
// sharded index and the unsharded oracle do, top-k cuts included.
TEST(ShardedServe, ShardsVerifyLargeCandidateListsOnTheirPools) {
  const ServeCase c{"srp_cosine", Measure::kCosine, 0, 0.6};
  // 300 copies of row 0 put about 75 identical candidates on every shard
  // for a query near row 0; other queries find few.
  const Dataset src = MakeCorpus(c, 13, kRows);
  DatasetBuilder b(src.num_dims());
  for (uint32_t r = 0; r < kRows; ++r) b.AddRow(Entries(src.Row(r)));
  for (int i = 0; i < 300; ++i) b.AddRow(Entries(src.Row(0)));
  const Dataset corpus = std::move(b).Build();
  const IndexBuildConfig icfg = BuildConfigFor(c, 1);
  ShardedIndexConfig scfg;
  scfg.num_shards = kShards;
  scfg.num_threads = 4;
  ShardedIndex wide(corpus, icfg, scfg);
  scfg.num_threads = 1;
  ShardedIndex narrow(corpus, icfg, scfg);
  auto oracle = BuildOracle(c, corpus, 1);

  // Each shard's own candidate count comes from an index over its rows.
  std::vector<std::unique_ptr<DynamicIndex>> shard_oracles;
  for (uint32_t s = 0; s < kShards; ++s) {
    DatasetBuilder rows(corpus.num_dims());
    for (uint32_t r = 0; r < corpus.num_vectors(); ++r) {
      if (ShardedIndex::ShardOfId(icfg.seed, r, kShards) == s) {
        rows.AddRow(Entries(corpus.Row(r)));
      }
    }
    shard_oracles.push_back(BuildOracle(c, std::move(rows).Build(), 1));
  }

  bool saw_pooled = false;
  bool saw_serial = false;
  for (uint32_t q = 0; q < kRows; q += 5) {
    uint64_t widest = 0;
    for (const auto& shard : shard_oracles) {
      QueryStats shard_stats;
      shard->Query(corpus.Row(q), &shard_stats);
      widest = std::max(widest, shard_stats.candidates);
    }
    const bool pooled = widest >= 16 * 4;
    QueryStats stats;
    const auto got = wide.Query(corpus.Row(q), &stats);
    EXPECT_EQ(stats.threads_used, pooled ? 4u : 1u)
        << "query " << q << ": " << widest << " candidates on its widest shard";
    EXPECT_EQ(stats.shards_answered, kShards);
    EXPECT_EQ(got, narrow.Query(corpus.Row(q))) << "query " << q;
    EXPECT_EQ(got, oracle->Query(corpus.Row(q))) << "query " << q;
    EXPECT_EQ(wide.Query(corpus.Row(q), nullptr, 5),
              oracle->Query(corpus.Row(q), nullptr, 5))
        << "query " << q;
    (pooled ? saw_pooled : saw_serial) = true;
  }
  EXPECT_TRUE(saw_pooled) << "no shard reached 64 candidates; the 4-thread "
                             "assertion was vacuous";
  EXPECT_TRUE(saw_serial) << "every query pooled; the 1-thread assertion "
                             "was vacuous";
}

TEST(ShardedServe, ZeroShardsRejected) {
  const ServeCase c{"srp_cosine", Measure::kCosine, 0, 0.6};
  const Dataset corpus = MakeCorpus(c, 11, 20);
  ShardedIndexConfig scfg;
  scfg.num_shards = 0;
  EXPECT_THROW(ShardedIndex(corpus, BuildConfigFor(c, 1), scfg),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DegradedServe: deadlines, dead shards, recovery, wedges — the contract
// ---------------------------------------------------------------------------

const ServeCase kDegradedCase{"srp_cosine", Measure::kCosine, 0, 0.6};

// The oracle's results filtered to ids NOT owned by `dead_shard` — what a
// degraded fan-out that lost exactly that shard must return.
std::vector<QueryMatch> MinusShard(std::vector<QueryMatch> matches,
                                   uint64_t seed, uint32_t dead_shard,
                                   uint32_t num_shards) {
  std::erase_if(matches, [&](const QueryMatch& m) {
    return ShardedIndex::ShardOfId(seed, m.id, num_shards) == dead_shard;
  });
  return matches;
}

TEST(DegradedServe, DeadlineReturnsFlaggedPartialWithinBudget) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 12, kRows);
  const IndexBuildConfig icfg = BuildConfigFor(kDegradedCase, 1);
  ShardedIndexConfig scfg;
  scfg.num_shards = kShards;
  ShardedIndex sharded(corpus, icfg, scfg);
  auto oracle = BuildOracle(kDegradedCase, corpus, 1);

  // Wedge (not merely slow) one shard: it cannot answer until released,
  // so the partial below never depends on scheduler luck, while the
  // healthy shards get a budget generous enough for a loaded TSan box.
  const uint32_t slow = 1;
  sharded.fault_injector().Wedge(slow);

  ServeOptions opts;
  opts.deadline_seconds = 2.0;
  QueryStats stats;
  const auto start = std::chrono::steady_clock::now();
  const auto got = sharded.Query(corpus.Row(3), &stats, 0, opts);
  const double elapsed = Elapsed(start);

  // The router waited the budget out for the wedged shard, gave up at
  // the deadline, and did not block indefinitely.
  EXPECT_GE(elapsed, opts.deadline_seconds - 0.01);
  EXPECT_LT(elapsed, 30.0);
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.shards_total, kShards);
  EXPECT_EQ(stats.shards_answered, kShards - 1);
  // Exact over the answered shards: the oracle minus the wedged shard.
  EXPECT_EQ(got,
            MinusShard(oracle->Query(corpus.Row(3)), icfg.seed, slow,
                       kShards));

  // The deadline was the client's budget, not a health signal: the
  // wedged shard's breaker is still closed, and once it is released a
  // deadline-free query returns the full answer.
  EXPECT_EQ(sharded.shard_state(slow).breaker, BreakerState::kClosed);
  sharded.fault_injector().Clear();
  QueryStats full_stats;
  EXPECT_EQ(sharded.Query(corpus.Row(3), &full_stats),
            oracle->Query(corpus.Row(3)));
  EXPECT_EQ(full_stats.shards_answered, kShards);
}

TEST(DegradedServe, DeadShardDegradesOpensBreakerAndRecovers) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 13, kRows);
  const IndexBuildConfig icfg = BuildConfigFor(kDegradedCase, 1);
  ShardedIndexConfig scfg;
  scfg.num_shards = kShards;
  scfg.breaker.failure_threshold = 2;
  scfg.breaker.open_seconds = 0.2;
  ShardedIndex sharded(corpus, icfg, scfg);
  auto oracle = BuildOracle(kDegradedCase, corpus, 1);

  const uint32_t dead = 2;
  const auto degraded =
      MinusShard(oracle->Query(corpus.Row(5)), icfg.seed, dead, kShards);
  sharded.fault_injector().FailNext(dead, 1000);

  // Failures 1 and 2: the dead shard errors, the answer is exactly the
  // surviving shards' rows, and the second failure opens the breaker.
  for (int i = 0; i < 2; ++i) {
    QueryStats stats;
    EXPECT_EQ(sharded.Query(corpus.Row(5), &stats), degraded);
    EXPECT_EQ(stats.shards_answered, kShards - 1);
    EXPECT_EQ(stats.deadline_expired, 0u);  // Failure, not a deadline.
  }
  EXPECT_EQ(sharded.shard_state(dead).breaker, BreakerState::kOpen);

  // Open breaker: the shard is skipped instantly — same degraded answer,
  // no error churn.
  QueryStats skip_stats;
  EXPECT_EQ(sharded.Query(corpus.Row(5), &skip_stats), degraded);
  EXPECT_EQ(skip_stats.shards_answered, kShards - 1);

  // Heal the shard, wait out the backoff: the next query carries the
  // half-open probe, succeeds, and service is fully restored.
  sharded.fault_injector().Clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  QueryStats recovered_stats;
  EXPECT_EQ(sharded.Query(corpus.Row(5), &recovered_stats),
            oracle->Query(corpus.Row(5)));
  EXPECT_EQ(recovered_stats.shards_answered, kShards);
  EXPECT_EQ(sharded.shard_state(dead).breaker, BreakerState::kClosed);
}

TEST(DegradedServe, FailedProbeReopensTheBreaker) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 14, 60);
  const IndexBuildConfig icfg = BuildConfigFor(kDegradedCase, 1);
  ShardedIndexConfig scfg;
  scfg.num_shards = 2;
  scfg.breaker.failure_threshold = 1;
  scfg.breaker.open_seconds = 0.15;
  ShardedIndex sharded(corpus, icfg, scfg);

  const uint32_t dead = 0;
  sharded.fault_injector().FailNext(dead, 1000);
  sharded.Query(corpus.Row(1));  // Failure 1 opens the breaker.
  EXPECT_EQ(sharded.shard_state(dead).breaker, BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  sharded.Query(corpus.Row(1));  // Half-open probe fails...
  EXPECT_EQ(sharded.shard_state(dead).breaker,
            BreakerState::kOpen);  // ...straight back to open.
}

TEST(DegradedServe, WedgedShardTimesOutAndServerKeepsServing) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 15, kRows);
  const IndexBuildConfig icfg = BuildConfigFor(kDegradedCase, 1);
  ShardedIndexConfig scfg;
  scfg.num_shards = kShards;
  // The server's own health bound: generous enough that healthy shards
  // beat it even on a loaded TSan box, yet still finite.
  scfg.shard_timeout_seconds = 2.0;
  scfg.breaker.failure_threshold = 1;
  scfg.breaker.open_seconds = 60.0;
  ShardedIndex sharded(corpus, icfg, scfg);
  auto oracle = BuildOracle(kDegradedCase, corpus, 1);

  const uint32_t wedged = 0;
  sharded.fault_injector().Wedge(wedged);

  // First query pays the shard timeout, degrades, and opens the breaker
  // (a shard timeout IS a health signal, unlike a query deadline).
  const auto start = std::chrono::steady_clock::now();
  QueryStats stats;
  const auto got = sharded.Query(corpus.Row(7), &stats);
  EXPECT_GE(Elapsed(start), scfg.shard_timeout_seconds - 0.01);
  EXPECT_LT(Elapsed(start), 30.0);
  EXPECT_EQ(stats.shards_answered, kShards - 1);
  EXPECT_EQ(got, MinusShard(oracle->Query(corpus.Row(7)), icfg.seed,
                            wedged, kShards));
  EXPECT_EQ(sharded.shard_state(wedged).breaker, BreakerState::kOpen);

  // Subsequent queries skip the wedged shard: well under the 2 s shard
  // timeout the first query had to pay.
  const auto start2 = std::chrono::steady_clock::now();
  sharded.Query(corpus.Row(7));
  EXPECT_LT(Elapsed(start2), scfg.shard_timeout_seconds - 0.5);

  sharded.fault_injector().Unwedge(wedged);
  // Destructor must not hang even though an abandoned request may still
  // be draining through the executor.
}

TEST(DegradedServe, DestructionWhileWedgedDoesNotHang) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 16, 60);
  ShardedIndexConfig scfg;
  scfg.num_shards = 2;
  scfg.shard_timeout_seconds = 0.05;
  auto sharded = std::make_unique<ShardedIndex>(
      corpus, BuildConfigFor(kDegradedCase, 1), scfg);
  sharded->fault_injector().Wedge(0);
  sharded->Query(corpus.Row(1));  // Abandons the wedged sub-request.
  // The destructor's injector Shutdown() wakes the wedged executor.
  sharded.reset();
}

TEST(DegradedServe, ConcurrentClientsWithFaultsStayCoherent) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 17, kRows);
  const IndexBuildConfig icfg = BuildConfigFor(kDegradedCase, 1);
  ShardedIndexConfig scfg;
  scfg.num_shards = kShards;
  scfg.breaker.failure_threshold = 3;
  scfg.breaker.open_seconds = 0.05;
  ShardedIndex sharded(corpus, icfg, scfg);
  auto oracle = BuildOracle(kDegradedCase, corpus, 1);

  std::atomic<bool> stop{false};
  // A fault thread flapping one shard while clients query: every answer
  // must be a subset-merge of the oracle's (exact over answered shards).
  std::thread flapper([&] {
    while (!stop.load()) {
      sharded.fault_injector().FailNext(1, 3);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      sharded.fault_injector().Clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 15; ++i) {
        const uint32_t q = static_cast<uint32_t>((t * 31 + i * 7) % kRows);
        QueryStats stats;
        const auto got = sharded.Query(corpus.Row(q), &stats);
        const auto want = oracle->Query(corpus.Row(q));
        // Answered-shard exactness: every returned match appears in the
        // oracle with the same similarity, in the oracle's order.
        size_t oi = 0;
        for (const QueryMatch& m : got) {
          while (oi < want.size() && !(want[oi] == m)) ++oi;
          if (oi == want.size()) {
            ++failures;
            break;
          }
          ++oi;
        }
        if (stats.shards_answered == kShards && got != want) ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  stop = true;
  flapper.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Bounded compaction drain (the DynamicIndex satellite)
// ---------------------------------------------------------------------------

std::unique_ptr<DynamicIndex> SmallDynamic(const Dataset& corpus,
                                           uint32_t auto_delta_rows) {
  Dataset copy = corpus;
  DynamicIndexConfig dcfg;
  dcfg.auto_compact_delta_rows = auto_delta_rows;
  return std::make_unique<DynamicIndex>(
      PersistentIndex::Build(std::move(copy),
                             BuildConfigFor(kDegradedCase, 1)),
      dcfg);
}

TEST(DegradedServeDrain, BoundedWaitWithNoCompactionReturnsImmediately) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 18, 60);
  auto dyn = SmallDynamic(corpus, 0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(dyn->WaitForCompaction(5.0));
  EXPECT_LT(Elapsed(start), 1.0);
}

TEST(DegradedServeDrain, BoundedWaitTimesOutOnSlowCompaction) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 19, 60);
  auto dyn = SmallDynamic(corpus, /*auto_delta_rows=*/1);
  dyn->SetCompactHookForTest(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(400)); });
  dyn->Add(corpus.Row(0));  // Trigger fires: background compaction starts.

  EXPECT_FALSE(dyn->WaitForCompaction(0.02));  // Still in the hook's sleep.
  dyn->WaitForCompaction();                    // Unbounded drain completes.
  dyn->SetCompactHookForTest({});
  EXPECT_TRUE(dyn->WaitForCompaction(1.0));  // Drained: true immediately.
}

TEST(DegradedServeDrain, BoundedWaitRethrowsCompactionError) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 20, 60);
  auto dyn = SmallDynamic(corpus, /*auto_delta_rows=*/1);
  dyn->SetCompactHookForTest(
      [] { throw std::runtime_error("injected compaction failure"); });
  dyn->Add(corpus.Row(0));
  EXPECT_THROW(
      {
        // Reap whenever the worker finishes; the error must surface.
        while (!dyn->WaitForCompaction(0.5)) {
        }
      },
      std::runtime_error);
  dyn->SetCompactHookForTest({});
}

TEST(DegradedServeDrain, ShardedDrainBoundsWedgedShardCompaction) {
  const Dataset corpus = MakeCorpus(kDegradedCase, 21, 60);
  ShardedIndexConfig scfg;
  scfg.num_shards = 2;
  ShardedIndex sharded(corpus, BuildConfigFor(kDegradedCase, 1), scfg);
  // No compactions scheduled anywhere: the bounded drain reports clean.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(sharded.WaitForCompaction(2.0));
  EXPECT_LT(Elapsed(start), 1.0);
}

}  // namespace
}  // namespace bayeslsh
