// Tests for the durable LSM write path (core/dynamic_index.h +
// core/wal.h): WAL attach/replay recovering un-checkpointed mutations,
// idempotent replay across the checkpoint crash window, fault-injected
// torn appends, randomized Add/Remove/Compact/checkpoint schedules
// converging to the from-scratch oracle for every signature kind at 1
// and 8 threads, the off-thread compaction path under concurrent readers
// (TSan target), size-tiered auto-compaction triggers, the signature
// adoption zero-recompute guarantee, and the ghost_candidates counter.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/dynamic_index.h"
#include "core/index_io.h"
#include "core/query_search.h"
#include "core/wal.h"
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

Dataset SliceRows(const Dataset& src, uint32_t begin, uint32_t end) {
  DatasetBuilder b(src.num_dims());
  for (uint32_t r = begin; r < end; ++r) b.AddRow(Entries(src.Row(r)));
  return std::move(b).Build();
}

Dataset SelectRows(const Dataset& src, const std::vector<uint32_t>& rows) {
  DatasetBuilder b(src.num_dims());
  for (const uint32_t r : rows) b.AddRow(Entries(src.Row(r)));
  return std::move(b).Build();
}

std::vector<QueryMatch> MapIds(std::vector<QueryMatch> matches,
                               const std::vector<uint32_t>& logical_ids) {
  for (QueryMatch& m : matches) m.id = logical_ids[m.id];
  return matches;
}

struct DynCase {
  const char* name;
  Measure measure;
  uint32_t bbit;
  double threshold;
};

constexpr uint32_t kBaseRows = 120;
constexpr uint32_t kTotalRows = 160;

Dataset MakeCorpus(const DynCase& c, uint64_t seed, uint32_t rows) {
  return c.measure == Measure::kJaccard ? GraphBinary(seed, rows)
                                        : TextWeighted(seed, rows);
}

std::unique_ptr<PersistentIndex> BuildBase(const DynCase& c,
                                           const Dataset& corpus,
                                           uint32_t threads) {
  IndexBuildConfig icfg;
  icfg.measure = c.measure;
  icfg.threshold = c.threshold;
  icfg.bbit = c.bbit;
  icfg.seed = 42;
  icfg.num_threads = threads;
  return PersistentIndex::Build(SliceRows(corpus, 0, kBaseRows), icfg);
}

QuerySearchConfig RebuildConfig(const DynCase& c, uint32_t threads) {
  QuerySearchConfig qcfg;
  qcfg.measure = c.measure;
  qcfg.threshold = c.threshold;
  qcfg.bbit = c.bbit;
  qcfg.seed = 42;
  qcfg.num_threads = threads;
  return qcfg;
}

// Asserts that dyn's queries over the first kQueries corpus rows are
// pair-for-pair identical to a from-scratch QuerySearcher over the live
// corpus (`live_rows` of `corpus`, in logical-id order).
void ExpectRebuildIdentical(const DynamicIndex& dyn, const DynCase& c,
                            uint32_t threads, const Dataset& corpus,
                            const std::vector<uint32_t>& live_rows,
                            const char* where) {
  constexpr uint32_t kQueries = 15;
  const Dataset live = SelectRows(corpus, live_rows);
  const QuerySearcher fresh(&live, RebuildConfig(c, threads));
  uint64_t total_matches = 0;
  for (uint32_t qid = 0; qid < kQueries; ++qid) {
    const SparseVectorView q = corpus.Row(qid);
    const std::vector<QueryMatch> expect = MapIds(fresh.Query(q), live_rows);
    EXPECT_EQ(dyn.Query(q), expect) << where << " qid=" << qid;
    total_matches += expect.size();
  }
  EXPECT_GT(total_matches, 0u) << where << ": vacuous comparison";
}

// Per-test-instance scratch directory (parallel ctest runs distinct
// tests concurrently, so the name must be unique per instance).
std::filesystem::path TestDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string("bayeslsh_durable_") +
                    info->test_suite_name() + "_" + info->name();
  for (char& ch : tag) {
    if (ch == '/') ch = '_';
  }
  const auto dir = std::filesystem::temp_directory_path() / tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class DurableDynamicRebuild
    : public ::testing::TestWithParam<std::tuple<DynCase, uint32_t>> {};

// The durability acceptance test in-process: mutate through an attached
// WAL, drop the index WITHOUT checkpointing, and reload checkpoint +
// log — the recovered index must serve exactly like a from-scratch
// rebuild of the acknowledged corpus.
TEST_P(DurableDynamicRebuild, WalReplayRecoversUncheckpointedMutations) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 71, kTotalRows);
  const auto dir = TestDir();
  const std::string manifest = (dir / "index.dyn").string();
  const std::string wal = (dir / "wal.log").string();

  DynamicIndexConfig dcfg;
  dcfg.threshold = c.threshold;
  dcfg.num_threads = threads;
  {
    DynamicIndex dyn(BuildBase(c, corpus, threads), dcfg);
    dyn.SaveFile(manifest);  // The only checkpoint this test takes.
    const WalRecovery fresh = dyn.AttachWal(wal);
    EXPECT_EQ(fresh.records, 0u);
    EXPECT_FALSE(fresh.tail_truncated);

    for (uint32_t r = kBaseRows; r < kTotalRows; ++r) {
      EXPECT_EQ(dyn.Add(corpus.Row(r)), r);
    }
    EXPECT_TRUE(dyn.Remove(3));
    EXPECT_TRUE(dyn.Remove(kBaseRows + 7));
    // Destroyed here with un-checkpointed mutations: the manifest on
    // disk still describes the bare base.
  }

  auto dyn = DynamicIndex::LoadFile(manifest, dcfg);
  EXPECT_EQ(dyn->num_delta_rows(), 0u);  // Pre-replay: checkpoint only.
  const WalRecovery rec = dyn->AttachWal(wal);
  EXPECT_EQ(rec.records, (kTotalRows - kBaseRows) + 2u);
  EXPECT_EQ(rec.applied, rec.records);
  EXPECT_EQ(rec.skipped, 0u);
  EXPECT_FALSE(rec.tail_truncated);

  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kTotalRows; ++r) {
    if (r != 3 && r != kBaseRows + 7) live.push_back(r);
  }
  ExpectRebuildIdentical(*dyn, c, threads, corpus, live, "recovered");

  // Ids keep advancing from the replayed watermark.
  EXPECT_EQ(dyn->Add(corpus.Row(0)), kTotalRows);
}

// Randomized schedules of Add / Remove / Compact / checkpoint-reopen,
// all through the WAL, ending in a crash-style reopen (no final save):
// the recovered index must match the from-scratch oracle. Seeded per
// (kind, threads), so failures reproduce.
TEST_P(DurableDynamicRebuild, RandomizedScheduleMatchesOracle) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 55, kTotalRows);
  const auto dir = TestDir();
  const std::string manifest = (dir / "index.dyn").string();
  const std::string wal = (dir / "wal.log").string();

  DynamicIndexConfig dcfg;
  dcfg.threshold = c.threshold;
  dcfg.num_threads = threads;
  auto dyn =
      std::make_unique<DynamicIndex>(BuildBase(c, corpus, threads), dcfg);
  dyn->SaveFile(manifest);
  dyn->AttachWal(wal);

  Xoshiro256StarStar rng(Mix64(c.bbit + 13 * threads,
                               static_cast<uint64_t>(c.measure)));
  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kBaseRows; ++r) live.push_back(r);
  uint32_t next_pool = kBaseRows;

  for (uint32_t step = 0; step < 70; ++step) {
    const uint64_t r = rng() % 100;
    if (r < 55 && next_pool < kTotalRows) {
      EXPECT_EQ(dyn->Add(corpus.Row(next_pool)), next_pool);
      live.push_back(next_pool++);
    } else if (r < 80 && live.size() > 5) {
      const size_t pick = rng() % live.size();
      EXPECT_TRUE(dyn->Remove(live[pick]));
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else if (r < 90) {
      dyn->Compact();
    } else {
      // Clean checkpoint + reopen: SaveFile resets the WAL, so the
      // reattach must replay nothing.
      dyn->SaveFile(manifest);
      dyn.reset();
      dyn = DynamicIndex::LoadFile(manifest, dcfg);
      const WalRecovery rec = dyn->AttachWal(wal);
      EXPECT_EQ(rec.records, 0u) << "step " << step;
    }
  }

  // Crash-style reopen: drop without saving, recover checkpoint + log.
  dyn.reset();
  dyn = DynamicIndex::LoadFile(manifest, dcfg);
  dyn->AttachWal(wal);
  EXPECT_EQ(dyn->num_live(), live.size());
  ExpectRebuildIdentical(*dyn, c, threads, corpus, live, "recovered");
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DurableDynamicRebuild,
    ::testing::Combine(
        ::testing::Values(
            DynCase{"srp_cosine", Measure::kCosine, 0, 0.6},
            DynCase{"minwise_jaccard", Measure::kJaccard, 0, 0.4},
            DynCase{"bbit_jaccard", Measure::kJaccard, 2, 0.4}),
        ::testing::Values(1u, 8u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// --- durability edge cases (one kind suffices) ---

class DurableDynamicEdge : public ::testing::Test {
 protected:
  static constexpr DynCase kCase{"srp_cosine", Measure::kCosine, 0, 0.6};

  void SetUp() override {
    corpus_ = MakeCorpus(kCase, 91, kTotalRows);
    dir_ = TestDir();
    manifest_ = (dir_ / "index.dyn").string();
    wal_ = (dir_ / "wal.log").string();
  }

  std::unique_ptr<DynamicIndex> Fresh(const DynamicIndexConfig& dcfg) {
    return std::make_unique<DynamicIndex>(BuildBase(kCase, corpus_, 1),
                                          dcfg);
  }

  Dataset corpus_;
  std::filesystem::path dir_;
  std::string manifest_;
  std::string wal_;
};

// The checkpoint crash window: a manifest written WITHOUT the paired WAL
// reset (Save to a stream does exactly that) leaves every logged record
// already applied. Replay must skip them all — idempotence — instead of
// double-applying or failing.
TEST_F(DurableDynamicEdge, ReplayOverFreshCheckpointSkipsIdempotently) {
  DynamicIndexConfig dcfg;
  dcfg.threshold = kCase.threshold;
  auto dyn = Fresh(dcfg);
  dyn->AttachWal(wal_);
  for (uint32_t r = kBaseRows; r < kBaseRows + 10; ++r) {
    dyn->Add(corpus_.Row(r));
  }
  ASSERT_TRUE(dyn->Remove(5));

  // Checkpoint via the stream API: the WAL is deliberately NOT reset —
  // the on-disk state now mimics a crash between SaveFile's manifest
  // rename and its WAL reset.
  {
    std::ofstream out(manifest_, std::ios::binary | std::ios::trunc);
    dyn->Save(out);
  }
  const uint32_t live_before = dyn->num_live();
  dyn.reset();

  auto reloaded = DynamicIndex::LoadFile(manifest_, dcfg);
  const WalRecovery rec = reloaded->AttachWal(wal_);
  EXPECT_EQ(rec.records, 11u);
  EXPECT_EQ(rec.applied, 0u);
  EXPECT_EQ(rec.skipped, 11u);
  EXPECT_EQ(reloaded->num_live(), live_before);

  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kBaseRows + 10; ++r) {
    if (r != 5) live.push_back(r);
  }
  ExpectRebuildIdentical(*reloaded, kCase, 1, corpus_, live, "idempotent");
}

// Fault injection through the index: the crashing mutation throws (test
// hook instead of SIGKILL), nothing acknowledged is lost, and the torn
// tail repairs on the next attach.
TEST_F(DurableDynamicEdge, InjectedTornAppendRecoversAckedPrefix) {
  DynamicIndexConfig dcfg;
  dcfg.threshold = kCase.threshold;
  auto dyn = Fresh(dcfg);
  dyn->SaveFile(manifest_);
  dyn->AttachWal(wal_);
  for (uint32_t r = kBaseRows; r < kBaseRows + 5; ++r) {
    dyn->Add(corpus_.Row(r));
  }
  bool hook_ran = false;
  dyn->SetWalCrashAfterBytes(
      std::filesystem::file_size(wal_) + 3,  // Mid-header of the next op.
      [&] { hook_ran = true; });
  EXPECT_THROW(dyn->Add(corpus_.Row(kBaseRows + 5)), WalError);
  EXPECT_TRUE(hook_ran);
  dyn.reset();

  auto reloaded = DynamicIndex::LoadFile(manifest_, dcfg);
  const WalRecovery rec = reloaded->AttachWal(wal_);
  EXPECT_EQ(rec.applied, 5u);
  EXPECT_TRUE(rec.tail_truncated);
  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kBaseRows + 5; ++r) live.push_back(r);
  ExpectRebuildIdentical(*reloaded, kCase, 1, corpus_, live, "torn");
}

TEST_F(DurableDynamicEdge, WalSyncModeRoundTrips) {
  DynamicIndexConfig dcfg;
  dcfg.threshold = kCase.threshold;
  dcfg.wal_sync = true;
  auto dyn = Fresh(dcfg);
  dyn->SaveFile(manifest_);
  dyn->AttachWal(wal_);
  dyn->Add(corpus_.Row(kBaseRows));
  ASSERT_TRUE(dyn->Remove(0));
  dyn.reset();

  auto reloaded = DynamicIndex::LoadFile(manifest_, dcfg);
  EXPECT_EQ(reloaded->AttachWal(wal_).applied, 2u);
  EXPECT_EQ(reloaded->num_live(), kBaseRows);  // +1 add, -1 remove.
}

TEST_F(DurableDynamicEdge, AttachTwiceAndFaultWithoutWalThrow) {
  DynamicIndexConfig dcfg;
  auto dyn = Fresh(dcfg);
  EXPECT_THROW(dyn->SetWalCrashAfterBytes(1), std::logic_error);
  dyn->AttachWal(wal_);
  EXPECT_THROW(dyn->AttachWal((dir_ / "other.log").string()),
               std::logic_error);
}

// A corrupted WAL byte with acknowledged records beyond it must fail the
// attach closed (WalError), not serve a silently shortened corpus.
TEST_F(DurableDynamicEdge, CorruptWalMidLogFailsAttachClosed) {
  DynamicIndexConfig dcfg;
  dcfg.threshold = kCase.threshold;
  auto dyn = Fresh(dcfg);
  dyn->SaveFile(manifest_);
  dyn->AttachWal(wal_);
  // Enough adds to cross a block boundary, so damage in block 0 provably
  // has valid fragments beyond it.
  for (uint32_t r = kBaseRows; r < kTotalRows; ++r) {
    dyn->Add(corpus_.Row(r));
  }
  dyn.reset();
  ASSERT_GT(std::filesystem::file_size(wal_), 2 * kWalBlockSize);
  {
    std::fstream f(wal_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    const char flip = 0x7f;
    f.write(&flip, 1);
  }
  auto reloaded = DynamicIndex::LoadFile(manifest_, dcfg);
  EXPECT_THROW(reloaded->AttachWal(wal_), WalError);
}

// Size-tiered auto-compaction: the delta-rows trigger folds the delta in
// the background; the tombstone-fraction trigger reclaims removals.
TEST_F(DurableDynamicEdge, AutoCompactionTriggersFireInBackground) {
  DynamicIndexConfig dcfg;
  dcfg.threshold = kCase.threshold;
  dcfg.auto_compact_delta_rows = 8;
  auto dyn = Fresh(dcfg);
  for (uint32_t r = kBaseRows; r < kBaseRows + 8; ++r) {
    dyn->Add(corpus_.Row(r));
  }
  dyn->WaitForCompaction();
  EXPECT_EQ(dyn->num_delta_rows(), 0u);
  EXPECT_EQ(dyn->num_base_rows(), kBaseRows + 8);

  DynamicIndexConfig tcfg;
  tcfg.threshold = kCase.threshold;
  tcfg.auto_compact_tombstone_fraction = 0.05;
  auto dyn2 = Fresh(tcfg);
  // Two waves of removals, each crossing the 5% fraction exactly at its
  // last remove (the trigger re-fires per mutation, so waiting between
  // waves makes the reclaim deterministic): 6/120 then 6/114.
  const uint32_t to_remove = 12;
  for (uint32_t id = 0; id < 6; ++id) {
    ASSERT_TRUE(dyn2->Remove(id));
  }
  dyn2->WaitForCompaction();
  EXPECT_EQ(dyn2->num_tombstones(), 0u);
  EXPECT_EQ(dyn2->num_base_rows(), kBaseRows - 6);
  for (uint32_t id = 6; id < to_remove; ++id) {
    ASSERT_TRUE(dyn2->Remove(id));
  }
  dyn2->WaitForCompaction();
  EXPECT_EQ(dyn2->num_tombstones(), 0u);
  EXPECT_EQ(dyn2->num_base_rows(), kBaseRows - to_remove);

  std::vector<uint32_t> live;
  for (uint32_t r = to_remove; r < kBaseRows; ++r) live.push_back(r);
  ExpectRebuildIdentical(*dyn2, kCase, 1, corpus_, live, "auto-compact");
}

// The adoption guarantee: compaction must not redo verification hashing
// for rows the old base already hashed. A fresh PersistentIndex::Build
// counts at least one verification round per row into its own store, so
// a tombstone-only compaction whose new base counted ZERO work proves
// every surviving row's signature was adopted rather than recomputed.
// Serving reads a frozen copy of those rows, so the counter also stays
// zero across a post-compaction query battery.
class DurableDynamicAdoption : public ::testing::TestWithParam<DynCase> {};

TEST_P(DurableDynamicAdoption, CompactionAdoptsInsteadOfRehashing) {
  const DynCase c = GetParam();
  const Dataset corpus = MakeCorpus(c, 37, kBaseRows);
  DynamicIndexConfig dcfg;
  dcfg.threshold = c.threshold;
  DynamicIndex dyn(BuildBase(c, corpus, 1), dcfg);
  // The freshly built base hashed every row at least one round.
  EXPECT_GT(dyn.base_hash_work(), 0u);

  ASSERT_TRUE(dyn.Remove(2));
  ASSERT_TRUE(dyn.Remove(17));
  dyn.Compact();
  // The rebuild adopted all surviving signatures: zero fresh hashing
  // (a non-adopting rebuild would re-count the per-row build round).
  EXPECT_EQ(dyn.base_hash_work(), 0u);
  // Serving is backed by a frozen copy, never the index's own store.
  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kBaseRows; ++r) {
    if (r != 2 && r != 17) live.push_back(r);
  }
  ExpectRebuildIdentical(dyn, c, 1, corpus, live, "adopted");
  EXPECT_EQ(dyn.base_hash_work(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DurableDynamicAdoption,
    ::testing::Values(DynCase{"srp_cosine", Measure::kCosine, 0, 0.6},
                      DynCase{"minwise_jaccard", Measure::kJaccard, 0, 0.4},
                      DynCase{"bbit_jaccard", Measure::kJaccard, 2, 0.4}),
    [](const auto& info) { return std::string(info.param.name); });

// Ghost candidates: verified matches subtracted because their id is
// tombstoned must be counted exactly — per query, summed over batches,
// additive under MergeFrom, and zero again once compaction reclaims the
// rows.
TEST(GhostCandidatesTest, CountsTombstoneSuppressedMatchesExactly) {
  const DynCase c{"srp_cosine", Measure::kCosine, 0, 0.6};
  const Dataset corpus = MakeCorpus(c, 47, kBaseRows + 10);
  DynamicIndexConfig dcfg;
  dcfg.threshold = c.threshold;
  DynamicIndex dyn(BuildBase(c, corpus, 1), dcfg);
  for (uint32_t r = kBaseRows; r < kBaseRows + 10; ++r) {
    dyn.Add(corpus.Row(r));
  }

  const SparseVectorView q = corpus.Row(5);
  QueryStats s0;
  const std::vector<QueryMatch> m0 = dyn.Query(q, &s0);
  EXPECT_EQ(s0.ghost_candidates, 0u);
  ASSERT_GE(m0.size(), 2u) << "query must have removable matches";

  ASSERT_TRUE(dyn.Remove(m0.front().id));
  ASSERT_TRUE(dyn.Remove(m0.back().id));
  QueryStats s1;
  const std::vector<QueryMatch> m1 = dyn.Query(q, &s1);
  EXPECT_EQ(s1.ghost_candidates, 2u);
  EXPECT_EQ(m1.size(), m0.size() - 2);

  // Top-k counts ghosts before truncation (the merge happens first).
  QueryStats st;
  (void)dyn.Query(q, &st, 1);
  EXPECT_EQ(st.ghost_candidates, 2u);

  // A batch sums per-query ghosts in query order.
  const std::vector<SparseVectorView> batch = {q, q};
  QueryStats sb;
  (void)dyn.QueryBatch(batch, &sb);
  EXPECT_EQ(sb.ghost_candidates, 4u);

  // MergeFrom is additive.
  QueryStats a, b;
  a.ghost_candidates = 3;
  b.ghost_candidates = 4;
  a.MergeFrom(b);
  EXPECT_EQ(a.ghost_candidates, 7u);

  // Compaction reclaims the rows: no candidates left to suppress.
  dyn.Compact();
  QueryStats s2;
  const std::vector<QueryMatch> m2 = dyn.Query(q, &s2);
  EXPECT_EQ(s2.ghost_candidates, 0u);
  EXPECT_EQ(m2, m1);
}

// Concurrent serving during an off-thread compaction — the TSan target.
// Reader threads hammer Query/QueryBatch while (a) an explicit Compact
// runs on another thread and (b) auto-compaction fires behind mutations;
// results observed at any instant must equal the pre- or post-state of
// some prefix of the mutations (checked against the final oracle once
// the dust settles).
TEST(DurableDynamicConcurrentTest, QueriesServeAcrossOffThreadCompaction) {
  const DynCase c{"srp_cosine", Measure::kCosine, 0, 0.6};
  const Dataset corpus = MakeCorpus(c, 29, kTotalRows);
  DynamicIndexConfig dcfg;
  dcfg.threshold = c.threshold;
  dcfg.num_threads = 2;
  dcfg.auto_compact_delta_rows = 16;
  DynamicIndex dyn(BuildBase(c, corpus, 2), dcfg);

  // Fixed iteration counts, not a stop flag: a reader loop gated on the
  // writer's completion can livelock a reader-preferring rwlock (readers
  // starve the compaction swap, which gates the flag). Draining readers
  // always let the writers through, while still overlapping the
  // background compactions for most of their run.
  constexpr int kReaderIters = 60;
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const SparseVectorView q = corpus.Row(static_cast<uint32_t>(t));
      const std::vector<SparseVectorView> batch = {q, q};
      for (int i = 0; i < kReaderIters; ++i) {
        (void)dyn.Query(q);
        (void)dyn.QueryBatch(batch);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Mutations trip the delta-rows trigger twice (16 and 32 rows); the
  // background compactions overlap the reader loops.
  for (uint32_t r = kBaseRows; r < kTotalRows; ++r) {
    dyn.Add(corpus.Row(r));
    if (r % 10 == 0) dyn.Remove(r - kBaseRows);
  }
  // And one explicit compaction racing the readers from this thread.
  dyn.Compact();
  for (std::thread& t : readers) t.join();
  dyn.WaitForCompaction();
  EXPECT_EQ(served.load(), 3u * kReaderIters);

  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kTotalRows; ++r) {
    const bool removed =
        r < kTotalRows - kBaseRows && (r + kBaseRows) % 10 == 0;
    if (!removed) live.push_back(r);
  }
  EXPECT_EQ(dyn.num_tombstones(), 0u);  // Everything compacted away.
  EXPECT_EQ(dyn.num_delta_rows(), 0u);
  ExpectRebuildIdentical(dyn, c, 2, corpus, live, "post-race");
}

}  // namespace
}  // namespace bayeslsh
