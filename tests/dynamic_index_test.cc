// Tests for the dynamic index (core/dynamic_index.h): the LSM-style
// delta-over-frozen-base layering. The load-bearing property is rebuild
// identity — after ANY interleaving of Add/Remove/Compact, query results
// must be pair-for-pair identical to a from-scratch build over the same
// logical corpus, for every signature kind (SRP, minwise, b-bit) at 1 and
// 8 threads — plus the update edge cases (add-then-remove, remove of a
// nonexistent id, empty delta, idempotent double-compact), manifest
// round-trip and corruption rejection, and concurrent serving (the
// DynamicIndex* tests run under TSan in CI).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <sstream>
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

// Rows [begin, end) of `src` as a fresh dataset (same dimensionality).
Dataset SliceRows(const Dataset& src, uint32_t begin, uint32_t end) {
  DatasetBuilder b(src.num_dims());
  for (uint32_t r = begin; r < end; ++r) b.AddRow(Entries(src.Row(r)));
  return std::move(b).Build();
}

// The live logical corpus: `rows[i]` of `src` becomes physical row i.
Dataset SelectRows(const Dataset& src, const std::vector<uint32_t>& rows) {
  DatasetBuilder b(src.num_dims());
  for (const uint32_t r : rows) b.AddRow(Entries(src.Row(r)));
  return std::move(b).Build();
}

// Maps a rebuilt searcher's physical result ids back to logical ids. The
// map is strictly increasing, so the (sim desc, id asc) result order is
// preserved exactly.
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

constexpr uint32_t kBaseRows = 200;
constexpr uint32_t kTotalRows = 260;

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

// Asserts that dyn's Query (with and without top_k) and QueryBatch over
// `queries` are pair-for-pair identical to a from-scratch QuerySearcher
// over the live corpus (`live_rows` of `corpus`, in logical-id order).
void ExpectRebuildIdentical(const DynamicIndex& dyn, const DynCase& c,
                            uint32_t threads, const Dataset& corpus,
                            const std::vector<uint32_t>& live_rows,
                            const Dataset& queries, const char* where) {
  const Dataset live = SelectRows(corpus, live_rows);
  const QuerySearcher fresh(&live, RebuildConfig(c, threads));

  std::vector<SparseVectorView> qviews;
  for (uint32_t qid = 0; qid < queries.num_vectors(); ++qid) {
    qviews.push_back(queries.Row(qid));
  }
  uint64_t total_matches = 0;
  const auto batched = dyn.QueryBatch(qviews);
  for (uint32_t qid = 0; qid < queries.num_vectors(); ++qid) {
    const SparseVectorView q = qviews[qid];
    const std::vector<QueryMatch> expect = MapIds(fresh.Query(q), live_rows);
    EXPECT_EQ(dyn.Query(q), expect) << where << " qid=" << qid;
    EXPECT_EQ(batched[qid], expect) << where << " batch qid=" << qid;
    std::vector<QueryMatch> expect_top = expect;
    if (expect_top.size() > 3) expect_top.resize(3);
    EXPECT_EQ(dyn.Query(q, nullptr, 3), expect_top)
        << where << " qid=" << qid;
    total_matches += expect.size();
  }
  EXPECT_GT(total_matches, 0u) << where << ": vacuous comparison";
}

class DynamicIndexRebuild
    : public ::testing::TestWithParam<std::tuple<DynCase, uint32_t>> {};

// The acceptance-criterion test: interleavings of Add/Remove/Compact stay
// pair-for-pair identical to a from-scratch rebuild of the live corpus.
TEST_P(DynamicIndexRebuild, InterleavedUpdatesMatchFromScratchRebuild) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 71, kTotalRows);
  // Queries: collection rows (guaranteed non-vacuous: a live row matches
  // at least itself) plus out-of-collection vectors.
  const Dataset others = MakeCorpus(c, 72, 30);
  DatasetBuilder queries_b(corpus.num_dims());
  for (uint32_t r = 0; r < 25; ++r) queries_b.AddRow(Entries(corpus.Row(r)));
  for (uint32_t r = 0; r < 10; ++r) queries_b.AddRow(Entries(others.Row(r)));
  const Dataset queries = std::move(queries_b).Build();

  DynamicIndexConfig dcfg;
  dcfg.threshold = c.threshold;
  dcfg.num_threads = threads;
  DynamicIndex dyn(BuildBase(c, corpus, threads), dcfg);

  // Phase 1: grow the delta with rows 200..259.
  for (uint32_t r = kBaseRows; r < kTotalRows; ++r) {
    EXPECT_EQ(dyn.Add(corpus.Row(r)), r);
  }
  // Remove two base rows and two delta rows (one of them freshly added:
  // the add-then-remove edge case).
  std::vector<uint32_t> removed = {3, 50, 205, 231};
  for (const uint32_t id : removed) EXPECT_TRUE(dyn.Remove(id));
  EXPECT_FALSE(dyn.Remove(1000));  // Never assigned.
  EXPECT_FALSE(dyn.Remove(3));     // Already tombstoned.
  EXPECT_EQ(dyn.num_live(), kTotalRows - 4);

  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kTotalRows; ++r) {
    if (r != 3 && r != 50 && r != 205 && r != 231) live.push_back(r);
  }
  ExpectRebuildIdentical(dyn, c, threads, corpus, live, queries,
                         "pre-compact");

  // Phase 2: compaction preserves ids and results exactly.
  dyn.Compact();
  EXPECT_EQ(dyn.num_delta_rows(), 0u);
  EXPECT_EQ(dyn.num_tombstones(), 0u);
  EXPECT_EQ(dyn.num_base_rows(), kTotalRows - 4);
  ExpectRebuildIdentical(dyn, c, threads, corpus, live, queries,
                         "post-compact");

  // Phase 3: keep mutating after the compaction — ids continue from 260,
  // and removals can now hit the compacted (re-numbered-physically,
  // logically stable) base.
  const Dataset extra = MakeCorpus(c, 73, 20);
  for (uint32_t r = 0; r < extra.num_vectors(); ++r) {
    const uint32_t id = dyn.Add(extra.Row(r));
    EXPECT_EQ(id, kTotalRows + r);
  }
  EXPECT_TRUE(dyn.Remove(7));
  EXPECT_TRUE(dyn.Remove(kTotalRows + 4));
  EXPECT_FALSE(dyn.Remove(205));  // Compacted away; id is never reused.

  // The rebuild corpus now spans two sources; concatenate them so
  // logical ids keep mapping to rows of one dataset.
  DatasetBuilder both_b(corpus.num_dims());
  for (uint32_t r = 0; r < kTotalRows; ++r) {
    both_b.AddRow(Entries(corpus.Row(r)));
  }
  for (uint32_t r = 0; r < extra.num_vectors(); ++r) {
    both_b.AddRow(Entries(extra.Row(r)));
  }
  const Dataset both = std::move(both_b).Build();
  std::vector<uint32_t> live2;
  for (uint32_t r = 0; r < kTotalRows + extra.num_vectors(); ++r) {
    if (r == 3 || r == 50 || r == 205 || r == 231 || r == 7 ||
        r == kTotalRows + 4) {
      continue;
    }
    live2.push_back(r);
  }
  ExpectRebuildIdentical(dyn, c, threads, both, live2, queries,
                         "post-compact-mutations");
}

// Compact() with an empty delta and no tombstones must be a no-op, so
// compacting twice equals compacting once.
TEST_P(DynamicIndexRebuild, DoubleCompactIsIdempotent) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 81, kBaseRows + 20);
  DynamicIndexConfig dcfg;
  dcfg.threshold = c.threshold;
  dcfg.num_threads = threads;
  DynamicIndex dyn(BuildBase(c, corpus, threads), dcfg);
  for (uint32_t r = kBaseRows; r < kBaseRows + 20; ++r) {
    dyn.Add(corpus.Row(r));
  }
  ASSERT_TRUE(dyn.Remove(5));

  dyn.Compact();
  std::vector<std::vector<QueryMatch>> once;
  for (uint32_t qid = 0; qid < 10; ++qid) {
    once.push_back(dyn.Query(corpus.Row(qid)));
  }
  const uint32_t base_rows_once = dyn.num_base_rows();

  dyn.Compact();  // No delta, no tombstones: exact no-op.
  EXPECT_EQ(dyn.num_base_rows(), base_rows_once);
  for (uint32_t qid = 0; qid < 10; ++qid) {
    EXPECT_EQ(dyn.Query(corpus.Row(qid)), once[qid]) << "qid=" << qid;
  }
}

// A manifest round trip preserves query results exactly, for every
// signature kind and thread count (the delta serving state is rebuilt
// from the persisted rows — signatures are pure functions of content).
TEST_P(DynamicIndexRebuild, ManifestRoundTripServesIdentically) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 91, kBaseRows + 30);
  DynamicIndexConfig dcfg;
  dcfg.threshold = c.threshold;
  dcfg.num_threads = threads;
  DynamicIndex dyn(BuildBase(c, corpus, threads), dcfg);
  for (uint32_t r = kBaseRows; r < kBaseRows + 30; ++r) {
    dyn.Add(corpus.Row(r));
  }
  ASSERT_TRUE(dyn.Remove(2));
  ASSERT_TRUE(dyn.Remove(kBaseRows + 3));

  std::stringstream ss;
  dyn.Save(ss);
  const auto loaded = DynamicIndex::Load(ss, dcfg);
  EXPECT_EQ(loaded->num_base_rows(), dyn.num_base_rows());
  EXPECT_EQ(loaded->num_delta_rows(), dyn.num_delta_rows());
  EXPECT_EQ(loaded->num_tombstones(), dyn.num_tombstones());
  EXPECT_EQ(loaded->num_live(), dyn.num_live());
  for (uint32_t qid = 0; qid < 20; ++qid) {
    const SparseVectorView q = corpus.Row(qid);
    EXPECT_EQ(loaded->Query(q), dyn.Query(q)) << "qid=" << qid;
  }
  // Ids keep advancing from the persisted next-id watermark.
  EXPECT_EQ(loaded->Add(corpus.Row(0)), kBaseRows + 30);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DynamicIndexRebuild,
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

// --- edge cases (one kind suffices; the machinery is kind-agnostic) ---

class DynamicIndexEdge : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = TextWeighted(61, kBaseRows + 40);
    IndexBuildConfig icfg;
    icfg.measure = Measure::kCosine;
    icfg.threshold = 0.6;
    icfg.seed = 42;
    base_bytes_ = SliceRows(corpus_, 0, kBaseRows);
    dyn_ = std::make_unique<DynamicIndex>(
        PersistentIndex::Build(base_bytes_, cfg_build()), DynamicIndexConfig{});
  }

  static IndexBuildConfig cfg_build() {
    IndexBuildConfig icfg;
    icfg.measure = Measure::kCosine;
    icfg.threshold = 0.6;
    icfg.seed = 42;
    return icfg;
  }

  Dataset corpus_;
  Dataset base_bytes_;
  std::unique_ptr<DynamicIndex> dyn_;
};

// With an empty delta, serving must equal a warm searcher over the base
// alone (the delta segment contributes nothing, and ids are identity):
// matches and every QueryStats field, through Query and QueryBatch, at 1
// and 4 threads — the empty delta is skipped, and that must not show.
// Once a row is added, the delta serves it.
TEST_F(DynamicIndexEdge, EmptyDeltaServesLikeBaseSearcher) {
  std::vector<SparseVectorView> queries;
  for (uint32_t qid = 0; qid < 25; ++qid) queries.push_back(corpus_.Row(qid));
  const SparseVectorView added = corpus_.Row(kBaseRows);
  const auto has = [](const std::vector<QueryMatch>& ms, uint32_t id) {
    for (const QueryMatch& m : ms) {
      if (m.id == id) return true;
    }
    return false;
  };
  for (const uint32_t threads : {1u, 4u}) {
    DynamicIndexConfig dcfg;
    dcfg.num_threads = threads;
    DynamicIndex dyn(PersistentIndex::Build(base_bytes_, cfg_build()), dcfg);
    const auto base = PersistentIndex::Build(base_bytes_, cfg_build());
    QuerySearchConfig qcfg;
    qcfg.measure = Measure::kCosine;
    qcfg.threshold = 0.6;
    qcfg.seed = 42;
    qcfg.num_threads = threads;
    const QuerySearcher warm(base.get(), qcfg);

    uint64_t total = 0;
    for (uint32_t qid = 0; qid < queries.size(); ++qid) {
      QueryStats got, want;
      const auto expect = warm.Query(queries[qid], &want);
      EXPECT_EQ(dyn.Query(queries[qid], &got), expect)
          << "qid=" << qid << " threads=" << threads;
      EXPECT_EQ(got, want) << "qid=" << qid << " threads=" << threads;
      total += expect.size();
    }
    EXPECT_GT(total, 0u);
    QueryStats got, want;
    EXPECT_EQ(dyn.QueryBatch(queries, &got, 0),
              warm.QueryBatch(queries, &want, 0))
        << "threads=" << threads;
    EXPECT_EQ(got, want) << "threads=" << threads;
    EXPECT_EQ(got.threads_used, threads);

    const uint32_t id = dyn.Add(added);
    EXPECT_TRUE(has(dyn.Query(added), id)) << "threads=" << threads;
    const std::vector<SparseVectorView> one = {added};
    EXPECT_TRUE(has(dyn.QueryBatch(one, nullptr, 0)[0], id))
        << "threads=" << threads;
  }
}

// With rows tombstoned in both segments, a batch reports what a serial
// Query loop would: the same matches, and counters (ghosts included)
// summed over queries and segments, at 1 and 4 threads. Its threads_used
// counts one worker per query, up to the pool width.
TEST_F(DynamicIndexEdge, BatchStatsSumPerQueryStats) {
  std::vector<SparseVectorView> queries;
  for (uint32_t qid = 0; qid < 12; ++qid) queries.push_back(corpus_.Row(qid));
  for (const uint32_t threads : {1u, 4u}) {
    DynamicIndexConfig dcfg;
    dcfg.num_threads = threads;
    DynamicIndex dyn(PersistentIndex::Build(base_bytes_, cfg_build()), dcfg);
    // Delta twins of the queried rows: every query matches in both
    // segments, so the removals below leave ghosts in each.
    for (const SparseVectorView& q : queries) dyn.Add(q);
    for (const uint32_t id : {1u, 4u, kBaseRows + 2, kBaseRows + 7}) {
      ASSERT_TRUE(dyn.Remove(id));
    }

    QueryStats sum;
    std::vector<std::vector<QueryMatch>> serial;
    for (const SparseVectorView& q : queries) {
      QueryStats one;
      serial.push_back(dyn.Query(q, &one));
      sum.MergeFrom(one);
    }
    QueryStats batch;
    EXPECT_EQ(dyn.QueryBatch(queries, &batch, 0), serial)
        << "threads=" << threads;
    EXPECT_GE(sum.ghost_candidates, 4u) << "threads=" << threads;
    EXPECT_EQ(batch.candidates, sum.candidates) << "threads=" << threads;
    EXPECT_EQ(batch.pruned, sum.pruned) << "threads=" << threads;
    EXPECT_EQ(batch.hashes_compared, sum.hashes_compared)
        << "threads=" << threads;
    EXPECT_EQ(batch.ghost_candidates, sum.ghost_candidates)
        << "threads=" << threads;
    EXPECT_EQ(batch.threads_used, threads);
    for (const size_t n : {size_t{1}, size_t{2}, size_t{3}}) {
      dyn.QueryBatch(std::span(queries).first(n), &batch, 0);
      EXPECT_EQ(batch.threads_used, std::min<size_t>(n, threads))
          << n << "-query batch, threads=" << threads;
    }
  }
}

// A batch truncates to top_k only after the segments are merged and the
// tombstoned rows dropped. Each probed row and its delta twin are
// removed, so a slot truncated per segment first would keep at most one
// live base match; merged first, it keeps the first top_k live matches,
// as Query's top_k does.
TEST_F(DynamicIndexEdge, BatchTopKTruncatesAfterDroppingTombstones) {
  // One row per planted cluster of four: its cluster mates are its live
  // base matches, and no other twin is near it.
  std::vector<SparseVectorView> queries;
  for (uint32_t row = 0; row < 40; row += 4) {
    queries.push_back(corpus_.Row(row));
    const uint32_t twin = dyn_->Add(corpus_.Row(row));
    ASSERT_TRUE(dyn_->Remove(row));
    ASSERT_TRUE(dyn_->Remove(twin));
  }
  const auto batch = dyn_->QueryBatch(queries, nullptr, /*top_k=*/2);
  ASSERT_EQ(batch.size(), queries.size());
  uint32_t full = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], dyn_->Query(queries[i], nullptr, 2))
        << "query " << i;
    for (const QueryMatch& m : batch[i]) {
      EXPECT_TRUE(dyn_->Contains(m.id)) << "query " << i << " id " << m.id;
    }
    if (batch[i].size() == 2) ++full;
  }
  EXPECT_GT(full, 0u) << "no query kept two live matches; vacuous";
}

TEST_F(DynamicIndexEdge, RemoveOfNonexistentIdIsRejected) {
  EXPECT_FALSE(dyn_->Remove(kBaseRows));      // Not yet assigned.
  EXPECT_FALSE(dyn_->Remove(UINT32_MAX));     // Never assignable here.
  EXPECT_TRUE(dyn_->Contains(0));
  EXPECT_FALSE(dyn_->Contains(kBaseRows));
  EXPECT_EQ(dyn_->num_live(), kBaseRows);
}

TEST_F(DynamicIndexEdge, AddThenRemoveSameIdNeverServed) {
  // Add a row identical to base row 0 — it must then match any query
  // that matches row 0 — and immediately tombstone it.
  const uint32_t id = dyn_->Add(corpus_.Row(0));
  EXPECT_TRUE(dyn_->Contains(id));
  auto with = dyn_->Query(corpus_.Row(0));
  const auto hit = [&](const std::vector<QueryMatch>& ms) {
    for (const QueryMatch& m : ms) {
      if (m.id == id) return true;
    }
    return false;
  };
  ASSERT_TRUE(hit(with)) << "duplicate row did not match its twin's query";
  EXPECT_TRUE(dyn_->Remove(id));
  EXPECT_FALSE(dyn_->Contains(id));
  EXPECT_FALSE(hit(dyn_->Query(corpus_.Row(0))));
  // And compaction physically drops it without resurrecting anything.
  dyn_->Compact();
  EXPECT_FALSE(hit(dyn_->Query(corpus_.Row(0))));
  EXPECT_FALSE(dyn_->Contains(id));
}

TEST_F(DynamicIndexEdge, AddValidatesDimensions) {
  const DimId dims[] = {corpus_.num_dims()};  // One past the last dim.
  const float vals[] = {1.0f};
  const SparseVectorView bad{{dims, 1}, {vals, 1}};
  EXPECT_THROW(dyn_->Add(bad), std::invalid_argument);
  // Failed adds change nothing.
  EXPECT_EQ(dyn_->num_delta_rows(), 0u);
  EXPECT_EQ(dyn_->num_live(), kBaseRows);
}

// A NaN or infinite weight has no projection: Add rejects it before the
// WAL append, so neither the log nor the index changes.
TEST_F(DynamicIndexEdge, AddRejectsNonFiniteWeights) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dyn_nonfinite_add";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string wal = (dir / "wal.log").string();
  dyn_->AttachWal(wal);
  dyn_->Add(corpus_.Row(kBaseRows));
  const uintmax_t wal_bytes = std::filesystem::file_size(wal);
  const uint32_t live = dyn_->num_live();
  for (const float bad : {std::nanf(""), INFINITY, -INFINITY}) {
    const DimId dims[] = {0, 1};
    const float vals[] = {1.0f, bad};
    EXPECT_THROW(dyn_->Add(SparseVectorView{{dims, 2}, {vals, 2}}),
                 std::invalid_argument)
        << bad;
    EXPECT_EQ(dyn_->num_live(), live);
    EXPECT_EQ(dyn_->num_delta_rows(), 1u);
    EXPECT_EQ(std::filesystem::file_size(wal), wal_bytes);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(DynamicIndexEdge, EmptyVectorIsAddableButNeverMatches) {
  const SparseVectorView empty{};
  const uint32_t id = dyn_->Add(empty);
  EXPECT_TRUE(dyn_->Contains(id));
  for (uint32_t qid = 0; qid < 10; ++qid) {
    for (const QueryMatch& m : dyn_->Query(corpus_.Row(qid))) {
      EXPECT_NE(m.id, id);
    }
  }
  dyn_->Compact();  // Must survive compaction (empty rows are legal).
  EXPECT_TRUE(dyn_->Contains(id));
}

// Growing a warm-started or frozen searcher is a caller error, reported
// loudly instead of corrupting the borrowed banding table.
TEST_F(DynamicIndexEdge, SyncAppendedRowsGuards) {
  const auto base = PersistentIndex::Build(base_bytes_, cfg_build());
  QuerySearchConfig qcfg;
  qcfg.measure = Measure::kCosine;
  qcfg.threshold = 0.6;
  qcfg.seed = 42;
  QuerySearcher warm(base.get(), qcfg);
  EXPECT_THROW(warm.SyncAppendedRows(), std::logic_error);

  Dataset own = SliceRows(corpus_, 0, 50);
  QuerySearcher fresh(&own, qcfg);
  fresh.Freeze();
  EXPECT_THROW(fresh.SyncAppendedRows(), std::logic_error);
}

// --- manifest corruption matrix ---

class ManifestCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset corpus = GraphBinary(55, 150);
    IndexBuildConfig icfg;
    icfg.measure = Measure::kJaccard;
    icfg.threshold = 0.4;
    icfg.seed = 42;
    DynamicIndex dyn(PersistentIndex::Build(SliceRows(corpus, 0, 120), icfg),
                     DynamicIndexConfig{});
    for (uint32_t r = 120; r < 150; ++r) dyn.Add(corpus.Row(r));
    ASSERT_TRUE(dyn.Remove(5));
    ASSERT_TRUE(dyn.Remove(125));
    std::stringstream ss;
    dyn.Save(ss);
    bytes_ = ss.str();
  }

  static void ExpectRejected(std::string bytes) {
    std::stringstream ss(std::move(bytes));
    EXPECT_THROW(DynamicIndex::Load(ss, DynamicIndexConfig{}), IndexError);
  }

  std::string bytes_;
};

TEST_F(ManifestCorruption, IntactManifestLoads) {
  std::stringstream ss(bytes_);
  EXPECT_NE(DynamicIndex::Load(ss, DynamicIndexConfig{}), nullptr);
}

TEST_F(ManifestCorruption, WrongMagicRejected) {
  std::string bad = bytes_;
  bad[4] = 'Q';
  ExpectRejected(bad);
  ExpectRejected("not a manifest");
  ExpectRejected("");
}

TEST_F(ManifestCorruption, VersionBumpRejected) {
  std::string bad = bytes_;
  bad[8] = static_cast<char>(kManifestFormatVersion + 1);  // u32 LSB.
  ExpectRejected(bad);
}

TEST_F(ManifestCorruption, NonzeroReservedRejected) {
  std::string bad = bytes_;
  bad[12] = 1;  // Reserved u32 follows the version.
  ExpectRejected(bad);
}

TEST_F(ManifestCorruption, TruncationsRejectedEverywhere) {
  for (size_t len : {size_t{3}, size_t{12}, size_t{40}, bytes_.size() / 4,
                     bytes_.size() / 2, bytes_.size() - 9,
                     bytes_.size() - 1}) {
    ExpectRejected(bytes_.substr(0, len));
  }
}

TEST_F(ManifestCorruption, TrailingGarbageRejected) {
  ExpectRejected(bytes_ + "x");
}

TEST_F(ManifestCorruption, IdMapCorruptionCaughtByEndMarker) {
  // Flip a bit in the base id map (right after the 48-byte header): the
  // strict-ascent check or the fingerprint end marker must catch it.
  std::string bad = bytes_;
  bad[48] ^= 0x02;
  ExpectRejected(bad);
}

TEST_F(ManifestCorruption, DeltaValueCorruptionCaughtByEndMarker) {
  // The delta dataset's values array ends right before the tombstone
  // list (2 × u32) and the end marker (u64): flip a byte inside the last
  // value. The CSR structure checks cannot see it — only the content
  // fold in the fingerprint can.
  std::string bad = bytes_;
  bad[bad.size() - 17] ^= 0x01;
  ExpectRejected(bad);
}

TEST_F(ManifestCorruption, HeaderCountCorruptionRejected) {
  // Flip the tombstone-count LSB (offset 40): either the count checks or
  // the fingerprint end marker must catch the disagreement.
  std::string bad = bytes_;
  bad[40] ^= 0x02;
  ExpectRejected(bad);
}

// --- concurrent serving (runs under TSan in CI) ---

TEST(DynamicIndexConcurrent, ParallelQueriesMatchSerial) {
  const Dataset corpus = TextWeighted(66, kBaseRows + 20);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kCosine;
  icfg.threshold = 0.6;
  icfg.seed = 42;
  DynamicIndexConfig dcfg;
  dcfg.num_threads = 2;  // Worker pool in play while clients hammer it.
  DynamicIndex dyn(PersistentIndex::Build(SliceRows(corpus, 0, kBaseRows),
                                          icfg), dcfg);
  for (uint32_t r = kBaseRows; r < kBaseRows + 20; ++r) {
    dyn.Add(corpus.Row(r));
  }
  ASSERT_TRUE(dyn.Remove(9));

  constexpr uint32_t kClients = 8;
  constexpr uint32_t kQueriesPerClient = 12;
  std::vector<std::vector<QueryMatch>> expect(kQueriesPerClient);
  for (uint32_t qid = 0; qid < kQueriesPerClient; ++qid) {
    expect[qid] = dyn.Query(corpus.Row(qid));
  }
  std::vector<uint32_t> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (uint32_t qid = 0; qid < kQueriesPerClient; ++qid) {
        if (dyn.Query(corpus.Row(qid)) != expect[qid]) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : clients) th.join();
  for (uint32_t t = 0; t < kClients; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "client " << t;
  }
}

// Mutations and queries from different threads must serialize cleanly
// (exclusive vs shared lock) and land in a state identical to applying
// the same mutations serially.
TEST(DynamicIndexConcurrent, MutationsDuringQueriesStayCoherent) {
  const Dataset corpus = TextWeighted(67, kBaseRows + 30);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kCosine;
  icfg.threshold = 0.6;
  icfg.seed = 42;
  DynamicIndex dyn(PersistentIndex::Build(SliceRows(corpus, 0, kBaseRows),
                                          icfg), DynamicIndexConfig{});

  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (uint32_t qid = 0; qid < 20; ++qid) {
        // Any snapshot the query serves from is valid; the assertion is
        // on the final state below. This loop exists to race the
        // mutator under TSan.
        (void)dyn.Query(corpus.Row((t * 20 + qid) % kBaseRows));
      }
    });
  }
  for (uint32_t r = kBaseRows; r < kBaseRows + 30; ++r) {
    dyn.Add(corpus.Row(r));
    if (r % 7 == 0) dyn.Remove(r - kBaseRows);
    if (r == kBaseRows + 15) dyn.Compact();
  }
  for (std::thread& th : clients) th.join();

  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kBaseRows + 30; ++r) {
    const bool removed =
        r >= kBaseRows ? false
                       : (r + kBaseRows) % 7 == 0 && r + kBaseRows <
                             kBaseRows + 30;
    if (!removed) live.push_back(r);
  }
  const Dataset rebuilt = SelectRows(corpus, live);
  QuerySearchConfig qcfg;
  qcfg.measure = Measure::kCosine;
  qcfg.threshold = 0.6;
  qcfg.seed = 42;
  const QuerySearcher fresh(&rebuilt, qcfg);
  for (uint32_t qid = 0; qid < 15; ++qid) {
    const SparseVectorView q = corpus.Row(qid);
    EXPECT_EQ(dyn.Query(q), MapIds(fresh.Query(q), live)) << "qid=" << qid;
  }
}

}  // namespace
}  // namespace bayeslsh
