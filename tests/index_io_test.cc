// Tests for the persistent index subsystem (core/index_io.h and the
// Save/Load APIs it orchestrates): store/table round trips, loaded-vs-fresh
// query determinism for every hasher kind and thread count, pipeline and
// top-k warm starts, and rejection of corrupt, truncated, version-bumped
// and config-mismatched index files.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/banding_index.h"
#include "core/index_io.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "core/topk_search.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "lsh/bbit_minwise.h"
#include "lsh/gaussian_source.h"
#include "lsh/signature_store.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

Dataset TextWeighted(uint64_t seed, uint32_t docs = 400) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 50;
  cfg.num_clusters = docs / 10;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  return L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
}

Dataset GraphBinary(uint64_t seed, uint32_t nodes = 400) {
  GraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.avg_degree = 16;
  cfg.num_communities = nodes / 10;
  cfg.community_size = 4;
  cfg.seed = seed;
  return GenerateGraphAdjacency(cfg);
}

// --- store-level round trips ---

TEST(SignatureStoreSerialization, BitStoreRoundTrip) {
  const Dataset data = TextWeighted(11, 100);
  const ImplicitGaussianSource gauss(123);
  BitSignatureStore store(&data, SrpHasher(&gauss));
  for (uint32_t r = 0; r < 50; ++r) store.EnsureBits(r, 64 + (r % 3) * 64);

  std::stringstream ss;
  store.Save(ss);
  BitSignatureStore loaded(&data, SrpHasher(&gauss));
  loaded.Load(ss);

  EXPECT_EQ(loaded.bits_computed(), store.bits_computed());
  for (uint32_t r = 0; r < data.num_vectors(); ++r) {
    ASSERT_EQ(loaded.NumBits(r), store.NumBits(r));
    for (uint32_t w = 0; w < store.NumBits(r) / 64; ++w) {
      ASSERT_EQ(loaded.Signature(r)[w], store.Signature(r)[w]);
    }
  }
  // The loaded store keeps growing correctly past the loaded prefix.
  EXPECT_EQ(loaded.MatchCount(0, 1, 0, 512), store.MatchCount(0, 1, 0, 512));
}

TEST(SignatureStoreSerialization, IntStoreRoundTrip) {
  const Dataset data = GraphBinary(12, 100);
  IntSignatureStore store(&data, MinwiseHasher(77));
  for (uint32_t r = 0; r < 60; ++r) store.EnsureHashes(r, 16 + (r % 4) * 16);

  std::stringstream ss;
  store.Save(ss);
  IntSignatureStore loaded(&data, MinwiseHasher(77));
  loaded.Load(ss);

  EXPECT_EQ(loaded.hashes_computed(), store.hashes_computed());
  for (uint32_t r = 0; r < data.num_vectors(); ++r) {
    ASSERT_EQ(loaded.NumHashes(r), store.NumHashes(r));
    for (uint32_t i = 0; i < store.NumHashes(r); ++i) {
      ASSERT_EQ(loaded.Signature(r)[i], store.Signature(r)[i]);
    }
  }
  EXPECT_EQ(loaded.MatchCount(2, 3, 0, 128), store.MatchCount(2, 3, 0, 128));
}

TEST(SignatureStoreSerialization, BbitStoreRoundTrip) {
  const Dataset data = GraphBinary(13, 100);
  BbitSignatureStore store(&data, MinwiseHasher(88), 2);
  for (uint32_t r = 0; r < 60; ++r) store.EnsureHashes(r, 64);

  std::stringstream ss;
  store.Save(ss);
  BbitSignatureStore loaded(&data, MinwiseHasher(88), 2);
  loaded.Load(ss);

  EXPECT_EQ(loaded.hashes_computed(), store.hashes_computed());
  for (uint32_t r = 0; r < 60; ++r) {
    ASSERT_EQ(loaded.NumHashes(r), store.NumHashes(r));
    for (uint32_t j = 0; j < store.NumHashes(r); ++j) {
      ASSERT_EQ(loaded.HashValue(r, j), store.HashValue(r, j));
    }
  }
  EXPECT_EQ(loaded.MatchCount(0, 1, 0, 128), store.MatchCount(0, 1, 0, 128));
}

TEST(SignatureStoreSerialization, WrongKindRejected) {
  const Dataset data = GraphBinary(14, 20);
  IntSignatureStore ints(&data, MinwiseHasher(1));
  ints.EnsureAll(16);
  std::stringstream ss;
  ints.Save(ss);
  const ImplicitGaussianSource gauss(1);
  BitSignatureStore bits(&data, SrpHasher(&gauss));
  EXPECT_THROW(bits.Load(ss), IoError);
}

TEST(SignatureStoreSerialization, RowCountMismatchRejected) {
  const Dataset data = GraphBinary(15, 20);
  const Dataset other = GraphBinary(15, 30);
  IntSignatureStore store(&data, MinwiseHasher(1));
  store.EnsureAll(16);
  std::stringstream ss;
  store.Save(ss);
  IntSignatureStore target(&other, MinwiseHasher(1));
  EXPECT_THROW(target.Load(ss), IoError);
}

TEST(GaussianTableSerialization, SlabRoundTrip) {
  QuantizedGaussianStore store(99, 50, 256);
  double chunk[kSrpChunkBits];
  store.FillChunk(7, 1, chunk);  // Materializes slab 1.
  store.FillChunk(9, 3, chunk);  // Materializes slab 3.

  std::stringstream ss;
  store.SaveTables(ss);
  QuantizedGaussianStore loaded(99, 50, 256);
  loaded.LoadTables(ss);
  EXPECT_EQ(loaded.table_bytes(), store.table_bytes());
  double a[kSrpChunkBits], b[kSrpChunkBits];
  for (uint32_t dim = 0; dim < 50; ++dim) {
    for (uint32_t c : {1u, 3u}) {
      store.FillChunk(dim, c, a);
      loaded.FillChunk(dim, c, b);
      for (uint32_t j = 0; j < kSrpChunkBits; ++j) ASSERT_EQ(a[j], b[j]);
    }
  }
}

TEST(GaussianTableSerialization, ConfigMismatchRejected) {
  QuantizedGaussianStore store(99, 50, 256);
  double chunk[kSrpChunkBits];
  store.FillChunk(0, 0, chunk);
  std::stringstream ss;
  store.SaveTables(ss);
  QuantizedGaussianStore other_seed(100, 50, 256);
  EXPECT_THROW(other_seed.LoadTables(ss), IoError);
}

// --- loaded-vs-fresh query determinism, all hasher kinds x threads ---

struct IndexCase {
  const char* name;
  Measure measure;
  uint32_t bbit;
  double threshold;
};

class IndexRoundTrip
    : public ::testing::TestWithParam<std::tuple<IndexCase, uint32_t>> {};

TEST_P(IndexRoundTrip, LoadedIndexQueriesIdenticalToFresh) {
  const auto& [c, threads] = GetParam();
  const bool cosine = c.measure != Measure::kJaccard;
  const Dataset data = cosine ? TextWeighted(21) : GraphBinary(21);
  const Dataset queries = cosine ? TextWeighted(22, 40) : GraphBinary(22, 40);

  QuerySearchConfig qcfg;
  qcfg.measure = c.measure;
  qcfg.threshold = c.threshold;
  qcfg.bbit = c.bbit;
  qcfg.seed = 42;
  qcfg.num_threads = threads;

  IndexBuildConfig icfg;
  icfg.measure = c.measure;
  icfg.threshold = c.threshold;
  icfg.bbit = c.bbit;
  icfg.seed = 42;
  icfg.num_threads = threads;

  const QuerySearcher fresh(&data, qcfg);

  // Built in memory, and round-tripped through the binary format.
  const auto built = PersistentIndex::Build(data, icfg);
  std::stringstream file;
  built->Save(file);
  const auto loaded = PersistentIndex::Load(file);
  EXPECT_EQ(loaded->Fingerprint(), built->Fingerprint());

  const QuerySearcher warm(built.get(), qcfg);
  const QuerySearcher warm_loaded(loaded.get(), qcfg);

  EXPECT_EQ(warm_loaded.num_bands(), fresh.num_bands());
  EXPECT_EQ(warm_loaded.hashes_per_band(), fresh.hashes_per_band());

  // Out-of-collection queries...
  for (uint32_t qid = 0; qid < queries.num_vectors(); ++qid) {
    const SparseVectorView q = queries.Row(qid);
    const auto expect = fresh.Query(q);
    EXPECT_EQ(warm.Query(q), expect) << c.name << " qid=" << qid;
    EXPECT_EQ(warm_loaded.Query(q), expect) << c.name << " qid=" << qid;
  }
  // ...and collection rows, which match at least themselves — so the
  // equality checks are not vacuous.
  uint64_t total_matches = 0;
  for (uint32_t qid = 0; qid < 20; ++qid) {
    const SparseVectorView q = data.Row(qid);
    const auto expect = fresh.Query(q);
    EXPECT_EQ(warm.Query(q), expect) << c.name << " row qid=" << qid;
    EXPECT_EQ(warm_loaded.Query(q), expect) << c.name << " row qid=" << qid;
    total_matches += expect.size();
  }
  EXPECT_GT(total_matches, 0u);
}

// Serialization is deterministic: saving the same index twice (and saving
// a loaded copy) produces identical bytes.
TEST_P(IndexRoundTrip, SerializationIsByteStable) {
  const auto& [c, threads] = GetParam();
  const bool cosine = c.measure != Measure::kJaccard;
  const Dataset data = cosine ? TextWeighted(31, 120) : GraphBinary(31, 120);
  IndexBuildConfig icfg;
  icfg.measure = c.measure;
  icfg.threshold = c.threshold;
  icfg.bbit = c.bbit;
  icfg.seed = 7;
  icfg.num_threads = threads;
  const auto index = PersistentIndex::Build(data, icfg);
  std::stringstream a, b;
  index->Save(a);
  index->Save(b);
  EXPECT_EQ(a.str(), b.str());
  std::stringstream a2(a.str());
  const auto reloaded = PersistentIndex::Load(a2);
  std::stringstream c2;
  reloaded->Save(c2);
  EXPECT_EQ(c2.str(), a.str());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, IndexRoundTrip,
    ::testing::Combine(
        ::testing::Values(
            IndexCase{"srp_cosine", Measure::kCosine, 0, 0.6},
            IndexCase{"minwise_jaccard", Measure::kJaccard, 0, 0.4},
            IndexCase{"bbit_jaccard", Measure::kJaccard, 2, 0.4},
            IndexCase{"srp_binary_cosine", Measure::kBinaryCosine, 0, 0.6},
            // The format-v3 measures ride the same round-trip contract
            // (TextWeighted rows are L2-normalized, so the Euclidean
            // radius is in unit-sphere distance units).
            IndexCase{"icws_wjaccard", Measure::kWeightedJaccard, 0, 0.5},
            IndexCase{"klsh_kernel_cosine", Measure::kKernelCosine, 0, 0.6},
            IndexCase{"pstable_euclidean", Measure::kEuclidean, 0, 0.8}),
        ::testing::Values(1u, 8u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(IndexBuild, UnloadableBandingShapeRejected) {
  const Dataset data = TextWeighted(35, 50);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kCosine;
  icfg.threshold = 0.6;
  icfg.banding.hashes_per_band = 65;  // The load path caps k at 64.
  EXPECT_THROW(PersistentIndex::Build(data, icfg), std::invalid_argument);
}

// The shapes the index refuses, which the pipeline's LSH generator and a
// fresh searcher refuse alike for every measure: k above 64 (a bit band
// key is one 64-bit word, so a wider band would silently key only 64 of
// its bits) and no band at all.
std::vector<LshBandingParams> UnbandableShapes() {
  std::vector<LshBandingParams> shapes(3);
  shapes[0].hashes_per_band = 65;
  shapes[1].hashes_per_band = 80;
  shapes[2].max_bands = 0;  // Derives l = 0.
  return shapes;
}

constexpr Measure kEveryMeasure[] = {
    Measure::kCosine,         Measure::kJaccard,
    Measure::kBinaryCosine,   Measure::kWeightedJaccard,
    Measure::kKernelCosine,   Measure::kEuclidean};

TEST(PipelineBanding, UnbandableShapeRejected) {
  const Dataset data = TextWeighted(35, 50);
  for (const Measure m : kEveryMeasure) {
    for (const LshBandingParams& banding : UnbandableShapes()) {
      PipelineConfig cfg;
      cfg.measure = m;
      cfg.generator = GeneratorKind::kLsh;
      cfg.verifier = VerifierKind::kExact;
      cfg.threshold = 0.6;  // A radius for Euclidean.
      cfg.klsh.num_anchors = 8;
      cfg.banding = banding;
      EXPECT_THROW(RunPipeline(data, cfg), std::invalid_argument)
          << MeasureName(m) << " k=" << banding.hashes_per_band;
    }
  }
}

TEST(QuerySearcherBanding, UnbandableShapeRejected) {
  const Dataset data = TextWeighted(35, 50);
  for (const Measure m : kEveryMeasure) {
    for (const LshBandingParams& banding : UnbandableShapes()) {
      QuerySearchConfig cfg;
      cfg.measure = m;
      cfg.threshold = 0.6;  // A radius for Euclidean.
      cfg.klsh.num_anchors = 8;
      cfg.banding = banding;
      EXPECT_THROW(QuerySearcher(&data, cfg), std::invalid_argument)
          << MeasureName(m) << " k=" << banding.hashes_per_band;
    }
  }
}

// --- pipeline / top-k warm start ---

TEST(PipelineWarmStart, WarmRunsIdenticalAndHashLess) {
  const Dataset data = TextWeighted(41);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kCosine;
  icfg.threshold = 0.6;
  icfg.seed = 42;
  icfg.prefetch_hashes = 128;
  const auto index = PersistentIndex::Build(data, icfg);

  PipelineConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = VerifierKind::kBayesLsh;
  cfg.threshold = 0.6;
  cfg.seed = 42;
  const PipelineResult cold = RunPipeline(data, cfg);
  cfg.warm_index = index.get();
  const PipelineResult warm = RunPipeline(data, cfg);

  EXPECT_EQ(warm.pairs.size(), cold.pairs.size());
  for (size_t i = 0; i < cold.pairs.size(); ++i) {
    EXPECT_EQ(warm.pairs[i].a, cold.pairs[i].a);
    EXPECT_EQ(warm.pairs[i].b, cold.pairs[i].b);
    EXPECT_DOUBLE_EQ(warm.pairs[i].sim, cold.pairs[i].sim);
  }
  EXPECT_LT(warm.verify_hashes_computed, cold.verify_hashes_computed);
}

TEST(PipelineWarmStart, JaccardWarmRunsIdentical) {
  const Dataset data = GraphBinary(42);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kJaccard;
  icfg.threshold = 0.4;
  icfg.seed = 42;
  icfg.prefetch_hashes = 64;
  const auto index = PersistentIndex::Build(data, icfg);

  PipelineConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = VerifierKind::kBayesLshLite;
  cfg.threshold = 0.4;
  cfg.seed = 42;
  const PipelineResult cold = RunPipeline(data, cfg);
  cfg.warm_index = index.get();
  const PipelineResult warm = RunPipeline(data, cfg);
  ASSERT_EQ(warm.pairs.size(), cold.pairs.size());
  for (size_t i = 0; i < cold.pairs.size(); ++i) {
    EXPECT_EQ(warm.pairs[i].a, cold.pairs[i].a);
    EXPECT_EQ(warm.pairs[i].b, cold.pairs[i].b);
    EXPECT_DOUBLE_EQ(warm.pairs[i].sim, cold.pairs[i].sim);
  }
  EXPECT_LE(warm.verify_hashes_computed, cold.verify_hashes_computed);
}

// A run whose Gaussian cache supplies quantized tables hashes slightly
// different bits than the index's exact implicit source; adoption must
// cold-start there so warm == cold still holds.
TEST(PipelineWarmStart, QuantizedCacheRunsStayIdentical) {
  const Dataset data = TextWeighted(45, 200);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kCosine;
  icfg.threshold = 0.6;
  icfg.seed = 42;
  const auto index = PersistentIndex::Build(data, icfg);

  GaussianSourceCache quantized(data.num_dims(), 2048);
  PipelineConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kLsh;
  cfg.verifier = VerifierKind::kBayesLsh;
  cfg.threshold = 0.6;
  cfg.seed = 42;
  cfg.gaussian_cache = &quantized;
  const PipelineResult cold = RunPipeline(data, cfg);
  cfg.warm_index = index.get();
  const PipelineResult warm = RunPipeline(data, cfg);
  ASSERT_EQ(warm.pairs.size(), cold.pairs.size());
  for (size_t i = 0; i < cold.pairs.size(); ++i) {
    EXPECT_EQ(warm.pairs[i].a, cold.pairs[i].a);
    EXPECT_EQ(warm.pairs[i].b, cold.pairs[i].b);
    EXPECT_DOUBLE_EQ(warm.pairs[i].sim, cold.pairs[i].sim);
  }
}

TEST(PipelineWarmStart, MismatchedIndexRejected) {
  const Dataset data = TextWeighted(43, 120);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kCosine;
  icfg.threshold = 0.6;
  icfg.seed = 1;
  const auto index = PersistentIndex::Build(data, icfg);

  PipelineConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kLsh;
  cfg.threshold = 0.6;
  cfg.seed = 2;  // Different master seed: adopted signatures would lie.
  cfg.warm_index = index.get();
  EXPECT_THROW(RunPipeline(data, cfg), std::invalid_argument);

  cfg.seed = 1;
  cfg.measure = Measure::kJaccard;
  EXPECT_THROW(RunPipeline(GraphBinary(43, 120), cfg),
               std::invalid_argument);
}

TEST(TopKWarmStart, WarmTopKIdenticalToCold) {
  const Dataset data = TextWeighted(44);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kCosine;
  icfg.threshold = 0.5;
  icfg.seed = 42;
  icfg.prefetch_hashes = 128;
  const auto index = PersistentIndex::Build(data, icfg);

  TopKConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kLsh;
  cfg.k = 25;
  cfg.seed = 42;
  const auto cold = TopKAllPairs(data, cfg);
  const auto warm = TopKAllPairs(*index, cfg);
  ASSERT_EQ(warm.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].a, cold[i].a);
    EXPECT_EQ(warm[i].b, cold[i].b);
    EXPECT_DOUBLE_EQ(warm[i].sim, cold[i].sim);
  }
}

// --- corrupt / mismatched index files ---

class IndexCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset data = GraphBinary(51, 120);
    IndexBuildConfig icfg;
    icfg.measure = Measure::kJaccard;
    icfg.threshold = 0.4;
    icfg.seed = 42;
    index_ = PersistentIndex::Build(data, icfg);
    std::stringstream ss;
    index_->Save(ss);
    bytes_ = ss.str();
  }

  static void ExpectRejected(std::string bytes) {
    std::stringstream ss(std::move(bytes));
    EXPECT_THROW(PersistentIndex::Load(ss), IndexError);
  }

  std::unique_ptr<PersistentIndex> index_;
  std::string bytes_;
};

TEST_F(IndexCorruption, IntactFileLoads) {
  std::stringstream ss(bytes_);
  EXPECT_NE(PersistentIndex::Load(ss), nullptr);
}

TEST_F(IndexCorruption, WrongMagicRejected) {
  std::string bad = bytes_;
  bad[0] = 'X';
  ExpectRejected(bad);
  ExpectRejected("not an index at all");
  ExpectRejected("");
}

TEST_F(IndexCorruption, VersionBumpRejected) {
  std::string bad = bytes_;
  bad[8] = static_cast<char>(kIndexFormatVersion + 1);  // u32 version LSB.
  ExpectRejected(bad);
}

TEST_F(IndexCorruption, TruncationsRejectedEverywhere) {
  // Cutting the file anywhere — header, dataset, banding, signatures or
  // the end marker — must throw, never crash or return a partial index.
  for (size_t len : {size_t{4}, size_t{11}, size_t{40}, bytes_.size() / 4,
                     bytes_.size() / 2, bytes_.size() - 9,
                     bytes_.size() - 1}) {
    ExpectRejected(bytes_.substr(0, len));
  }
}

TEST_F(IndexCorruption, TrailingGarbageRejected) {
  ExpectRejected(bytes_ + "extra");
}

TEST_F(IndexCorruption, HeaderCorruptionCaughtByFingerprint) {
  std::string bad = bytes_;
  bad[16] ^= 0x01;  // Flip a bit in the seed field.
  ExpectRejected(bad);
}

// The v1 policy for the reserved header byte (offset 15) is "must be
// zero": it sits outside the fingerprint chain, so without an explicit
// check a flipped reserved byte would load silently — and a future format
// that assigns it meaning could not trust old writers to have zeroed it.
TEST_F(IndexCorruption, NonzeroReservedByteRejected) {
  ASSERT_EQ(bytes_[15], 0);  // The writer must emit a zeroed byte.
  for (const uint8_t value : {uint8_t{1}, uint8_t{0x80}, uint8_t{0xff}}) {
    std::string bad = bytes_;
    bad[15] = static_cast<char>(value);
    ExpectRejected(bad);
  }
}

// --- v2 page-aligned layout, v1 compatibility, zero-copy (mmap) loads ---

// A temporary path private to the running test. ctest runs every case as
// its own process, concurrently under -j, so a name shared between cases
// would let one case's SetUp truncate a file another case has mapped
// (SIGBUS).
std::string TempPath(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "." +
         info->name() + "." + name;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

// Fixed part of a signature section header before the pad field:
// kind u8 + bits u8 + reserved u16 + num_rows u32 + computed u64 +
// lengths u32[rows] + total u64 (docs/FORMATS.md).
constexpr size_t SectionHeaderBytes(uint32_t rows) {
  return 1 + 1 + 2 + 4 + 8 + 4 * static_cast<size_t>(rows) + 8;
}

TEST(ZeroCopySignatureSection, AlignedSaveViewLoadMatchesCopyLoad) {
  const Dataset data = GraphBinary(61, 20);
  IntSignatureStore store(&data, MinwiseHasher(5));
  store.EnsureAll(32);
  std::stringstream ss;
  store.Save(ss, /*align_blob=*/true);
  const std::string bytes = ss.str();
  // Blob lands exactly on the first page boundary: 20 rows x 32 u32.
  ASSERT_EQ(bytes.size(), 4096u + 20u * 32u * 4u);

  IntSignatureStore copied(&data, MinwiseHasher(5));
  std::stringstream cin_(bytes);
  copied.Load(cin_, /*padded=*/true);

  IntSignatureStore viewed(&data, MinwiseHasher(5));
  std::stringstream vin(bytes);
  viewed.LoadViews(vin, bytes.data(), bytes.size());
  EXPECT_EQ(vin.peek(), EOF);  // Positioned just past the blob.

  EXPECT_EQ(viewed.hashes_computed(), copied.hashes_computed());
  for (uint32_t r = 0; r < data.num_vectors(); ++r) {
    ASSERT_EQ(viewed.NumHashes(r), copied.NumHashes(r));
    for (uint32_t i = 0; i < copied.NumHashes(r); ++i) {
      ASSERT_EQ(viewed.Signature(r)[i], copied.Signature(r)[i]);
    }
  }
  // Views keep working as a live store: growth past the mapped prefix
  // materializes a private copy first.
  EXPECT_EQ(viewed.MatchCount(0, 1, 0, 128), copied.MatchCount(0, 1, 0, 128));
}

TEST(ZeroCopySignatureSection, PadCorruptionFailsClosed) {
  const Dataset data = GraphBinary(62, 20);
  IntSignatureStore store(&data, MinwiseHasher(5));
  store.EnsureAll(32);
  std::stringstream ss;
  store.Save(ss, /*align_blob=*/true);
  const std::string bytes = ss.str();
  const size_t hdr = SectionHeaderBytes(20);
  uint32_t pad = 0;
  std::memcpy(&pad, bytes.data() + hdr, sizeof(pad));
  ASSERT_EQ(pad, 4096u - hdr - 4u);  // Fresh stream: blob at page one.

  const auto copy_load = [&](std::string b) {
    std::stringstream in(std::move(b));
    IntSignatureStore t(&data, MinwiseHasher(5));
    t.Load(in, /*padded=*/true);
  };
  const auto view_load = [&](const std::string& b) {
    std::stringstream in(b);
    IntSignatureStore t(&data, MinwiseHasher(5));
    t.LoadViews(in, b.data(), b.size());
  };
  EXPECT_NO_THROW(copy_load(bytes));
  EXPECT_NO_THROW(view_load(bytes));

  // Nonzero pad byte: corruption, not slack — both loaders refuse.
  {
    std::string bad = bytes;
    bad[hdr + 4 + pad / 2] = 1;
    EXPECT_THROW(copy_load(bad), IoError);
    EXPECT_THROW(view_load(bad), IoError);
  }
  // Pad length >= the alignment can never be produced by the writer.
  {
    std::string bad = bytes;
    const uint32_t huge = 4096;
    std::memcpy(bad.data() + hdr, &huge, sizeof(huge));
    EXPECT_THROW(copy_load(bad), IoError);
    EXPECT_THROW(view_load(bad), IoError);
  }
  // Truncation inside the pad run.
  EXPECT_THROW(copy_load(bytes.substr(0, hdr + 4 + pad / 2)), IoError);
  // Misaligned blob: shrink the pad by 8 zeros (patching the length so the
  // pad itself still validates) — the zero-copy loader must refuse, since
  // its row views would not be page- (or even u32-) aligned.
  {
    std::string bad = bytes;
    const uint32_t short_pad = pad - 8;
    std::memcpy(bad.data() + hdr, &short_pad, sizeof(short_pad));
    bad.erase(hdr + 4, 8);
    EXPECT_THROW(view_load(bad), IoError);
  }
  // Garbage in the length table: the stored total no longer matches.
  {
    std::string bad = bytes;
    bad[16 + 3] ^= 0x40;  // High byte of lengths[0].
    EXPECT_THROW(copy_load(bad), IoError);
    EXPECT_THROW(view_load(bad), IoError);
  }
}

TEST(IndexFormatV2, V1SaveLoadsAndQueriesIdentically) {
  const Dataset data = GraphBinary(63, 150);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kJaccard;
  icfg.threshold = 0.4;
  icfg.seed = 42;
  const auto built = PersistentIndex::Build(data, icfg);

  std::stringstream v1s, v2s;
  built->Save(v1s, /*format_version=*/1);
  built->Save(v2s);
  EXPECT_NE(v1s.str(), v2s.str());
  // A v1 and a v2 file of the same index carry different fingerprints, so
  // neither validates as the other.
  EXPECT_NE(built->Fingerprint(1), built->Fingerprint(2));

  const auto v1 = PersistentIndex::Load(v1s);
  const auto v2 = PersistentIndex::Load(v2s);
  QuerySearchConfig qcfg;
  qcfg.measure = Measure::kJaccard;
  qcfg.threshold = 0.4;
  qcfg.seed = 42;
  const QuerySearcher s1(v1.get(), qcfg);
  const QuerySearcher s2(v2.get(), qcfg);
  uint64_t matches = 0;
  for (uint32_t qid = 0; qid < 30; ++qid) {
    const auto expect = s1.Query(data.Row(qid));
    EXPECT_EQ(s2.Query(data.Row(qid)), expect);
    matches += expect.size();
  }
  EXPECT_GT(matches, 0u);

  // Unsupported version values are rejected in both directions.
  std::stringstream sink;
  EXPECT_THROW(built->Save(sink, 0), IndexError);
  EXPECT_THROW(built->Save(sink, kIndexFormatVersion + 1), IndexError);
}

// --- format v3: the serving-measure tags and the KLSH section ---

// Measure tags >= 3 (wjaccard, klsh, euclidean) did not exist before v3,
// so Save must refuse to emit them into a v1/v2 file — an old reader
// would otherwise see a tag it cannot interpret — and Load refuses a v2
// header that carries one before anything else in the file is trusted,
// naming the version the tag needs.
TEST(IndexFormatV3, NewMeasureTagsRequireV3) {
  const Dataset data = TextWeighted(61, 80);
  for (const Measure m : {Measure::kWeightedJaccard, Measure::kKernelCosine,
                          Measure::kEuclidean}) {
    IndexBuildConfig icfg;
    icfg.measure = m;
    icfg.threshold = m == Measure::kEuclidean ? 0.8 : 0.5;
    icfg.seed = 42;
    if (m == Measure::kKernelCosine) icfg.klsh.num_anchors = 16;
    const auto built = PersistentIndex::Build(data, icfg);
    std::stringstream sink;
    EXPECT_THROW(built->Save(sink, /*format_version=*/1), IndexError);
    EXPECT_THROW(built->Save(sink, /*format_version=*/2), IndexError);
    std::stringstream ok;
    built->Save(ok);  // Default (v3) round-trips.
    std::string bytes = ok.str();
    EXPECT_EQ(PersistentIndex::Load(ok)->measure(), m);

    const uint32_t v2 = 2;
    std::memcpy(bytes.data() + 8, &v2, sizeof(v2));  // Format version.
    std::stringstream as_v2(bytes);
    try {
      (void)PersistentIndex::Load(as_v2);
      ADD_FAILURE() << MeasureName(m) << ": a v2 header with its tag loaded";
    } catch (const IndexError& e) {
      EXPECT_NE(std::string(e.what()).find("format version 3"),
                std::string::npos)
          << MeasureName(m) << ": " << e.what();
    }
  }
}

// The wire values the measure table owns. Round trips cannot catch a
// consistent renumbering of tags or signature kinds (save and load would
// agree, and only old files would stop loading), so each is pinned here
// against docs/FORMATS.md: the header bytes at offsets 12 (measure tag)
// and 13 (signature kind), and the config fingerprint of a fixed
// collection at every format version the measure allows.
TEST(IndexWireValues, TagsKindsAndFingerprintsArePinned) {
  DatasetBuilder builder(8);
  builder.AddRow({{0, 1.0f}, {1, 0.5f}, {3, 2.0f}});
  builder.AddRow({{0, 1.0f}, {1, 0.5f}, {4, 1.0f}});
  builder.AddRow({{2, 3.0f}, {5, 1.0f}});
  builder.AddRow({{2, 2.5f}, {5, 1.0f}, {6, 0.25f}});
  builder.AddRow({{1, 1.0f}, {6, 2.0f}, {7, 1.0f}});
  builder.AddRow({{0, 0.5f}, {3, 1.5f}, {7, 4.0f}});
  const Dataset data = std::move(builder).Build();

  struct WireCase {
    Measure measure;
    uint32_t bbit;
    double threshold;
    uint8_t tag;   // FORMATS.md, "Index file": measure.
    uint8_t kind;  // FORMATS.md, "Index file": signature_kind.
    uint64_t fingerprint[3];  // Format versions 1..3; 0 = not allowed.
  };
  const WireCase cases[] = {
      {Measure::kCosine, 0, 0.7, 0, 0,
       {0x5e7057e366a494a7ull, 0x011f83735dc8aca5ull, 0xaddeb836718e75f9ull}},
      {Measure::kJaccard, 0, 0.5, 1, 1,
       {0x9fc1779afb864706ull, 0xbd0a943ea605999dull, 0x46524791f8e38690ull}},
      {Measure::kJaccard, 4, 0.5, 1, 2,
       {0xac5393b3058ae253ull, 0x19284b2da424d3edull, 0x40c056380ecf6832ull}},
      {Measure::kBinaryCosine, 0, 0.7, 2, 0,
       {0x43f867ac170e8fb2ull, 0x76c5bcb40dd139e4ull, 0xe22911212f0c136aull}},
      {Measure::kWeightedJaccard, 0, 0.5, 3, 3, {0, 0, 0xefdd9fd32666c3dfull}},
      {Measure::kKernelCosine, 0, 0.7, 4, 5, {0, 0, 0xb126c0867c433438ull}},
      {Measure::kEuclidean, 0, 2.0, 5, 4, {0, 0, 0xc057bce13873c65aull}},
  };
  for (const WireCase& c : cases) {
    IndexBuildConfig icfg;
    icfg.measure = c.measure;
    icfg.threshold = c.threshold;
    icfg.seed = 7;
    icfg.bbit = c.bbit;
    icfg.klsh.num_anchors = 4;
    const auto built = PersistentIndex::Build(data, icfg);
    const std::string what =
        MeasureName(c.measure) + (c.bbit != 0 ? " b-bit" : "");
    for (uint32_t v = 1; v <= 3; ++v) {
      std::stringstream out;
      if (c.fingerprint[v - 1] == 0) {
        EXPECT_THROW(built->Save(out, v), IndexError) << what << " v" << v;
        continue;
      }
      built->Save(out, v);
      const std::string bytes = out.str();
      EXPECT_EQ(static_cast<uint8_t>(bytes[12]), c.tag) << what;
      EXPECT_EQ(static_cast<uint8_t>(bytes[13]), c.kind) << what;
      EXPECT_EQ(built->Fingerprint(v), c.fingerprint[v - 1])
          << what << " v" << v << ": 0x" << std::hex << built->Fingerprint(v);
    }
  }
}

// The original measures keep their v2 compatibility story: a v2 save of a
// Jaccard index still loads and answers queries identically to the v3
// save of the same index.
TEST(IndexFormatV3, V2SaveOfOldMeasureLoadsIdentically) {
  const Dataset data = GraphBinary(62, 150);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kJaccard;
  icfg.threshold = 0.4;
  icfg.seed = 42;
  const auto built = PersistentIndex::Build(data, icfg);

  std::stringstream v2s, v3s;
  built->Save(v2s, /*format_version=*/2);
  built->Save(v3s);
  EXPECT_NE(v2s.str(), v3s.str());  // Fingerprints fold the version.

  const auto v2 = PersistentIndex::Load(v2s);
  const auto v3 = PersistentIndex::Load(v3s);
  QuerySearchConfig qcfg;
  qcfg.measure = Measure::kJaccard;
  qcfg.threshold = 0.4;
  qcfg.seed = 42;
  const QuerySearcher s2(v2.get(), qcfg);
  const QuerySearcher s3(v3.get(), qcfg);
  uint64_t matches = 0;
  for (uint32_t qid = 0; qid < 30; ++qid) {
    const auto expect = s2.Query(data.Row(qid));
    EXPECT_EQ(s3.Query(data.Row(qid)), expect);
    matches += expect.size();
  }
  EXPECT_GT(matches, 0u);
}

// A one-byte-flip sweep over a whole (small) KLSH v3 file: every flip
// must either fail closed with IndexError/IoError or load — never crash,
// leak a partial object, or tear down the process. This covers the KLSH
// measure-config section (kernel tag, gamma, family shape, anchor rows)
// alongside the structural sections the older corruption matrix already
// walks. Structural fields (magic, version, counts, lengths, the end
// marker) must actually reject — the test counts them.
TEST(IndexFormatV3, KlshByteFlipSweepFailsClosed) {
  TextCorpusConfig tcfg;
  tcfg.num_docs = 12;
  tcfg.vocab_size = 80;
  tcfg.avg_doc_len = 10;
  tcfg.num_clusters = 3;
  tcfg.cluster_size = 3;
  tcfg.seed = 65;
  const Dataset data =
      L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(tcfg)));

  IndexBuildConfig icfg;
  icfg.measure = Measure::kKernelCosine;
  icfg.threshold = 0.6;
  icfg.seed = 42;
  icfg.kernel.tag = KernelTag::kRbf;
  icfg.kernel.gamma = 0.1;
  icfg.klsh.num_anchors = 8;
  const auto built = PersistentIndex::Build(data, icfg);
  std::stringstream ss;
  built->Save(ss);
  const std::string bytes = ss.str();

  size_t rejected = 0;
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string bad = bytes;
    bad[off] = static_cast<char>(bad[off] ^ 0x2a);
    std::stringstream in(std::move(bad));
    try {
      (void)PersistentIndex::Load(in);
    } catch (const IoError&) {  // IndexError included.
      ++rejected;
    }
    // Any other exception type propagates and fails the test.
  }
  EXPECT_GT(rejected, bytes.size() / 4) << "corruption checks too lax";

  // Truncations and trailing bytes fail closed too, as for v1/v2 files.
  for (const size_t len :
       {size_t{4}, size_t{40}, bytes.size() / 3, bytes.size() - 1}) {
    std::stringstream in(bytes.substr(0, len));
    EXPECT_THROW(PersistentIndex::Load(in), IndexError);
  }
  std::stringstream trailing(bytes + "x");
  EXPECT_THROW(PersistentIndex::Load(trailing), IndexError);
}

// Build-time validation for the v3 measures: a Euclidean radius must be
// positive (but is not capped at 1), and b-bit packing stays a plain
// Jaccard feature.
TEST(IndexFormatV3, BuildValidation) {
  const Dataset data = TextWeighted(66, 60);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kEuclidean;
  icfg.threshold = 0.0;
  EXPECT_THROW(PersistentIndex::Build(data, icfg), std::invalid_argument);
  icfg.threshold = -1.0;
  EXPECT_THROW(PersistentIndex::Build(data, icfg), std::invalid_argument);
  icfg.threshold = 4.0;  // A radius above 1 is fine for a distance.
  EXPECT_NE(PersistentIndex::Build(data, icfg), nullptr);

  IndexBuildConfig wcfg;
  wcfg.measure = Measure::kWeightedJaccard;
  wcfg.threshold = 0.5;
  wcfg.bbit = 2;  // b-bit packing is Jaccard-only.
  EXPECT_THROW(PersistentIndex::Build(data, wcfg), std::invalid_argument);
}

// KLSH signatures are adopted only from an index that hashed with the
// same kernel, construction and anchor rows.
TEST(IndexFormatV3, KlshAdoptionRequiresTheSameFamily) {
  const Dataset data = TextWeighted(67, 60);
  IndexBuildConfig icfg;
  icfg.measure = Measure::kKernelCosine;
  icfg.threshold = 0.6;
  icfg.kernel = {.tag = KernelTag::kRbf, .gamma = 0.5};
  icfg.klsh.num_anchors = 16;
  const auto source = PersistentIndex::Build(data, icfg);
  SignatureAdoption adopt;
  adopt.source = source.get();
  for (uint32_t row = 0; row < data.num_vectors(); ++row) {
    adopt.source_rows.push_back(row);
  }

  icfg.klsh_anchors = source->spec().klsh_anchors;
  const auto adopted = PersistentIndex::Build(data, icfg, &adopt);
  EXPECT_EQ(adopted->store().computed(), 0u);

  IndexBuildConfig other_gamma = icfg;
  other_gamma.kernel.gamma = 0.25;
  EXPECT_THROW(PersistentIndex::Build(data, other_gamma, &adopt),
               std::invalid_argument);
  IndexBuildConfig other_construction = icfg;
  other_construction.klsh.direction = KlshDirection::kSubsetClt;
  EXPECT_THROW(PersistentIndex::Build(data, other_construction, &adopt),
               std::invalid_argument);
  IndexBuildConfig other_anchors = icfg;  // Same seed, 15 fresh anchors.
  other_anchors.klsh_anchors = nullptr;
  other_anchors.klsh.num_anchors = 15;
  EXPECT_THROW(PersistentIndex::Build(data, other_anchors, &adopt),
               std::invalid_argument);
}

class IndexMmap : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = GraphBinary(64, 150);
    IndexBuildConfig icfg;
    icfg.measure = Measure::kJaccard;
    icfg.threshold = 0.4;
    icfg.seed = 42;
    index_ = PersistentIndex::Build(data_, icfg);
    std::stringstream ss;
    index_->Save(ss);
    bytes_ = ss.str();
    path_ = TempPath("index_mmap_test.idx");
    WriteFileBytes(path_, bytes_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  Dataset data_;
  std::unique_ptr<PersistentIndex> index_;
  std::string bytes_;
  std::string path_;
};

TEST_F(IndexMmap, MmapLoadQueriesIdenticalToCopyLoad) {
  const auto copied = PersistentIndex::LoadFile(path_);
  const auto mapped = PersistentIndex::LoadFileMmap(path_);
  EXPECT_FALSE(copied->mmap_backed());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped->mmap_backed());
#endif
  EXPECT_EQ(mapped->Fingerprint(), copied->Fingerprint());

  QuerySearchConfig qcfg;
  qcfg.measure = Measure::kJaccard;
  qcfg.threshold = 0.4;
  qcfg.seed = 42;
  const QuerySearcher warm(copied.get(), qcfg);
  const QuerySearcher zero_copy(mapped.get(), qcfg);
  uint64_t matches = 0;
  for (uint32_t qid = 0; qid < 40; ++qid) {
    const auto expect = warm.Query(data_.Row(qid));
    EXPECT_EQ(zero_copy.Query(data_.Row(qid)), expect) << "qid=" << qid;
    matches += expect.size();
  }
  EXPECT_GT(matches, 0u);

  // Freezing a searcher served from the mapping materializes + tops up
  // every row; results must not move.
  QuerySearcher frozen(mapped.get(), qcfg);
  frozen.Freeze();
  for (uint32_t qid = 0; qid < 20; ++qid) {
    EXPECT_EQ(frozen.Query(data_.Row(qid)), warm.Query(data_.Row(qid)));
  }
}

TEST_F(IndexMmap, MmapRoundTripIsByteStable) {
  const auto mapped = PersistentIndex::LoadFileMmap(path_);
  std::stringstream out;
  mapped->Save(out);
  EXPECT_EQ(out.str(), bytes_);
}

#if defined(__unix__) || defined(__APPLE__)
TEST_F(IndexMmap, MmapOfV1FileRejected) {
  // v1 has no page alignment, so the zero-copy loader must refuse it and
  // point at re-saving (the copying loader still accepts it).
  std::stringstream v1s;
  index_->Save(v1s, /*format_version=*/1);
  const std::string v1_path = TempPath("index_mmap_test_v1.idx");
  WriteFileBytes(v1_path, v1s.str());
  EXPECT_NE(PersistentIndex::LoadFile(v1_path), nullptr);
  EXPECT_THROW(PersistentIndex::LoadFileMmap(v1_path), IndexError);
  std::remove(v1_path.c_str());
}

TEST_F(IndexMmap, MmapCorruptionMatrixFailsClosed) {
  const std::string bad_path = TempPath("index_mmap_test_bad.idx");
  const auto expect_rejected = [&](std::string bytes) {
    WriteFileBytes(bad_path, bytes);
    EXPECT_THROW(PersistentIndex::LoadFileMmap(bad_path), IndexError);
  };
  // Truncations everywhere, including inside the page-alignment pad and
  // inside the signature blob.
  for (const size_t len :
       {size_t{4}, size_t{11}, size_t{40}, bytes_.size() / 4,
        bytes_.size() / 2, bytes_.size() - 9, bytes_.size() - 1}) {
    expect_rejected(bytes_.substr(0, len));
  }
  // Version bump, bad magic, trailing garbage, flipped header bits: the
  // same matrix the streaming loader rejects.
  {
    std::string bad = bytes_;
    bad[8] = static_cast<char>(kIndexFormatVersion + 1);
    expect_rejected(bad);
  }
  {
    std::string bad = bytes_;
    bad[0] = 'X';
    expect_rejected(bad);
  }
  expect_rejected(bytes_ + "extra");
  {
    std::string bad = bytes_;
    bad[16] ^= 0x01;  // Seed field: caught by the fingerprint.
    expect_rejected(bad);
  }
  std::remove(bad_path.c_str());
}
#endif  // defined(__unix__) || defined(__APPLE__)

TEST_F(IndexCorruption, SearcherConfigMismatchRejected) {
  QuerySearchConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.threshold = 0.4;
  cfg.seed = 43;  // Index was built with seed 42.
  EXPECT_THROW(QuerySearcher(index_.get(), cfg), IndexError);

  cfg.seed = 42;
  cfg.measure = Measure::kCosine;
  EXPECT_THROW(QuerySearcher(index_.get(), cfg), IndexError);

  cfg.measure = Measure::kJaccard;
  cfg.bbit = 2;  // Index stores full-width minwise signatures.
  EXPECT_THROW(QuerySearcher(index_.get(), cfg), IndexError);

  // So does a fresh build handed the index's family.
  const Dataset& data = index_->data();
  EXPECT_THROW(QuerySearcher(&data, cfg, index_->spec()),
               std::invalid_argument);
  cfg.bbit = 0;
  cfg.seed = 43;
  EXPECT_THROW(QuerySearcher(&data, cfg, index_->spec()),
               std::invalid_argument);
  cfg.seed = 42;

  cfg.banding.num_bands = index_->num_bands() + 1;
  EXPECT_THROW(QuerySearcher(index_.get(), cfg), IndexError);

  // A compatible config (different threshold is allowed) constructs fine.
  cfg.banding.num_bands = 0;
  cfg.threshold = 0.5;
  EXPECT_NO_THROW(QuerySearcher(index_.get(), cfg));
}

}  // namespace
}  // namespace bayeslsh
