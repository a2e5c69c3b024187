// Tests for the one banding table (candgen/banding_index.h): the join's
// candidates are exactly the pairs that share a bucket of the persistent
// index's table for every hash family; a table grown by Insert equals the
// batch build; and the table, the join's candidates and its raw tally are
// independent of the thread count.

#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/banding_index.h"
#include "candgen/lsh_banding.h"
#include "common/thread_pool.h"
#include "core/index_io.h"
#include "core/measure_table.h"
#include "data/text_generator.h"
#include "lsh/signature_store.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

constexpr uint32_t kNoEmptyRow = 0xffffffffu;

// Rows [0, end) of `src`, with an empty row inserted before row
// `empty_at`.
Dataset CopyRows(const Dataset& src, uint32_t end, uint32_t empty_at) {
  DatasetBuilder b(src.num_dims());
  for (uint32_t r = 0; r < end; ++r) {
    if (r == empty_at) b.AddRow({});
    const SparseVectorView v = src.Row(r);
    std::vector<std::pair<DimId, float>> entries;
    for (uint32_t i = 0; i < v.size(); ++i) {
      entries.emplace_back(v.indices[i], v.values[i]);
    }
    b.AddRow(std::move(entries));
  }
  return std::move(b).Build();
}

// `docs` positive TF-IDF rows (ICWS needs non-negative weights),
// unnormalized so Euclidean near-duplicates sit within a small radius,
// plus an empty row at `empty_row`.
Dataset Corpus(uint64_t seed, uint32_t docs, uint32_t empty_row) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 2500;
  cfg.avg_doc_len = 45;
  cfg.num_clusters = docs / 10;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  const Dataset text = TfIdfTransform(GenerateTextCorpus(cfg));
  return CopyRows(text, text.num_vectors(), empty_row);
}

struct FamilyCase {
  const char* name;
  Measure measure;
  double threshold;  // Similarity threshold, or the Euclidean radius.
};

// SRP cosine, minwise Jaccard, ICWS, p-stable and KLSH.
constexpr FamilyCase kFamilies[] = {
    {"srp", Measure::kCosine, 0.6},
    {"minwise", Measure::kJaccard, 0.4},
    {"icws", Measure::kWeightedJaccard, 0.5},
    {"pstable", Measure::kEuclidean, 4.0},
    {"klsh", Measure::kKernelCosine, 0.7},
};

IndexBuildConfig BuildConfigFor(const FamilyCase& c) {
  IndexBuildConfig cfg;
  cfg.measure = c.measure;
  cfg.threshold = c.threshold;
  cfg.seed = 17;
  cfg.klsh.num_anchors = 48;  // kKernelCosine only.
  return cfg;
}

std::string Saved(const BandingIndex& table) {
  std::ostringstream out;
  table.Save(out);
  return out.str();
}

// The join generator over a generation store of `gen`.
CandidateList Join(const Dataset& data, const HashStream& gen,
                   BandingShape shape, ThreadPool* pool,
                   uint64_t* hashes = nullptr) {
  auto run = [&](auto& store) {
    CandidateList out = LshCandidates(&store, shape, pool);
    if (hashes != nullptr) *hashes = store.computed();
    return out;
  };
  if (gen.bits != nullptr) {
    BitSignatureStore store(&data, gen.bits);
    return run(store);
  }
  IntSignatureStore store(&data, gen.ints);
  return run(store);
}

TEST(BandingIndexTest, JoinCandidatesAreTheIndexBucketPairs) {
  constexpr uint32_t kEmpty = 100;
  const Dataset data = Corpus(3, 240, kEmpty);
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.name);
    const auto index =
        PersistentIndex::Build(Dataset(data), BuildConfigFor(c));
    const BandingIndex& table = index->banding();
    const BandingShape shape =
        ResolveBandingShape(c.measure, c.threshold, LshBandingParams{});
    ASSERT_EQ(table.hashes_per_band(), shape.hashes_per_band);
    ASSERT_EQ(table.num_bands(), shape.num_bands);

    // Pairs sharing a bucket, enumerated from the saved table's buckets,
    // with one emission per shared band.
    std::set<std::pair<uint32_t, uint32_t>> shared;
    uint64_t emissions = 0;
    for (uint32_t b = 0; b < table.num_bands(); ++b) {
      for (const auto& [key, rows] : table.band(b)) {
        for (size_t i = 0; i < rows.size(); ++i) {
          EXPECT_NE(rows[i], kEmpty) << "the empty row was bucketed";
          for (size_t j = i + 1; j < rows.size(); ++j) {
            ASSERT_LT(rows[i], rows[j]) << "bucket rows not ascending";
            shared.emplace(rows[i], rows[j]);
            ++emissions;
          }
        }
      }
    }
    ASSERT_GT(shared.size(), 0u) << "no bucket holds two rows";

    const MeasureFamily family(index->spec(), &data, "test");
    const CandidateList cands =
        Join(data, family.Generation(), shape, nullptr);
    const std::vector<std::pair<uint32_t, uint32_t>> expected(
        shared.begin(), shared.end());
    EXPECT_EQ(cands.pairs, expected);
    EXPECT_EQ(cands.raw_emitted, emissions);
  }
}

TEST(BandingIndexTest, InsertInRowOrderSavesLikeBatchBuild) {
  constexpr uint32_t kRows = 200, kEmpty = 150;
  const Dataset data = Corpus(5, kRows - 1, kEmpty);
  ASSERT_EQ(data.num_vectors(), kRows);
  const Dataset head = CopyRows(data, kRows / 2, kNoEmptyRow);

  // Build over rows [0, n/2), then Insert rows [n/2, n) in ascending
  // order, skipping the empty row as the delta segment does: the same
  // bytes as the batch build over all n rows. Bits (SRP), 16-value int
  // chunks (minwise) and 64-value int chunks (p-stable).
  for (const FamilyCase& c : {kFamilies[0], kFamilies[1], kFamilies[3]}) {
    SCOPED_TRACE(c.name);
    const MeasureFamily family(BuildConfigFor(c), &data, "test");
    const HashStream gen = family.Generation();
    const auto [k, l] =
        ResolveBandingShape(c.measure, c.threshold, LshBandingParams{});
    const BandingIndex batch =
        BandingIndex::Build(data, gen.bits, gen.ints, k, l);
    BandingIndex grown = BandingIndex::Build(head, gen.bits, gen.ints, k, l);
    ASSERT_NE(Saved(grown), Saved(batch));
    auto insert_tail = [&](auto& store) {
      const uint32_t per_elem = store.layout().hashes_per_elem();
      for (uint32_t row = kRows / 2; row < kRows; ++row) {
        if (data.Row(row).empty()) continue;
        store.EnsureRow(row, l * k);
        grown.Insert(std::span(store.Signature(row),
                               store.HashesHeld(row) / per_elem),
                     row);
      }
    };
    if (gen.bits != nullptr) {
      BitSignatureStore store(&data, gen.bits);
      insert_tail(store);
    } else {
      IntSignatureStore store(&data, gen.ints);
      insert_tail(store);
    }
    EXPECT_EQ(Saved(grown), Saved(batch));
  }
}

TEST(BandingIndexTest, IdenticalAtOneAndFourThreads) {
  const Dataset data = Corpus(7, 300, 40);
  ThreadPool pool(4);
  for (const FamilyCase& c : {kFamilies[0], kFamilies[1]}) {
    SCOPED_TRACE(c.name);
    const MeasureFamily family(BuildConfigFor(c), &data, "test");
    const HashStream gen = family.Generation();
    const BandingShape shape =
        ResolveBandingShape(c.measure, c.threshold, LshBandingParams{});
    const uint32_t k = shape.hashes_per_band, l = shape.num_bands;
    EXPECT_EQ(
        Saved(BandingIndex::Build(data, gen.bits, gen.ints, k, l, &pool)),
        Saved(BandingIndex::Build(data, gen.bits, gen.ints, k, l)));

    uint64_t serial_hashes = 0, pooled_hashes = 0;
    const CandidateList serial =
        Join(data, gen, shape, nullptr, &serial_hashes);
    const CandidateList pooled =
        Join(data, gen, shape, &pool, &pooled_hashes);
    ASSERT_GT(serial.size(), 0u);
    EXPECT_EQ(pooled.pairs, serial.pairs);
    EXPECT_EQ(pooled.raw_emitted, serial.raw_emitted);
    EXPECT_EQ(pooled_hashes, serial_hashes);
  }
}

}  // namespace
}  // namespace bayeslsh
