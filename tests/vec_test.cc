// Tests for the sparse-vector substrate: kernels, dataset building,
// transforms and text I/O.

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "vec/dataset.h"
#include "vec/io.h"
#include "vec/sparse_vector.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

SparseVectorView MakeView(const std::vector<DimId>& idx,
                          const std::vector<float>& val) {
  return SparseVectorView{{idx.data(), idx.size()}, {val.data(), val.size()}};
}

// ---------------------------------------------------------------------------
// Sparse kernels
// ---------------------------------------------------------------------------

TEST(SparseKernelsTest, DotDisjoint) {
  const std::vector<DimId> ia = {0, 2, 4};
  const std::vector<float> va = {1, 1, 1};
  const std::vector<DimId> ib = {1, 3, 5};
  const std::vector<float> vb = {1, 1, 1};
  EXPECT_DOUBLE_EQ(SparseDot(MakeView(ia, va), MakeView(ib, vb)), 0.0);
}

TEST(SparseKernelsTest, DotOverlapping) {
  const std::vector<DimId> ia = {0, 2, 5, 9};
  const std::vector<float> va = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<DimId> ib = {2, 5, 7};
  const std::vector<float> vb = {0.5f, -1.0f, 10.0f};
  // 2*0.5 + 3*(-1) = -2.
  EXPECT_DOUBLE_EQ(SparseDot(MakeView(ia, va), MakeView(ib, vb)), -2.0);
}

TEST(SparseKernelsTest, DotWithEmpty) {
  const std::vector<DimId> ia = {0, 1};
  const std::vector<float> va = {1, 1};
  EXPECT_DOUBLE_EQ(SparseDot(MakeView(ia, va), MakeView({}, {})), 0.0);
}

TEST(SparseKernelsTest, OverlapCountsSharedIds) {
  const std::vector<DimId> ia = {1, 3, 5, 7, 8};
  const std::vector<float> va(5, 1.0f);
  const std::vector<DimId> ib = {0, 3, 7, 9};
  const std::vector<float> vb(4, 1.0f);
  EXPECT_EQ(SparseOverlap(MakeView(ia, va), MakeView(ib, vb)), 2u);
}

TEST(SparseKernelsTest, Norms) {
  const std::vector<DimId> ia = {0, 1};
  const std::vector<float> va = {3.0f, -4.0f};
  EXPECT_DOUBLE_EQ(SparseNorm2(MakeView(ia, va)), 5.0);
  EXPECT_DOUBLE_EQ(SparseNorm1(MakeView(ia, va)), 7.0);
  EXPECT_FLOAT_EQ(SparseMaxWeight(MakeView(ia, va)), 4.0f);
  EXPECT_FLOAT_EQ(SparseMaxWeight(MakeView({}, {})), 0.0f);
}

// ---------------------------------------------------------------------------
// DatasetBuilder / Dataset
// ---------------------------------------------------------------------------

TEST(DatasetBuilderTest, SortsIndicesWithinRow) {
  DatasetBuilder b;
  b.AddRow({{5, 1.0f}, {2, 2.0f}, {9, 3.0f}});
  const Dataset d = std::move(b).Build();
  ASSERT_EQ(d.num_vectors(), 1u);
  const SparseVectorView v = d.Row(0);
  EXPECT_EQ(v.indices[0], 2u);
  EXPECT_EQ(v.indices[1], 5u);
  EXPECT_EQ(v.indices[2], 9u);
  EXPECT_FLOAT_EQ(v.values[0], 2.0f);
}

TEST(DatasetBuilderTest, MergesDuplicateDims) {
  DatasetBuilder b;
  b.AddRow({{3, 1.0f}, {3, 2.5f}, {1, 1.0f}});
  const Dataset d = std::move(b).Build();
  const SparseVectorView v = d.Row(0);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.indices[1], 3u);
  EXPECT_FLOAT_EQ(v.values[1], 3.5f);
}

TEST(DatasetBuilderTest, DropsZeroWeights) {
  DatasetBuilder b;
  b.AddRow({{3, 1.0f}, {4, 0.0f}, {5, -1.0f}, {5, 1.0f}});
  const Dataset d = std::move(b).Build();
  ASSERT_EQ(d.Row(0).size(), 1u);
  EXPECT_EQ(d.Row(0).indices[0], 3u);
}

TEST(DatasetBuilderTest, SetRowDedups) {
  DatasetBuilder b;
  b.AddSetRow({7, 3, 7, 1, 3});
  const Dataset d = std::move(b).Build();
  ASSERT_EQ(d.Row(0).size(), 3u);
  EXPECT_EQ(d.Row(0).indices[0], 1u);
  EXPECT_EQ(d.Row(0).indices[2], 7u);
}

TEST(DatasetBuilderTest, EmptyRowsAllowed) {
  DatasetBuilder b;
  b.AddRow({});
  b.AddRow({{0, 1.0f}});
  const Dataset d = std::move(b).Build();
  EXPECT_EQ(d.num_vectors(), 2u);
  EXPECT_EQ(d.RowLength(0), 0u);
  EXPECT_EQ(d.RowLength(1), 1u);
}

TEST(DatasetBuilderTest, GrowsDimsFromData) {
  DatasetBuilder b(10);
  b.AddRow({{25, 1.0f}});
  const Dataset d = std::move(b).Build();
  EXPECT_EQ(d.num_dims(), 26u);
}

TEST(DatasetStatsTest, MatchesHandComputation) {
  DatasetBuilder b;
  b.AddRow({{0, 1.0f}, {1, 1.0f}});
  b.AddRow({{1, 1.0f}, {2, 1.0f}, {3, 1.0f}, {4, 1.0f}});
  const Dataset d = std::move(b).Build();
  const DatasetStats s = d.Stats();
  EXPECT_EQ(s.num_vectors, 2u);
  EXPECT_EQ(s.total_nnz, 6u);
  EXPECT_DOUBLE_EQ(s.avg_length, 3.0);
  EXPECT_EQ(s.max_length, 4u);
  EXPECT_DOUBLE_EQ(s.length_stddev, 1.0);
}

TEST(DatasetTest, DimFrequenciesAndMaxWeights) {
  DatasetBuilder b;
  b.AddRow({{0, 2.0f}, {1, -5.0f}});
  b.AddRow({{1, 3.0f}});
  const Dataset d = std::move(b).Build();
  const auto freq = d.DimFrequencies();
  EXPECT_EQ(freq[0], 1u);
  EXPECT_EQ(freq[1], 2u);
  const auto mw = d.DimMaxWeights();
  EXPECT_FLOAT_EQ(mw[0], 2.0f);
  EXPECT_FLOAT_EQ(mw[1], 5.0f);  // Absolute value.
}

// ---------------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------------

TEST(TransformsTest, L2NormalizeMakesUnitRows) {
  DatasetBuilder b;
  b.AddRow({{0, 3.0f}, {1, 4.0f}});
  b.AddRow({{2, 7.0f}});
  const Dataset d = L2NormalizeRows(std::move(b).Build());
  for (uint32_t i = 0; i < d.num_vectors(); ++i) {
    EXPECT_NEAR(SparseNorm2(d.Row(i)), 1.0, 1e-6);
  }
  EXPECT_NEAR(d.Row(0).values[0], 0.6, 1e-6);
}

TEST(TransformsTest, L2NormalizeLeavesEmptyRows) {
  DatasetBuilder b;
  b.AddRow({});
  const Dataset d = L2NormalizeRows(std::move(b).Build());
  EXPECT_EQ(d.RowLength(0), 0u);
}

TEST(TransformsTest, TfIdfDropsUbiquitousDims) {
  DatasetBuilder b;
  // Dim 0 appears in every row -> idf 0 -> dropped.
  b.AddRow({{0, 1.0f}, {1, 1.0f}});
  b.AddRow({{0, 1.0f}, {2, 1.0f}});
  const Dataset d = TfIdfTransform(std::move(b).Build());
  for (uint32_t i = 0; i < d.num_vectors(); ++i) {
    for (DimId dim : d.Row(i).indices) EXPECT_NE(dim, 0u);
  }
}

TEST(TransformsTest, TfIdfWeightsByLogRatio) {
  DatasetBuilder b;
  b.AddRow({{1, 2.0f}});
  b.AddRow({{2, 1.0f}});
  b.AddRow({{2, 1.0f}});
  const Dataset d = TfIdfTransform(std::move(b).Build());
  // Dim 1: df = 1, idf = log(3); weight = 2 log 3.
  EXPECT_NEAR(d.Row(0).values[0], 2.0 * std::log(3.0), 1e-6);
  // Dim 2: df = 2, idf = log(1.5).
  EXPECT_NEAR(d.Row(1).values[0], std::log(1.5), 1e-6);
}

TEST(TransformsTest, BinarizeSetsOnes) {
  DatasetBuilder b;
  b.AddRow({{0, 3.5f}, {4, -2.0f}});
  const Dataset d = Binarize(std::move(b).Build());
  EXPECT_FLOAT_EQ(d.Row(0).values[0], 1.0f);
  EXPECT_FLOAT_EQ(d.Row(0).values[1], 1.0f);
}

TEST(TransformsTest, BinarizeNormalizedGivesInverseSqrtLen) {
  DatasetBuilder b;
  b.AddRow({{0, 3.5f}, {4, -2.0f}, {7, 9.0f}, {8, 1.0f}});
  const Dataset d = BinarizeNormalized(std::move(b).Build());
  for (float v : d.Row(0).values) EXPECT_NEAR(v, 0.5, 1e-6);
}

// ---------------------------------------------------------------------------
// IO
// ---------------------------------------------------------------------------

Dataset SampleDataset() {
  DatasetBuilder b(100);
  b.AddRow({{0, 1.25f}, {17, -3.5f}, {99, 0.333333f}});
  b.AddRow({});
  b.AddRow({{42, 1e-7f}, {43, 12345.678f}});
  return std::move(b).Build();
}

TEST(IoTest, RoundTripsExactly) {
  const Dataset d = SampleDataset();
  std::stringstream ss;
  WriteDataset(d, ss);
  const Dataset r = ReadDataset(ss);
  ASSERT_EQ(r.num_vectors(), d.num_vectors());
  EXPECT_EQ(r.num_dims(), d.num_dims());
  for (uint32_t i = 0; i < d.num_vectors(); ++i) {
    const auto a = d.Row(i), b = r.Row(i);
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (uint32_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a.indices[k], b.indices[k]);
      EXPECT_EQ(a.values[k], b.values[k]);  // Bit-exact floats.
    }
  }
}

TEST(IoTest, RejectsMissingMagic) {
  std::stringstream ss("not a dataset\n1 5\n0:1\n");
  EXPECT_THROW(ReadDataset(ss), IoError);
}

TEST(IoTest, BinaryRoundTripsExactly) {
  const Dataset d = SampleDataset();
  std::stringstream ss;
  WriteDatasetBinary(d, ss);
  const Dataset r = ReadDatasetBinary(ss);
  ASSERT_EQ(r.num_vectors(), d.num_vectors());
  EXPECT_EQ(r.num_dims(), d.num_dims());
  EXPECT_EQ(r.nnz(), d.nnz());
  EXPECT_EQ(r.indptr(), d.indptr());
  EXPECT_EQ(r.indices(), d.indices());
  EXPECT_EQ(r.values(), d.values());
}

TEST(IoTest, BinaryRejectsBadMagicAndTruncation) {
  std::stringstream bad("BLAHBLAH garbage");
  EXPECT_THROW(ReadDatasetBinary(bad), IoError);

  const Dataset d = SampleDataset();
  std::stringstream ss;
  WriteDatasetBinary(d, ss);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_THROW(ReadDatasetBinary(truncated), IoError);
}

TEST(IoTest, BinaryRejectsCorruptStructure) {
  const Dataset d = SampleDataset();
  std::stringstream ss;
  WriteDatasetBinary(d, ss);
  std::string bytes = ss.str();
  // Corrupt a byte inside the indices region (after the header + indptr):
  // an out-of-range or non-increasing index must be detected.
  const size_t header = 8 + 4 + 4 + 8;
  const size_t indptr_bytes = (d.num_vectors() + 1) * sizeof(uint64_t);
  bytes[header + indptr_bytes + 1] = '\xff';
  std::stringstream corrupt(bytes);
  EXPECT_THROW(ReadDatasetBinary(corrupt), IoError);
}

TEST(IoTest, AutoFileDispatchesOnMagic) {
  const Dataset d = SampleDataset();
  const std::string text_path = "/tmp/bayeslsh_io_auto_text.txt";
  const std::string bin_path = "/tmp/bayeslsh_io_auto_bin.dat";
  WriteDatasetFile(d, text_path);
  WriteDatasetBinaryFile(d, bin_path);
  const Dataset from_text = ReadDatasetAutoFile(text_path);
  const Dataset from_bin = ReadDatasetAutoFile(bin_path);
  EXPECT_EQ(from_text.nnz(), d.nnz());
  EXPECT_EQ(from_bin.nnz(), d.nnz());
  EXPECT_EQ(from_bin.indices(), d.indices());
}

TEST(IoTest, RejectsTruncatedInput) {
  const Dataset d = SampleDataset();
  std::stringstream ss;
  WriteDataset(d, ss);
  std::string text = ss.str();
  // Drop the last row entirely (truncate before the second-to-last
  // newline), so the declared row count cannot be satisfied.
  const size_t last_nl = text.find_last_of('\n', text.size() - 2);
  text.resize(last_nl + 1);
  std::stringstream truncated(text);
  EXPECT_THROW(ReadDataset(truncated), IoError);
}

TEST(IoTest, RejectsMalformedEntries) {
  std::stringstream ss("%BayesLSH sparse 1.0\n1 5\n0-1\n");
  EXPECT_THROW(ReadDataset(ss), IoError);
}

TEST(IoTest, RejectsOutOfRangeDims) {
  std::stringstream ss("%BayesLSH sparse 1.0\n1 5\n7:1.0\n");
  EXPECT_THROW(ReadDataset(ss), IoError);
}

TEST(IoTest, RejectsNonFiniteWeights) {
  for (const char* weight : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    std::stringstream ss(std::string("%BayesLSH sparse 1.0\n2 5\n0:1\n3:") +
                         weight + "\n");
    try {
      ReadDataset(ss);
      ADD_FAILURE() << "accepted weight " << weight;
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(IoTest, BinaryRejectsNonFiniteWeights) {
  const Dataset d = SampleDataset();
  std::stringstream ss;
  WriteDatasetBinary(d, ss);
  // The values array ends the stream; overwrite its last float.
  for (const float bad : {std::nanf(""), INFINITY, -INFINITY}) {
    std::string bytes = ss.str();
    std::memcpy(bytes.data() + bytes.size() - sizeof(float), &bad,
                sizeof(float));
    std::stringstream corrupt(bytes);
    EXPECT_THROW(ReadDatasetBinary(corrupt), IoError) << bad;
  }
}

TEST(IoTest, FileRoundTrip) {
  const Dataset d = SampleDataset();
  const std::string path = ::testing::TempDir() + "/bayeslsh_io_test.txt";
  WriteDatasetFile(d, path);
  const Dataset r = ReadDatasetFile(path);
  EXPECT_EQ(r.num_vectors(), d.num_vectors());
  EXPECT_EQ(r.nnz(), d.nnz());
}

TEST(IoTest, MissingFileThrows) {
  EXPECT_THROW(ReadDatasetFile("/nonexistent/path/nope.txt"), IoError);
}

}  // namespace
}  // namespace bayeslsh
