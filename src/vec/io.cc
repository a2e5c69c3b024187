#include "vec/io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "vec/binary_io.h"

namespace bayeslsh {

namespace {

constexpr char kMagic[] = "%BayesLSH sparse 1.0";

// 8 bytes: name + version + an 'E' that a byte-swapped reader would see in
// the wrong position (endianness canary).
constexpr char kBinaryMagic[8] = {'B', 'L', 'S', 'H', 'D', 'S', '1', 'E'};

template <typename T>
void WriteRaw(std::ostream& out, const std::vector<T>& v) {
  WritePodVec(out, v);
}

template <typename T>
void ReadRaw(std::istream& in, std::vector<T>* v, size_t count,
             const char* what) {
  ReadPodVec(in, v, count, (std::string("ReadDatasetBinary: ") + what).c_str());
}

}  // namespace

void RequireReadableDataFile(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  if (ec || st.type() == fs::file_type::not_found) {
    throw IoError("cannot open " + path + ": no such file");
  }
  if (st.type() == fs::file_type::directory) {
    throw IoError("cannot read " + path + ": is a directory, not a file");
  }
  // Only regular files have a meaningful size; pipes, FIFOs and devices
  // (/dev/stdin, process substitution) pass through so stream-based
  // workflows keep working.
  if (st.type() == fs::file_type::regular) {
    const std::uintmax_t size = fs::file_size(path, ec);
    if (!ec && size == 0) {
      throw IoError("cannot read " + path + ": file is empty");
    }
  }
  std::ifstream probe(path, std::ios::binary);
  if (!probe) {
    throw IoError("cannot open " + path + ": permission denied or "
                  "unreadable");
  }
}

void WriteDataset(const Dataset& d, std::ostream& out) {
  out << kMagic << "\n";
  out << d.num_vectors() << " " << d.num_dims() << "\n";
  char buf[64];
  for (uint32_t i = 0; i < d.num_vectors(); ++i) {
    const SparseVectorView v = d.Row(i);
    for (uint32_t k = 0; k < v.size(); ++k) {
      // %.9g round-trips any float exactly.
      const int len = std::snprintf(buf, sizeof(buf), "%s%u:%.9g",
                                    k == 0 ? "" : " ", v.indices[k],
                                    static_cast<double>(v.values[k]));
      out.write(buf, len);
    }
    out << "\n";
  }
  if (!out) throw IoError("WriteDataset: stream write failed");
}

void WriteDatasetFile(const Dataset& d, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw IoError("WriteDatasetFile: cannot open " + path);
  WriteDataset(d, f);
}

Dataset ReadDataset(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw IoError("ReadDataset: missing magic header");
  }
  if (!std::getline(in, line)) {
    throw IoError("ReadDataset: missing size line");
  }
  uint32_t num_vectors = 0, num_dims = 0;
  {
    std::istringstream ss(line);
    if (!(ss >> num_vectors >> num_dims)) {
      throw IoError("ReadDataset: malformed size line: " + line);
    }
  }
  DatasetBuilder builder(num_dims);
  std::vector<std::pair<DimId, float>> row;
  for (uint32_t i = 0; i < num_vectors; ++i) {
    if (!std::getline(in, line)) {
      throw IoError("ReadDataset: unexpected end of input at row " +
                    std::to_string(i));
    }
    row.clear();
    const char* p = line.data();
    const char* end = p + line.size();
    while (p < end) {
      while (p < end && *p == ' ') ++p;
      if (p >= end) break;
      DimId dim = 0;
      auto [p1, ec1] = std::from_chars(p, end, dim);
      if (ec1 != std::errc{} || p1 >= end || *p1 != ':') {
        throw IoError("ReadDataset: malformed entry in row " +
                      std::to_string(i));
      }
      float w = 0.0f;
      auto [p2, ec2] = std::from_chars(p1 + 1, end, w);
      if (ec2 != std::errc{}) {
        throw IoError("ReadDataset: malformed weight in row " +
                      std::to_string(i));
      }
      // from_chars accepts "nan" and "inf"; no hash family can project them.
      if (!std::isfinite(w)) {
        throw IoError("ReadDataset: non-finite weight in row " +
                      std::to_string(i));
      }
      if (dim >= num_dims) {
        throw IoError("ReadDataset: dim out of range in row " +
                      std::to_string(i));
      }
      row.emplace_back(dim, w);
      p = p2;
    }
    builder.AddRow(row);
  }
  return std::move(builder).Build();
}

Dataset ReadDatasetFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw IoError("ReadDatasetFile: cannot open " + path);
  return ReadDataset(f);
}

void WriteDatasetBinary(const Dataset& d, std::ostream& out) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const uint32_t num_dims = d.num_dims();
  const uint32_t num_vectors = d.num_vectors();
  const uint64_t nnz = d.nnz();
  out.write(reinterpret_cast<const char*>(&num_dims), sizeof(num_dims));
  out.write(reinterpret_cast<const char*>(&num_vectors),
            sizeof(num_vectors));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  WriteRaw(out, d.indptr());
  WriteRaw(out, d.indices());
  WriteRaw(out, d.values());
  if (!out) throw IoError("WriteDatasetBinary: stream write failed");
}

void WriteDatasetBinaryFile(const Dataset& d, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw IoError("WriteDatasetBinaryFile: cannot open " + path);
  WriteDatasetBinary(d, f);
}

Dataset ReadDatasetBinary(std::istream& in) {
  char magic[sizeof(kBinaryMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    throw IoError("ReadDatasetBinary: bad magic (not a binary dataset, or "
                  "written on an incompatible platform)");
  }
  uint32_t num_dims = 0, num_vectors = 0;
  uint64_t nnz = 0;
  in.read(reinterpret_cast<char*>(&num_dims), sizeof(num_dims));
  in.read(reinterpret_cast<char*>(&num_vectors), sizeof(num_vectors));
  in.read(reinterpret_cast<char*>(&nnz), sizeof(nnz));
  if (!in) throw IoError("ReadDatasetBinary: truncated header");

  std::vector<uint64_t> indptr;
  ReadRaw(in, &indptr, static_cast<size_t>(num_vectors) + 1, "indptr");
  std::vector<DimId> indices;
  ReadRaw(in, &indices, nnz, "indices");
  std::vector<float> values;
  ReadRaw(in, &values, nnz, "values");

  // Structural validation before handing the arrays to Dataset: monotone
  // indptr ending at nnz, in-range strictly-increasing indices per row.
  if (indptr.front() != 0 || indptr.back() != nnz) {
    throw IoError("ReadDatasetBinary: corrupt indptr bounds");
  }
  for (uint32_t r = 0; r < num_vectors; ++r) {
    if (indptr[r] > indptr[r + 1]) {
      throw IoError("ReadDatasetBinary: indptr not monotone at row " +
                    std::to_string(r));
    }
    for (uint64_t e = indptr[r]; e < indptr[r + 1]; ++e) {
      if (indices[e] >= num_dims ||
          (e > indptr[r] && indices[e] <= indices[e - 1])) {
        throw IoError("ReadDatasetBinary: corrupt indices in row " +
                      std::to_string(r));
      }
      if (!std::isfinite(values[e])) {
        throw IoError("ReadDatasetBinary: non-finite weight in row " +
                      std::to_string(r));
      }
    }
  }
  return Dataset(num_dims, std::move(indptr), std::move(indices),
                 std::move(values));
}

Dataset ReadDatasetBinaryFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw IoError("ReadDatasetBinaryFile: cannot open " + path);
  return ReadDatasetBinary(f);
}

Dataset ReadDatasetAutoFile(const std::string& path) {
  RequireReadableDataFile(path);
  std::ifstream f(path, std::ios::binary);
  if (!f) throw IoError("ReadDatasetAutoFile: cannot open " + path);
  char first = 0;
  f.get(first);
  f.seekg(0);
  if (first == kBinaryMagic[0]) return ReadDatasetBinary(f);
  return ReadDataset(f);
}

}  // namespace bayeslsh
