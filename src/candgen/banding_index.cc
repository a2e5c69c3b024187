#include "candgen/banding_index.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/bit_ops.h"
#include "common/prng.h"
#include "lsh/minwise_hasher.h"
#include "lsh/signature_store.h"
#include "lsh/srp_hasher.h"
#include "vec/binary_io.h"

namespace bayeslsh {

namespace {

// Seeds the per-band Mix64 key chain so identical hash runs in different
// bands do not alias to the same bucket key.
constexpr uint64_t kJaccardBandSalt = 0x5ba3d9be1e4fULL;

}  // namespace

uint64_t BandingIndex::CosineKey(const uint64_t* words, uint32_t num_words,
                                 uint32_t band, uint32_t k) {
  return ExtractBits(words, num_words, band * k, k);
}

uint64_t BandingIndex::JaccardKey(const uint32_t* ints, uint32_t band,
                                  uint32_t k) {
  uint64_t key = Mix64(kJaccardBandSalt, band);
  for (uint32_t i = 0; i < k; ++i) key = Mix64(key, ints[band * k + i]);
  return key;
}

BandingIndex BandingIndex::BuildBits(
    const Dataset& data, std::shared_ptr<const WordChunkHasher> hasher,
    uint32_t k, uint32_t l, ThreadPool* pool) {
  BandingIndex index;
  index.hashes_per_band_ = k;
  index.bands_.resize(l);
  const uint32_t n = data.num_vectors();
  // Throwaway generation-seed store: banding hashes are never reused for
  // verification (DESIGN.md §6).
  BitSignatureStore store(&data, std::move(hasher));
  if (pool != nullptr) {
    ParallelFor(pool, 0, n, [&](uint64_t row) {
      store.EnsureRowUncounted(static_cast<uint32_t>(row), l * k);
    });
  } else {
    store.EnsureAll(l * k);
  }
  ParallelFor(pool, 0, l, [&](uint64_t band) {
    for (uint32_t row = 0; row < n; ++row) {
      if (data.RowLength(row) == 0) continue;
      const uint64_t key =
          CosineKey(store.Signature(row), store.HashesHeld(row) / kBitsPerWord,
                    static_cast<uint32_t>(band), k);
      index.bands_[band][key].push_back(row);
    }
  });
  return index;
}

BandingIndex BandingIndex::BuildInts(
    const Dataset& data, std::shared_ptr<const IntChunkHasher> hasher,
    uint32_t k, uint32_t l, ThreadPool* pool) {
  BandingIndex index;
  index.hashes_per_band_ = k;
  index.bands_.resize(l);
  const uint32_t n = data.num_vectors();
  IntSignatureStore store(&data, std::move(hasher));
  if (pool != nullptr) {
    ParallelFor(pool, 0, n, [&](uint64_t row) {
      store.EnsureRowUncounted(static_cast<uint32_t>(row), l * k);
    });
  } else {
    store.EnsureAll(l * k);
  }
  ParallelFor(pool, 0, l, [&](uint64_t band) {
    for (uint32_t row = 0; row < n; ++row) {
      if (data.RowLength(row) == 0) continue;
      const uint64_t key =
          JaccardKey(store.Signature(row), static_cast<uint32_t>(band), k);
      index.bands_[band][key].push_back(row);
    }
  });
  return index;
}

BandingIndex BandingIndex::BuildCosine(const Dataset& data,
                                       const GaussianSource* gauss,
                                       uint32_t k, uint32_t l,
                                       ThreadPool* pool) {
  return BuildBits(data, std::make_shared<SrpChunkHasher>(SrpHasher(gauss)),
                   k, l, pool);
}

BandingIndex BandingIndex::BuildJaccard(const Dataset& data,
                                        uint64_t gen_seed, uint32_t k,
                                        uint32_t l, ThreadPool* pool) {
  return BuildInts(data,
                   std::make_shared<MinwiseChunkHasher>(
                       MinwiseHasher(gen_seed)),
                   k, l, pool);
}

void BandingIndex::InsertBits(const SparseVectorView& v, uint32_t row,
                              const WordChunkHasher& hasher) {
  assert(!bands_.empty() && hashes_per_band_ != 0);
  if (v.empty()) return;
  const uint32_t l = num_bands();
  const uint32_t k = hashes_per_band_;
  std::vector<uint64_t> words(WordsForBits(l * k));
  for (uint32_t c = 0; c < words.size(); ++c) {
    words[c] = hasher.HashChunk(v, row, c);
  }
  for (uint32_t band = 0; band < l; ++band) {
    bands_[band][CosineKey(words.data(), static_cast<uint32_t>(words.size()),
                           band, k)]
        .push_back(row);
  }
}

void BandingIndex::InsertInts(const SparseVectorView& v, uint32_t row,
                              const IntChunkHasher& hasher) {
  assert(!bands_.empty() && hashes_per_band_ != 0);
  if (v.empty()) return;
  const uint32_t l = num_bands();
  const uint32_t k = hashes_per_band_;
  const uint32_t chunk_ints = hasher.chunk_ints();
  const uint32_t chunks = (l * k + chunk_ints - 1) / chunk_ints;
  std::vector<uint32_t> ints(chunks * chunk_ints);
  for (uint32_t c = 0; c < chunks; ++c) {
    hasher.HashChunk(v, row, c, ints.data() + c * chunk_ints);
  }
  for (uint32_t band = 0; band < l; ++band) {
    bands_[band][JaccardKey(ints.data(), band, k)].push_back(row);
  }
}

void BandingIndex::InsertCosine(const SparseVectorView& v, uint32_t row,
                                const GaussianSource* gauss) {
  InsertBits(v, row, SrpChunkHasher(SrpHasher(gauss)));
}

void BandingIndex::InsertJaccard(const SparseVectorView& v, uint32_t row,
                                 uint64_t gen_seed) {
  InsertInts(v, row, MinwiseChunkHasher(MinwiseHasher(gen_seed)));
}

void BandingIndex::Save(std::ostream& out) const {
  WritePod(out, num_bands());
  WritePod(out, hashes_per_band_);
  std::vector<uint64_t> keys;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> rows;
  for (const Buckets& band : bands_) {
    keys.clear();
    keys.reserve(band.size());
    for (const auto& [key, bucket] : band) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    counts.clear();
    rows.clear();
    for (const uint64_t key : keys) {
      const std::vector<uint32_t>& bucket = band.at(key);
      counts.push_back(static_cast<uint32_t>(bucket.size()));
      rows.insert(rows.end(), bucket.begin(), bucket.end());
    }
    WritePod(out, static_cast<uint64_t>(keys.size()));
    WritePod(out, static_cast<uint64_t>(rows.size()));
    WritePodVec(out, keys);
    WritePodVec(out, counts);
    WritePodVec(out, rows);
  }
  if (!out) throw IoError("banding section: stream write failed");
}

BandingIndex BandingIndex::Load(std::istream& in, uint32_t num_rows) {
  BandingIndex index;
  const auto l = ReadPod<uint32_t>(in, "banding section: num_bands");
  index.hashes_per_band_ =
      ReadPod<uint32_t>(in, "banding section: hashes_per_band");
  if (l == 0 || index.hashes_per_band_ == 0 ||
      index.hashes_per_band_ > 64) {
    throw IoError("banding section: implausible shape");
  }
  // Every band carries at least its two u64 counts, so a corrupt band
  // count cannot exceed the bytes remaining — checked before the resize so
  // garbage can never trigger a huge allocation (cf. vec/binary_io.h).
  if (l > RemainingBytes(in) / (2 * sizeof(uint64_t))) {
    throw IoError("banding section: band count exceeds remaining bytes");
  }
  index.bands_.resize(l);
  std::vector<uint64_t> keys;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> rows;
  for (uint32_t b = 0; b < l; ++b) {
    const auto num_keys =
        ReadPod<uint64_t>(in, "banding section: bucket count");
    const auto num_entries =
        ReadPod<uint64_t>(in, "banding section: entry count");
    ReadPodVec(in, &keys, num_keys, "banding section: keys");
    ReadPodVec(in, &counts, num_keys, "banding section: counts");
    ReadPodVec(in, &rows, num_entries, "banding section: rows");
    uint64_t total = 0;
    for (const uint32_t c : counts) {
      if (c == 0) throw IoError("banding section: empty bucket");
      total += c;
    }
    if (total != num_entries) {
      throw IoError("banding section: bucket counts do not sum to the "
                    "entry count");
    }
    for (const uint32_t row : rows) {
      if (row >= num_rows) {
        throw IoError("banding section: row id " + std::to_string(row) +
                      " out of range");
      }
    }
    Buckets& band = index.bands_[b];
    band.reserve(num_keys);
    const uint32_t* next = rows.data();
    for (uint64_t i = 0; i < num_keys; ++i) {
      if (i > 0 && keys[i] <= keys[i - 1]) {
        throw IoError("banding section: keys not strictly ascending");
      }
      band.emplace(keys[i],
                   std::vector<uint32_t>(next, next + counts[i]));
      next += counts[i];
    }
  }
  return index;
}

}  // namespace bayeslsh
