#include "candgen/banding_index.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bit_ops.h"
#include "common/prng.h"
#include "vec/binary_io.h"

namespace bayeslsh {

namespace {

// Seeds the per-band Mix64 key chain so identical hash runs in different
// bands do not alias to the same bucket key.
constexpr uint64_t kJaccardBandSalt = 0x5ba3d9be1e4fULL;

// Calls fn(key, row) for band `band` of every non-empty row of a grown
// store, in ascending row order. Empty rows have similarity 0 to
// everything and are never candidates.
template <typename Layout, typename Fn>
void ForEachBandKey(const SignatureStore<Layout>& store, uint32_t k,
                    uint32_t band, Fn&& fn) {
  const Dataset& data = *store.data();
  const uint32_t per_elem = store.layout().hashes_per_elem();
  for (uint32_t row = 0; row < store.num_rows(); ++row) {
    if (data.RowLength(row) == 0) continue;
    const std::span<const typename Layout::Elem> sig(
        store.Signature(row), store.HashesHeld(row) / per_elem);
    fn(BandingIndex::Key(sig, band, k), row);
  }
}

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

template <typename Layout>
BandingIndex BandingIndex::Build(SignatureStore<Layout>* store, uint32_t k,
                                 uint32_t l, ThreadPool* pool) {
  store->EnsureAll(l * k, pool);
  BandingIndex index(k, l);
  ParallelFor(pool, 0, l, [&](uint64_t b) {
    const auto band = static_cast<uint32_t>(b);
    ForEachBandKey(*store, k, band, [&](uint64_t key, uint32_t row) {
      index.bands_[band][key].push_back(row);
    });
  });
  return index;
}

template BandingIndex BandingIndex::Build(SignatureStore<BitLayout>*,
                                          uint32_t, uint32_t, ThreadPool*);
template BandingIndex BandingIndex::Build(SignatureStore<IntLayout>*,
                                          uint32_t, uint32_t, ThreadPool*);

BandingIndex BandingIndex::Build(const Dataset& data,
                                 std::shared_ptr<const WordChunkHasher> bits,
                                 std::shared_ptr<const IntChunkHasher> ints,
                                 uint32_t k, uint32_t l, ThreadPool* pool) {
  if (bits != nullptr) {
    BitSignatureStore store(&data, std::move(bits));
    return Build(&store, k, l, pool);
  }
  IntSignatureStore store(&data, std::move(ints));
  return Build(&store, k, l, pool);
}

template <typename Layout>
std::vector<uint64_t> BandingIndex::BucketPairs(
    SignatureStore<Layout>* store, uint32_t k, uint32_t l, ThreadPool* pool,
    std::span<const uint64_t> probe_masks) {
  store->EnsureAll(l * k, pool);
  using Entry = std::pair<uint64_t, uint32_t>;  // (key, row)
  std::vector<std::vector<uint64_t>> parts(
      pool != nullptr ? pool->num_threads() : 1);
  auto emit = [&](uint32_t shard, uint64_t begin, uint64_t end) {
    std::vector<uint64_t>& keys = parts[shard];
    std::vector<Entry> entries;
    entries.reserve(store->num_rows());
    for (auto band = static_cast<uint32_t>(begin); band < end; ++band) {
      // Sorted entries hold each bucket as a run of ascending rows.
      entries.clear();
      ForEachBandKey(*store, k, band, [&](uint64_t key, uint32_t row) {
        entries.emplace_back(key, row);
      });
      std::sort(entries.begin(), entries.end());
      for (auto run = entries.begin(); run != entries.end();) {
        const uint64_t key = run->first;
        const auto run_end = std::find_if(
            run, entries.end(), [&](const Entry& e) { return e.first != key; });
        for (auto a = run; a != run_end; ++a) {
          for (auto b = a + 1; b != run_end; ++b) {
            keys.push_back(PairKey(a->second, b->second));
          }
        }
        // Each cross-bucket pair is emitted once: the a < b filter drops
        // the mirrored probe from the other bucket.
        for (const uint64_t mask : probe_masks) {
          const uint64_t probe = key ^ mask;
          for (auto b = std::lower_bound(entries.begin(), entries.end(),
                                         Entry{probe, 0});
               b != entries.end() && b->first == probe; ++b) {
            for (auto a = run; a != run_end; ++a) {
              if (a->second < b->second) {
                keys.push_back(PairKey(a->second, b->second));
              }
            }
          }
        }
        run = run_end;
      }
    }
  };
  if (pool != nullptr) {
    pool->RunShards(l, emit);
  } else {
    emit(0, 0, l);
  }
  if (parts.size() == 1) return std::move(parts[0]);
  size_t total = 0;
  for (const auto& keys : parts) total += keys.size();
  std::vector<uint64_t> all;
  all.reserve(total);
  for (auto& keys : parts) {
    all.insert(all.end(), keys.begin(), keys.end());
    std::vector<uint64_t>().swap(keys);
  }
  return all;
}

template std::vector<uint64_t> BandingIndex::BucketPairs(
    SignatureStore<BitLayout>*, uint32_t, uint32_t, ThreadPool*,
    std::span<const uint64_t>);
template std::vector<uint64_t> BandingIndex::BucketPairs(
    SignatureStore<IntLayout>*, uint32_t, uint32_t, ThreadPool*,
    std::span<const uint64_t>);

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
