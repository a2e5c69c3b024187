#include "lsh/bbit_minwise.h"

namespace bayeslsh {

static_assert(BbitLayout::chunk_hashes() % kMinhashChunkInts == 0,
              "b-bit growth quantum must be whole minwise chunks");

void PackBbitValues(const uint32_t* hashes, uint32_t from, uint32_t n,
                    uint32_t bits_per_hash, uint64_t* words) {
  assert(IsValidBbitWidth(bits_per_hash));
  assert(from % kMinhashChunkInts == 0);
  const uint32_t values_per_word = 64 / bits_per_hash;
  const uint64_t value_mask = (bits_per_hash == 32)
                                  ? 0xffffffffULL
                                  : (1ULL << bits_per_hash) - 1;
  for (uint32_t j = from; j < n; ++j) {
    const uint64_t value = hashes[j - from] & value_mask;
    words[j / values_per_word] |=
        value << ((j % values_per_word) * bits_per_hash);
  }
}

void BbitLayout::Fill(const SparseVectorView& v, uint32_t /*row*/,
                      uint32_t chunk, uint64_t* out) const {
  // The chunk's words start at hash 64 * chunk, so its groups pack at
  // chunk-relative positions; `out` arrives zeroed.
  constexpr uint32_t kMinwisePerChunk = chunk_hashes() / kMinhashChunkInts;
  uint32_t scratch[kMinhashChunkInts];
  for (uint32_t i = 0; i < kMinwisePerChunk; ++i) {
    minwise_.HashChunk(v, chunk * kMinwisePerChunk + i, scratch);
    PackBbitValues(scratch, i * kMinhashChunkInts,
                   (i + 1) * kMinhashChunkInts, bits_per_hash_, out);
  }
}

}  // namespace bayeslsh
