#include "lsh/signature_store.h"

#include <cassert>

#include "common/simd_ops.h"
#include "lsh/signature_serialization.h"

namespace bayeslsh {

namespace {

// Names the store kind in serialization error messages.
const char* KindName(SignatureKind kind) {
  switch (kind) {
    case SignatureKind::kSrpBits:
      return "SRP bits";
    case SignatureKind::kMinwiseInts:
      return "minwise ints";
    case SignatureKind::kBbitPacked:
      return "b-bit packed";
    case SignatureKind::kIcwsInts:
      return "ICWS ints";
    case SignatureKind::kPstableInts:
      return "p-stable ints";
    case SignatureKind::kKlshBits:
      return "KLSH bits";
  }
  return "unknown";
}

}  // namespace

BitSignatureStore::BitSignatureStore(const Dataset* data, SrpHasher hasher)
    : BitSignatureStore(data, std::make_shared<SrpChunkHasher>(hasher)) {}

BitSignatureStore::BitSignatureStore(
    const Dataset* data, std::shared_ptr<const WordChunkHasher> hasher)
    : data_(data), hasher_(std::move(hasher)), words_(data->num_vectors()) {}

uint64_t BitSignatureStore::EnsureBitsUncounted(uint32_t row,
                                                uint32_t n_bits) {
  auto& w = words_[row];
  const uint32_t need = WordsForBits(n_bits);
  if (HeldWords(row) >= need) return 0;
  assert(!frozen());  // A frozen store must already cover every request.
  // Growing past an mmap view first materializes the mapped prefix into an
  // owned copy — uncounted, since the writer accounted those hashes.
  if (!views_.empty() && views_[row].second > w.size()) {
    w.assign(views_[row].first, views_[row].first + views_[row].second);
  }
  const uint32_t have = static_cast<uint32_t>(w.size());
  const SparseVectorView v = data_->Row(row);
  w.reserve(need);
  for (uint32_t c = have; c < need; ++c) {
    w.push_back(hasher_->HashChunk(v, row, c));
  }
  return static_cast<uint64_t>(need - have) * kBitsPerWord;
}

void BitSignatureStore::EnsureBits(uint32_t row, uint32_t n_bits) {
  AddBitsComputed(EnsureBitsUncounted(row, n_bits));
}

void BitSignatureStore::EnsureAllBits(uint32_t n_bits) {
  for (uint32_t i = 0; i < num_rows(); ++i) EnsureBits(i, n_bits);
}

uint32_t BitSignatureStore::MatchCount(uint32_t a, uint32_t b, uint32_t from,
                                       uint32_t to) {
  assert(from <= to);
  if (frozen()) return MatchCountReadOnly(a, b, from, to);
  EnsureBits(a, to);
  EnsureBits(b, to);
  return MatchingBits(Words(a), Words(b), from, to);
}

uint32_t BitSignatureStore::MatchAgainstQuery(uint32_t row,
                                              const uint64_t* query_words,
                                              uint32_t from, uint32_t to) {
  assert(from <= to);
  if (frozen()) {
    assert(NumBits(row) >= to);
    return MatchingBits(query_words, Words(row), from, to);
  }
  std::lock_guard<std::mutex> lock(growth_mu_);
  AddBitsComputed(EnsureBitsUncounted(row, to));
  return MatchingBits(query_words, Words(row), from, to);
}

uint32_t BitSignatureStore::MatchCountReadOnly(uint32_t a, uint32_t b,
                                               uint32_t from,
                                               uint32_t to) const {
  assert(from <= to);
  assert(NumBits(a) >= to && NumBits(b) >= to);
  return MatchingBits(Words(a), Words(b), from, to);
}

void BitSignatureStore::Save(std::ostream& out, bool align_blob) const {
  std::vector<internal::RowSpan<uint64_t>> rows;
  rows.reserve(num_rows());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    rows.emplace_back(Words(r), HeldWords(r));
  }
  internal::SaveSignatureRows(out, kind(), 0, rows, bits_computed(),
                              align_blob);
}

void BitSignatureStore::Load(std::istream& in, bool padded) {
  assert(!frozen());
  uint64_t computed = 0;
  internal::LoadSignatureRows(in, kind(), 0, num_rows(),
                              /*length_multiple=*/1, KindName(kind()),
                              &words_, &computed, padded);
  views_.clear();
  bits_computed_.store(computed, std::memory_order_relaxed);
}

void BitSignatureStore::LoadViews(std::istream& in, const char* mapped_base,
                                  size_t mapped_size) {
  assert(!frozen());
  uint64_t computed = 0;
  std::vector<internal::RowSpan<uint64_t>> views;
  internal::LoadSignatureRowViews(in, mapped_base, mapped_size, kind(), 0,
                                  num_rows(),
                                  /*length_multiple=*/1, KindName(kind()),
                                  &views, &computed);
  views_ = std::move(views);
  for (auto& w : words_) w.clear();
  bits_computed_.store(computed, std::memory_order_relaxed);
}

void BitSignatureStore::CopyRowsFrom(const BitSignatureStore& other) {
  assert(other.num_rows() == num_rows() && !frozen());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    const uint32_t other_len = other.HeldWords(r);
    if (other_len <= HeldWords(r)) continue;
    if (!other.views_.empty() && other.views_[r].second == other_len) {
      // Borrow the mmap view instead of copying: the source index (and
      // thus its mapping) outlives this store per the warm-start contract.
      if (views_.empty()) views_.assign(num_rows(), {nullptr, 0});
      views_[r] = other.views_[r];
    } else {
      words_[r] = other.words_[r];
    }
  }
}

IntSignatureStore::IntSignatureStore(const Dataset* data,
                                     MinwiseHasher hasher)
    : IntSignatureStore(data, std::make_shared<MinwiseChunkHasher>(hasher)) {}

IntSignatureStore::IntSignatureStore(
    const Dataset* data, std::shared_ptr<const IntChunkHasher> hasher)
    : data_(data), hasher_(std::move(hasher)), hashes_(data->num_vectors()) {}

uint64_t IntSignatureStore::EnsureHashesUncounted(uint32_t row,
                                                  uint32_t n_hashes) {
  auto& h = hashes_[row];
  // Round up to whole chunks (the hasher's growth quantum).
  const uint32_t chunk_ints = hasher_->chunk_ints();
  const uint32_t need_chunks = (n_hashes + chunk_ints - 1) / chunk_ints;
  const uint32_t need = need_chunks * chunk_ints;
  if (HeldHashes(row) >= need) return 0;
  assert(!frozen());  // A frozen store must already cover every request.
  // Materialize the mapped prefix before growing past it (see
  // BitSignatureStore::EnsureBitsUncounted).
  if (!views_.empty() && views_[row].second > h.size()) {
    h.assign(views_[row].first, views_[row].first + views_[row].second);
  }
  const uint32_t have = static_cast<uint32_t>(h.size());
  assert(have % chunk_ints == 0);
  const SparseVectorView v = data_->Row(row);
  h.resize(need);
  for (uint32_t c = have / chunk_ints; c < need_chunks; ++c) {
    hasher_->HashChunk(v, row, c, h.data() + c * chunk_ints);
  }
  return need - have;
}

void IntSignatureStore::EnsureHashes(uint32_t row, uint32_t n_hashes) {
  AddHashesComputed(EnsureHashesUncounted(row, n_hashes));
}

void IntSignatureStore::EnsureAllHashes(uint32_t n_hashes) {
  for (uint32_t i = 0; i < num_rows(); ++i) EnsureHashes(i, n_hashes);
}

namespace {

inline uint32_t CountIntMatches(const uint32_t* ha, const uint32_t* hb,
                                uint32_t from, uint32_t to) {
  return simd::CountEqualU32(ha + from, hb + from, to - from);
}

}  // namespace

uint32_t IntSignatureStore::MatchCount(uint32_t a, uint32_t b, uint32_t from,
                                       uint32_t to) {
  assert(from <= to);
  if (frozen()) return MatchCountReadOnly(a, b, from, to);
  EnsureHashes(a, to);
  EnsureHashes(b, to);
  return CountIntMatches(Hashes(a), Hashes(b), from, to);
}

uint32_t IntSignatureStore::MatchAgainstQuery(uint32_t row,
                                              const uint32_t* query_hashes,
                                              uint32_t from, uint32_t to) {
  assert(from <= to);
  if (frozen()) {
    assert(NumHashes(row) >= to);
    return CountIntMatches(Hashes(row), query_hashes, from, to);
  }
  std::lock_guard<std::mutex> lock(growth_mu_);
  AddHashesComputed(EnsureHashesUncounted(row, to));
  return CountIntMatches(Hashes(row), query_hashes, from, to);
}

uint32_t IntSignatureStore::MatchCountReadOnly(uint32_t a, uint32_t b,
                                               uint32_t from,
                                               uint32_t to) const {
  assert(from <= to);
  assert(NumHashes(a) >= to && NumHashes(b) >= to);
  return CountIntMatches(Hashes(a), Hashes(b), from, to);
}

void IntSignatureStore::Save(std::ostream& out, bool align_blob) const {
  std::vector<internal::RowSpan<uint32_t>> rows;
  rows.reserve(num_rows());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    rows.emplace_back(Hashes(r), HeldHashes(r));
  }
  internal::SaveSignatureRows(out, kind(), 0, rows, hashes_computed(),
                              align_blob);
}

void IntSignatureStore::Load(std::istream& in, bool padded) {
  assert(!frozen());
  uint64_t computed = 0;
  internal::LoadSignatureRows(in, kind(), 0, num_rows(),
                              hasher_->chunk_ints(), KindName(kind()),
                              &hashes_, &computed, padded);
  views_.clear();
  hashes_computed_.store(computed, std::memory_order_relaxed);
}

void IntSignatureStore::LoadViews(std::istream& in, const char* mapped_base,
                                  size_t mapped_size) {
  assert(!frozen());
  uint64_t computed = 0;
  std::vector<internal::RowSpan<uint32_t>> views;
  internal::LoadSignatureRowViews(in, mapped_base, mapped_size, kind(), 0,
                                  num_rows(), hasher_->chunk_ints(),
                                  KindName(kind()), &views, &computed);
  views_ = std::move(views);
  for (auto& h : hashes_) h.clear();
  hashes_computed_.store(computed, std::memory_order_relaxed);
}

void IntSignatureStore::CopyRowsFrom(const IntSignatureStore& other) {
  assert(other.num_rows() == num_rows() && !frozen());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    const uint32_t other_len = other.HeldHashes(r);
    if (other_len <= HeldHashes(r)) continue;
    if (!other.views_.empty() && other.views_[r].second == other_len) {
      if (views_.empty()) views_.assign(num_rows(), {nullptr, 0});
      views_[r] = other.views_[r];
    } else {
      hashes_[r] = other.hashes_[r];
    }
  }
}

// --- overflow shards ---

const std::vector<uint64_t>& BitOverflowShard::Row(uint32_t row,
                                                   uint32_t n_bits) {
  auto& w = rows_[row];
  const uint32_t need = WordsForBits(n_bits);
  if (w.size() >= need) return w;
  if (w.empty()) {
    // Seed with the shared store's prefetched words: already computed,
    // so copying adds nothing to the hashing tally.
    const uint32_t base_words = base_->NumBits(row) / kBitsPerWord;
    w.assign(base_->Words(row), base_->Words(row) + base_words);
  }
  const uint32_t have = static_cast<uint32_t>(w.size());
  if (have >= need) return w;
  const SparseVectorView v = base_->data()->Row(row);
  w.reserve(need);
  for (uint32_t c = have; c < need; ++c) {
    w.push_back(base_->hasher().HashChunk(v, row, c));
  }
  bits_computed_ += static_cast<uint64_t>(need - have) * kBitsPerWord;
  return w;
}

uint32_t BitOverflowShard::MatchAgainstQuery(uint32_t row,
                                             const uint64_t* query_words,
                                             uint32_t from, uint32_t to) {
  assert(from <= to);
  const uint64_t* w =
      to <= base_->NumBits(row) ? base_->Words(row) : Row(row, to).data();
  return MatchingBits(query_words, w, from, to);
}

void BitOverflowShard::MergeInto(BitSignatureStore* store) {
  assert(store == base_);
  for (auto& [row, words] : rows_) {
    store->AdoptWords(row, std::move(words));
  }
  rows_.clear();
}

uint32_t BitOverflowShard::MatchCount(uint32_t a, uint32_t b, uint32_t from,
                                      uint32_t to) {
  assert(from <= to);
  if (to <= base_->NumBits(a) && to <= base_->NumBits(b)) {
    return base_->MatchCountReadOnly(a, b, from, to);
  }
  const std::vector<uint64_t>& wa = Row(a, to);
  const std::vector<uint64_t>& wb = Row(b, to);
  return MatchingBits(wa.data(), wb.data(), from, to);
}

const std::vector<uint32_t>& IntOverflowShard::Row(uint32_t row,
                                                   uint32_t n_hashes) {
  auto& h = rows_[row];
  const uint32_t chunk_ints = base_->hasher().chunk_ints();
  const uint32_t need_chunks = (n_hashes + chunk_ints - 1) / chunk_ints;
  const uint32_t need = need_chunks * chunk_ints;
  if (h.size() >= need) return h;
  if (h.empty()) {
    const uint32_t base_have = base_->NumHashes(row);
    h.assign(base_->Hashes(row), base_->Hashes(row) + base_have);
  }
  const uint32_t have = static_cast<uint32_t>(h.size());
  if (have >= need) return h;
  assert(have % chunk_ints == 0);
  const SparseVectorView v = base_->data()->Row(row);
  h.resize(need);
  for (uint32_t c = have / chunk_ints; c < need_chunks; ++c) {
    base_->hasher().HashChunk(v, row, c, h.data() + c * chunk_ints);
  }
  hashes_computed_ += need - have;
  return h;
}

uint32_t IntOverflowShard::MatchAgainstQuery(uint32_t row,
                                             const uint32_t* query_hashes,
                                             uint32_t from, uint32_t to) {
  assert(from <= to);
  const uint32_t* h =
      to <= base_->NumHashes(row) ? base_->Hashes(row) : Row(row, to).data();
  return CountIntMatches(h, query_hashes, from, to);
}

void IntOverflowShard::MergeInto(IntSignatureStore* store) {
  assert(store == base_);
  for (auto& [row, hashes] : rows_) {
    store->AdoptHashes(row, std::move(hashes));
  }
  rows_.clear();
}

uint32_t IntOverflowShard::MatchCount(uint32_t a, uint32_t b, uint32_t from,
                                      uint32_t to) {
  assert(from <= to);
  if (to <= base_->NumHashes(a) && to <= base_->NumHashes(b)) {
    return base_->MatchCountReadOnly(a, b, from, to);
  }
  const std::vector<uint32_t>& ha = Row(a, to);
  const std::vector<uint32_t>& hb = Row(b, to);
  return CountIntMatches(ha.data(), hb.data(), from, to);
}

}  // namespace bayeslsh
