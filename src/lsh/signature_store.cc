#include "lsh/signature_store.h"

#include <cassert>

#include "lsh/bbit_minwise.h"
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

template <typename Layout>
uint64_t SignatureStore<Layout>::Grow(uint32_t row, uint32_t n,
                                      std::vector<Elem>* r) const {
  const uint32_t per_elem = layout_.hashes_per_elem();
  const uint32_t chunk_elems = layout_.chunk_hashes() / per_elem;
  const auto have = static_cast<uint32_t>(r->size());
  const uint32_t need = ChunkAligned(n) / per_elem;
  if (have >= need) return 0;
  assert(have % chunk_elems == 0);
  r->reserve(need);
  r->resize(need);
  const SparseVectorView v = data_->Row(row);
  for (uint32_t e = have; e < need; e += chunk_elems) {
    layout_.Fill(v, row, e / chunk_elems, r->data() + e);
  }
  return uint64_t{need - have} * per_elem;
}

template <typename Layout>
uint64_t SignatureStore<Layout>::EnsureRowUncounted(uint32_t row,
                                                    uint32_t n) {
  if (HashesHeld(row) >= ChunkAligned(n)) return 0;
  assert(!frozen());  // A frozen store must already cover every request.
  std::vector<Elem>& r = rows_[row];
  // Growing past an mmap view first materializes the mapped prefix into an
  // owned copy — uncounted, since the writer accounted those hashes.
  if (!views_.empty() && views_[row].second > r.size()) {
    r.assign(views_[row].first, views_[row].first + views_[row].second);
  }
  return Grow(row, n, &r);
}

template <typename Layout>
uint32_t SignatureStore<Layout>::HashValue(uint32_t row, uint32_t j) const {
  assert(j < HashesHeld(row));
  const uint32_t per_elem = layout_.hashes_per_elem();
  const uint32_t width = 8 * sizeof(Elem) / per_elem;  // Bits per hash.
  const auto elem = static_cast<uint64_t>(Signature(row)[j / per_elem]);
  return static_cast<uint32_t>((elem >> (j % per_elem * width)) &
                               ((uint64_t{1} << width) - 1));
}

template <typename Layout>
uint32_t SignatureStore<Layout>::MatchCount(uint32_t a, uint32_t b,
                                            uint32_t from, uint32_t to) {
  assert(from <= to);
  if (frozen()) return MatchCountReadOnly(a, b, from, to);
  EnsureRow(a, to);
  EnsureRow(b, to);
  return layout_.Match(Signature(a), Signature(b), from, to);
}

template <typename Layout>
uint32_t SignatureStore<Layout>::MatchAgainstQuery(uint32_t row,
                                                   const Elem* query,
                                                   uint32_t from,
                                                   uint32_t to) {
  assert(from <= to);
  if (frozen()) {
    assert(HashesHeld(row) >= to);
    return layout_.Match(query, Signature(row), from, to);
  }
  std::lock_guard<std::mutex> lock(growth_mu_);
  AddComputed(EnsureRowUncounted(row, to));
  return layout_.Match(query, Signature(row), from, to);
}

template <typename Layout>
const SignatureStore<Layout>& SignatureStore<Layout>::Peer(
    const SignatureStoreBase& other) const {
  assert(dynamic_cast<const SignatureStore*>(&other) != nullptr);
  const auto& peer = static_cast<const SignatureStore&>(other);
  assert(peer.kind() == kind() &&
         peer.layout_.bits_per_hash() == layout_.bits_per_hash());
  return peer;
}

template <typename Layout>
void SignatureStore<Layout>::CopyRowsFrom(const SignatureStoreBase& other) {
  const SignatureStore& src = Peer(other);
  assert(src.num_rows() == num_rows() && !frozen());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    const uint32_t src_len = src.HeldElems(r);
    if (src_len <= HeldElems(r)) continue;
    if (!src.views_.empty() && src.views_[r].second == src_len) {
      // Borrow the mmap view instead of copying: the source index (and
      // thus its mapping) outlives this store per the warm-start contract.
      if (views_.empty()) views_.assign(num_rows(), {nullptr, 0});
      views_[r] = src.views_[r];
    } else {
      rows_[r] = src.rows_[r];
    }
  }
}

template <typename Layout>
void SignatureStore<Layout>::AdoptRow(uint32_t row,
                                      const SignatureStoreBase& source,
                                      uint32_t source_row) {
  const SignatureStore& src = Peer(source);
  const Elem* p = src.Signature(source_row);
  Adopt(row, std::vector<Elem>(p, p + src.HeldElems(source_row)));
}

template <typename Layout>
void SignatureStore<Layout>::Save(std::ostream& out, bool align_blob) const {
  std::vector<internal::RowSpan<Elem>> rows;
  rows.reserve(num_rows());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    rows.emplace_back(Signature(r), HeldElems(r));
  }
  internal::SaveSignatureRows(out, kind(), layout_.bits_per_hash(), rows,
                              computed(), align_blob);
}

template <typename Layout>
void SignatureStore<Layout>::Load(std::istream& in, bool padded) {
  assert(!frozen());
  uint64_t computed = 0;
  // Row lengths must be whole chunks, so loaded rows keep the
  // chunk-alignment invariant growth relies on.
  internal::LoadSignatureRows(
      in, kind(), layout_.bits_per_hash(), num_rows(),
      layout_.chunk_hashes() / layout_.hashes_per_elem(), KindName(kind()),
      &rows_, &computed, padded);
  views_.clear();
  computed_.store(computed, std::memory_order_relaxed);
}

template <typename Layout>
void SignatureStore<Layout>::LoadViews(std::istream& in,
                                       const char* mapped_base,
                                       size_t mapped_size) {
  assert(!frozen());
  uint64_t computed = 0;
  std::vector<internal::RowSpan<Elem>> views;
  internal::LoadSignatureRowViews(
      in, mapped_base, mapped_size, kind(), layout_.bits_per_hash(),
      num_rows(), layout_.chunk_hashes() / layout_.hashes_per_elem(),
      KindName(kind()), &views, &computed);
  views_ = std::move(views);
  for (std::vector<Elem>& r : rows_) r.clear();
  computed_.store(computed, std::memory_order_relaxed);
}

template <typename Layout>
uint64_t SignatureStore<Layout>::signature_bytes() const {
  uint64_t elems = 0;
  for (uint32_t r = 0; r < num_rows(); ++r) elems += HeldElems(r);
  return elems * sizeof(Elem);
}

// --- overflow shard ---

template <typename Layout>
auto SignatureOverflowShard<Layout>::Row(uint32_t row, uint32_t n)
    -> const Elem* {
  std::vector<Elem>& r = rows_[row];
  if (r.empty()) {
    // Seed with the shared store's prefetched prefix: already computed,
    // so copying adds nothing to the hashing tally.
    const Elem* p = base_->Signature(row);
    r.assign(p, p + base_->HeldElems(row));
  }
  computed_ += base_->Grow(row, n, &r);
  return r.data();
}

template <typename Layout>
uint32_t SignatureOverflowShard<Layout>::MatchCount(uint32_t a, uint32_t b,
                                                    uint32_t from,
                                                    uint32_t to) {
  assert(from <= to);
  if (to <= base_->HashesHeld(a) && to <= base_->HashesHeld(b)) {
    return base_->MatchCountReadOnly(a, b, from, to);
  }
  const Elem* ra = Row(a, to);
  const Elem* rb = Row(b, to);
  return base_->layout().Match(ra, rb, from, to);
}

template <typename Layout>
uint32_t SignatureOverflowShard<Layout>::MatchAgainstQuery(uint32_t row,
                                                           const Elem* query,
                                                           uint32_t from,
                                                           uint32_t to) {
  assert(from <= to);
  const Elem* r =
      to <= base_->HashesHeld(row) ? base_->Signature(row) : Row(row, to);
  return base_->layout().Match(query, r, from, to);
}

template <typename Layout>
void SignatureOverflowShard<Layout>::MergeInto(Store* store) {
  assert(store == base_);
  for (auto& [row, r] : rows_) store->Adopt(row, std::move(r));
  rows_.clear();
}

template class SignatureStore<BitLayout>;
template class SignatureStore<IntLayout>;
template class SignatureStore<BbitLayout>;
template class SignatureOverflowShard<BitLayout>;
template class SignatureOverflowShard<IntLayout>;
template class SignatureOverflowShard<BbitLayout>;

}  // namespace bayeslsh
