// Kernelized locality-sensitive hashing (Kulis & Grauman, ICCV'09 — the
// paper's reference [12] and its named future-work target).
//
// Plain SRP hashing needs an explicit random Gaussian direction r and the
// inner product ⟨r, x⟩; with a kernel, the feature map φ is implicit and
// only k(x, y) = ⟨φ(x), φ(y)⟩ is computable. KLSH builds hash directions
// *inside the span of p anchor objects* x_1..x_p: a direction is
// represented by weights w ∈ R^p with
//
//     h(x) = sign( Σ_i w_i k(x, x_i) )  = sign(⟨ Σ_i w_i φ(x_i), φ(x) ⟩).
//
// Two constructions of w are provided:
//
//  * kGaussianNystrom (default): w = K^{-1/2} g with g ~ N(0, I_p) and K
//    the anchor kernel matrix. The feature-space direction Φ K^{-1/2} g
//    then has covariance Φ K^{-1} Φᵀ — the orthogonal projector onto
//    span(φ(x_1)..φ(x_p)) — i.e. it is an exactly spherical Gaussian
//    within the anchor span. The SRP collision law
//    Pr[h(x) = h(y)] = 1 − θ(Pφ(x), Pφ(y))/π holds exactly for the
//    projected features, and approaches the law for the raw features as
//    the anchors span the data (tested with spanning anchors).
//
//  * kSubsetClt: Kulis & Grauman's original construction
//    w = K^{-1/2} e_S, e_S the indicator of a random size-t anchor subset,
//    which approximates a Gaussian via the central limit theorem. Kept for
//    fidelity to [12] and ablated against the Nyström variant
//    (bench/ext_kernel_bayeslsh.cc); its uncentered mean biases collisions
//    slightly toward the data's mean direction.
//
// Because the collision probability is the feature-space angle law,
// BayesLSH verification reuses CosinePosterior as-is, with the threshold
// interpreted as a *kernel cosine* (see kernel/kernels.h). What changes is
// only the hash family (KlshChunkHasher behind a BitSignatureStore):
// hashing an object is now p kernel evaluations + a p-dot per 64 bits —
// expensive, which is exactly the regime the paper's lazy-hashing argument
// targets (§4, advantage 3).

#ifndef BAYESLSH_KERNEL_KLSH_H_
#define BAYESLSH_KERNEL_KLSH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kernel/dense_matrix.h"
#include "kernel/kernels.h"
#include "lsh/signature_store.h"
#include "lsh/store_base.h"
#include "vec/dataset.h"

namespace bayeslsh {

enum class KlshDirection {
  kGaussianNystrom,  // w = K^{-1/2} g, g ~ N(0, I): exact span-spherical law.
  kSubsetClt,        // w = K^{-1/2} e_S: Kulis & Grauman's CLT construction.
};

struct KlshParams {
  // Number of anchor objects p sampled from the collection. Larger p spans
  // the data better (tighter collision law) at O(p) kernel evaluations per
  // hashed object and an O(p^3) one-time eigensolve.
  uint32_t num_anchors = 256;

  // Subset size t for kSubsetClt (ignored by kGaussianNystrom). Kulis &
  // Grauman use t ~ 30.
  uint32_t subset_size = 30;

  KlshDirection direction = KlshDirection::kGaussianNystrom;

  // Seeds anchor sampling and hash-direction generation.
  uint64_t seed = 42;
};

// Copies min(count, data.num_vectors()) distinct rows of `data`, sampled
// without replacement from (seed), into a new dataset. This is the anchor
// sampling KlshHasher performs internally, exposed so the serving stack can
// sample anchors ONCE from the full corpus and share them across shards and
// between generation/verification hashers — sharded and warm-loaded KLSH
// results are identical to fresh unsharded builds only because every hasher
// sees the same anchors.
Dataset SampleKlshAnchors(const Dataset& data, uint32_t count, uint64_t seed);

// Owns the anchors, K^{-1/2}, and the lazily-built per-chunk weight slabs.
// Immutable after construction except for the slab cache (which is
// internally synchronized — a hasher may be shared by concurrent serving
// threads); one hasher is shared by all rows of a signature store.
class KlshHasher {
 public:
  // Samples min(params.num_anchors, data.num_vectors()) distinct anchor
  // rows from `data` (copied — `data` need not outlive the hasher) and
  // factorizes their kernel matrix. The kernel must outlive the hasher.
  KlshHasher(const Dataset& data, const Kernel* kernel, KlshParams params);

  // Pre-sampled-anchors form: adopts `anchors` verbatim (all rows are
  // anchors; params.num_anchors is ignored) and factorizes their kernel
  // matrix. params.seed drives only hash-direction generation, so two
  // hashers over the same anchors with different seeds give independent
  // hash families against one kernel geometry — the generation /
  // verification split of the serving stack.
  static KlshHasher FromAnchors(Dataset anchors, const Kernel* kernel,
                                KlshParams params);

  uint32_t num_anchors() const { return anchors_.num_vectors(); }
  const Dataset& anchors() const { return anchors_; }
  const Kernel& kernel() const { return *kernel_; }
  const KlshParams& params() const { return params_; }

  // k(x, anchor_i) for all anchors — the per-object hashing input.
  std::vector<double> AnchorKernelRow(const SparseVectorView& x) const;

  // Hash bits [64*chunk, 64*chunk + 64) of an object with the given anchor
  // kernel row, packed with hash 64*chunk + j at bit j.
  uint64_t HashChunk(const std::vector<double>& kernel_row,
                     uint32_t chunk) const;

  // Weight matrix for one chunk: column j holds w for hash 64*chunk + j.
  // Built deterministically from (seed, chunk) on first use and cached;
  // safe to call from concurrent threads (the cache is mutex-guarded, and
  // a built slab's address is stable for the hasher's lifetime).
  const DenseMatrix& WeightSlab(uint32_t chunk) const;

 private:
  struct AnchorsTag {};
  KlshHasher(AnchorsTag, Dataset anchors, const Kernel* kernel,
             KlshParams params);

  const Kernel* kernel_;
  KlshParams params_;
  Dataset anchors_;
  DenseMatrix k_inv_sqrt_;  // K^{-1/2} over the anchors.
  mutable std::mutex slab_mu_;
  mutable std::vector<std::unique_ptr<DenseMatrix>> slabs_;
};

// Shared per-row anchor-kernel-row cache: the p kernel evaluations of a
// first-touched row are the dominant KLSH hashing cost, so the generation
// and verification stores of one searcher share a cache keyed by row id.
// Thread-safe; rows are computed outside the lock (kernel rows are pure
// functions of (kernel, anchors, row), so a racing double-compute is
// benign — the first insert wins and only it is tallied).
class KlshRowCache {
 public:
  // The cached k(row, anchor_i) vector, computing and inserting it on
  // miss. `data` must be the same dataset on every call for a given row id.
  std::shared_ptr<const std::vector<double>> Row(const KlshHasher& hasher,
                                                 const Dataset& data,
                                                 uint32_t row);

  // Total kernel evaluations spent populating the cache.
  uint64_t kernel_evals() const {
    return kernel_evals_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::unordered_map<uint32_t, std::shared_ptr<const std::vector<double>>>
      rows_;
  std::atomic<uint64_t> kernel_evals_{0};
};

// WordChunkHasher adapter: lets the generalized BitSignatureStore (and with
// it the whole serving stack) carry KLSH bits. Collection rows route their
// anchor kernel rows through the shared cache; external vectors (queries,
// row == kNoStoreRow) pay a fresh kernel row per chunk — the serving query
// path avoids that by computing the row once and calling
// KlshHasher::HashChunk directly.
class KlshChunkHasher final : public WordChunkHasher {
 public:
  // `data` is the dataset whose row ids key the cache (null disables
  // caching). The hasher handle may be non-owning (aliased) when the owner
  // outlives every store using this adapter.
  KlshChunkHasher(std::shared_ptr<const KlshHasher> hasher,
                  std::shared_ptr<KlshRowCache> cache, const Dataset* data)
      : hasher_(std::move(hasher)), cache_(std::move(cache)), data_(data) {}

  uint64_t HashChunk(const SparseVectorView& v, uint32_t row,
                     uint32_t chunk) const override {
    if (row != kNoStoreRow && cache_ != nullptr && data_ != nullptr) {
      return hasher_->HashChunk(*cache_->Row(*hasher_, *data_, row), chunk);
    }
    return hasher_->HashChunk(hasher_->AnchorKernelRow(v), chunk);
  }
  SignatureKind kind() const override { return SignatureKind::kKlshBits; }

  const KlshHasher& klsh() const { return *hasher_; }
  const std::shared_ptr<KlshRowCache>& cache() const { return cache_; }

 private:
  std::shared_ptr<const KlshHasher> hasher_;
  std::shared_ptr<KlshRowCache> cache_;
  const Dataset* data_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_KERNEL_KLSH_H_
