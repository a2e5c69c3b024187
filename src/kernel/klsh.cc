#include "kernel/klsh.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "common/prng.h"
#include "lsh/inverse_normal_cdf.h"

namespace bayeslsh {

Dataset SampleKlshAnchors(const Dataset& data, uint32_t count, uint64_t seed) {
  std::vector<uint32_t> ids(data.num_vectors());
  std::iota(ids.begin(), ids.end(), 0u);
  Xoshiro256StarStar rng(Mix64(seed, 0xa2c4055ULL));
  // Partial Fisher-Yates: only the first `count` positions are needed.
  for (uint32_t i = 0; i < count && i + 1 < ids.size(); ++i) {
    const uint64_t j = i + rng.NextBounded(ids.size() - i);
    std::swap(ids[i], ids[j]);
  }
  DatasetBuilder builder(data.num_dims());
  for (uint32_t i = 0; i < count; ++i) {
    const SparseVectorView row = data.Row(ids[i]);
    std::vector<std::pair<DimId, float>> entries;
    entries.reserve(row.size());
    for (uint32_t e = 0; e < row.size(); ++e) {
      entries.emplace_back(row.indices[e], row.values[e]);
    }
    builder.AddRow(std::move(entries));
  }
  return std::move(builder).Build();
}

KlshHasher::KlshHasher(const Dataset& data, const Kernel* kernel,
                       KlshParams params)
    : KlshHasher(AnchorsTag{},
                 SampleKlshAnchors(
                     data, std::min(params.num_anchors, data.num_vectors()),
                     params.seed),
                 kernel, params) {}

KlshHasher KlshHasher::FromAnchors(Dataset anchors, const Kernel* kernel,
                                   KlshParams params) {
  return KlshHasher(AnchorsTag{}, std::move(anchors), kernel, params);
}

KlshHasher::KlshHasher(AnchorsTag, Dataset anchors, const Kernel* kernel,
                       KlshParams params)
    : kernel_(kernel), params_(params), anchors_(std::move(anchors)) {
  const uint32_t p = anchors_.num_vectors();
  assert(p > 0);
  DenseMatrix k(p, p);
  for (uint32_t i = 0; i < p; ++i) {
    for (uint32_t j = i; j < p; ++j) {
      const double v = kernel_->Evaluate(anchors_.Row(i), anchors_.Row(j));
      k.at(i, j) = v;
      k.at(j, i) = v;
    }
  }
  k_inv_sqrt_ = SymmetricInverseSqrt(k);
}

std::vector<double> KlshHasher::AnchorKernelRow(
    const SparseVectorView& x) const {
  return KernelRow(*kernel_, x, anchors_);
}

const DenseMatrix& KlshHasher::WeightSlab(uint32_t chunk) const {
  // Concurrent serving threads race to the first use of a chunk; the whole
  // build runs under the lock (it is a one-time cost per chunk) and the
  // returned reference stays valid across later resizes because the slabs
  // are held behind unique_ptr.
  std::lock_guard<std::mutex> lock(slab_mu_);
  if (chunk >= slabs_.size()) slabs_.resize(chunk + 1);
  if (slabs_[chunk] == nullptr) {
    const uint32_t p = num_anchors();
    auto slab = std::make_unique<DenseMatrix>(p, 64);
    for (uint32_t j = 0; j < 64; ++j) {
      const uint64_t hash_index = static_cast<uint64_t>(chunk) * 64 + j;
      // The pre-whitening direction z in anchor coordinates.
      std::vector<double> z(p, 0.0);
      if (params_.direction == KlshDirection::kGaussianNystrom) {
        for (uint32_t i = 0; i < p; ++i) {
          const uint64_t bits = Mix64(params_.seed, hash_index, i);
          z[i] = InverseNormalCdf(ToOpenUnitUniform(bits));
        }
      } else {
        // kSubsetClt: indicator of a size-t subset drawn without
        // replacement, deterministically from (seed, hash_index).
        const uint32_t t = std::min(params_.subset_size, p);
        Xoshiro256StarStar rng(Mix64(params_.seed, hash_index, 0x5b5e7ULL));
        std::vector<uint32_t> ids(p);
        std::iota(ids.begin(), ids.end(), 0u);
        for (uint32_t i = 0; i < t; ++i) {
          const uint64_t r = i + rng.NextBounded(p - i);
          std::swap(ids[i], ids[r]);
          z[ids[i]] = 1.0;
        }
      }
      // w = K^{-1/2} z, written into column j.
      const std::vector<double> w = MatVec(k_inv_sqrt_, z);
      for (uint32_t i = 0; i < p; ++i) slab->at(i, j) = w[i];
    }
    slabs_[chunk] = std::move(slab);
  }
  return *slabs_[chunk];
}

uint64_t KlshHasher::HashChunk(const std::vector<double>& kernel_row,
                               uint32_t chunk) const {
  const DenseMatrix& slab = WeightSlab(chunk);
  const uint32_t p = num_anchors();
  assert(kernel_row.size() == p);
  double dots[64] = {0.0};
  for (uint32_t i = 0; i < p; ++i) {
    const double ki = kernel_row[i];
    if (ki == 0.0) continue;
    const double* wrow = slab.row(i);
    for (uint32_t j = 0; j < 64; ++j) dots[j] += ki * wrow[j];
  }
  uint64_t word = 0;
  for (uint32_t j = 0; j < 64; ++j) {
    if (dots[j] >= 0.0) word |= 1ULL << j;
  }
  return word;
}

std::shared_ptr<const std::vector<double>> KlshRowCache::Row(
    const KlshHasher& hasher, const Dataset& data, uint32_t row) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rows_.find(row);
    if (it != rows_.end()) return it->second;
  }
  auto computed = std::make_shared<const std::vector<double>>(
      hasher.AnchorKernelRow(data.Row(row)));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = rows_.emplace(row, std::move(computed));
  if (inserted) {
    kernel_evals_.fetch_add(hasher.num_anchors(), std::memory_order_relaxed);
  }
  return it->second;
}

}  // namespace bayeslsh
