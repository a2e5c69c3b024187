#include "lsh/icws_hasher.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "common/bit_ops.h"
#include "common/prng.h"

namespace bayeslsh {

namespace {

// Gamma(2, 1) deviate: sum of two unit exponentials, derived from a
// 64-bit key by further mixing (stream constants keep draws independent).
double Gamma21(uint64_t key, uint64_t stream) {
  const double u1 = ToOpenUnitUniform(Mix64(key, stream, 0x11));
  const double u2 = ToOpenUnitUniform(Mix64(key, stream, 0x22));
  return -std::log(u1) - std::log(u2);
}

}  // namespace

void IcwsHasher::HashChunk(const SparseVectorView& v, uint32_t chunk,
                           uint32_t* out) const {
  const uint32_t base = chunk * kIcwsChunkInts;
  for (uint32_t j = 0; j < kIcwsChunkInts; ++j) {
    const uint64_t fn = base + j;
    double best_log_a = std::numeric_limits<double>::infinity();
    DimId best_dim = 0;
    int64_t best_t = 0;
    bool any = false;
    for (uint32_t e = 0; e < v.size(); ++e) {
      const double w = v.values[e];
      if (w <= 0.0f) continue;  // Zero/negative weights carry no mass.
      const DimId d = v.indices[e];
      const uint64_t key = Mix64(seed_, fn, d);
      const double r = Gamma21(key, 0xa);
      const double c = Gamma21(key, 0xb);
      const double beta = ToUnitUniform(Mix64(key, 0xc));
      const double t = std::floor(std::log(w) / r + beta);
      const double log_y = r * (t - beta);
      const double log_a = std::log(c) - log_y - r;
      if (log_a < best_log_a) {
        best_log_a = log_a;
        best_dim = d;
        best_t = static_cast<int64_t>(t);
        any = true;
      }
    }
    if (!any) {
      // Empty (or all-zero) vector: fixed sentinel per hash function.
      out[j] = static_cast<uint32_t>(Mix64(seed_, fn, ~0ULL));
      continue;
    }
    // 32-bit fingerprint of the (dimension, t) sample.
    out[j] = static_cast<uint32_t>(
        Mix64(best_dim, static_cast<uint64_t>(best_t)));
  }
}

}  // namespace bayeslsh
