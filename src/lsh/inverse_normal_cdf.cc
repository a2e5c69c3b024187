#include "lsh/inverse_normal_cdf.h"

#include <cassert>
#include <cmath>

namespace bayeslsh {

double InverseNormalCdf(double p) {
  using namespace acklam;
  assert(p > 0.0 && p < 1.0);
  if (p < kPLow) {
    // Lower tail.
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q +
            kC[5]) /
           ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
  }
  if (p > kPHigh) {
    // Upper tail, by symmetry.
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    return -(((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) *
                 q +
             kC[5]) /
           ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
  }
  // Central region.
  const double q = p - 0.5;
  const double r = q * q;
  return (((((kA[0] * r + kA[1]) * r + kA[2]) * r + kA[3]) * r + kA[4]) * r +
          kA[5]) *
         q /
         (((((kB[0] * r + kB[1]) * r + kB[2]) * r + kB[3]) * r + kB[4]) * r +
          1.0);
}

double NormalCdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

}  // namespace bayeslsh
