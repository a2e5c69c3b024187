// Inverse CDF (quantile function) of the standard normal distribution.
//
// Used by the counter-based Gaussian source: a 64-bit hash is mapped to a
// uniform in (0, 1) and then through this function to an N(0, 1) deviate.
// This gives O(1) random access to component (hash_index, dimension) of the
// random projection matrix without storing it.

#ifndef BAYESLSH_LSH_INVERSE_NORMAL_CDF_H_
#define BAYESLSH_LSH_INVERSE_NORMAL_CDF_H_

namespace bayeslsh {

// Coefficients and region bounds of Peter Acklam's approximation. The one
// copy the scalar function and the AVX2 Gaussian kernel
// (lsh/gaussian_source.cc) both evaluate, so the two agree bit for bit.
namespace acklam {
inline constexpr double kA[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
inline constexpr double kB[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
inline constexpr double kC[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
inline constexpr double kD[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};

// p in [kPLow, kPHigh] is the central region (the kA/kB rational function);
// below and above are the tails (kC/kD in sqrt(-2 log p)).
inline constexpr double kPLow = 0.02425;
inline constexpr double kPHigh = 1.0 - kPLow;
}  // namespace acklam

// Returns z such that Phi(z) = p, for p in (0, 1). Implementation is Peter
// Acklam's rational approximation (relative error < 1.15e-9 over the full
// open interval), which is more than enough precision for sign-of-projection
// hashing. Requires 0 < p < 1.
double InverseNormalCdf(double p);

// Standard normal CDF (via std::erfc); exposed for tests that validate
// InverseNormalCdf by round-tripping.
double NormalCdf(double z);

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_INVERSE_NORMAL_CDF_H_
