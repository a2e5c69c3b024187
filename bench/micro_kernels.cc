// Micro-kernel timings for the signature hot paths, scalar vs SIMD
// dispatch (common/simd_ops.h), plus serial vs batched posterior
// evaluation (InferenceCache::EstimateAtBatch). Each kernel runs twice —
// once with SetForceScalar(true) and once with the default dispatch — so
// every run records the before/after delta of the vectorized paths as
// (section, dataset, algorithm) record pairs the trend gate can track.
// The two modes' checksums must agree exactly; a mismatch fails the run
// (the differential contract tests/simd_kernels_test.cc enforces, checked
// again here on the bench inputs).
//
// Iteration counts are fixed rather than scaled by BAYESLSH_BENCH_SCALE:
// the kernels have no dataset to shrink, and fixed counts keep records
// comparable across smoke and full runs. Each measurement takes the best
// of three repeats to damp scheduler noise.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/bit_ops.h"
#include "common/prng.h"
#include "common/simd_ops.h"
#include "core/cosine_posterior.h"
#include "core/inference_cache.h"
#include "lsh/bbit_minwise.h"

namespace bayeslsh {
namespace {

using bench::BenchRecord;
using bench::BenchJsonWriter;

constexpr int kRepeats = 3;

// Best-of-repeats wall time for `iters` calls of `fn(i)`; the summed
// return values keep the loop observable and double as the differential
// checksum (deterministic in i, so identical across repeats).
template <typename F>
double BestSeconds(uint64_t iters, uint64_t* checksum, F&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kRepeats; ++rep) {
    uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < iters; ++i) sum += fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    *checksum = sum;
  }
  return best;
}

void AddRecord(BenchJsonWriter* writer, const char* dataset,
               const char* algorithm, uint64_t iters, double seconds) {
  BenchRecord r;
  r.section = "micro_kernels";
  r.dataset = dataset;
  r.algorithm = algorithm;
  r.threads = 1;
  r.verify_seconds = seconds;
  r.total_seconds = seconds;
  r.queries = iters;
  r.qps = seconds > 0.0 ? static_cast<double>(iters) / seconds : 0.0;
  writer->Add(std::move(r));
}

void PrintRow(const char* name, uint64_t iters, double scalar_s,
              double simd_s) {
  const double scalar_mcps = iters / scalar_s / 1e6;
  const double simd_mcps = iters / simd_s / 1e6;
  std::printf("%-26s %12.1f %12.1f %9.2fx\n", name, scalar_mcps, simd_mcps,
              scalar_s / simd_s);
}

// Times `fn` under forced-scalar and default dispatch, asserts the
// checksums agree, records both modes, prints the comparison row.
template <typename F>
bool RunKernel(BenchJsonWriter* writer, const char* name, uint64_t iters,
               F&& fn) {
  simd::SetForceScalar(true);
  uint64_t scalar_sum = 0;
  const double scalar_s = BestSeconds(iters, &scalar_sum, fn);
  simd::SetForceScalar(false);
  uint64_t simd_sum = 0;
  const double simd_s = BestSeconds(iters, &simd_sum, fn);
  if (scalar_sum != simd_sum) {
    std::fprintf(stderr,
                 "FAIL: %s scalar/simd checksum mismatch (%llu vs %llu)\n",
                 name, static_cast<unsigned long long>(scalar_sum),
                 static_cast<unsigned long long>(simd_sum));
    return false;
  }
  AddRecord(writer, name, "scalar", iters, scalar_s);
  AddRecord(writer, name, "simd", iters, simd_s);
  PrintRow(name, iters, scalar_s, simd_s);
  return true;
}

// Serial EstimateAt loop vs one EstimateAtBatch pass over the same block
// of match counts — the locality win behind QuerySearcher's verify loop,
// which drives candidates in blocks of 8. Both caches are primed, so this
// times the memo-hit path the verification inner loop actually runs.
bool RunPosteriorBatch(BenchJsonWriter* writer) {
  const CosinePosterior model(0.7);
  InferenceCache<CosinePosterior> serial_cache(&model, 32, 256, 0.03, 0.05,
                                               0.03);
  InferenceCache<CosinePosterior> batch_cache(&model, 32, 256, 0.03, 0.05,
                                              0.03);
  constexpr uint32_t kBlock = 8;
  const uint32_t ms[kBlock] = {200, 180, 220, 200, 240, 64, 200, 180};
  using Result = InferenceCache<CosinePosterior>::EstimateResult;
  const auto digest = [](const Result* res) {
    uint64_t sum = 0;
    for (uint32_t j = 0; j < kBlock; ++j) {
      sum += (res[j].concentrated ? 1u : 0u) +
             static_cast<uint64_t>(res[j].estimate * 1e6);
    }
    return sum;
  };

  constexpr uint64_t kIters = 1'000'000;
  uint64_t serial_sum = 0;
  const double serial_s = BestSeconds(kIters, &serial_sum, [&](uint64_t) {
    Result res[kBlock];
    for (uint32_t j = 0; j < kBlock; ++j) {
      res[j] = serial_cache.EstimateAt(ms[j], 256);
    }
    return digest(res);
  });
  uint64_t batch_sum = 0;
  const double batch_s = BestSeconds(kIters, &batch_sum, [&](uint64_t) {
    Result res[kBlock];
    batch_cache.EstimateAtBatch(ms, kBlock, 256, res);
    return digest(res);
  });
  if (serial_sum != batch_sum) {
    std::fprintf(stderr,
                 "FAIL: posterior serial/batched checksum mismatch\n");
    return false;
  }
  AddRecord(writer, "posterior_update_x8", "serial", kIters, serial_s);
  AddRecord(writer, "posterior_update_x8", "batched", kIters, batch_s);
  const double serial_mcps = kIters / serial_s / 1e6;
  const double batch_mcps = kIters / batch_s / 1e6;
  std::printf("%-26s %12.1f %12.1f %9.2fx  (serial vs batched)\n",
              "posterior_update_x8", serial_mcps, batch_mcps,
              serial_s / batch_s);
  return true;
}

int Run(int argc, char** argv) {
  bench::CheckBenchArgs(argc, argv);
  BenchJsonWriter writer("micro_kernels", bench::BenchJsonPath(argc, argv),
                         bench::BenchThreads(argc, argv));

  bench::PrintHeader("micro-kernels: signature match + posterior batching");
  std::printf("SIMD: compiled_in=%s enabled=%s\n", simd::CompiledIn() ? "yes" : "no",
              simd::Enabled() ? "yes" : "no (dispatch falls back to scalar)");
  std::printf("%-26s %12s %12s %10s\n", "kernel", "scalar Mc/s",
              "simd Mc/s", "speedup");

  Xoshiro256StarStar rng(bench::BenchSeed());
  bool ok = true;

  {
    // The aligned fast path: full 64-word (4096-bit) signature compare.
    std::vector<uint64_t> a(64), b(64);
    for (int i = 0; i < 64; ++i) {
      a[i] = rng.Next();
      b[i] = (i % 2 == 0) ? a[i] : rng.Next();
    }
    ok = RunKernel(&writer, "matching_bits_4096", 2'000'000,
                   [&](uint64_t) {
                     return MatchingBits(a.data(), b.data(), 0, 4096);
                   }) &&
         ok;
    // The serving shape: one unaligned 32-hash verification round.
    ok = RunKernel(&writer, "matching_bits_round32", 8'000'000,
                   [&](uint64_t i) {
                     const uint32_t from = static_cast<uint32_t>(i % 64) + 1;
                     return MatchingBits(a.data(), b.data(), from, from + 32);
                   }) &&
         ok;
  }

  {
    std::vector<uint64_t> x(16), y(16);
    for (int i = 0; i < 16; ++i) {
      x[i] = rng.Next();
      y[i] = (i % 2 == 0) ? x[i] : rng.Next();
    }
    ok = RunKernel(&writer, "bbit_groups_b2", 2'000'000,
                   [&](uint64_t) {
                     return MatchingBbitGroups(x.data(), y.data(), 0,
                                               16 * 32, 2);
                   }) &&
         ok;
    ok = RunKernel(&writer, "bbit_groups_b8", 2'000'000,
                   [&](uint64_t) {
                     return MatchingBbitGroups(x.data(), y.data(), 0, 16 * 8,
                                               8);
                   }) &&
         ok;
  }

  {
    // Full-width minwise row compare (128 stored hashes).
    std::vector<uint32_t> a(128), b(128);
    for (size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<uint32_t>(rng.Next());
      b[i] = (i % 3 == 0) ? a[i] : static_cast<uint32_t>(rng.Next());
    }
    ok = RunKernel(&writer, "count_equal_u32_128", 4'000'000,
                   [&](uint64_t) {
                     return simd::CountEqualU32(a.data(), b.data(), 128);
                   }) &&
         ok;
  }

  ok = RunPosteriorBatch(&writer) && ok;

  if (!ok) return 1;
  if (!writer.Write()) return 1;
  return 0;
}

}  // namespace
}  // namespace bayeslsh

int main(int argc, char** argv) { return bayeslsh::Run(argc, argv); }
