#include "candgen/ppjoin.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "candgen/exact_join_impl.h"
#include "candgen/prefix_filter_join.h"

namespace bayeslsh {

int SuffixHammingLowerBound(std::span<const uint32_t> x,
                            std::span<const uint32_t> y, int hmax,
                            int depth) {
  const int nx = static_cast<int>(x.size());
  const int ny = static_cast<int>(y.size());
  const int size_diff = std::abs(nx - ny);
  if (nx == 0 || ny == 0) return size_diff;
  if (depth > kSuffixFilterMaxDepth) return size_diff;
  // The size difference is itself a valid lower bound; if it already blows
  // the budget there is no need to partition further.
  if (size_diff > hmax) return size_diff;

  // Partition both arrays around y's middle token. Because the arrays are
  // sorted, tokens < w can only match left-side tokens and tokens > w only
  // right-side ones, so
  //
  //   H(x, y) = H(xl, yl) + H(xr, yr) + [w not in x]
  //          >= ||xl| - |yl|| + ||xr| - |yr|| + [w not in x].
  //
  // (The original paper additionally restricts the binary search to a
  // positional window derived from hmax; that is a constant-factor probe
  // optimization of the same bound — a position outside the window forces
  // the size-imbalance term above the budget — and is deliberately omitted:
  // every value returned here is a plain lower bound, which makes the
  // no-over-pruning property self-evident.)
  const int mid = ny / 2;
  const uint32_t w = y[mid];
  const uint32_t* pos = std::lower_bound(x.data(), x.data() + nx, w);
  const int p = static_cast<int>(pos - x.data());
  const bool found = p < nx && x[p] == w;
  const int diff = found ? 0 : 1;

  const auto xl = x.subspan(0, p);
  const auto xr = x.subspan(found ? p + 1 : p);
  const auto yl = y.subspan(0, mid);
  const auto yr = y.subspan(mid + 1);

  const int outer = std::abs(static_cast<int>(xl.size()) -
                             static_cast<int>(yl.size())) +
                    std::abs(static_cast<int>(xr.size()) -
                             static_cast<int>(yr.size())) +
                    diff;
  if (outer > hmax) return outer;

  const int hl_budget =
      hmax - diff - std::abs(static_cast<int>(xr.size()) -
                             static_cast<int>(yr.size()));
  const int hl = SuffixHammingLowerBound(xl, yl, hl_budget, depth + 1);
  const int with_left = hl + diff + std::abs(static_cast<int>(xr.size()) -
                                             static_cast<int>(yr.size()));
  if (with_left > hmax) return with_left;

  const int hr_budget = hmax - diff - hl;
  const int hr = SuffixHammingLowerBound(xr, yr, hr_budget, depth + 1);
  return hl + hr + diff;
}

namespace {

uint32_t RequiredOverlap(uint32_t la, uint32_t lb, double threshold,
                         Measure measure) {
  if (measure == Measure::kJaccard) {
    return CeilSafe(threshold / (1.0 + threshold) *
                    (static_cast<double>(la) + lb));
  }
  return CeilSafe(threshold * std::sqrt(static_cast<double>(la) * lb));
}

}  // namespace

std::vector<ScoredPair> PpjoinJoin(const Dataset& data, double threshold,
                                   Measure measure, bool use_suffix_filter,
                                   PpjoinStats* stats, ThreadPool* pool) {
  using namespace internal;
  const double frac = SizeFraction(threshold, measure, "PpjoinJoin");
  const uint32_t n = data.num_vectors();
  const BinaryReordered r = ReorderBinary(data, pool);
  const auto index = BuildPrefixIndex</*kOffset=*/true>(r, data.num_dims(),
                                                        frac);

  constexpr int64_t kDead = std::numeric_limits<int64_t>::min();

  // Phase 2: probe, sharded over probe rows.
  auto probe = [&](uint32_t p_begin, uint32_t p_end,
                   ProbeOutput<PpjoinStats>* out) {
    PpjoinStats& local = out->stats;
    std::vector<int64_t> acc(n, 0);
    std::vector<uint32_t> stamp(n, UINT32_MAX);
    std::vector<uint32_t> touched;
    std::vector<uint32_t> front(data.num_dims(), 0);

    for (uint32_t p = p_begin; p < p_end; ++p) {
      const auto& x = r.rows[p];
      const auto size_x = static_cast<uint32_t>(x.size());
      const uint32_t px = PrefixLength(size_x, frac);
      const uint32_t minsize = MinSize(size_x, frac);

      touched.clear();
      for (uint32_t k = 0; k < px && k < size_x; ++k) {
        const uint32_t w = x[k];
        const auto& list = index[w];
        uint32_t& f = front[w];
        while (f < list.size() && list[f].size < minsize) ++f;
        for (uint32_t e = f; e < list.size(); ++e) {
          const PrefixPosting<true>& pe = list[e];
          const uint32_t q = pe.pos;
          if (q >= p) break;  // Lists are sorted by position.
          if (stamp[q] != p) {
            stamp[q] = p;
            acc[q] = 0;
            touched.push_back(q);
          }
          if (acc[q] == kDead) continue;
          const auto& y = r.rows[q];
          const auto size_y = static_cast<uint32_t>(y.size());
          const uint32_t alpha =
              RequiredOverlap(size_x, size_y, threshold, measure);
          // Positional filter: best possible total overlap from here on.
          const int64_t ubound =
              1 + std::min<int64_t>(size_x - k - 1, size_y - pe.offset - 1);
          if (acc[q] + ubound < static_cast<int64_t>(alpha)) {
            ++local.positional_pruned;
            acc[q] = kDead;
            continue;
          }
          if (acc[q] == 0) {
            // First encounter: tokens before (k, offset) in either row
            // cannot match the other (see header), so total overlap =
            // 1 + overlap(suffixes).
            ++local.encounters;
            if (use_suffix_filter) {
              const std::span<const uint32_t> xs(x.data() + k + 1,
                                                 size_x - k - 1);
              const std::span<const uint32_t> ys(y.data() + pe.offset + 1,
                                                 size_y - pe.offset - 1);
              const int need_suffix = static_cast<int>(alpha) - 1;
              const int hmax = static_cast<int>(xs.size()) +
                               static_cast<int>(ys.size()) - 2 * need_suffix;
              if (hmax < 0 ||
                  SuffixHammingLowerBound(xs, ys, hmax) > hmax) {
                ++local.suffix_pruned;
                acc[q] = kDead;
                continue;
              }
            }
          }
          acc[q] += 1;
        }
      }

      for (uint32_t q : touched) {
        if (acc[q] == kDead || acc[q] <= 0) continue;
        ++local.verified;
        const auto& y = r.rows[q];
        const double s =
            SetSimilarity(MergeOverlap(x, y), size_x,
                          static_cast<uint32_t>(y.size()), measure);
        if (s >= threshold) out->AddPair(r.orig_id[q], r.orig_id[p], s);
      }
    }
  };
  auto out = ProbeRows<PpjoinStats>(
      pool, n, probe, &PpjoinStats::encounters,
      &PpjoinStats::positional_pruned, &PpjoinStats::suffix_pruned,
      &PpjoinStats::verified);
  if (stats != nullptr) *stats = out.stats;
  SortByIds(&out.pairs);
  return std::move(out.pairs);
}

}  // namespace bayeslsh
