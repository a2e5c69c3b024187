#include "candgen/prefix_filter_join.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "candgen/exact_join_impl.h"
#include "core/measure_table.h"

namespace bayeslsh {

namespace internal {

double SizeFraction(double threshold, Measure measure,
                    const std::string& who) {
  if (measure != Measure::kJaccard && measure != Measure::kBinaryCosine) {
    throw std::invalid_argument(
        who + ": the measure must be kJaccard or kBinaryCosine");
  }
  CheckThreshold(measure, threshold, who);
  return measure == Measure::kJaccard ? threshold : threshold * threshold;
}

BinaryReordered ReorderBinary(const Dataset& data, ThreadPool* pool) {
  BinaryReordered r;
  const uint32_t n = data.num_vectors();
  const uint32_t d = data.num_dims();
  const std::vector<uint32_t> freq = data.DimFrequencies();
  std::vector<uint32_t> dims(d);
  std::iota(dims.begin(), dims.end(), 0u);
  // Rare tokens first: ascending frequency.
  std::sort(dims.begin(), dims.end(), [&](uint32_t a, uint32_t b) {
    return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
  });
  std::vector<uint32_t> rank_of(d);
  for (uint32_t i = 0; i < d; ++i) rank_of[dims[i]] = i;

  r.orig_id.resize(n);
  std::iota(r.orig_id.begin(), r.orig_id.end(), 0u);
  std::sort(r.orig_id.begin(), r.orig_id.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t la = data.RowLength(a), lb = data.RowLength(b);
    return la != lb ? la < lb : a < b;
  });

  r.rows.resize(n);
  ParallelFor(pool, 0, n, [&](uint64_t p) {
    const SparseVectorView v = data.Row(r.orig_id[p]);
    auto& row = r.rows[p];
    row.resize(v.size());
    for (uint32_t k = 0; k < v.size(); ++k) row[k] = rank_of[v.indices[k]];
    std::sort(row.begin(), row.end());
  });
  return r;
}

}  // namespace internal

namespace {

// Both modes: verify == true runs the exact join, false collects candidate
// keys (original ids).
internal::ProbeOutput<PrefixJoinStats> PrefixFilterCore(const Dataset& data,
                                                        double threshold,
                                                        Measure measure,
                                                        bool verify,
                                                        ThreadPool* pool) {
  using namespace internal;
  const double frac = SizeFraction(
      threshold, measure,
      verify ? "PrefixFilterJoin" : "PrefixFilterCandidates");
  const uint32_t n = data.num_vectors();
  const BinaryReordered r = ReorderBinary(data, pool);
  const auto index = BuildPrefixIndex<false>(r, data.num_dims(), frac);

  auto probe = [&](uint32_t p_begin, uint32_t p_end,
                   ProbeOutput<PrefixJoinStats>* out) {
    PrefixJoinStats& st = out->stats;
    std::vector<uint32_t> stamp(n, UINT32_MAX);
    std::vector<uint32_t> touched;
    // Worker-local lazy size-filter front pointers: rows are indexed in
    // increasing size order and probed in increasing minsize order within
    // the shard, so undersized entries cluster at the front, as in the
    // interleaved formulation.
    std::vector<uint32_t> front(data.num_dims(), 0);
    for (uint32_t p = p_begin; p < p_end; ++p) {
      const auto& x = r.rows[p];
      const auto size = static_cast<uint32_t>(x.size());
      const uint32_t px = PrefixLength(size, frac);
      const uint32_t minsize = MinSize(size, frac);

      touched.clear();
      for (uint32_t k = 0; k < px && k < size; ++k) {
        const uint32_t w = x[k];
        const auto& list = index[w];
        uint32_t& f = front[w];
        while (f < list.size() && list[f].size < minsize) {
          ++f;
          ++st.size_skipped;
        }
        for (uint32_t e = f; e < list.size(); ++e) {
          const uint32_t q = list[e].pos;
          if (q >= p) break;  // Lists are sorted by position.
          if (stamp[q] != p) {
            stamp[q] = p;
            touched.push_back(q);
          }
        }
      }
      st.candidates += touched.size();

      if (!verify) {
        for (uint32_t q : touched) out->AddKey(r.orig_id[q], r.orig_id[p]);
        continue;
      }
      for (uint32_t q : touched) {
        ++st.verified;
        const uint32_t o = MergeOverlap(x, r.rows[q]);
        const double s = SetSimilarity(
            o, size, static_cast<uint32_t>(r.rows[q].size()), measure);
        if (s >= threshold) out->AddPair(r.orig_id[q], r.orig_id[p], s);
      }
    }
  };
  return ProbeRows<PrefixJoinStats>(
      pool, n, probe, &PrefixJoinStats::candidates,
      &PrefixJoinStats::size_skipped, &PrefixJoinStats::verified);
}

}  // namespace

std::vector<ScoredPair> PrefixFilterJoin(const Dataset& data,
                                         double threshold, Measure measure,
                                         PrefixJoinStats* stats,
                                         ThreadPool* pool) {
  auto out = PrefixFilterCore(data, threshold, measure, /*verify=*/true, pool);
  if (stats != nullptr) *stats = out.stats;
  SortByIds(&out.pairs);
  return std::move(out.pairs);
}

CandidateList PrefixFilterCandidates(const Dataset& data, double threshold,
                                     Measure measure, PrefixJoinStats* stats,
                                     ThreadPool* pool) {
  auto out =
      PrefixFilterCore(data, threshold, measure, /*verify=*/false, pool);
  if (stats != nullptr) *stats = out.stats;
  return DedupPairKeys(std::move(out.keys), pool);
}

}  // namespace bayeslsh
