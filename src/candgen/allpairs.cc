#include "candgen/allpairs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "candgen/exact_join_impl.h"
#include "core/measure_table.h"

namespace bayeslsh {

namespace {

// One feature of a reordered row.
struct Feature {
  uint32_t rank;  // Dimension rank: 0 = most frequent dimension.
  float weight;
};

// Dataset reorganized for AllPairs processing.
struct Reordered {
  // For each processing position p (0 = largest maxweight), the original
  // row id and its features sorted by increasing rank.
  std::vector<uint32_t> orig_id;
  std::vector<std::vector<Feature>> rows;
  std::vector<float> row_maxweight;   // By processing position.
  std::vector<double> row_l1;         // L1 norm, by processing position.
  std::vector<float> rank_maxweight;  // maxweight of each dim, by rank.
};

Reordered Reorder(const Dataset& data, ThreadPool* pool) {
  Reordered r;
  const uint32_t n = data.num_vectors();
  const uint32_t d = data.num_dims();

  // Rank dimensions by decreasing document frequency.
  const std::vector<uint32_t> freq = data.DimFrequencies();
  std::vector<uint32_t> dims_by_freq(d);
  std::iota(dims_by_freq.begin(), dims_by_freq.end(), 0u);
  std::sort(dims_by_freq.begin(), dims_by_freq.end(),
            [&](uint32_t a, uint32_t b) {
              return freq[a] != freq[b] ? freq[a] > freq[b] : a < b;
            });
  std::vector<uint32_t> rank_of(d);
  for (uint32_t i = 0; i < d; ++i) rank_of[dims_by_freq[i]] = i;

  const std::vector<float> dim_maxw = data.DimMaxWeights();
  r.rank_maxweight.resize(d);
  for (uint32_t i = 0; i < d; ++i) {
    r.rank_maxweight[i] = dim_maxw[dims_by_freq[i]];
  }

  // Order vectors by decreasing maxweight (ties by id for determinism).
  std::vector<float> maxw(n);
  for (uint32_t i = 0; i < n; ++i) maxw[i] = SparseMaxWeight(data.Row(i));
  r.orig_id.resize(n);
  std::iota(r.orig_id.begin(), r.orig_id.end(), 0u);
  std::sort(r.orig_id.begin(), r.orig_id.end(), [&](uint32_t a, uint32_t b) {
    return maxw[a] != maxw[b] ? maxw[a] > maxw[b] : a < b;
  });

  r.rows.resize(n);
  r.row_maxweight.resize(n);
  r.row_l1.resize(n);
  ParallelFor(pool, 0, n, [&](uint64_t p) {
    const uint32_t id = r.orig_id[p];
    const SparseVectorView v = data.Row(id);
    auto& row = r.rows[p];
    row.resize(v.size());
    for (uint32_t k = 0; k < v.size(); ++k) {
      row[k] = {rank_of[v.indices[k]], v.values[k]};
    }
    std::sort(row.begin(), row.end(),
              [](const Feature& a, const Feature& b) {
                return a.rank < b.rank;
              });
    r.row_maxweight[p] = maxw[id];
    double l1 = 0.0;
    for (const Feature& f : row) l1 += std::abs(f.weight);
    r.row_l1[p] = l1;
  });
  return r;
}

// Dot product of a full reordered row with a prefix [0, len) of another.
double PrefixDot(const std::vector<Feature>& x,
                 const std::vector<Feature>& y, uint32_t y_len) {
  double acc = 0.0;
  uint32_t i = 0, j = 0;
  while (i < x.size() && j < y_len) {
    if (x[i].rank == y[j].rank) {
      acc += static_cast<double>(x[i].weight) * y[j].weight;
      ++i;
      ++j;
    } else if (x[i].rank < y[j].rank) {
      ++i;
    } else {
      ++j;
    }
  }
  return acc;
}

struct IndexEntry {
  uint32_t pos;  // Processing position of the indexed vector.
  float weight;
};

// Core of both modes, in two phases so the probe loop can shard over row
// ranges: verify == true runs the exact join, false collects candidate
// keys (original ids). Throws std::invalid_argument unless threshold lies
// in (0, 1].
//
// Phase 1 computes each row's unindexed-prefix split (a per-row property)
// and builds the *full* inverted index over every row's indexed suffix, in
// processing order — so each per-rank posting list is sorted by position.
// Phase 2 probes each row p against the entries with pos < p (an early
// break on the sorted lists), which is exactly the partial index the
// classical interleaved formulation would have had at step p; candidate
// sets, accumulators, and verification results are identical.
internal::ProbeOutput<AllPairsStats> AllPairsCore(const Dataset& data,
                                                  double threshold,
                                                  bool verify,
                                                  ThreadPool* pool) {
  CheckThreshold(Measure::kCosine, threshold,
                 verify ? "AllPairsJoin" : "AllPairsCandidates");
  const uint32_t n = data.num_vectors();
  Reordered r = Reorder(data, pool);

  // --- Phase 1a: per-row prefix split (independent rows). ---
  std::vector<uint32_t> prefix_len(n, 0);
  // L1 norm of the unindexed prefix of each processed vector.
  std::vector<double> prefix_l1(n, 0.0);
  ParallelFor(pool, 0, n, [&](uint64_t p) {
    const std::vector<Feature>& x = r.rows[p];
    const float x_maxw = r.row_maxweight[p];
    double b = 0.0;
    double l1 = 0.0;
    uint32_t k = 0;
    for (; k < x.size(); ++k) {
      b += std::min(r.rank_maxweight[x[k].rank], x_maxw) *
           static_cast<double>(std::abs(x[k].weight));
      if (b >= threshold) break;
      l1 += std::abs(x[k].weight);
    }
    prefix_len[p] = k;
    prefix_l1[p] = l1;
  });

  // --- Phase 1b: full index over indexed suffixes, in position order. ---
  uint64_t indexed_entries = 0;
  std::vector<std::vector<IndexEntry>> index(data.num_dims());
  for (uint32_t p = 0; p < n; ++p) {
    const std::vector<Feature>& x = r.rows[p];
    for (uint32_t k = prefix_len[p]; k < x.size(); ++k) {
      index[x[k].rank].push_back({p, x[k].weight});
      ++indexed_entries;
    }
  }

  // --- Phase 2: probe, sharded over probe rows. ---
  auto probe = [&](uint32_t p_begin, uint32_t p_end,
                   internal::ProbeOutput<AllPairsStats>* out) {
    AllPairsStats& st = out->stats;
    std::vector<double> acc(n, 0.0);
    std::vector<uint32_t> stamp(n, UINT32_MAX);
    std::vector<uint32_t> touched;
    for (uint32_t p = p_begin; p < p_end; ++p) {
      const std::vector<Feature>& x = r.rows[p];
      const float x_maxw = r.row_maxweight[p];
      const double x_l1 = r.row_l1[p];

      // Find-Matches: probe the entries indexed before p.
      touched.clear();
      for (const Feature& f : x) {
        for (const IndexEntry& e : index[f.rank]) {
          if (e.pos >= p) break;  // Lists are sorted by position.
          if (stamp[e.pos] != p) {
            stamp[e.pos] = p;
            acc[e.pos] = 0.0;
            touched.push_back(e.pos);
          }
          acc[e.pos] += static_cast<double>(f.weight) * e.weight;
        }
      }
      st.candidates += touched.size();

      if (!verify) {
        for (uint32_t q : touched) out->AddKey(r.orig_id[q], r.orig_id[p]);
        continue;
      }
      for (uint32_t q : touched) {
        // Upper bound on the unindexed-prefix contribution.
        const double rest =
            std::min(static_cast<double>(x_maxw) * prefix_l1[q],
                     r.row_maxweight[q] * x_l1);
        if (acc[q] + rest < threshold) {
          ++st.ubound_pruned;
          continue;
        }
        ++st.exact_verified;
        const double s = acc[q] + PrefixDot(x, r.rows[q], prefix_len[q]);
        if (s >= threshold) out->AddPair(r.orig_id[q], r.orig_id[p], s);
      }
    }
  };
  auto out = internal::ProbeRows<AllPairsStats>(
      pool, n, probe, &AllPairsStats::candidates,
      &AllPairsStats::ubound_pruned, &AllPairsStats::exact_verified);
  out.stats.indexed_entries = indexed_entries;
  return out;
}

}  // namespace

std::vector<ScoredPair> AllPairsJoin(const Dataset& data, double threshold,
                                     AllPairsStats* stats, ThreadPool* pool) {
  auto out = AllPairsCore(data, threshold, /*verify=*/true, pool);
  if (stats != nullptr) *stats = out.stats;
  SortByIds(&out.pairs);
  return std::move(out.pairs);
}

CandidateList AllPairsCandidates(const Dataset& data, double threshold,
                                 AllPairsStats* stats, ThreadPool* pool) {
  auto out = AllPairsCore(data, threshold, /*verify=*/false, pool);
  if (stats != nullptr) *stats = out.stats;
  return DedupPairKeys(std::move(out.keys), pool);
}

}  // namespace bayeslsh
