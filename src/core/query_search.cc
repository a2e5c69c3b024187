#include "core/query_search.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "candgen/banding_index.h"
#include "common/bit_ops.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "core/bbit_posterior.h"
#include "core/cosine_posterior.h"
#include "core/index_io.h"
#include "core/inference_cache.h"
#include "core/jaccard_posterior.h"
#include "core/measure_table.h"
#include "euclidean/distance_posterior.h"
#include "lsh/bbit_minwise.h"

namespace bayeslsh {

namespace {

// Below this many candidates per worker a query is verified sequentially.
constexpr uint64_t kMinQueryCandidatesPerShard = 16;

// A mutex-guarded pool of inference caches. Every serving path leases the
// caches it needs for one call (one for a serial query, one per worker for
// a sharded query or a batch) and returns them afterwards, so concurrent
// Query()/QueryBatch() callers never share a cache — the memoized state
// still persists across calls through reuse of returned caches. Leasing
// costs two uncontended lock acquisitions per call, never one per
// estimate.
template <typename Model>
class CachePool {
 public:
  void Configure(const Model* model, uint32_t hashes_per_round,
                 uint32_t max_hashes, double epsilon, double delta,
                 double gamma) {
    model_ = model;
    k_ = hashes_per_round;
    budget_ = max_hashes;
    epsilon_ = epsilon;
    delta_ = delta;
    gamma_ = gamma;
  }

  std::vector<InferenceCache<Model>*> Acquire(uint32_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<InferenceCache<Model>*> out;
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!free_.empty()) {
        out.push_back(free_.back());
        free_.pop_back();
      } else {
        owned_.push_back(std::make_unique<InferenceCache<Model>>(
            model_, k_, budget_, epsilon_, delta_, gamma_));
        out.push_back(owned_.back().get());
      }
    }
    return out;
  }

  void Release(const std::vector<InferenceCache<Model>*>& caches) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.insert(free_.end(), caches.begin(), caches.end());
  }

 private:
  const Model* model_ = nullptr;
  uint32_t k_ = 0;
  uint32_t budget_ = 0;
  double epsilon_ = 0.0;
  double delta_ = 0.0;
  double gamma_ = 0.0;

  std::mutex mu_;
  std::vector<std::unique_ptr<InferenceCache<Model>>> owned_;
  std::vector<InferenceCache<Model>*> free_;
};

// RAII lease of n caches from a CachePool.
template <typename Model>
class CacheLease {
 public:
  CacheLease(CachePool<Model>* pool, uint32_t n)
      : pool_(pool), caches_(pool->Acquire(n)) {}
  ~CacheLease() { pool_->Release(caches_); }

  CacheLease(const CacheLease&) = delete;
  CacheLease& operator=(const CacheLease&) = delete;

  InferenceCache<Model>& operator[](uint32_t i) const { return *caches_[i]; }

 private:
  CachePool<Model>* pool_;
  std::vector<InferenceCache<Model>*> caches_;
};

void SortMatches(std::vector<QueryMatch>* out) {
  std::sort(out->begin(), out->end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
            });
}

void MergeStats(const QueryStats& from, QueryStats* into) {
  if (into != nullptr) into->MergeFrom(from);
}

}  // namespace

struct QuerySearcher::Impl {
  const Dataset* data;
  QuerySearchConfig cfg;
  uint32_t k = 0;  // Hashes per band.
  uint32_t l = 0;  // Bands.
  uint32_t lite_h = 0;

  // Accept threshold on the score axis: cfg.threshold for similarity
  // measures, -radius for Euclidean (scores are negated distances —
  // sim/similarity.h).
  double score_threshold = 0.0;

  // The measure's hash families and exact scorer (core/measure_table.h).
  // The generation stream feeds the banding build, query probes, and
  // incremental inserts; the verification stream's hasher lives inside
  // the engaged store (bits->hasher() / ints->hasher()), and its minwise
  // hasher backs the b-bit query packing path. For KLSH both streams hash
  // against the SAME anchors (see QuerySearchConfig::klsh_anchors).
  std::optional<MeasureFamily> family;
  HashStream gen;
  HashStream ver;

  // Collection stores (exactly one engaged, per measure/bbit). The stores
  // are the explicitly `mutable`, internally synchronized serving state
  // behind Query() const: all growth reachable from a const searcher goes
  // through the store's mutex-guarded MatchAgainstQuery / GrowthLock
  // extension points (or is absent entirely once frozen) — see
  // lsh/signature_store.h.
  mutable std::optional<BitSignatureStore> bits;
  mutable std::optional<IntSignatureStore> ints;
  mutable std::optional<BbitSignatureStore> bbits;
  // The engaged one, through the lifecycle contract all three share.
  SignatureStoreBase* store = nullptr;

  // Posterior models (threshold-bound, hence per-searcher) and the pools
  // their per-call inference caches are leased from.
  std::optional<CosinePosterior> cos_model;
  std::optional<JaccardPosterior> jac_model;
  std::optional<BbitMinwisePosterior> bbit_model;
  std::optional<EuclideanPosterior> euc_model;
  mutable CachePool<CosinePosterior> cos_pool;
  mutable CachePool<JaccardPosterior> jac_pool;
  mutable CachePool<BbitMinwisePosterior> bbit_pool;
  mutable CachePool<EuclideanPosterior> euc_pool;

  // Worker pool (num_threads > 1 only). pool_mu_ grants exclusive use of
  // it: QueryBatch holds it for the batch, a single Query() try-locks it
  // for within-query sharding and verifies sequentially when it is busy.
  std::unique_ptr<ThreadPool> pool;
  mutable std::mutex pool_mu_;

  // Banding buckets: owned for a fresh build, borrowed from the persistent
  // index for a warm start (the index outlives the searcher).
  BandingIndex banding_storage;
  const BandingIndex* banding = nullptr;

  // Resolved BayesLSH params.
  BayesLshParams bayes;

  // Per-candidate hash budget of the serving paths.
  uint32_t ServeBudget() const {
    return cfg.exact_verification ? lite_h : bayes.max_hashes;
  }

  // Resolves parameters, models, cache pools, hashers, empty stores and
  // the worker pool — everything except the banding buckets, which the two
  // constructors provide differently.
  void Init(const Dataset* d, const QuerySearchConfig& config);

  // Candidate ids from the buckets the query falls into (sorted, unique).
  std::vector<uint32_t> CollectCandidates(const SparseVectorView& q) const;

  // Exact score of collection row vs the query on the measure's score axis
  // (negated distance for Euclidean; compare against score_threshold). A
  // cosine query must be pre-normalized.
  double ExactSim(uint32_t row, const SparseVectorView& q) const {
    return family->Score(data->Row(row), q);
  }

  // One query's hash stream over the engaged bit store: chunk index -> 64
  // packed bits, from the generation or verification family. For KLSH the
  // anchor kernel row is computed once here and reused by every chunk (the
  // chunk hasher's external-vector fallback would redo the p kernel
  // evaluations per chunk).
  std::function<uint64_t(uint32_t)> QueryBitChunks(const SparseVectorView& q,
                                                   bool generation) const {
    const HashStream& stream = generation ? gen : ver;
    if (stream.klsh != nullptr) {
      const KlshHasher* h = stream.klsh.get();
      auto krow = std::make_shared<const std::vector<double>>(
          h->AnchorKernelRow(q));
      return [h, krow = std::move(krow)](uint32_t chunk) {
        return h->HashChunk(*krow, chunk);
      };
    }
    const WordChunkHasher* h = stream.bits.get();
    return [h, q](uint32_t chunk) {
      return h->HashChunk(q, kNoStoreRow, chunk);
    };
  }

  // Int-store counterpart: writes the family's chunk_ints() values per
  // chunk (16 minwise/ICWS, 64 p-stable).
  std::function<void(uint32_t, uint32_t*)> QueryIntChunks(
      const SparseVectorView& q, bool generation) const {
    const IntChunkHasher* h = generation ? gen.ints.get() : ver.ints.get();
    return [h, q](uint32_t chunk, uint32_t* out) {
      h->HashChunk(q, kNoStoreRow, chunk, out);
    };
  }

  // --- verification of one candidate against the current query ---
  // Returns true with the similarity in *sim if the candidate is kept.
  // `cache` is the caller's leased inference cache for the active measure.
  template <typename Cache, typename EnsureQuery, typename MatchRange>
  bool VerifyCandidate(uint32_t row, const SparseVectorView& q,
                       const EnsureQuery& ensure_query,
                       const MatchRange& match_range, Cache& cache,
                       QueryStats* stats, double* sim) const {
    const uint32_t kk = bayes.hashes_per_round;
    const uint32_t budget = ServeBudget();
    uint32_t m = 0, n = 0;
    while (n < budget) {
      ensure_query(n + kk);
      m += match_range(row, n, n + kk);
      n += kk;
      if (stats != nullptr) stats->hashes_compared += kk;
      if (m < cache.MinMatches(n)) {
        if (stats != nullptr) ++stats->pruned;
        return false;
      }
      if (!cfg.exact_verification) {
        const auto er = cache.EstimateAt(m, n);
        if (er.concentrated) {
          *sim = er.estimate;
          return true;
        }
      }
    }
    if (cfg.exact_verification) {
      const double s = ExactSim(row, q);
      if (s >= score_threshold) {
        *sim = s;
        return true;
      }
      return false;
    }
    // Estimation mode, budget exhausted: forced accept (cf. Algorithm 1).
    // (Unreachable for Euclidean — exact verification is forced — but the
    // dispatch stays total: the MAP distance estimate, negated.)
    const int mi = static_cast<int>(m), ni = static_cast<int>(n);
    if (cos_model.has_value()) {
      *sim = cos_model->Estimate(mi, ni);
    } else if (bbit_model.has_value()) {
      *sim = bbit_model->Estimate(mi, ni);
    } else if (euc_model.has_value()) {
      *sim = -euc_model->Estimate(mi, ni);
    } else {
      *sim = jac_model->Estimate(mi, ni);
    }
    return true;
  }

  // Default block width for batched posterior evaluation (see
  // QuerySearchConfig::posterior_batch).
  static constexpr uint32_t kDefaultPosteriorBatch = 8;

  // --- blocked verification (posterior_batch != 1) ---
  // Drives a block of candidates round-by-round, pushing every survivor's
  // posterior update through one InferenceCache::EstimateAtBatch call per
  // round. Each candidate's (m, n) trajectory — and therefore its prune /
  // accept decision, similarity, and stats contribution — is exactly the
  // one VerifyCandidate computes; only the cache-call grouping changes
  // (the memo is order-invariant, so hit/miss tallies also agree).
  // Accepted candidates are appended in candidate order, so the output is
  // identical to the serial loop even before the caller's similarity sort
  // (tests/batched_posterior_test.cc).
  template <typename Cache, typename EnsureQuery, typename MatchRange>
  void VerifyBlocked(const SparseVectorView& q,
                     std::span<const uint32_t> candidates,
                     const EnsureQuery& ensure_query,
                     const MatchRange& match_range, Cache& cache,
                     QueryStats* stats, std::vector<QueryMatch>* out) const {
    const uint32_t kk = bayes.hashes_per_round;
    const uint32_t budget = ServeBudget();
    const uint32_t block = cfg.posterior_batch == 0 ? kDefaultPosteriorBatch
                                                    : cfg.posterior_batch;
    struct Slot {
      uint32_t row = 0;
      uint32_t m = 0;
      double sim = 0.0;
      bool done = false;
      bool accepted = false;
    };
    std::vector<Slot> slots;
    std::vector<uint32_t> ms;   // Survivor match counts, gathered per round.
    std::vector<uint32_t> idx;  // Slot index behind each ms entry.
    std::vector<typename Cache::EstimateResult> res;
    for (size_t base = 0; base < candidates.size(); base += block) {
      const auto bsz = static_cast<uint32_t>(
          std::min<size_t>(block, candidates.size() - base));
      slots.assign(bsz, Slot{});
      for (uint32_t i = 0; i < bsz; ++i) slots[i].row = candidates[base + i];
      uint32_t active = bsz;
      uint32_t n = 0;
      while (active > 0 && n < budget) {
        ensure_query(n + kk);
        for (auto& s : slots) {
          if (s.done) continue;
          s.m += match_range(s.row, n, n + kk);
          if (stats != nullptr) stats->hashes_compared += kk;
        }
        n += kk;
        const uint32_t min_m = cache.MinMatches(n);
        ms.clear();
        idx.clear();
        for (uint32_t i = 0; i < bsz; ++i) {
          auto& s = slots[i];
          if (s.done) continue;
          if (s.m < min_m) {
            s.done = true;
            --active;
            if (stats != nullptr) ++stats->pruned;
            continue;
          }
          if (!cfg.exact_verification) {
            ms.push_back(s.m);
            idx.push_back(i);
          }
        }
        if (!ms.empty()) {
          res.resize(ms.size());
          cache.EstimateAtBatch(ms.data(), static_cast<uint32_t>(ms.size()),
                                n, res.data());
          for (size_t j = 0; j < ms.size(); ++j) {
            if (!res[j].concentrated) continue;
            auto& s = slots[idx[j]];
            s.done = true;
            s.accepted = true;
            s.sim = res[j].estimate;
            --active;
          }
        }
      }
      // Budget exhausted: the still-undecided slots all saw n hashes.
      for (auto& s : slots) {
        if (s.done) continue;
        if (cfg.exact_verification) {
          const double sim = ExactSim(s.row, q);
          if (sim >= score_threshold) {
            s.accepted = true;
            s.sim = sim;
          }
          continue;
        }
        // Forced accept (cf. Algorithm 1), as in VerifyCandidate.
        const int mi = static_cast<int>(s.m), ni = static_cast<int>(n);
        if (cos_model.has_value()) {
          s.sim = cos_model->Estimate(mi, ni);
        } else if (bbit_model.has_value()) {
          s.sim = bbit_model->Estimate(mi, ni);
        } else if (euc_model.has_value()) {
          s.sim = -euc_model->Estimate(mi, ni);
        } else {
          s.sim = jac_model->Estimate(mi, ni);
        }
        s.accepted = true;
      }
      for (const auto& s : slots) {
        if (s.accepted) out->push_back({s.row, s.sim});
      }
    }
  }

  // --- serial verification paths (one per store kind) ---
  // Used by the serial Query() fallback and by QueryBatch workers. Safe
  // for concurrent callers: every row access goes through the store's
  // MatchAgainstQuery (lock-free once frozen). posterior_batch != 1 routes
  // through VerifyBlocked above; 1 keeps the per-candidate loop.
  // Bit-store serial verification (SRP cosine, binary cosine, KLSH — all
  // through the cosine posterior).
  void VerifyBitsSerial(const SparseVectorView& q,
                        std::span<const uint32_t> candidates,
                        InferenceCache<CosinePosterior>& cache,
                        QueryStats* stats,
                        std::vector<QueryMatch>* out) const {
    const auto hash_chunk = QueryBitChunks(q, /*generation=*/false);
    std::vector<uint64_t> qbits;
    auto hash_query_to = [&](uint32_t n_bits) {
      while (qbits.size() < WordsForBits(n_bits)) {
        qbits.push_back(hash_chunk(static_cast<uint32_t>(qbits.size())));
      }
    };
    auto match_range = [&](uint32_t row, uint32_t from, uint32_t to) {
      return bits->MatchAgainstQuery(row, qbits.data(), from, to);
    };
    if (cfg.posterior_batch != 1) {
      VerifyBlocked(q, candidates, hash_query_to, match_range, cache, stats,
                    out);
      return;
    }
    for (uint32_t row : candidates) {
      double sim = 0.0;
      if (VerifyCandidate(row, q, hash_query_to, match_range, cache, stats,
                          &sim)) {
        out->push_back({row, sim});
      }
    }
  }

  // Int-store serial verification (minwise Jaccard, ICWS weighted Jaccard,
  // p-stable Euclidean). Cache is the leased inference cache of whichever
  // posterior model the measure verifies through.
  template <typename Cache>
  void VerifyIntsSerial(const SparseVectorView& q,
                        std::span<const uint32_t> candidates, Cache& cache,
                        QueryStats* stats,
                        std::vector<QueryMatch>* out) const {
    const uint32_t chunk_ints = ints->hasher().chunk_ints();
    const auto hash_chunk = QueryIntChunks(q, /*generation=*/false);
    std::vector<uint32_t> qints;
    auto hash_query_to = [&](uint32_t n_hashes) {
      while (qints.size() < n_hashes) {
        const auto chunk = static_cast<uint32_t>(qints.size()) / chunk_ints;
        qints.resize(qints.size() + chunk_ints);
        hash_chunk(chunk, qints.data() + chunk * chunk_ints);
      }
    };
    auto match_range = [&](uint32_t row, uint32_t from, uint32_t to) {
      return ints->MatchAgainstQuery(row, qints.data(), from, to);
    };
    if (cfg.posterior_batch != 1) {
      VerifyBlocked(q, candidates, hash_query_to, match_range, cache, stats,
                    out);
      return;
    }
    for (uint32_t row : candidates) {
      double sim = 0.0;
      if (VerifyCandidate(row, q, hash_query_to, match_range, cache, stats,
                          &sim)) {
        out->push_back({row, sim});
      }
    }
  }

  // b-bit minwise verification: hash the query with the full-width minwise
  // hasher, pack the low b bits into the store's group layout, and compare
  // word-parallel against the collection rows.
  void VerifyBbitSerial(const SparseVectorView& q,
                        std::span<const uint32_t> candidates,
                        InferenceCache<BbitMinwisePosterior>& cache,
                        QueryStats* stats,
                        std::vector<QueryMatch>* out) const {
    const uint32_t b = bbits->bits_per_hash();
    const uint32_t values_per_word = 64 / b;
    std::vector<uint32_t> qints;
    std::vector<uint64_t> qwords;
    auto hash_query_to = [&](uint32_t n_hashes) {
      const uint32_t have = static_cast<uint32_t>(qints.size());
      if (n_hashes <= have) return;
      const uint32_t want = (n_hashes + kMinhashChunkInts - 1) /
                            kMinhashChunkInts * kMinhashChunkInts;
      qints.resize(want);
      for (uint32_t c = have / kMinhashChunkInts; c < want / kMinhashChunkInts;
           ++c) {
        ver.minwise->HashChunk(q, c, qints.data() + c * kMinhashChunkInts);
      }
      qwords.resize((want + values_per_word - 1) / values_per_word, 0);
      PackBbitValues(qints.data() + have, have, want, b, qwords.data());
    };
    auto match_range = [&](uint32_t row, uint32_t from, uint32_t to) {
      return bbits->MatchAgainstQuery(row, qwords.data(), from, to);
    };
    if (cfg.posterior_batch != 1) {
      VerifyBlocked(q, candidates, hash_query_to, match_range, cache, stats,
                    out);
      return;
    }
    for (uint32_t row : candidates) {
      double sim = 0.0;
      if (VerifyCandidate(row, q, hash_query_to, match_range, cache, stats,
                          &sim)) {
        out->push_back({row, sim});
      }
    }
  }

  // --- within-query sharded paths (caller must hold pool_mu_) ---
  // The query signature is hashed to the full budget up front (shared
  // read-only), candidate rows are prefetched to one chunk, and each
  // worker runs the same per-candidate loop with its leased inference
  // cache and a private overflow store. The caller's final similarity
  // sort makes the output independent of the thread count. On a frozen
  // store the whole path is read-only: the growth lock is a no-op, the
  // prefetch is skipped, and overflow shards never materialize rows.
  void VerifyBitsSharded(const SparseVectorView& q,
                         std::span<const uint32_t> candidates,
                         const CacheLease<CosinePosterior>& caches,
                         QueryStats* stats,
                         std::vector<QueryMatch>* out) const {
    ThreadPool* p = pool.get();
    const uint32_t kk = bayes.hashes_per_round;
    const auto hash_chunk = QueryBitChunks(q, /*generation=*/false);
    std::vector<uint64_t> qbits(WordsForBits(ServeBudget()));
    for (uint32_t c = 0; c < qbits.size(); ++c) {
      qbits[c] = hash_chunk(c);
    }

    auto growth_lock = bits->GrowthLock();
    if (!bits->frozen()) {
      const uint32_t horizon =
          (kk + kBitsPerWord - 1) / kBitsPerWord * kBitsPerWord;
      bits->AddBitsComputed(ParallelReduce(
          p, candidates.size(), uint64_t{0},
          [&](uint32_t, uint64_t b, uint64_t e) {
            uint64_t work = 0;
            for (uint64_t i = b; i < e; ++i) {
              work += bits->EnsureBitsUncounted(candidates[i], horizon);
            }
            return work;
          },
          [](uint64_t x, uint64_t y) { return x + y; }));
    }

    struct Shard {
      std::vector<QueryMatch> out;
      QueryStats stats;
      std::optional<BitOverflowShard> overflow;
    };
    std::vector<Shard> shards(p->num_threads());
    p->RunShards(candidates.size(), [&](uint32_t s, uint64_t begin,
                                        uint64_t end) {
      Shard& sh = shards[s];
      BitOverflowShard& overflow = sh.overflow.emplace(&*bits);
      auto no_ensure = [](uint32_t) {};
      auto match_range = [&](uint32_t row, uint32_t from, uint32_t to) {
        return MatchingBits(qbits.data(), overflow.RowWords(row, to), from,
                            to);
      };
      for (uint64_t i = begin; i < end; ++i) {
        double sim = 0.0;
        if (VerifyCandidate(candidates[i], q, no_ensure, match_range,
                            caches[s], &sh.stats, &sim)) {
          sh.out.push_back({candidates[i], sim});
        }
      }
    });
    uint64_t overflow_total = 0;
    for (Shard& sh : shards) {
      out->insert(out->end(), sh.out.begin(), sh.out.end());
      if (stats != nullptr) {
        stats->pruned += sh.stats.pruned;
        stats->hashes_compared += sh.stats.hashes_compared;
      }
      if (sh.overflow.has_value()) {
        overflow_total += sh.overflow->computed();
        // Fold beyond-horizon signatures back into the persistent store
        // so later queries reuse them (the hashing is already counted).
        sh.overflow->MergeInto(&*bits);
      }
    }
    bits->AddBitsComputed(overflow_total);
  }

  template <typename Model>
  void VerifyIntsSharded(const SparseVectorView& q,
                         std::span<const uint32_t> candidates,
                         const CacheLease<Model>& caches, QueryStats* stats,
                         std::vector<QueryMatch>* out) const {
    ThreadPool* p = pool.get();
    const uint32_t kk = bayes.hashes_per_round;
    const uint32_t chunk_ints = ints->hasher().chunk_ints();
    const auto hash_chunk = QueryIntChunks(q, /*generation=*/false);
    const uint32_t chunks = (ServeBudget() + chunk_ints - 1) / chunk_ints;
    std::vector<uint32_t> qints(chunks * chunk_ints);
    for (uint32_t c = 0; c < chunks; ++c) {
      hash_chunk(c, qints.data() + c * chunk_ints);
    }

    auto growth_lock = ints->GrowthLock();
    if (!ints->frozen()) {
      const uint32_t horizon =
          (kk + chunk_ints - 1) / chunk_ints * chunk_ints;
      ints->AddHashesComputed(ParallelReduce(
          p, candidates.size(), uint64_t{0},
          [&](uint32_t, uint64_t b, uint64_t e) {
            uint64_t work = 0;
            for (uint64_t i = b; i < e; ++i) {
              work += ints->EnsureHashesUncounted(candidates[i], horizon);
            }
            return work;
          },
          [](uint64_t x, uint64_t y) { return x + y; }));
    }

    struct Shard {
      std::vector<QueryMatch> out;
      QueryStats stats;
      std::optional<IntOverflowShard> overflow;
    };
    std::vector<Shard> shards(p->num_threads());
    p->RunShards(candidates.size(), [&](uint32_t s, uint64_t begin,
                                        uint64_t end) {
      Shard& sh = shards[s];
      IntOverflowShard& overflow = sh.overflow.emplace(&*ints);
      auto no_ensure = [](uint32_t) {};
      auto match_range = [&](uint32_t row, uint32_t from, uint32_t to) {
        const uint32_t* h = overflow.RowHashes(row, to);
        uint32_t m = 0;
        for (uint32_t i = from; i < to; ++i) m += (h[i] == qints[i]);
        return m;
      };
      for (uint64_t i = begin; i < end; ++i) {
        double sim = 0.0;
        if (VerifyCandidate(candidates[i], q, no_ensure, match_range,
                            caches[s], &sh.stats, &sim)) {
          sh.out.push_back({candidates[i], sim});
        }
      }
    });
    uint64_t overflow_total = 0;
    for (Shard& sh : shards) {
      out->insert(out->end(), sh.out.begin(), sh.out.end());
      if (stats != nullptr) {
        stats->pruned += sh.stats.pruned;
        stats->hashes_compared += sh.stats.hashes_compared;
      }
      if (sh.overflow.has_value()) {
        overflow_total += sh.overflow->computed();
        // Fold beyond-horizon signatures back into the persistent store
        // so later queries reuse them (the hashing is already counted).
        sh.overflow->MergeInto(&*ints);
      }
    }
    ints->AddHashesComputed(overflow_total);
  }
};

void QuerySearcher::Impl::Init(const Dataset* d,
                               const QuerySearchConfig& config) {
  assert(d != nullptr);
  data = d;
  cfg = config;
  const MeasureFamily& fam = family.emplace(
      MeasureSpec{.measure = config.measure,
                  .threshold = config.threshold,
                  .seed = config.seed,
                  .bbit = config.bbit,
                  .kernel = config.kernel,
                  .klsh = config.klsh,
                  .klsh_anchors = config.klsh_anchors},
      d, "QuerySearchConfig");
  const MeasureTraits& traits = fam.traits();

  // A distance measure always verifies survivors exactly: the posterior
  // estimates collision rates, not distances, and the contract is "rows
  // within the radius" (query_search.h). Forced before ServeBudget() is
  // read so the cache budget is the lite budget.
  if (traits.distance) cfg.exact_verification = true;
  score_threshold = fam.score_threshold();
  bayes = ResolveBayesParams(config.measure, config.bayes);
  lite_h = config.lite_max_hashes != 0 ? config.lite_max_hashes
                                       : traits.lite_hashes;
  lite_h -= lite_h % bayes.hashes_per_round;
  if (lite_h == 0) lite_h = bayes.hashes_per_round;

  // Banding shape (the warm-start constructor overrides it with the
  // index's recorded shape).
  const BandingShape shape =
      ResolveBandingShape(config.measure, config.threshold, config.banding);
  k = shape.hashes_per_band;
  l = shape.num_bands;

  const uint32_t num_threads = ResolveNumThreads(config.num_threads);
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  const uint32_t cache_budget = ServeBudget();

  // Hash families, the matching empty store, the posterior model and the
  // pool its inference caches are leased from.
  gen = fam.Generation();
  ver = fam.Verification();
  if (ver.bits != nullptr) {
    // SRP cosine, binary cosine and KLSH bits all obey the angle law.
    store = &bits.emplace(d, ver.bits);
    cos_model.emplace(config.threshold);
    cos_pool.Configure(&*cos_model, bayes.hashes_per_round, cache_budget,
                       bayes.epsilon, bayes.delta, bayes.gamma);
  } else if (config.bbit != 0) {
    store = &bbits.emplace(d, *ver.minwise, config.bbit);
    bbit_model.emplace(config.threshold, config.bbit);
    bbit_pool.Configure(&*bbit_model, bayes.hashes_per_round, cache_budget,
                        bayes.epsilon, bayes.delta, bayes.gamma);
  } else if (traits.distance) {
    store = &ints.emplace(d, ver.ints);
    euc_model.emplace(EuclideanPosterior::MakeForRadius(
        config.threshold, fam.pstable_width()));
    euc_pool.Configure(&*euc_model, bayes.hashes_per_round, cache_budget,
                       bayes.epsilon, bayes.delta, bayes.gamma);
  } else {
    // Minwise and ICWS collisions both obey Pr[h(x) = h(y)] = J, so the
    // Jaccard posterior (uniform prior in query mode) verifies both.
    store = &ints.emplace(d, ver.ints);
    jac_model.emplace(config.threshold);
    jac_pool.Configure(&*jac_model, bayes.hashes_per_round, cache_budget,
                       bayes.epsilon, bayes.delta, bayes.gamma);
  }
}

std::vector<uint32_t> QuerySearcher::Impl::CollectCandidates(
    const SparseVectorView& q) const {
  std::vector<uint32_t> candidates;
  if (gen.bits != nullptr) {
    const auto hash_chunk = QueryBitChunks(q, /*generation=*/true);
    std::vector<uint64_t> qwords(WordsForBits(l * k));
    for (uint32_t c = 0; c < qwords.size(); ++c) {
      qwords[c] = hash_chunk(c);
    }
    for (uint32_t band = 0; band < l; ++band) {
      const auto* bucket = banding->Find(
          band, BandingIndex::CosineKey(
                    qwords.data(), static_cast<uint32_t>(qwords.size()), band,
                    k));
      if (bucket == nullptr) continue;
      candidates.insert(candidates.end(), bucket->begin(), bucket->end());
    }
  } else {
    const uint32_t chunk_ints = gen.ints->chunk_ints();
    const auto hash_chunk = QueryIntChunks(q, /*generation=*/true);
    const uint32_t chunks = (l * k + chunk_ints - 1) / chunk_ints;
    std::vector<uint32_t> qints(chunks * chunk_ints);
    for (uint32_t c = 0; c < chunks; ++c) {
      hash_chunk(c, qints.data() + c * chunk_ints);
    }
    for (uint32_t band = 0; band < l; ++band) {
      const auto* bucket = banding->Find(
          band, BandingIndex::JaccardKey(qints.data(), band, k));
      if (bucket == nullptr) continue;
      candidates.insert(candidates.end(), bucket->begin(), bucket->end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

QuerySearcher::QuerySearcher(const Dataset* data,
                             const QuerySearchConfig& config)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.Init(data, config);

  // Build the banding buckets over the collection with the generation-seed
  // hash family (a separate, throwaway store: banding hashes are not
  // reused for verification; see DESIGN.md §6). Deterministic for any
  // thread count — see candgen/banding_index.h.
  if (im.gen.bits != nullptr) {
    im.banding_storage = BandingIndex::BuildBits(*data, im.gen.bits, im.k,
                                                 im.l, im.pool.get());
  } else {
    im.banding_storage = BandingIndex::BuildInts(*data, im.gen.ints, im.k,
                                                 im.l, im.pool.get());
  }
  im.banding = &im.banding_storage;
  num_bands_ = im.l;
  hashes_per_band_ = im.k;
}

QuerySearcher::QuerySearcher(const PersistentIndex* index,
                             const QuerySearchConfig& config)
    : impl_(std::make_unique<Impl>()) {
  assert(index != nullptr);
  if (config.measure != index->measure()) {
    throw IndexError("QuerySearcher: config measure does not match the "
                     "index");
  }
  if (config.seed != index->seed()) {
    throw IndexError("QuerySearcher: config seed does not match the index "
                     "(loaded signatures would disagree with query hashes)");
  }
  if (config.bbit != index->bbit()) {
    throw IndexError("QuerySearcher: config bbit width does not match the "
                     "index");
  }
  if ((config.banding.hashes_per_band != 0 &&
       config.banding.hashes_per_band != index->hashes_per_band()) ||
      (config.banding.num_bands != 0 &&
       config.banding.num_bands != index->num_bands())) {
    throw IndexError("QuerySearcher: explicit banding shape does not match "
                     "the index");
  }

  Impl& im = *impl_;
  // The KLSH hash family is defined by the anchors the index was built
  // with — adopt the index's kernel spec, family shape and anchor rows so
  // warm-served signatures agree bit-for-bit with the loaded store.
  QuerySearchConfig cfg2 = config;
  cfg2.kernel = index->kernel_spec();
  cfg2.klsh = index->klsh_params();
  cfg2.klsh_anchors = index->klsh_anchors();
  im.Init(&index->data(), cfg2);
  // Serve from the index's recorded shape and buckets; adopt its
  // prefetched verification signatures (copies — many searchers can share
  // one loaded index).
  im.k = index->hashes_per_band();
  im.l = index->num_bands();
  im.banding = &index->banding();
  if (im.bits.has_value() && index->bit_store() != nullptr) {
    im.bits->CopyRowsFrom(*index->bit_store());
  } else if (im.ints.has_value() && index->int_store() != nullptr) {
    im.ints->CopyRowsFrom(*index->int_store());
  } else if (im.bbits.has_value() && index->bbit_store() != nullptr) {
    im.bbits->CopyRowsFrom(*index->bbit_store());
  }
  num_bands_ = im.l;
  hashes_per_band_ = im.k;
}

QuerySearcher::~QuerySearcher() = default;

void QuerySearcher::Freeze() {
  Impl& im = *impl_;
  SignatureStoreBase* store = im.store;
  if (store->frozen()) return;
  const uint32_t budget = im.ServeBudget();
  store->AddComputed(ParallelWorkSum(
      im.pool.get(), store->num_rows(), [&](uint64_t row) {
        return store->EnsureRowUncounted(static_cast<uint32_t>(row), budget);
      }));
  store->Freeze();
}

void QuerySearcher::SyncAppendedRows() {
  Impl& im = *impl_;
  if (im.banding != &im.banding_storage) {
    throw std::logic_error(
        "QuerySearcher: cannot grow a searcher serving a borrowed "
        "(persistent-index) banding table");
  }
  if (frozen()) {
    throw std::logic_error("QuerySearcher: cannot grow a frozen searcher");
  }
  const uint32_t n_data = im.data->num_vectors();
  assert(im.store->num_rows() <= n_data);
  for (uint32_t row = im.store->num_rows(); row < n_data; ++row) {
    im.store->AppendRow();
    if (im.gen.bits != nullptr) {
      im.banding_storage.InsertBits(im.data->Row(row), row, *im.gen.bits);
    } else {
      im.banding_storage.InsertInts(im.data->Row(row), row, *im.gen.ints);
    }
  }
}

bool QuerySearcher::frozen() const { return impl_->store->frozen(); }

uint64_t QuerySearcher::bits_computed() const {
  const Impl& im = *impl_;
  return im.bits.has_value() ? im.bits->bits_computed() : 0;
}

uint64_t QuerySearcher::hashes_computed() const {
  const Impl& im = *impl_;
  if (im.ints.has_value()) return im.ints->hashes_computed();
  if (im.bbits.has_value()) return im.bbits->hashes_computed();
  return 0;
}

std::vector<QueryMatch> QuerySearcher::Query(const SparseVectorView& q,
                                             QueryStats* stats) const {
  Impl& im = *impl_;
  // threads_used starts at the serial answer; only the sharded branch
  // below overwrites it — so a busy-pool try-lock fallback reports the
  // truth, not the configured thread count.
  if (stats != nullptr) *stats = QueryStats{.threads_used = 1};
  std::vector<QueryMatch> out;
  if (q.empty()) return out;

  // 1. Collect candidates from the buckets the query falls into.
  const std::vector<uint32_t> candidates = im.CollectCandidates(q);
  if (stats != nullptr) stats->candidates = candidates.size();

  // 2. Verify each candidate with incremental Bayesian pruning, using
  //    verification-seed hashes (independent of the banding hashes).
  //
  // With a pool, enough candidates, and no batch in flight, verification
  // shards over the candidate list. b-bit verification always runs the
  // serial loop (no overflow-shard protocol). Every path produces
  // identical results, so a busy pool degrades to sequential instead of
  // blocking.
  ThreadPool* pool = im.pool.get();
  const bool want_sharded =
      pool != nullptr && !im.bbits.has_value() &&
      candidates.size() >= kMinQueryCandidatesPerShard * pool->num_threads();
  std::unique_lock<std::mutex> pool_lock(im.pool_mu_, std::defer_lock);
  if (want_sharded && pool_lock.try_lock()) {
    if (stats != nullptr) stats->threads_used = pool->num_threads();
    if (im.bits.has_value()) {
      const CacheLease<CosinePosterior> caches(&im.cos_pool,
                                               pool->num_threads());
      im.VerifyBitsSharded(q, candidates, caches, stats, &out);
    } else if (im.euc_model.has_value()) {
      const CacheLease<EuclideanPosterior> caches(&im.euc_pool,
                                                  pool->num_threads());
      im.VerifyIntsSharded(q, candidates, caches, stats, &out);
    } else {
      const CacheLease<JaccardPosterior> caches(&im.jac_pool,
                                                pool->num_threads());
      im.VerifyIntsSharded(q, candidates, caches, stats, &out);
    }
  } else if (im.bits.has_value()) {
    const CacheLease<CosinePosterior> cache(&im.cos_pool, 1);
    im.VerifyBitsSerial(q, candidates, cache[0], stats, &out);
  } else if (im.bbits.has_value()) {
    const CacheLease<BbitMinwisePosterior> cache(&im.bbit_pool, 1);
    im.VerifyBbitSerial(q, candidates, cache[0], stats, &out);
  } else if (im.euc_model.has_value()) {
    const CacheLease<EuclideanPosterior> cache(&im.euc_pool, 1);
    im.VerifyIntsSerial(q, candidates, cache[0], stats, &out);
  } else {
    const CacheLease<JaccardPosterior> cache(&im.jac_pool, 1);
    im.VerifyIntsSerial(q, candidates, cache[0], stats, &out);
  }

  SortMatches(&out);
  return out;
}

std::vector<std::vector<QueryMatch>> QuerySearcher::QueryBatch(
    std::span<const SparseVectorView> queries, QueryStats* stats,
    uint32_t top_k) const {
  Impl& im = *impl_;
  if (stats != nullptr) *stats = QueryStats{.threads_used = 1};
  std::vector<std::vector<QueryMatch>> results(queries.size());
  if (queries.empty()) return results;

  ThreadPool* pool = im.pool.get();
  const uint32_t workers = pool != nullptr ? pool->num_threads() : 1;
  // A batch waits for exclusive use of the pool rather than degrading, so
  // (unlike Query's try-lock fallback) the worker count is the thread
  // count actually used.
  if (stats != nullptr) stats->threads_used = workers;
  std::vector<QueryStats> worker_stats(workers);

  // Runs serve_one(worker, i) for every query index i: sharded over
  // queries with exclusive use of the pool, or inline without one.
  // Workers write only their own slots of `results`/`worker_stats`, so
  // the merged output is deterministic for any thread count.
  auto run = [&](const auto& serve_one) {
    if (pool == nullptr) {
      for (uint64_t i = 0; i < queries.size(); ++i) serve_one(0u, i);
      return;
    }
    std::lock_guard<std::mutex> lock(im.pool_mu_);
    pool->RunShards(queries.size(), [&](uint32_t s, uint64_t b, uint64_t e) {
      for (uint64_t i = b; i < e; ++i) serve_one(s, i);
    });
  };

  auto finish_query = [&](uint32_t w, uint64_t i, const QueryStats& qs) {
    SortMatches(&results[i]);
    if (top_k != 0 && results[i].size() > top_k) results[i].resize(top_k);
    MergeStats(qs, &worker_stats[w]);
  };

  if (im.bits.has_value()) {
    const CacheLease<CosinePosterior> caches(&im.cos_pool, workers);
    run([&](uint32_t w, uint64_t i) {
      if (queries[i].empty()) return;
      QueryStats qs;
      const std::vector<uint32_t> cand = im.CollectCandidates(queries[i]);
      qs.candidates = cand.size();
      im.VerifyBitsSerial(queries[i], cand, caches[w], &qs, &results[i]);
      finish_query(w, i, qs);
    });
  } else if (im.bbits.has_value()) {
    const CacheLease<BbitMinwisePosterior> caches(&im.bbit_pool, workers);
    run([&](uint32_t w, uint64_t i) {
      if (queries[i].empty()) return;
      QueryStats qs;
      const std::vector<uint32_t> cand = im.CollectCandidates(queries[i]);
      qs.candidates = cand.size();
      im.VerifyBbitSerial(queries[i], cand, caches[w], &qs, &results[i]);
      finish_query(w, i, qs);
    });
  } else if (im.euc_model.has_value()) {
    const CacheLease<EuclideanPosterior> caches(&im.euc_pool, workers);
    run([&](uint32_t w, uint64_t i) {
      if (queries[i].empty()) return;
      QueryStats qs;
      const std::vector<uint32_t> cand = im.CollectCandidates(queries[i]);
      qs.candidates = cand.size();
      im.VerifyIntsSerial(queries[i], cand, caches[w], &qs, &results[i]);
      finish_query(w, i, qs);
    });
  } else {
    const CacheLease<JaccardPosterior> caches(&im.jac_pool, workers);
    run([&](uint32_t w, uint64_t i) {
      if (queries[i].empty()) return;
      QueryStats qs;
      const std::vector<uint32_t> cand = im.CollectCandidates(queries[i]);
      qs.candidates = cand.size();
      im.VerifyIntsSerial(queries[i], cand, caches[w], &qs, &results[i]);
      finish_query(w, i, qs);
    });
  }

  if (stats != nullptr) {
    for (const QueryStats& ws : worker_stats) MergeStats(ws, stats);
  }
  return results;
}

std::vector<QueryMatch> QuerySearcher::QueryTopK(const SparseVectorView& q,
                                                 uint32_t k,
                                                 QueryStats* stats) const {
  std::vector<QueryMatch> all = Query(q, stats);
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace bayeslsh
