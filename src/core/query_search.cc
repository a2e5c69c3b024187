#include "core/query_search.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
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

// Candidates the verify loop drives side by side, so each round's
// posterior updates share one batched inference-cache pass.
// perfbench/blsh_trace.cc replays the serial path with the same width.
constexpr uint32_t kVerifyBlock = 8;

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

// A query's verification signature, hashed on demand: To(n) extends it to
// cover hash positions [0, n) and returns it. `extend` appends to the
// signature in the store's layout; a copy carries its own signature and
// extension state.
template <typename Word>
class QuerySignature {
 public:
  using Extend = std::function<void(uint32_t n, std::vector<Word>* sig)>;

  explicit QuerySignature(Extend extend) : extend_(std::move(extend)) {}

  const Word* To(uint32_t n) {
    extend_(n, &sig_);
    return sig_.data();
  }

 private:
  Extend extend_;
  std::vector<Word> sig_;
};

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
  // the engaged store's row layout, and its minwise hasher backs the
  // b-bit query packing path. For KLSH both streams hash
  // against the SAME anchors (see QuerySearchConfig::klsh_anchors).
  std::optional<MeasureFamily> family;
  HashStream gen;
  HashStream ver;

  // Collection stores (exactly one engaged, per measure/bbit, beside the
  // posterior model that reads it). The stores are the explicitly
  // `mutable`, internally synchronized serving state behind Query() const:
  // all growth reachable from a const searcher goes through the store's
  // mutex-guarded MatchAgainstQuery / GrowthLock extension points (or is
  // absent entirely once frozen) — see lsh/signature_store.h.
  mutable std::optional<BitSignatureStore> bits;
  mutable std::optional<IntSignatureStore> ints;
  mutable std::optional<BbitSignatureStore> bbits;
  // The engaged one, through its layout-independent lifecycle.
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
  // the worker pool — everything except the banding buckets, which the
  // constructors provide differently. The hash families are `spec`'s:
  // config itself for a fresh build, an index's spec — built for its
  // build threshold — for a warm start or a delta segment (for Euclidean
  // the threshold sets the p-stable width).
  void Init(const Dataset* d, const QuerySearchConfig& config,
            const MeasureSpec& spec);

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

  // The engaged posterior model, the pool its inference caches are leased
  // from, and the store it verifies against, handed to
  // f(model, cache_pool, store) — the searcher's one dispatch on the
  // measure.
  template <typename F>
  void WithModel(F&& f) const {
    if (cos_model.has_value()) return f(*cos_model, cos_pool, *bits);
    if (bbit_model.has_value()) return f(*bbit_model, bbit_pool, *bbits);
    if (euc_model.has_value()) return f(*euc_model, euc_pool, *ints);
    f(*jac_model, jac_pool, *ints);
  }

  // The query's verification signature in `store`'s layout, one overload
  // per store kind: packed bit words, full-width hash values, or packed
  // b-bit groups (the query is hashed with the full-width minwise hasher
  // and the low b bits packed into the store's group layout).
  QuerySignature<uint64_t> VerificationQuery(const BitSignatureStore&,
                                             const SparseVectorView& q) const {
    return QuerySignature<uint64_t>(
        [chunk = QueryBitChunks(q, /*generation=*/false)](
            uint32_t n, std::vector<uint64_t>* words) {
          while (words->size() < WordsForBits(n)) {
            words->push_back(chunk(static_cast<uint32_t>(words->size())));
          }
        });
  }

  QuerySignature<uint32_t> VerificationQuery(const IntSignatureStore& store,
                                             const SparseVectorView& q) const {
    return QuerySignature<uint32_t>(
        [chunk = QueryIntChunks(q, /*generation=*/false),
         chunk_ints = store.chunk_hashes()](
            uint32_t n, std::vector<uint32_t>* hashes) {
          while (hashes->size() < n) {
            const auto c = static_cast<uint32_t>(hashes->size()) / chunk_ints;
            hashes->resize(hashes->size() + chunk_ints);
            chunk(c, hashes->data() + c * chunk_ints);
          }
        });
  }

  QuerySignature<uint64_t> VerificationQuery(const BbitSignatureStore& store,
                                             const SparseVectorView& q) const {
    return QuerySignature<uint64_t>(
        [h = &*ver.minwise, q, b = store.layout().bits_per_hash(),
         full = std::vector<uint32_t>()](uint32_t n,
                                         std::vector<uint64_t>* words) mutable {
          const auto have = static_cast<uint32_t>(full.size());
          if (n <= have) return;
          const uint32_t want = (n + kMinhashChunkInts - 1) /
                                kMinhashChunkInts * kMinhashChunkInts;
          full.resize(want);
          for (uint32_t c = have / kMinhashChunkInts;
               c < want / kMinhashChunkInts; ++c) {
            h->HashChunk(q, c, full.data() + c * kMinhashChunkInts);
          }
          const uint32_t values_per_word = 64 / b;
          words->resize((want + values_per_word - 1) / values_per_word, 0);
          PackBbitValues(full.data() + have, have, want, b, words->data());
        });
  }

  // The verify loop: BayesLSH (paper Algorithm 1), or BayesLSH-Lite's
  // pruning rounds plus exact verification (Algorithm 2), over
  // `candidates`, appending the accepted ones to *out in candidate order.
  // Candidates run in blocks of kVerifyBlock, round by round: a round
  // extends the query signature once, adds each undecided candidate's
  // matches over the round's hashes (matcher.MatchAgainstQuery — the store
  // on the serial path, a worker's overflow shard on the sharded one),
  // prunes against the precomputed minimum match count, and pushes the
  // survivors' posterior updates through one batched inference-cache pass
  // (§4.3). A candidate's (m, n) trajectory depends on no other candidate
  // and the cache memo is order-invariant, so decisions, similarities,
  // stats and cache tallies are those of a one-at-a-time loop.
  template <typename Model, typename Matcher, typename Word>
  void Verify(const SparseVectorView& q, std::span<const uint32_t> candidates,
              QuerySignature<Word>& query, Matcher& matcher,
              const Model& model, InferenceCache<Model>& cache,
              QueryStats& stats, std::vector<QueryMatch>* out) const {
    const uint32_t kk = bayes.hashes_per_round;
    const uint32_t budget = ServeBudget();
    struct Slot {
      uint32_t row = 0;
      uint32_t m = 0;
      double sim = 0.0;
      bool done = false;
      bool accepted = false;
    };
    std::array<Slot, kVerifyBlock> slots;
    std::array<uint32_t, kVerifyBlock> ms;   // Survivor match counts.
    std::array<uint32_t, kVerifyBlock> idx;  // Slot behind each ms entry.
    std::array<typename InferenceCache<Model>::EstimateResult, kVerifyBlock>
        res;
    for (size_t base = 0; base < candidates.size(); base += kVerifyBlock) {
      const auto bsz = static_cast<uint32_t>(
          std::min<size_t>(kVerifyBlock, candidates.size() - base));
      for (uint32_t i = 0; i < bsz; ++i) {
        slots[i] = Slot{};
        slots[i].row = candidates[base + i];
      }
      uint32_t active = bsz;
      uint32_t n = 0;
      while (active > 0 && n < budget) {
        const Word* qsig = query.To(n + kk);
        for (uint32_t i = 0; i < bsz; ++i) {
          if (slots[i].done) continue;
          slots[i].m += matcher.MatchAgainstQuery(slots[i].row, qsig, n,
                                                  n + kk);
          stats.hashes_compared += kk;
        }
        n += kk;
        const uint32_t min_m = cache.MinMatches(n);
        uint32_t survivors = 0;
        for (uint32_t i = 0; i < bsz; ++i) {
          Slot& s = slots[i];
          if (s.done) continue;
          if (s.m < min_m) {
            s.done = true;
            --active;
            ++stats.pruned;
          } else if (!cfg.exact_verification) {
            ms[survivors] = s.m;
            idx[survivors++] = i;
          }
        }
        if (survivors == 0) continue;
        cache.EstimateAtBatch(ms.data(), survivors, n, res.data());
        for (uint32_t j = 0; j < survivors; ++j) {
          if (!res[j].concentrated) continue;
          Slot& s = slots[idx[j]];
          s.done = s.accepted = true;
          s.sim = res[j].estimate;
          --active;
        }
      }
      // Budget exhausted: the still-undecided slots all saw n hashes.
      for (uint32_t i = 0; i < bsz; ++i) {
        Slot& s = slots[i];
        if (s.done) continue;
        if (cfg.exact_verification) {
          s.sim = ExactSim(s.row, q);
          s.accepted = s.sim >= score_threshold;
        } else {
          // Forced accept at the MAP estimate (cf. Algorithm 1). Euclidean
          // always verifies exactly, but its estimate is a distance: it
          // would go on the score axis negated.
          s.sim = model.Estimate(static_cast<int>(s.m), static_cast<int>(n));
          if constexpr (std::is_same_v<Model, EuclideanPosterior>) {
            s.sim = -s.sim;
          }
          s.accepted = true;
        }
      }
      for (uint32_t i = 0; i < bsz; ++i) {
        if (slots[i].accepted) out->push_back({slots[i].row, slots[i].sim});
      }
    }
  }

  // Within-query sharded verification (the caller holds pool_mu_): the
  // query is hashed to the full budget up front, candidate rows are
  // prefetched to one round (growth rounds it up to whole chunks), and
  // each worker runs the verify loop over its contiguous range of the
  // candidates against a private overflow shard, whose beyond-horizon
  // rows are folded back into the store afterwards.
  // The caller's similarity sort makes the output independent of the
  // thread count. On a frozen store the whole path is read-only: the
  // growth lock is a no-op, the prefetch is skipped, and overflow shards
  // never materialize rows.
  template <typename Model, typename Store, typename Word>
  void VerifySharded(const SparseVectorView& q,
                     std::span<const uint32_t> candidates, Store& store,
                     QuerySignature<Word>& query, const Model& model,
                     CachePool<Model>& cache_pool, QueryStats& stats,
                     std::vector<QueryMatch>* out) const {
    ThreadPool* p = pool.get();
    const CacheLease<Model> caches(&cache_pool, p->num_threads());
    stats.threads_used = p->num_threads();
    query.To(ServeBudget());

    auto growth_lock = store.GrowthLock();
    if (!store.frozen()) {
      store.AddComputed(
          ParallelWorkSum(p, candidates.size(), [&](uint64_t i) {
            return store.EnsureRowUncounted(candidates[i],
                                            bayes.hashes_per_round);
          }));
    }

    struct Shard {
      std::vector<QueryMatch> out;
      QueryStats stats;
      std::optional<typename Store::OverflowShard> overflow;
    };
    std::vector<Shard> shards(p->num_threads());
    p->RunShards(candidates.size(), [&](uint32_t s, uint64_t begin,
                                        uint64_t end) {
      Shard& sh = shards[s];
      // A private copy of the full-budget signature: never extended.
      QuerySignature<Word> worker_query = query;
      Verify(q, candidates.subspan(begin, end - begin), worker_query,
             sh.overflow.emplace(&store), model, caches[s], sh.stats,
             &sh.out);
    });
    uint64_t overflow_total = 0;
    for (Shard& sh : shards) {
      out->insert(out->end(), sh.out.begin(), sh.out.end());
      stats.MergeFrom(sh.stats);
      if (sh.overflow.has_value()) {
        overflow_total += sh.overflow->computed();
        // Fold beyond-horizon signatures back into the persistent store
        // so later queries reuse them (the hashing is already counted).
        sh.overflow->MergeInto(&store);
      }
    }
    store.AddComputed(overflow_total);
  }
};

void QuerySearcher::Impl::Init(const Dataset* d,
                               const QuerySearchConfig& config,
                               const MeasureSpec& spec) {
  assert(d != nullptr);
  data = d;
  cfg = config;
  CheckThreshold(config.measure, config.threshold, "QuerySearchConfig");
  const MeasureFamily& fam = family.emplace(spec, d, "QuerySearchConfig");
  const MeasureTraits& traits = fam.traits();

  // A distance measure always verifies survivors exactly: the posterior
  // estimates collision rates, not distances, and the contract is "rows
  // within the radius" (query_search.h). Forced before ServeBudget() is
  // read so the cache budget is the lite budget.
  if (traits.distance) cfg.exact_verification = true;
  score_threshold = traits.distance ? -config.threshold : config.threshold;
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
    : QuerySearcher(data, config, config) {}

QuerySearcher::QuerySearcher(const Dataset* data,
                             const QuerySearchConfig& config,
                             const MeasureSpec& family)
    : impl_(std::make_unique<Impl>()) {
  if (config.measure != family.measure || config.seed != family.seed ||
      config.bbit != family.bbit) {
    throw std::invalid_argument(
        "QuerySearcher: config measure, seed and bbit must match the hash "
        "family");
  }
  Impl& im = *impl_;
  im.Init(data, config, family);

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
  // Hash with the index's family — for KLSH its kernel and anchor rows —
  // so warm-served signatures agree bit for bit with the loaded store.
  im.Init(&index->data(), config, index->spec());
  // Serve from the index's recorded shape and buckets; adopt its
  // prefetched verification signatures (copies — many searchers can share
  // one loaded index).
  im.k = index->hashes_per_band();
  im.l = index->num_bands();
  im.banding = &index->banding();
  im.store->CopyRowsFrom(index->store());
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
  return im.family->traits().bit_signatures ? im.store->computed() : 0;
}

uint64_t QuerySearcher::hashes_computed() const {
  const Impl& im = *impl_;
  return im.family->traits().bit_signatures ? 0 : im.store->computed();
}

std::vector<QueryMatch> QuerySearcher::Query(const SparseVectorView& q,
                                             QueryStats* stats) const {
  Impl& im = *impl_;
  // threads_used starts at the serial answer; only the sharded path
  // overwrites it — so a busy-pool try-lock fallback reports the truth,
  // not the configured thread count.
  QueryStats qs{.threads_used = 1};
  std::vector<QueryMatch> out;
  if (!q.empty()) {
    // 1. Collect candidates from the buckets the query falls into.
    const std::vector<uint32_t> candidates = im.CollectCandidates(q);
    qs.candidates = candidates.size();

    // 2. Verify them with incremental Bayesian pruning, using
    //    verification-seed hashes (independent of the banding hashes).
    //
    // With a pool, enough candidates, and no batch in flight, verification
    // shards over the candidate list. Every path produces identical
    // results, so a busy pool degrades to serial instead of blocking.
    ThreadPool* pool = im.pool.get();
    std::unique_lock<std::mutex> pool_lock(im.pool_mu_, std::defer_lock);
    const bool sharded =
        pool != nullptr &&
        candidates.size() >=
            kMinQueryCandidatesPerShard * pool->num_threads() &&
        pool_lock.try_lock();
    im.WithModel([&](const auto& model, auto& cache_pool, auto& store) {
      auto query = im.VerificationQuery(store, q);
      if (sharded) {
        return im.VerifySharded(q, candidates, store, query, model,
                                cache_pool, qs, &out);
      }
      const CacheLease cache(&cache_pool, 1);
      im.Verify(q, candidates, query, store, model, cache[0], qs, &out);
    });
    SortMatches(&out);
  }
  if (stats != nullptr) *stats = qs;
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

  // Serves every query, sharded over queries with exclusive use of the
  // pool, or inline without one. Workers write only their own slots of
  // `results`/`worker_stats`, so the merged output is deterministic for
  // any thread count.
  im.WithModel([&](const auto& model, auto& cache_pool, auto& store) {
    const CacheLease caches(&cache_pool, workers);
    auto serve = [&](uint32_t w, uint64_t begin, uint64_t end) {
      for (uint64_t i = begin; i < end; ++i) {
        if (queries[i].empty()) continue;
        QueryStats qs;
        const std::vector<uint32_t> cand = im.CollectCandidates(queries[i]);
        qs.candidates = cand.size();
        auto query = im.VerificationQuery(store, queries[i]);
        im.Verify(queries[i], cand, query, store, model, caches[w], qs,
                  &results[i]);
        SortMatches(&results[i]);
        if (top_k != 0 && results[i].size() > top_k) results[i].resize(top_k);
        worker_stats[w].MergeFrom(qs);
      }
    };
    if (pool == nullptr) return serve(0, 0, queries.size());
    std::lock_guard<std::mutex> lock(im.pool_mu_);
    pool->RunShards(queries.size(), serve);
  });

  if (stats != nullptr) {
    for (const QueryStats& ws : worker_stats) stats->MergeFrom(ws);
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
