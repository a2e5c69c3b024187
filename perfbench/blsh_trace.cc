// Per-layer benchmark: one workload per process, traced. End-to-end
// numbers never come from here (see blsh_bench.cc); this run says where
// the time of those numbers goes, layer by layer, and writes every span it
// records (name, start, end, parent, request id) to <workdir>/spans.json.
//
// Join. The join is re-run at 1 thread (self times) and at 4 (wall times
// and speed-ups), then recomposed from the calls pipeline.cc makes —
// generation on a pre-hashed store, the prior fit, and a verification pass
// through a recording store handed to the BayesLSH engine as its Store
// template argument. The recording yields every MatchCount call, every
// exact similarity, and the depth each row was hashed to; each layer is
// then replayed alone: a fresh store grown to those depths (hashing), the
// calls replayed on it (compare), a fresh InferenceCache fed the recorded
// match counts (posterior), the exact similarities recomputed, and the
// verifier run on a store that answers from the recording (its own loop
// plus the posterior; minus the posterior, the verification self time).
// The layers, each timed on its own, must add up to the 1-thread join.
//
// Serving. Each query is replayed with the public primitives — hashers,
// the index's BandingIndex, a signature store's serving entry point, an
// InferenceCache in QuerySearcher's blocks — and timed per stage beside
// the real Query(); QuerySearcher, DynamicIndex and ShardedIndex serve the
// same queries over the same corpus, so their differences are the segment
// merge and the fan-out. Writes, WAL appends and compaction are timed in a
// closed loop, and a short open loop reports the tail latency and the load
// generator's health.
//
// Each timed join layer is the median of kReps runs. Every recomposed or
// replayed result must equal the real call's, pair for pair; any
// difference fails the run. Layer sums more than 5% off the real call are
// printed as warnings (see FlagSum).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <random>
#include <thread>

#include "candgen/allpairs.h"
#include "candgen/lsh_banding.h"
#include "candgen/prefix_filter_join.h"
#include "common/bit_ops.h"
#include "common/prng.h"
#include "core/bayes_lsh_impl.h"
#include "core/inference_cache.h"
#include "core/wal.h"
#include "harness.h"
#include "lsh/gaussian_source.h"
#include "stats/beta_distribution.h"

namespace perfbench {
namespace {

constexpr double kOpenLoopShare = 0.25;

// --- spans ---------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  // Opens a span under the innermost open one (main thread only).
  int64_t Open(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, Now(), 0.0, parent, 0});
    stack_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return stack_.back();
  }

  double Close(int64_t idx) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[idx].end = Now();
    stack_.pop_back();
    return spans_[idx].end - spans_[idx].start;
  }

  // A span measured elsewhere (e.g. an open-loop request).
  void Record(const std::string& name, double start, double end,
              int64_t parent, uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, request});
  }

  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                   "\"parent\": %lld, \"request\": %llu}\n",
                   i == 0 ? " " : ",", s.name.c_str(), s.start, s.end,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name)
      : tracer_(t), idx_(t->Open(name)) {}
  ~ScopedSpan() {
    if (idx_ >= 0) tracer_->Close(idx_);
  }
  double Close() {
    const double d = tracer_->Close(idx_);
    idx_ = -1;
    return d;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t idx_;
};

// Checked operations (recomposed or replayed results compared with the
// real call's, open-loop answers) and how many of them disagreed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Layer sums are timings, so a run does not fail on them; a sum more than
// 5% away from the real call's time, or a negative self time, is printed
// as a warning on standard output and standard error.
constexpr double kSumTolerance = 0.05;

void FlagSum(const char* what, double sum_frac, double self,
             Report* report) {
  if (std::abs(sum_frac - 1.0) <= kSumTolerance && self >= 0.0) return;
  char line[160];
  std::snprintf(line, sizeof(line),
                "warning: the %s layers sum to %.3f of the real call's time "
                "(self time %.4g)",
                what, sum_frac, self);
  report->Note(line);
  std::fprintf(stderr, "%s\n", line);
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Rounds of the traced join; its layers report their median over them.
constexpr uint32_t kReps = 5;

// --- join ----------------------------------------------------------------

struct MatchCall {
  uint32_t a, b, from, to, m;
};

// The signature store the verifier sees during the recording pass: every
// MatchCount is passed through to the real lazily grown store and logged.
template <typename Store>
class RecordingStore {
 public:
  RecordingStore(Store* store, std::vector<MatchCall>* calls)
      : store_(store), calls_(calls) {}
  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to) {
    const uint32_t m = store_->MatchCount(a, b, from, to);
    calls_->push_back({a, b, from, to, m});
    return m;
  }

 private:
  Store* store_;
  std::vector<MatchCall>* calls_;
};

// The store of the self-time pass: answers every MatchCount from the
// recording, in order, so the verifier runs without hashing or compares
// and its time is its own loop plus the posterior.
class ReplayStore {
 public:
  explicit ReplayStore(const std::vector<MatchCall>* calls) : calls_(calls) {}
  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to) {
    if (next_ >= calls_->size()) {
      ++mismatched_;
      return 0;
    }
    const MatchCall& c = (*calls_)[next_++];
    if (c.a != a || c.b != b || c.from != from || c.to != to) ++mismatched_;
    return c.m;
  }
  // Calls that differed from the recording, plus recorded calls not made.
  uint64_t mismatched() const {
    return mismatched_ + (calls_->size() - next_);
  }

 private:
  const std::vector<MatchCall>* calls_;
  size_t next_ = 0;
  uint64_t mismatched_ = 0;
};

uint32_t Depth(const BitSignatureStore& s, uint32_t row) {
  return s.NumBits(row);
}
uint32_t Depth(const IntSignatureStore& s, uint32_t row) {
  return s.NumHashes(row);
}
void Grow(BitSignatureStore* s, uint32_t row, uint32_t n) {
  s->EnsureBits(row, n);
}
void Grow(IntSignatureStore* s, uint32_t row, uint32_t n) {
  s->EnsureHashes(row, n);
}
uint64_t Computed(const BitSignatureStore& s) { return s.bits_computed(); }
uint64_t Computed(const IntSignatureStore& s) { return s.hashes_computed(); }

// The verification and generation families of pipeline.cc, per measure.
struct CosineFamily {
  using Store = BitSignatureStore;
  using Model = CosinePosterior;
  static constexpr uint32_t kRound = 32, kMax = 4096, kLite = 128;
  GaussianSourceCache cache;
  explicit CosineFamily(const Dataset& d) : cache(d.num_dims(), 0) {}
  std::unique_ptr<Store> MakeStore(const Dataset* d, uint64_t seed) {
    sources.push_back(cache.Get(seed));
    return std::make_unique<Store>(d, SrpHasher(sources.back().get()));
  }
  std::vector<std::shared_ptr<const GaussianSource>> sources;
};

struct JaccardFamily {
  using Store = IntSignatureStore;
  using Model = JaccardPosterior;
  static constexpr uint32_t kRound = 16, kMax = 512, kLite = 64;
  explicit JaccardFamily(const Dataset&) {}
  std::unique_ptr<Store> MakeStore(const Dataset* d, uint64_t seed) {
    return std::make_unique<Store>(d, MinwiseHasher(seed));
  }
};

// pipeline.cc's Jaccard prior: a method-of-moments Beta fit on the exact
// similarities of 300 sampled candidates, its strength capped at 5.
BetaDistribution FitPrior(const Dataset& data, const CandidateList& cands,
                          uint64_t seed) {
  constexpr uint32_t kSample = 300;
  constexpr double kMaxStrength = 5.0;
  if (cands.pairs.empty()) return BetaDistribution(1.0, 1.0);
  Xoshiro256StarStar rng(Mix64(seed, 0xBE7A0F17ULL));
  std::vector<double> sims;
  for (uint32_t i = 0; i < kSample; ++i) {
    const auto& [a, b] = cands.pairs[rng.NextBounded(cands.pairs.size())];
    sims.push_back(ExactSimilarity(data, a, b, Measure::kJaccard));
  }
  const BetaDistribution fit = BetaDistribution::FitMethodOfMoments(sims);
  const double strength = fit.alpha() + fit.beta();
  if (strength <= kMaxStrength) return fit;
  const double s = kMaxStrength / strength;
  return BetaDistribution(fit.alpha() * s, fit.beta() * s);
}

CosinePosterior MakeModel(const CosineFamily&, double t, const Dataset&,
                          const CandidateList&, uint64_t) {
  return CosinePosterior(t);
}
JaccardPosterior MakeModel(const JaccardFamily&, double t, const Dataset& d,
                           const CandidateList& c, uint64_t seed) {
  return JaccardPosterior(t, FitPrior(d, c, seed));
}

CandidateList Generate(const WorkloadSpec& spec, const Dataset& data,
                       BitSignatureStore* gen) {
  return spec.generator == GeneratorKind::kLsh
             ? CosineLshCandidates(gen, spec.threshold, {}, nullptr)
             : AllPairsCandidates(data, spec.threshold, nullptr, nullptr);
}
CandidateList Generate(const WorkloadSpec& spec, const Dataset& data,
                       IntSignatureStore* gen) {
  return spec.generator == GeneratorKind::kLsh
             ? JaccardLshCandidates(gen, spec.threshold, {}, nullptr)
             : PrefixFilterCandidates(data, spec.threshold,
                                      Measure::kJaccard, nullptr, nullptr);
}

template <typename Family>
void TraceJoin(const WorkloadSpec& spec, const Dataset& data, Tracer* tr,
               Report* report, Tally* tally) {
  uint64_t& failed = tally->failed;
  tally->attempted += 3;  // 1 == 4 threads, recomposition, layer replays.
  Family fam(data);
  const bool lite = spec.verifier == VerifierKind::kBayesLshLite;
  BayesLshParams params;
  params.hashes_per_round = Family::kRound;
  params.max_hashes = Family::kMax;
  const uint32_t budget = lite ? Family::kLite : Family::kMax;
  const uint32_t k = params.hashes_per_round;

  // Untimed, and first: the first join of a process also pays for page
  // faults. Its pairs are the reference for everything below.
  PipelineResult ref;
  {
    ScopedSpan s(tr, "join.warmup");
    ref = RunPipeline(data, JoinConfig(spec, 1));
  }
  PipelineResult r4;
  {
    ScopedSpan s(tr, "join.pipeline_4t");
    r4 = RunPipeline(data, JoinConfig(spec, kThreads));
  }
  if (r4.pairs != ref.pairs) {
    std::fprintf(stderr, "join: 1-thread and 4-thread pairs differ\n");
    ++failed;
  }

  // Recomposition: generation on a pre-hashed store, the prior, then one
  // verification pass through the recording store.
  auto grow_gen = [&] {
    auto gen = fam.MakeStore(&data, GenerationSeed(kIndexSeed));
    if (spec.generator == GeneratorKind::kLsh) {
      const BandingShape shape =
          ResolveBandingShape(spec.measure, spec.threshold, {});
      for (uint32_t row = 0; row < data.num_vectors(); ++row) {
        Grow(gen.get(), row, shape.num_bands * shape.hashes_per_band);
      }
    }
    return gen;
  };
  std::unique_ptr<typename Family::Store> gen = grow_gen();
  CandidateList cands = Generate(spec, data, gen.get());
  auto model = std::make_unique<typename Family::Model>(
      MakeModel(fam, spec.threshold, data, cands, kIndexSeed));
  std::vector<MatchCall> calls;
  struct ExactCall {
    uint32_t a, b;
    double sim;
  };
  std::vector<ExactCall> exact_calls;
  VerifyStats vstats;
  std::vector<ScoredPair> pairs;
  const auto store = fam.MakeStore(&data, VerificationSeed(kIndexSeed));
  double recording_s = 0.0;
  {
    ScopedSpan verify(tr, "core.verify.recording");
    RecordingStore<typename Family::Store> rec(store.get(), &calls);
    if (lite) {
      const std::function<double(uint32_t, uint32_t)> exact =
          [&](uint32_t a, uint32_t b) {
            const double s = ExactSimilarity(data, a, b, spec.measure);
            exact_calls.push_back({a, b, s});
            return s;
          };
      pairs = BayesLshLiteVerify(*model, &rec, cands.pairs, budget, exact,
                                 spec.threshold, params, &vstats);
    } else {
      pairs = BayesLshVerify(*model, &rec, cands.pairs, params, &vstats);
    }
    recording_s = verify.Close();
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const ScoredPair& x, const ScoredPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  if (pairs != ref.pairs || cands.size() != ref.candidates) {
    std::fprintf(stderr, "join: recomposition differs from RunPipeline\n");
    ++failed;
  }

  // Timed rounds: the real 1-thread join, then every layer alone, side by
  // side so a slow stretch of the machine hits the join and its layers
  // alike; each reports its median over the rounds.
  std::vector<double> total_s, generate_s, verify_s, gen_hash, candgen,
      prior, hash, compare, posterior, exact, verify_loop;
  std::unique_ptr<typename Family::Store> replay_store;
  std::vector<ScoredPair> loop_pairs;
  uint64_t evals = 0, replay_pruned = 0, mismatched = 0;
  InferenceCacheStats cache_stats;
  auto timed = [&](const char* name, std::vector<double>* out,
                   const auto& fn) {
    ScopedSpan s(tr, name);
    fn();
    out->push_back(s.Close());
  };
  for (uint32_t rep = 0; rep < kReps; ++rep) {
    {
      ScopedSpan s(tr, "join.pipeline_1t");
      const PipelineResult r = RunPipeline(data, JoinConfig(spec, 1));
      total_s.push_back(r.total_seconds);
      generate_s.push_back(r.generate_seconds);
      verify_s.push_back(r.verify_seconds);
      if (r.pairs != ref.pairs) ++mismatched;
    }
    gen.reset();
    timed("lsh.gen_hash", &gen_hash, [&] { gen = grow_gen(); });
    cands = CandidateList{};  // Freed first, as between two real joins.
    timed("candgen", &candgen,
          [&] { cands = Generate(spec, data, gen.get()); });
    timed("core.posterior.prior", &prior, [&] {
      model = std::make_unique<typename Family::Model>(
          MakeModel(fam, spec.threshold, data, cands, kIndexSeed));
    });
    replay_store.reset();
    timed("lsh.verify_hash", &hash, [&] {
      replay_store = fam.MakeStore(&data, VerificationSeed(kIndexSeed));
      for (uint32_t row = 0; row < data.num_vectors(); ++row) {
        const uint32_t depth = Depth(*store, row);
        if (depth > 0) Grow(replay_store.get(), row, depth);
      }
    });
    // MatchCount, not MatchCountReadOnly: its depth checks are part of
    // every real compare. The store holds every row to its recorded depth,
    // so no hashing happens here (checked below through Computed()).
    timed("lsh.compare", &compare, [&] {
      for (const MatchCall& c : calls) {
        mismatched += replay_store->MatchCount(c.a, c.b, c.from, c.to) != c.m;
      }
    });
    timed("core.posterior", &posterior, [&] {
      InferenceCache<typename Family::Model> cache(
          model.get(), k, budget, params.epsilon, params.delta, params.gamma);
      evals = replay_pruned = 0;
      uint32_t m = 0;
      for (const MatchCall& c : calls) {
        m = (c.from == 0 ? 0 : m) + c.m;
        if (m < cache.MinMatches(c.to)) {
          ++replay_pruned;
        } else if (!lite) {
          (void)cache.EstimateAt(m, c.to);
          ++evals;
        }
      }
      cache_stats = cache.stats();
    });
    timed("sim.exact", &exact, [&] {
      for (const ExactCall& c : exact_calls) {
        mismatched += ExactSimilarity(data, c.a, c.b, spec.measure) != c.sim;
      }
    });
    // The verifier itself, fed the recorded match counts and exact
    // similarities: its loop and the posterior, nothing else.
    timed("core.verify.loop", &verify_loop, [&] {
      ReplayStore rs(&calls);
      size_t next_exact = 0;
      if (lite) {
        const std::function<double(uint32_t, uint32_t)> exact_fn =
            [&](uint32_t a, uint32_t b) {
              if (next_exact >= exact_calls.size()) {
                ++mismatched;
                return 0.0;
              }
              const ExactCall& c = exact_calls[next_exact++];
              mismatched += c.a != a || c.b != b;
              return c.sim;
            };
        loop_pairs = BayesLshLiteVerify(*model, &rs, cands.pairs, budget,
                                        exact_fn, spec.threshold, params,
                                        nullptr);
      } else {
        loop_pairs =
            BayesLshVerify(*model, &rs, cands.pairs, params, nullptr);
      }
      mismatched += rs.mismatched() + (exact_calls.size() - next_exact);
    });
  }
  std::sort(loop_pairs.begin(), loop_pairs.end(),
            [](const ScoredPair& x, const ScoredPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  if (mismatched != 0 || replay_pruned != vstats.pruned ||
      loop_pairs != pairs || Computed(*replay_store) != Computed(*store)) {
    std::fprintf(stderr, "join: a replay differs from the real call\n");
    ++failed;
  }

  // Every layer measured on its own, against the real join of the same
  // round (a slow stretch of the machine then hits both sides): the check
  // that the layers account for the join's time. (Before the medians below,
  // which sort their vectors.)
  std::vector<double> sum_frac;
  for (uint32_t i = 0; i < kReps; ++i) {
    sum_frac.push_back(Ratio(gen_hash[i] + candgen[i] + hash[i] + compare[i] +
                                 prior[i] + exact[i] + verify_loop[i],
                             total_s[i]));
  }
  const double join_sum_frac = Quantile(sum_frac, 0.5);

  const double gen_hash_s = Quantile(gen_hash, 0.5);
  const double candgen_s = Quantile(candgen, 0.5);
  const double hash_s = Quantile(hash, 0.5);
  const double compare_s = Quantile(compare, 0.5);
  const double prior_s = Quantile(prior, 0.5);
  const double posterior_s = prior_s + Quantile(posterior, 0.5);
  const double exact_s = Quantile(exact, 0.5);
  const double loop_s = Quantile(verify_loop, 0.5);
  // The real 1-thread join, phase by phase.
  const double join_1t = Quantile(total_s, 0.5);
  const double generate_1t = Quantile(generate_s, 0.5);
  const double verify_1t = Quantile(verify_s, 0.5);
  const double verify_self = loop_s - Quantile(posterior, 0.5);
  const double layers_s =
      gen_hash_s + candgen_s + hash_s + compare_s + posterior_s + exact_s +
      verify_self;
  const double pairs_in = static_cast<double>(vstats.pairs_in);

  report->Add("lsh.gen_hash_s", gen_hash_s, "s");
  report->Add("lsh.gen_hashes", static_cast<double>(Computed(*gen)), "count");
  report->Add("lsh.verify_hash_s", hash_s, "s");
  report->Add("lsh.verify_hashes", static_cast<double>(Computed(*store)),
              "count");
  report->Add("lsh.compare_s", compare_s, "s", calls.size());
  report->Add("lsh.hashes_compared",
              static_cast<double>(vstats.hashes_compared), "count");
  report->Add("candgen.s", candgen_s, "s");
  report->Add("candgen.raw_candidates", static_cast<double>(cands.raw_emitted),
              "count");
  report->Add("candgen.candidates", static_cast<double>(cands.size()),
              "count");
  report->Add("candgen.yield",
              Ratio(static_cast<double>(pairs.size()),
                    static_cast<double>(cands.size())),
              "frac");
  report->Add("candgen.wall_s", r4.generate_seconds, "s");
  report->Add("candgen.speedup",
              Ratio(generate_1t, r4.generate_seconds), "x");
  report->Add("core.posterior.s", posterior_s, "s");
  report->Add("core.posterior.evals", static_cast<double>(evals), "count");
  report->Add("core.posterior.miss_frac",
              Ratio(static_cast<double>(cache_stats.concentration_misses),
                    static_cast<double>(evals)),
              "frac");
  report->Add("sim.exact_s", exact_s, "s", exact_calls.size());
  report->Add("sim.exact_calls", static_cast<double>(exact_calls.size()),
              "count");
  report->Add("core.verify.self_s", verify_self, "s");
  report->Add("core.verify.wall_s", r4.verify_seconds, "s");
  report->Add("core.verify.speedup",
              Ratio(verify_1t, r4.verify_seconds), "x");
  report->Add("core.verify.pruned_frac",
              Ratio(static_cast<double>(vstats.pruned), pairs_in), "frac");
  report->Add("core.verify.rounds_mean",
              Ratio(static_cast<double>(vstats.hashes_compared),
                    pairs_in * k),
              "count");
  report->Add("core.verify.forced_accepts",
              static_cast<double>(vstats.forced_accepts), "count");
  report->Add("trace.join_sum_frac", join_sum_frac, "frac");
  report->Add("trace.overhead_frac",
              Ratio(recording_s - verify_1t, verify_1t),
              "frac");
  char note[240];
  std::snprintf(note, sizeof(note),
                "join at 1 thread: %.3f s (generate %.3f, verify %.3f); "
                "layers: generate %.3f, verify %.3f (self %.3f), sum %.3f",
                join_1t, generate_1t, verify_1t, gen_hash_s + candgen_s,
                hash_s + compare_s + posterior_s + exact_s + verify_self,
                verify_self, layers_s);
  report->Note(note);
  FlagSum("join", join_sum_frac, verify_self, report);
}

// --- serving: each query replayed stage by stage --------------------------

// QuerySearcher's query-side hash families for one measure: the
// generation stream feeds the band probe, the verification stream the
// compares, which go through the store's serving entry point
// (MatchAgainstQuery) exactly as the searcher's unfrozen store does.
struct CosineQuery {
  using Model = CosinePosterior;
  ImplicitGaussianSource gen_src{GenerationSeed(kIndexSeed)};
  ImplicitGaussianSource ver_src{VerificationSeed(kIndexSeed)};
  SrpHasher gen{&gen_src};
  SrpHasher ver{&ver_src};
  BitSignatureStore store;
  std::vector<uint64_t> gen_sig, ver_sig;

  explicit CosineQuery(const Dataset* d) : store(d, SrpHasher(&ver_src)) {}
  void HashGen(const SparseVectorView& q, uint32_t n) {
    gen_sig.resize(WordsForBits(n));
    for (uint32_t c = 0; c < gen_sig.size(); ++c) {
      gen_sig[c] = gen.HashChunk(q, c);
    }
  }
  uint64_t BandKey(uint32_t band, uint32_t k) const {
    return BandingIndex::CosineKey(
        gen_sig.data(), static_cast<uint32_t>(gen_sig.size()), band, k);
  }
  // Extends the verification signature to cover n hashes.
  void HashVerify(const SparseVectorView& q, uint32_t n) {
    for (auto c = static_cast<uint32_t>(ver_sig.size()); c < WordsForBits(n);
         ++c) {
      ver_sig.push_back(ver.HashChunk(q, c));
    }
  }
  uint32_t Match(uint32_t row, uint32_t from, uint32_t to) {
    return store.MatchAgainstQuery(row, ver_sig.data(), from, to);
  }
};

struct JaccardQuery {
  using Model = JaccardPosterior;
  static constexpr uint32_t kChunk = kMinhashChunkInts;
  MinwiseHasher gen{GenerationSeed(kIndexSeed)};
  MinwiseHasher ver{VerificationSeed(kIndexSeed)};
  IntSignatureStore store;
  std::vector<uint32_t> gen_sig, ver_sig;

  explicit JaccardQuery(const Dataset* d)
      : store(d, MinwiseHasher(VerificationSeed(kIndexSeed))) {}
  static void Extend(const MinwiseHasher& h, const SparseVectorView& q,
                     uint32_t n, std::vector<uint32_t>* sig) {
    for (auto c = static_cast<uint32_t>(sig->size() / kChunk);
         c * kChunk < n; ++c) {
      sig->resize((c + 1) * kChunk);
      h.HashChunk(q, c, sig->data() + c * kChunk);
    }
  }
  void HashGen(const SparseVectorView& q, uint32_t n) {
    gen_sig.clear();
    Extend(gen, q, n, &gen_sig);
  }
  uint64_t BandKey(uint32_t band, uint32_t k) const {
    return BandingIndex::JaccardKey(gen_sig.data(), band, k);
  }
  void HashVerify(const SparseVectorView& q, uint32_t n) {
    Extend(ver, q, n, &ver_sig);
  }
  uint32_t Match(uint32_t row, uint32_t from, uint32_t to) {
    return store.MatchAgainstQuery(row, ver_sig.data(), from, to);
  }
};

struct QueryLayers {
  std::vector<double> hash_us, probe_us, compare_us, posterior_us;
  // The real Query() of each query, timed beside its stages (so just as
  // warm as they are): what the stages must add up to.
  std::vector<double> real_us;
  uint64_t mismatched = 0;
};

// Replays every query against `index`, one stage at a time, and checks
// each replayed answer against `searcher`. A first, untimed pass decides
// every candidate the way QuerySearcher's serial path does — candidates in
// blocks of its default posterior_batch, each round's survivors through
// one InferenceCache::EstimateAtBatch call — growing the rows it touches
// and memoizing the posterior, as a warmed server would have. The timed
// pass then re-runs each stage alone.
template <typename Family>
QueryLayers ReplayQueries(const WorkloadSpec& spec, const Inputs& in,
                          const PersistentIndex& index,
                          const QuerySearcher& searcher) {
  QueryLayers out;
  Family fam(&index.data());
  const uint32_t l = index.num_bands(), k = index.hashes_per_band();
  // QuerySearchConfig's default BayesLshParams and block width.
  const BayesLshParams p;
  const uint32_t kk = p.hashes_per_round;
  constexpr uint32_t kBlock = 8;
  const typename Family::Model model(spec.threshold);
  using Cache = InferenceCache<typename Family::Model>;
  Cache cache(&model, kk, p.max_hashes, p.epsilon, p.delta, p.gamma);
  struct Compare {
    uint32_t row, from, to;
  };
  // One posterior step: the match counts of a block's undecided
  // candidates after n hashes, at [begin, begin + count) of `round_ms`.
  struct PosteriorRound {
    uint32_t n, begin, count;
  };
  struct Slot {
    uint32_t row = 0, m = 0;
    double sim = 0.0;
    bool done = false, accepted = false;
  };
  std::vector<uint32_t> cands, round_ms, ms, idx;
  std::vector<Compare> compares;
  std::vector<PosteriorRound> post;
  std::vector<Slot> slots;
  std::vector<typename Cache::EstimateResult> res;
  auto probe = [&] {
    cands.clear();
    for (uint32_t band = 0; band < l; ++band) {
      const auto* bucket = index.banding().Find(band, fam.BandKey(band, k));
      if (bucket != nullptr) {
        cands.insert(cands.end(), bucket->begin(), bucket->end());
      }
    }
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  };
  uint64_t sink = 0;
  for (const uint32_t qrow : in.query_rows) {
    const SparseVectorView q = in.all.Row(qrow);

    fam.HashGen(q, l * k);
    probe();
    fam.ver_sig.clear();
    compares.clear();
    post.clear();
    round_ms.clear();
    std::vector<QueryMatch> answer;
    uint32_t depth = 0;
    for (size_t base = 0; base < cands.size(); base += kBlock) {
      slots.assign(std::min<size_t>(kBlock, cands.size() - base), Slot{});
      for (size_t i = 0; i < slots.size(); ++i) slots[i].row = cands[base + i];
      size_t active = slots.size();
      uint32_t n = 0;
      while (active > 0 && n < p.max_hashes) {
        fam.HashVerify(q, n + kk);
        const auto begin = static_cast<uint32_t>(round_ms.size());
        for (Slot& s : slots) {
          if (s.done) continue;
          compares.push_back({s.row, n, n + kk});
          s.m += fam.Match(s.row, n, n + kk);
          round_ms.push_back(s.m);
        }
        n += kk;
        post.push_back(
            {n, begin, static_cast<uint32_t>(round_ms.size()) - begin});
        const uint32_t min_m = cache.MinMatches(n);
        ms.clear();
        idx.clear();
        for (uint32_t i = 0; i < slots.size(); ++i) {
          Slot& s = slots[i];
          if (s.done) continue;
          if (s.m < min_m) {
            s.done = true;
            --active;
          } else {
            ms.push_back(s.m);
            idx.push_back(i);
          }
        }
        if (ms.empty()) continue;
        res.resize(ms.size());
        cache.EstimateAtBatch(ms.data(), static_cast<uint32_t>(ms.size()), n,
                              res.data());
        for (size_t j = 0; j < ms.size(); ++j) {
          if (!res[j].concentrated) continue;
          Slot& s = slots[idx[j]];
          s.done = s.accepted = true;
          s.sim = res[j].estimate;
          --active;
        }
      }
      for (Slot& s : slots) {
        if (!s.done) {  // Budget spent: a forced accept.
          s.accepted = true;
          s.sim = model.Estimate(static_cast<int>(s.m), static_cast<int>(n));
        }
        if (s.accepted) answer.push_back({s.row, s.sim});
      }
      depth = std::max(depth, n);
    }
    std::sort(answer.begin(), answer.end(),
              [](const QueryMatch& a, const QueryMatch& b) {
                return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
              });
    double t = Now();
    const std::vector<QueryMatch> real = searcher.Query(q);
    out.real_us.push_back((Now() - t) * 1e6);
    if (answer != real) ++out.mismatched;

    t = Now();
    fam.HashGen(q, l * k);
    double hash_s = Now() - t;
    t = Now();
    probe();
    out.probe_us.push_back((Now() - t) * 1e6);
    t = Now();
    fam.ver_sig.clear();
    fam.HashVerify(q, depth);
    out.hash_us.push_back((hash_s + Now() - t) * 1e6);
    t = Now();
    for (const Compare& c : compares) sink += fam.Match(c.row, c.from, c.to);
    out.compare_us.push_back((Now() - t) * 1e6);
    t = Now();
    for (const PosteriorRound& r : post) {
      const uint32_t min_m = cache.MinMatches(r.n);
      ms.clear();
      for (uint32_t i = r.begin; i < r.begin + r.count; ++i) {
        if (round_ms[i] >= min_m) ms.push_back(round_ms[i]);
      }
      if (ms.empty()) continue;
      res.resize(ms.size());
      cache.EstimateAtBatch(ms.data(), static_cast<uint32_t>(ms.size()), r.n,
                            res.data());
      sink += res[0].concentrated;
    }
    out.posterior_us.push_back((Now() - t) * 1e6);
  }
  if (sink == 0) std::fprintf(stderr, "\n");  // Keeps the timed loops live.
  return out;
}

// Mean per-query latency in microseconds of `query` over the query set,
// after one untimed pass; *stats sums the QueryStats of the timed pass.
template <typename Fn>
double MeanQueryUs(const Inputs& in, const Fn& query, QueryStats* stats,
                   std::vector<std::vector<QueryMatch>>* answers) {
  for (const uint32_t row : in.query_rows) {
    (void)query(in.all.Row(row), nullptr);
  }
  answers->clear();
  const double t0 = Now();
  for (const uint32_t row : in.query_rows) {
    QueryStats s;
    answers->push_back(query(in.all.Row(row), &s));
    stats->MergeFrom(s);
  }
  return (Now() - t0) * 1e6 / static_cast<double>(in.query_rows.size());
}

void TraceServingLayers(const WorkloadSpec& spec, const Inputs& in,
                        Tracer* tr, Report* report, Tally* tally) {
  uint64_t& failed = tally->failed;
  tally->attempted += 1 + in.query_rows.size();  // Identity, replays.
  std::unique_ptr<PersistentIndex> index;
  {
    ScopedSpan s(tr, "serve.layers.build");
    index = PersistentIndex::Build(in.base, BuildConfig(spec, kThreads));
  }
  const QuerySearcher searcher(index.get(), SearchConfig(spec, 1));
  DynamicIndex dynamic(PersistentIndex::Build(in.base, BuildConfig(spec, 1)),
                       DynamicIndexConfig{});
  std::unique_ptr<ShardedIndex> sharded;
  double shard_build_s = 0.0;
  {
    ScopedSpan s(tr, "core.sharded_index.build");
    ShardedIndexConfig sc;
    sc.num_shards = kShards;
    sharded = std::make_unique<ShardedIndex>(in.base, BuildConfig(spec, 1), sc);
    shard_build_s = s.Close();
  }

  // One query through three layers of the same corpus.
  QueryStats qs_stats, dyn_stats, sh_stats;
  std::vector<std::vector<QueryMatch>> a_qs, a_dyn, a_sh;
  const double qs_us = MeanQueryUs(
      in, [&](const SparseVectorView& q, QueryStats* s) {
        return searcher.Query(q, s);
      }, &qs_stats, &a_qs);
  const double dyn_us = MeanQueryUs(
      in, [&](const SparseVectorView& q, QueryStats* s) {
        return dynamic.Query(q, s);
      }, &dyn_stats, &a_dyn);
  const double sh_us = MeanQueryUs(
      in, [&](const SparseVectorView& q, QueryStats* s) {
        return sharded->Query(q, s);
      }, &sh_stats, &a_sh);
  if (a_qs != a_dyn || a_qs != a_sh) {
    std::fprintf(stderr, "serve: searcher, dynamic and sharded disagree\n");
    ++failed;
  }

  QueryLayers layers;
  {
    ScopedSpan s(tr, "serve.query_replay");
    layers = spec.measure == Measure::kCosine
                 ? ReplayQueries<CosineQuery>(spec, in, *index, searcher)
                 : ReplayQueries<JaccardQuery>(spec, in, *index, searcher);
  }
  if (layers.mismatched != 0) {
    std::fprintf(stderr, "serve: %llu replayed queries differ from Query()\n",
                 static_cast<unsigned long long>(layers.mismatched));
    failed += layers.mismatched;
  }
  const double nq = static_cast<double>(in.query_rows.size());
  const double replay_us = Mean(layers.hash_us) + Mean(layers.probe_us) +
                           Mean(layers.compare_us) +
                           Mean(layers.posterior_us);
  report->Add("lsh.query_hash_us", Mean(layers.hash_us), "us", nq);
  report->Add("lsh.query_compare_us", Mean(layers.compare_us), "us", nq);
  report->Add("candgen.probe_us", Mean(layers.probe_us), "us", nq);
  report->Add("core.posterior.query_us", Mean(layers.posterior_us), "us", nq);
  const double real_us = Mean(layers.real_us);
  report->Add("core.query_search.query_us", qs_us, "us", nq);
  report->Add("core.query_search.self_us", real_us - replay_us, "us", nq);
  report->Add("core.query_search.candidates",
              static_cast<double>(qs_stats.candidates) / nq, "count", nq);
  report->Add("core.query_search.pruned_frac",
              Ratio(static_cast<double>(qs_stats.pruned),
                    static_cast<double>(qs_stats.candidates)),
              "frac");
  report->Add("core.dynamic_index.query_us", dyn_us, "us", nq);
  report->Add("core.sharded_index.query_us", sh_us, "us", nq);
  report->Add("core.sharded_index.build_s", shard_build_s, "s");
  report->Add("trace.query_sum_frac", Ratio(replay_us, real_us), "frac");
  FlagSum("query", Ratio(replay_us, real_us), real_us - replay_us, report);
}

// --- writes ----------------------------------------------------------------

// The WAL payload of an add: op, id, nnz, then indices and values.
size_t AddRecordBytes(const SparseVectorView& v) {
  return 9 + 8 * size_t{v.size()};
}

void TraceWrites(const WorkloadSpec& spec, const Inputs& in,
                 const std::string& workdir, Tracer* tr, Report* report,
                 Tally* tally) {
  uint64_t& failed = tally->failed;
  // The durable index's write path, with its WAL only where the workload
  // serves through one. Sharded serving never compacts, but its shards are
  // DynamicIndexes too: the compaction trigger is kept on both workloads so
  // that the compaction layer is measured on both measures.
  const bool durable = spec.serve == ServeKind::kDurable;
  DynamicIndex dyn(PersistentIndex::Build(in.base, BuildConfig(spec, kThreads)),
                   DurableConfig());
  const std::string wal = workdir + "/trace.wal";
  if (durable) {
    RemoveFile(wal);
    dyn.AttachWal(wal);
  }
  const uint32_t n_adds = std::min<uint32_t>(600, in.pool.num_vectors());
  std::vector<double> add_us, remove_us;
  uint32_t base_rows = dyn.num_base_rows();
  uint64_t compactions = 0;
  auto observe = [&] {
    if (dyn.num_base_rows() != base_rows) {
      base_rows = dyn.num_base_rows();
      ++compactions;
    }
  };
  {
    ScopedSpan s(tr, "core.dynamic_index.writes");
    for (uint32_t i = 0; i < n_adds; ++i) {
      const double t0 = Now();
      dyn.Add(in.pool.Row(i));
      add_us.push_back((Now() - t0) * 1e6);
      observe();
    }
    std::mt19937_64 rng(Mix64(kIndexSeed, 0x7E3033ULL));
    tally->attempted += n_adds + n_adds / 3;
    for (uint32_t i = 0; i < n_adds / 3; ++i) {
      const auto id = static_cast<uint32_t>(rng() % in.base.num_vectors());
      const bool live = dyn.Contains(id);
      const double t0 = Now();
      if (dyn.Remove(id) != live) ++failed;
      remove_us.push_back((Now() - t0) * 1e6);
      observe();
    }
    dyn.WaitForCompaction();
    observe();
  }

  // Ghost candidates: tombstoned rows still verified by queries.
  QueryStats ghost_stats;
  for (const uint32_t row : in.query_rows) {
    QueryStats s;
    (void)dyn.Query(in.all.Row(row), &s);
    ghost_stats.MergeFrom(s);
  }

  // An explicit compaction with queries served against it meanwhile.
  std::vector<double> compacting_us;
  double compact_s = 0.0;
  {
    ScopedSpan s(tr, "core.dynamic_index.compact");
    std::atomic<bool> done{false};
    std::exception_ptr error;
    std::thread compactor([&] {
      const double t0 = Now();
      try {
        dyn.Compact();
      } catch (...) {
        error = std::current_exception();
      }
      compact_s = Now() - t0;
      done = true;
    });
    for (size_t i = 0; !done || compacting_us.empty(); ++i) {
      const double t0 = Now();
      (void)dyn.Query(in.all.Row(in.query_rows[i % in.query_rows.size()]));
      compacting_us.push_back((Now() - t0) * 1e6);
    }
    compactor.join();
    if (error != nullptr) std::rethrow_exception(error);
  }

  // WAL appends alone, with payloads the size of this workload's adds.
  std::vector<double> append_us;
  uint64_t wal_bytes = 0;
  {
    ScopedSpan s(tr, "core.wal.append");
    const std::string path = workdir + "/append.wal";
    RemoveFile(path);
    const std::unique_ptr<WalWriter> writer = WalWriter::Open(path, 0);
    const uint64_t start_bytes = writer->size_bytes();
    for (uint32_t i = 0; i < n_adds; ++i) {
      const std::vector<uint8_t> payload(AddRecordBytes(in.pool.Row(i)),
                                         static_cast<uint8_t>(i));
      const double t0 = Now();
      writer->AppendRecord(payload);
      writer->Flush(false);
      append_us.push_back((Now() - t0) * 1e6);
    }
    wal_bytes = writer->size_bytes() - start_bytes;
  }

  const double add_tail = TailQuantile(add_us.size());
  report->Add("core.dynamic_index.add_us", Quantile(add_us, 0.5), "us",
              add_us.size());
  report->Add("core.dynamic_index.add_p99_us", Quantile(add_us, add_tail),
              "us", add_us.size());
  report->Add("core.dynamic_index.remove_us", Quantile(remove_us, 0.5), "us",
              remove_us.size());
  report->Add("core.dynamic_index.compactions",
              static_cast<double>(compactions), "count");
  report->Add("core.dynamic_index.ghost_frac",
              Ratio(static_cast<double>(ghost_stats.ghost_candidates),
                    static_cast<double>(ghost_stats.candidates)),
              "frac");
  report->Add("core.dynamic_index.compact_s", compact_s, "s");
  report->Add("core.dynamic_index.query_compacting_us",
              Quantile(compacting_us, 0.5), "us", compacting_us.size());
  report->Add("core.wal.append_us", Quantile(append_us, 0.5), "us",
              append_us.size());
  report->Add("core.wal.bytes_per_write",
              Ratio(static_cast<double>(wal_bytes),
                    static_cast<double>(n_adds)),
              "B", n_adds);
  RemoveFile(wal);
}

// --- the workload's own serving path ----------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

void TraceServingPath(const WorkloadSpec& spec, const Args& args,
                      const Inputs& in, Tracer* tr, Report* report,
                      Tally* tally) {
  Serving serving;
  {
    ScopedSpan s(tr, "serve.setup");
    serving = SetUpServing(spec, in, args.workdir);
  }
  double save_s = serving.save_s, load_s = serving.load_s;
  uint64_t bytes = FileBytes(serving.index_path);
  const std::string checkpoint = args.workdir + "/trace.dyn";
  if (serving.durable != nullptr) {
    // The durable index persists as a checkpoint and restarts from it.
    double t0 = Now();
    serving.durable->SaveFile(checkpoint);
    save_s = Now() - t0;
    bytes = FileBytes(checkpoint);
    t0 = Now();
    const auto restarted =
        DynamicIndex::LoadFile(checkpoint, DynamicIndexConfig{});
    load_s = Now() - t0;
  }
  report->Add("core.index_io.build_s", serving.build_s, "s");
  report->Add("core.index_io.save_s", save_s, "s");
  report->Add("core.index_io.load_s", load_s, "s");
  report->Add("core.index_io.bytes", static_cast<double>(bytes), "B");

  // A short open loop: per-request spans, and the generator's own health.
  const double rate = spec.offered_ops_per_s * args.scale;
  const auto num_ops =
      static_cast<uint64_t>(std::ceil(rate * kOpenLoopShare * args.seconds));
  const std::vector<Op> ops = MakeSchedule(spec, in, args.seed, num_ops);
  std::vector<OpRecord> recs(ops.size());
  int64_t root = -1;
  double cpu_util = 0.0;
  auto drive = [&](auto& index) {
    WarmUp(index, in);
    root = tr->Open("serve.open_loop");
    const double cpu0 = CpuSeconds(), wall0 = Now();
    RunOpenLoop(index, in, ops, 0, ops.size(), rate, &recs);
    cpu_util = Ratio(CpuSeconds() - cpu0,
                     (Now() - wall0) * std::thread::hardware_concurrency());
    tr->Close(root);
  };
  if (serving.sharded != nullptr) {
    drive(*serving.sharded);
  } else {
    drive(*serving.durable);
    serving.durable->WaitForCompaction();
  }
  std::vector<double> late_ms, query_ms;
  uint64_t errors = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    static const char* kNames[] = {"serve.query", "serve.add", "serve.remove"};
    tr->Record(kNames[ops[i].kind], recs[i].start, recs[i].end, root, i);
    late_ms.push_back((recs[i].start - recs[i].due) * 1e3);
    if (ops[i].kind == Op::kQuery) {
      query_ms.push_back((recs[i].end - recs[i].due) * 1e3);
    }
    errors += recs[i].error ? 1 : 0;
  }
  const double span_s = recs.back().end - recs.front().due;
  report->Add("loadgen.late_p99_ms",
              Quantile(late_ms, TailQuantile(late_ms.size())), "ms",
              late_ms.size());
  report->Add("loadgen.achieved_frac",
              Ratio(static_cast<double>(ops.size()) / span_s, rate), "frac");
  report->Add("proc.cpu_util", cpu_util, "frac");
  report->Add("serve.query_p99_ms",
              Quantile(query_ms, TailQuantile(query_ms.size())), "ms",
              query_ms.size());
  RemoveFile(checkpoint);
  tally->attempted += ops.size();
  tally->failed += errors + CheckAnswers(spec, in, ops, recs);
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  Tracer tr;
  Inputs in;
  {
    ScopedSpan s(&tr, "data.gen");
    in = MakeInputs(spec, args);
  }
  PrintRunHeader(args, in);
  Report report(spec.name);
  report.Add("data.gen_s", in.gen_seconds, "s");
  Tally tally;
  if (spec.measure == Measure::kCosine) {
    TraceJoin<CosineFamily>(spec, in.all, &tr, &report, &tally);
  } else {
    TraceJoin<JaccardFamily>(spec, in.all, &tr, &report, &tally);
  }
  TraceServingLayers(spec, in, &tr, &report, &tally);
  TraceWrites(spec, in, args.workdir, &tr, &report, &tally);
  TraceServingPath(spec, args, in, &tr, &report, &tally);
  tr.Write(args.workdir + "/spans.json");
  return report.Finish(tally.failed == 0, tally.attempted, tally.failed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (!args.trace) {
    std::fprintf(stderr, "error: blsh_trace runs traced; end-to-end metrics "
                         "come from blsh_bench\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
