// The per-measure table: one row per Measure holding every fact the rest
// of the code needs about it, so that adding a measure means adding a row
// (and its hash family below), not a case in each component —
//
//   * its name and on-disk identity: the CLI name, the index header's
//     measure tag, the first index format version that can carry the tag,
//     and the full-width verification signature kind (docs/FORMATS.md);
//   * the row convention: whether rows are L2-normalized;
//   * the threshold domain: a similarity in (0, 1], or for Euclidean a
//     radius > 0 whose scores are negated distances (sim/similarity.h);
//   * the default BayesLSH hash budgets;
//   * which candidate generators and verifiers apply;
//   * the exact scorer;
//   * the generation and verification hash families: stream seeds derived
//     from the master seed, the KLSH kernel and anchors, and the p-stable
//     bucket width w = 2 * radius.
//
// The all-pairs pipeline (core/pipeline.h), the query searcher
// (core/query_search.h) and the persistent index (core/index_io.h) build
// their families here, from a MeasureSpec.
//
// Signatures are pure functions of (master seed, family parameters, row
// content), so every component that builds its families here hashes bit
// for bit alike. Warm starts, sharding and persistence rest on that.

#ifndef BAYESLSH_CORE_MEASURE_TABLE_H_
#define BAYESLSH_CORE_MEASURE_TABLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/bayes_lsh.h"
#include "kernel/kernels.h"
#include "kernel/klsh.h"
#include "lsh/gaussian_source.h"
#include "lsh/minwise_hasher.h"
#include "lsh/store_base.h"
#include "sim/similarity.h"
#include "vec/dataset.h"

namespace bayeslsh {

// Derived seeds for the two independent hash streams (DESIGN.md §6):
// banding hashes are never reused for verification.
uint64_t GenerationSeed(uint64_t master_seed);
uint64_t VerificationSeed(uint64_t master_seed);

struct MeasureTraits {
  Measure measure = Measure::kCosine;

  // The name the CLI's --measure flag takes and diagnostics print.
  const char* name = "";

  // The index header's measure tag, and the first index format version
  // that can carry it (docs/FORMATS.md, "Index file").
  uint8_t tag = 0;
  uint32_t min_format_version = 1;

  // The kind of a full-width verification signature section; a b-bit
  // Jaccard index overrides it with kBbitPacked.
  SignatureKind signature_kind = SignatureKind::kSrpBits;

  // Rows are L2-normalized by convention (sim/similarity.h), so the CLI's
  // --normalize applies to them and to queries.
  bool unit_rows = false;

  // Verification signatures are packed bit words (SRP, KLSH) read through
  // the cosine posterior; otherwise runs of integers (minwise, ICWS,
  // p-stable).
  bool bit_signatures = false;

  // The threshold is a radius and scores are negated distances. Such a
  // measure has no hash-only similarity estimate: it verifies survivors
  // exactly (BayesLSH-Lite or exact verification).
  bool distance = false;

  // The exact prefix-filter generators (candgen/allpairs.h,
  // candgen/prefix_filter_join.h) cover the measure.
  bool allpairs_generator = false;

  // Defaults for the 0-valued budget fields: hashes per BayesLSH round,
  // the BayesLSH budget, the BayesLSH-Lite pruning budget, and the fixed
  // hash count of MLE verification (0: no MLE estimate).
  uint32_t round_hashes = 0;
  uint32_t max_hashes = 0;
  uint32_t lite_hashes = 0;
  uint32_t mle_hashes = 0;
};

// The measure's row. Throws std::invalid_argument for a value outside the
// enumeration.
const MeasureTraits& TraitsOf(Measure m);

// Every measure's row, in Measure order: for lookups by name or tag.
std::span<const MeasureTraits> MeasureRows();

// Throws std::invalid_argument ("<who>: ...") unless `threshold` lies in
// the measure's domain: a similarity in (0, 1], or a radius > 0.
void CheckThreshold(Measure m, double threshold, const std::string& who);

// `params` with hashes_per_round / max_hashes of 0 resolved to the
// measure's defaults and the budget rounded down to whole rounds. Throws
// std::invalid_argument unless epsilon, delta and gamma each lie in
// (0, 1).
BayesLshParams ResolveBayesParams(Measure m, BayesLshParams params);

// The one description of a measure's hash families. The index and
// searcher configs derive from it; a PersistentIndex and a DynamicIndex
// carry the spec they were built with (threshold = the build threshold),
// and whatever rebuilds their families takes that spec whole.
struct MeasureSpec {
  Measure measure = Measure::kCosine;
  double threshold = 0.7;  // Similarity threshold, or Euclidean radius.
  uint64_t seed = 42;      // Master seed.
  uint32_t bbit = 0;       // Jaccard b-bit verification width; 0 = full.

  // kKernelCosine only: the kernel and the KLSH family shape (klsh.seed
  // is ignored — the stream seeds derive from `seed`), and the anchor
  // rows. Null anchors sample min(klsh.num_anchors, collection rows)
  // rows of the collection with the master seed.
  KernelSpec kernel;
  KlshParams klsh;
  std::shared_ptr<const Dataset> klsh_anchors;
};

// One hash stream of a measure's family. The chunk hashers own whatever
// they hash with (Gaussian source, kernel, anchors, row cache), so a store
// holding one needs nothing else kept alive.
struct HashStream {
  // Exactly one is set, per MeasureTraits::bit_signatures.
  std::shared_ptr<const WordChunkHasher> bits;
  std::shared_ptr<const IntChunkHasher> ints;

  // Jaccard: the minwise hasher behind `ints` (b-bit stores and b-bit
  // query packing take it by value).
  std::optional<MinwiseHasher> minwise;

  // KLSH: the hasher behind `bits`, so a query's anchor kernel row is
  // computed once for all of its chunks.
  std::shared_ptr<const KlshHasher> klsh;

  // SRP and p-stable: the Gaussian source behind the hasher.
  std::shared_ptr<const GaussianSource> gauss;
};

// Exact pair scorer over one collection's rows, on the measure's score
// axis (ExactSimilarity, plus the kernel cosine). Safe to call
// concurrently.
class PairScorer {
 public:
  double operator()(uint32_t a, uint32_t b) const {
    if (kernel_ == nullptr) return ExactSimilarity(*data_, a, b, measure_);
    // KernelCosine, with each row's self-kernel evaluated once.
    if (self_[a] <= 0.0 || self_[b] <= 0.0) return 0.0;
    return std::clamp(kernel_->Evaluate(data_->Row(a), data_->Row(b)) /
                          std::sqrt(self_[a] * self_[b]),
                      -1.0, 1.0);
  }

 private:
  friend class MeasureFamily;

  const Dataset* data_ = nullptr;
  Measure measure_ = Measure::kCosine;
  std::shared_ptr<const Kernel> kernel_;
  std::vector<double> self_;
};

// A measure's generation and verification hash families over one
// collection, plus its exact scorer.
class MeasureFamily {
 public:
  // Validates `spec` — the threshold domain, the b-bit width, the kernel —
  // and throws std::invalid_argument ("<who>: ...") if it is invalid.
  // `data` keys the KLSH row cache and must outlive every hasher handed
  // out. Gaussians come from `gauss` when given (shared, possibly
  // quantized tables), else from implicit counter-based sources.
  MeasureFamily(const MeasureSpec& spec, const Dataset* data,
                const std::string& who, GaussianSourceCache* gauss = nullptr);

  // The banding (generation-seed) and verification-seed streams. KLSH
  // factorizes its anchor kernel matrix per call.
  HashStream Generation() const { return Stream(GenerationSeed(spec_.seed)); }
  HashStream Verification() const {
    return Stream(VerificationSeed(spec_.seed));
  }

  // The spec with the KLSH anchors resolved: klsh_anchors holds the rows
  // both streams hash against and klsh.num_anchors their count. The
  // kernel fields of the other measures are reset to their defaults.
  const MeasureSpec& spec() const { return spec_; }

  const MeasureTraits& traits() const { return TraitsOf(spec_.measure); }

  // Accept threshold on the score axis: the similarity threshold, or the
  // negated radius.
  double score_threshold() const {
    return traits().distance ? -spec_.threshold : spec_.threshold;
  }

  // Euclidean: the p-stable bucket width w = 2 * radius, which makes the
  // collision probability at the radius a scale-free constant.
  double pstable_width() const { return 2.0 * spec_.threshold; }

  // KLSH: the kernel (null for the other measures).
  const std::shared_ptr<const Kernel>& kernel() const { return kernel_; }

  // KLSH: whether signatures hashed with `other`'s family (say, a
  // persisted index's) come from this family — the same kernel,
  // construction and anchor rows. The seed is the caller's to compare.
  bool SameKlshFamily(const MeasureSpec& other) const;

  // Exact score of x against y on the measure's score axis.
  double Score(const SparseVectorView& x, const SparseVectorView& y) const;

  // Exact pair scorer over `data`'s rows; the kernel cosine evaluates
  // every row's self-kernel up front, sharded over `pool` (may be null).
  PairScorer Scorer(const Dataset& data, ThreadPool* pool) const;

 private:
  HashStream Stream(uint64_t stream_seed) const;

  MeasureSpec spec_;
  const Dataset* data_;
  GaussianSourceCache* gauss_;
  std::shared_ptr<const Kernel> kernel_;
  std::shared_ptr<KlshRowCache> row_cache_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_MEASURE_TABLE_H_
