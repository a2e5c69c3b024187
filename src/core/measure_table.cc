#include "core/measure_table.h"

#include <stdexcept>
#include <utility>

#include "common/prng.h"
#include "euclidean/pstable_hasher.h"
#include "lsh/bbit_minwise.h"
#include "lsh/icws_hasher.h"
#include "lsh/srp_hasher.h"

namespace bayeslsh {

uint64_t GenerationSeed(uint64_t master_seed) {
  return Mix64(master_seed, 0xC0DEC0DEULL);
}

uint64_t VerificationSeed(uint64_t master_seed) {
  return Mix64(master_seed, 0xFACEFEEDULL);
}

const MeasureTraits& TraitsOf(Measure m) {
  //                          bits   dist   AP     round max   lite mle
  static const MeasureTraits kCosine{true, false, true, 32, 4096, 128, 2048};
  static const MeasureTraits kJaccard{false, false, true, 16, 512, 64, 360};
  static const MeasureTraits kWeighted{false, false, false, 16, 512, 64, 360};
  static const MeasureTraits kKernel{true, false, false, 32, 4096, 128, 2048};
  static const MeasureTraits kEuclidean{false, true, false, 32, 512, 128, 0};
  switch (m) {
    case Measure::kCosine:
    case Measure::kBinaryCosine:
      return kCosine;
    case Measure::kJaccard:
      return kJaccard;
    case Measure::kWeightedJaccard:
      return kWeighted;
    case Measure::kKernelCosine:
      return kKernel;
    case Measure::kEuclidean:
      return kEuclidean;
  }
  throw std::invalid_argument("unknown measure");
}

void CheckThreshold(Measure m, double threshold, const std::string& who) {
  // Written so that NaN fails both tests.
  if (TraitsOf(m).distance) {
    if (!(threshold > 0.0)) {
      throw std::invalid_argument(
          who + ": the Euclidean threshold is a radius and must be > 0");
    }
  } else if (!(threshold > 0.0 && threshold <= 1.0)) {
    throw std::invalid_argument(who + ": threshold must be in (0, 1]");
  }
}

BayesLshParams ResolveBayesParams(Measure m, BayesLshParams params) {
  const std::pair<const char*, double> probabilities[] = {
      {"epsilon", params.epsilon},
      {"delta", params.delta},
      {"gamma", params.gamma}};
  for (const auto& [name, value] : probabilities) {
    // Written so that NaN fails the test.
    if (!(value > 0.0 && value < 1.0)) {
      throw std::invalid_argument(std::string("BayesLshParams: ") + name +
                                  " must be in (0, 1)");
    }
  }
  const MeasureTraits& t = TraitsOf(m);
  if (params.hashes_per_round == 0) params.hashes_per_round = t.round_hashes;
  if (params.max_hashes == 0) params.max_hashes = t.max_hashes;
  params.max_hashes -= params.max_hashes % params.hashes_per_round;
  return params;
}

namespace {

// A hasher bundled with the object it points into, handed out through a
// pointer to the hasher that shares ownership of the bundle.
template <typename Hasher>
struct Held {
  std::shared_ptr<const void> keep;
  Hasher hasher;
};

template <typename Base, typename Hasher>
std::shared_ptr<const Base> Hold(std::shared_ptr<const void> keep,
                                 Hasher hasher) {
  auto held = std::make_shared<const Held<Hasher>>(
      Held<Hasher>{std::move(keep), std::move(hasher)});
  return std::shared_ptr<const Base>(held, &held->hasher);
}

// KlshHasher keeps a raw kernel pointer and is not movable, so it is built
// in place beside the kernel it points at.
struct HeldKlsh {
  HeldKlsh(std::shared_ptr<const Kernel> k, Dataset anchors,
           const KlshParams& params)
      : kernel(std::move(k)),
        hasher(KlshHasher::FromAnchors(std::move(anchors), kernel.get(),
                                       params)) {}

  std::shared_ptr<const Kernel> kernel;
  KlshHasher hasher;
};

}  // namespace

MeasureFamily::MeasureFamily(const MeasureSpec& spec, const Dataset* data,
                             const std::string& who,
                             GaussianSourceCache* gauss)
    : measure_(spec.measure),
      threshold_(spec.threshold),
      seed_(spec.seed),
      data_(data),
      gauss_(gauss),
      kernel_spec_(spec.kernel),
      klsh_(spec.klsh) {
  CheckThreshold(spec.measure, spec.threshold, who);
  if (spec.bbit != 0 && (spec.measure != Measure::kJaccard ||
                         !IsValidBbitWidth(spec.bbit))) {
    throw std::invalid_argument(
        who + ": bbit requires the Jaccard measure and a power-of-two "
              "width in [1, 32]");
  }
  if (spec.measure != Measure::kKernelCosine) return;
  try {
    kernel_ = MakeKernel(spec.kernel);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(who + ": " + e.what());
  }
  // Both streams hash against the same anchors, sampled with the master
  // seed (never a stream seed) so every component sampling from the same
  // collection agrees; only the direction seed differs between streams.
  anchors_ = spec.klsh_anchors != nullptr
                 ? spec.klsh_anchors
                 : std::make_shared<const Dataset>(SampleKlshAnchors(
                       *data, std::min(spec.klsh.num_anchors,
                                       data->num_vectors()),
                       spec.seed));
  klsh_.num_anchors = anchors_->num_vectors();
  // Anchor kernel rows are seed-independent: both streams share one cache.
  row_cache_ = std::make_shared<KlshRowCache>();
}

HashStream MeasureFamily::Stream(uint64_t stream_seed) const {
  HashStream s;
  auto gaussians = [&] {
    s.gauss = gauss_ != nullptr
                  ? gauss_->Get(stream_seed)
                  : std::make_shared<const ImplicitGaussianSource>(
                        stream_seed);
    return s.gauss;
  };
  switch (measure_) {
    case Measure::kCosine:
    case Measure::kBinaryCosine: {
      const auto g = gaussians();
      s.bits = Hold<WordChunkHasher>(g, SrpChunkHasher(SrpHasher(g.get())));
      break;
    }
    case Measure::kKernelCosine: {
      KlshParams kp = klsh_;
      kp.seed = stream_seed;
      const auto held =
          std::make_shared<const HeldKlsh>(kernel_, Dataset(*anchors_), kp);
      s.klsh = std::shared_ptr<const KlshHasher>(held, &held->hasher);
      s.bits = std::make_shared<KlshChunkHasher>(s.klsh, row_cache_, data_);
      break;
    }
    case Measure::kJaccard:
      s.minwise.emplace(stream_seed);
      s.ints = std::make_shared<MinwiseChunkHasher>(*s.minwise);
      break;
    case Measure::kWeightedJaccard:
      s.ints = std::make_shared<IcwsChunkHasher>(IcwsHasher(stream_seed));
      break;
    case Measure::kEuclidean: {
      const auto g = gaussians();
      s.ints = Hold<IntChunkHasher>(
          g, PstableChunkHasher(
                 PstableHasher(g.get(), stream_seed, pstable_width())));
      break;
    }
  }
  return s;
}

bool MeasureFamily::SameKlshFamily(const KernelSpec& kernel,
                                   const KlshParams& klsh,
                                   const Dataset* anchors) const {
  if (anchors_ == nullptr || anchors == nullptr ||
      kernel.tag != kernel_spec_.tag || kernel.gamma != kernel_spec_.gamma ||
      klsh.subset_size != klsh_.subset_size ||
      klsh.direction != klsh_.direction) {
    return false;
  }
  const Dataset& a = *anchors_;
  return anchors == &a ||
         (anchors->num_dims() == a.num_dims() &&
          anchors->indptr() == a.indptr() &&
          anchors->indices() == a.indices() && anchors->values() == a.values());
}

double MeasureFamily::Score(const SparseVectorView& x,
                            const SparseVectorView& y) const {
  return kernel_ != nullptr ? KernelCosine(*kernel_, x, y)
                            : ExactSimilarity(x, y, measure_);
}

PairScorer MeasureFamily::Scorer(const Dataset& data, ThreadPool* pool) const {
  PairScorer scorer;
  scorer.data_ = &data;
  scorer.measure_ = measure_;
  scorer.kernel_ = kernel_;
  if (kernel_ != nullptr) {
    scorer.self_.resize(data.num_vectors());
    ParallelFor(pool, 0, data.num_vectors(), [&](uint64_t i) {
      const SparseVectorView row = data.Row(static_cast<uint32_t>(i));
      scorer.self_[i] = kernel_->Evaluate(row, row);
    });
  }
  return scorer;
}

}  // namespace bayeslsh
