#include "core/measure_table.h"

#include <iterator>
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

namespace {

// One row per measure, in Measure order. The tags and signature kinds are
// wire values: docs/FORMATS.md lists them, and tests/index_io_test.cc pins
// them against saved files.
// clang-format off
constexpr MeasureTraits kMeasureTable[] = {
  // measure, name, tag, first format version, signature kind,
  // unit rows, bits, distance, AllPairs, round, max, lite, mle
  {Measure::kCosine, "cosine", 0, 1, SignatureKind::kSrpBits,
   true, true, false, true, 32, 4096, 128, 2048},
  {Measure::kJaccard, "jaccard", 1, 1, SignatureKind::kMinwiseInts,
   false, false, false, true, 16, 512, 64, 360},
  {Measure::kBinaryCosine, "binary-cosine", 2, 1, SignatureKind::kSrpBits,
   false, true, false, true, 32, 4096, 128, 2048},
  {Measure::kWeightedJaccard, "wjaccard", 3, 3, SignatureKind::kIcwsInts,
   false, false, false, false, 16, 512, 64, 360},
  {Measure::kKernelCosine, "klsh", 4, 3, SignatureKind::kKlshBits,
   false, true, false, false, 32, 4096, 128, 2048},
  {Measure::kEuclidean, "euclidean", 5, 3, SignatureKind::kPstableInts,
   false, false, true, false, 32, 512, 128, 0},
};
// clang-format on

static_assert([] {
  for (size_t i = 0; i < std::size(kMeasureTable); ++i) {
    if (static_cast<size_t>(kMeasureTable[i].measure) != i) return false;
  }
  return true;
}(), "kMeasureTable rows must follow the Measure order");

}  // namespace

const MeasureTraits& TraitsOf(Measure m) {
  const auto row = static_cast<size_t>(m);
  if (row >= std::size(kMeasureTable)) {
    throw std::invalid_argument("unknown measure");
  }
  return kMeasureTable[row];
}

std::span<const MeasureTraits> MeasureRows() { return kMeasureTable; }

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
    : spec_(spec), data_(data), gauss_(gauss) {
  CheckThreshold(spec.measure, spec.threshold, who);
  if (spec.bbit != 0 && (spec.measure != Measure::kJaccard ||
                         !IsValidBbitWidth(spec.bbit))) {
    throw std::invalid_argument(
        who + ": bbit requires the Jaccard measure and a power-of-two "
              "width in [1, 32]");
  }
  if (spec.measure != Measure::kKernelCosine) {
    spec_.kernel = {};
    spec_.klsh = {};
    spec_.klsh_anchors = nullptr;
    return;
  }
  try {
    kernel_ = MakeKernel(spec.kernel);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(who + ": " + e.what());
  }
  // Both streams hash against the same anchors, sampled with the master
  // seed (never a stream seed) so every component sampling from the same
  // collection agrees; only the direction seed differs between streams.
  if (spec_.klsh_anchors == nullptr) {
    spec_.klsh_anchors = std::make_shared<const Dataset>(SampleKlshAnchors(
        *data, std::min(spec.klsh.num_anchors, data->num_vectors()),
        spec.seed));
  }
  spec_.klsh.num_anchors = spec_.klsh_anchors->num_vectors();
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
  switch (spec_.measure) {
    case Measure::kCosine:
    case Measure::kBinaryCosine: {
      const auto g = gaussians();
      s.bits = Hold<WordChunkHasher>(g, SrpChunkHasher(SrpHasher(g.get())));
      break;
    }
    case Measure::kKernelCosine: {
      KlshParams kp = spec_.klsh;
      kp.seed = stream_seed;
      const auto held = std::make_shared<const HeldKlsh>(
          kernel_, Dataset(*spec_.klsh_anchors), kp);
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

bool MeasureFamily::SameKlshFamily(const MeasureSpec& other) const {
  const MeasureSpec& s = spec_;
  if (s.klsh_anchors == nullptr || other.klsh_anchors == nullptr ||
      other.kernel.tag != s.kernel.tag ||
      other.kernel.gamma != s.kernel.gamma ||
      other.klsh.subset_size != s.klsh.subset_size ||
      other.klsh.direction != s.klsh.direction) {
    return false;
  }
  const Dataset& a = *s.klsh_anchors;
  const Dataset& b = *other.klsh_anchors;
  return &a == &b ||
         (b.num_dims() == a.num_dims() && b.indptr() == a.indptr() &&
          b.indices() == a.indices() && b.values() == a.values());
}

double MeasureFamily::Score(const SparseVectorView& x,
                            const SparseVectorView& y) const {
  return kernel_ != nullptr ? KernelCosine(*kernel_, x, y)
                            : ExactSimilarity(x, y, spec_.measure);
}

PairScorer MeasureFamily::Scorer(const Dataset& data, ThreadPool* pool) const {
  PairScorer scorer;
  scorer.data_ = &data;
  scorer.measure_ = spec_.measure;
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
