#include "core/index_io.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <streambuf>

#include "common/prng.h"
#include "common/thread_pool.h"
#include "core/measure_table.h"
#include "vec/binary_io.h"

#if defined(__unix__) || defined(__APPLE__)
#define BAYESLSH_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define BAYESLSH_HAS_MMAP 0
#endif

namespace bayeslsh {

namespace {

// 8 bytes: name + format generation + an 'E' endianness canary in the same
// trailing position as the dataset magic (vec/io.cc).
constexpr char kIndexMagic[8] = {'B', 'L', 'S', 'H', 'I', 'X', '1', 'E'};

// Read-only istream buffer over an in-memory region (the mmap'd index
// file). Fully seekable — the section readers use tellg/seekg both to
// bound allocations (RemainingBytes) and to resolve blob offsets for the
// zero-copy views.
class MemoryStreambuf : public std::streambuf {
 public:
  MemoryStreambuf(const char* base, size_t size)
      : base_(const_cast<char*>(base)), size_(size) {
    setg(base_, base_, base_ + size_);
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    if ((which & std::ios_base::in) == 0) return pos_type(off_type(-1));
    off_type target = off;
    if (dir == std::ios_base::cur) {
      target += gptr() - eback();
    } else if (dir == std::ios_base::end) {
      target += static_cast<off_type>(size_);
    }
    if (target < 0 || target > static_cast<off_type>(size_)) {
      return pos_type(off_type(-1));
    }
    setg(base_, base_ + target, base_ + size_);
    return pos_type(target);
  }

  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }

 private:
  char* base_;
  size_t size_;
};

}  // namespace

// RAII read-only file mapping. The fd is closed right after mmap — the
// mapping holds its own reference to the file.
struct PersistentIndex::MappedFile {
  const char* data = nullptr;
  size_t size = 0;

#if BAYESLSH_HAS_MMAP
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw IndexError("index load: cannot open " + path);
    struct ::stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      throw IndexError("index load: cannot stat " + path);
    }
    size = static_cast<size_t>(st.st_size);
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) {
      throw IndexError("index load: mmap failed for " + path);
    }
    data = static_cast<const char*>(p);
  }

  ~MappedFile() {
    if (data != nullptr) {
      ::munmap(const_cast<char*>(data), size);
    }
  }
#endif

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
};

PersistentIndex::~PersistentIndex() = default;

SignatureKind PersistentIndex::signature_kind() const {
  // Derived from the spec, not the store pointers, so the fingerprint is
  // well-defined during Load before stores exist.
  return spec_.bbit != 0 ? SignatureKind::kBbitPacked
                         : TraitsOf(spec_.measure).signature_kind;
}

uint64_t PersistentIndex::Fingerprint(uint32_t format_version) const {
  uint64_t fp = Mix64(format_version, TraitsOf(spec_.measure).tag);
  fp = Mix64(fp, static_cast<uint64_t>(signature_kind()), spec_.bbit);
  fp = Mix64(fp, spec_.seed, std::bit_cast<uint64_t>(spec_.threshold));
  fp = Mix64(fp, k_, l_);
  fp = Mix64(fp, data_.num_vectors(), data_.num_dims());
  return Mix64(fp, data_.nnz());
}

std::unique_ptr<PersistentIndex> PersistentIndex::Build(
    Dataset data, const IndexBuildConfig& cfg,
    const SignatureAdoption* adopt) {
  std::unique_ptr<PersistentIndex> index(new PersistentIndex());
  index->data_ = std::move(data);
  const Dataset& d = index->data_;
  // Validates the config (threshold domain, bbit, kernel) before any work.
  const MeasureFamily family(cfg, &d, "IndexBuildConfig");
  if (adopt != nullptr && adopt->source == nullptr) adopt = nullptr;
  if (adopt != nullptr) {
    const PersistentIndex& src = *adopt->source;
    if (src.measure() != cfg.measure || src.seed() != cfg.seed ||
        src.bbit() != cfg.bbit) {
      throw std::invalid_argument(
          "SignatureAdoption: source index (measure, seed, bbit) must "
          "match the build config — signatures from a different hash "
          "stream are not the same function");
    }
    if (adopt->source_rows.size() != d.num_vectors()) {
      throw std::invalid_argument(
          "SignatureAdoption: source_rows must have one entry per new "
          "dataset row");
    }
    const uint32_t src_rows = src.data().num_vectors();
    for (const uint32_t sr : adopt->source_rows) {
      if (sr != SignatureAdoption::kFreshRow && sr >= src_rows) {
        throw std::invalid_argument(
            "SignatureAdoption: source_rows names a row beyond the "
            "source index");
      }
    }
  }

  index->spec_ = family.spec();
  const BandingShape shape =
      ResolveBandingShape(cfg.measure, cfg.threshold, cfg.banding);
  // The load path rejects k outside [1, 64] (a cosine band key is one
  // ExtractBits call), so refuse to build what could never be loaded.
  if (shape.hashes_per_band == 0 || shape.hashes_per_band > 64 ||
      shape.num_bands == 0) {
    throw std::invalid_argument(
        "IndexBuildConfig: banding shape must have 1..64 hashes per band "
        "and at least one band");
  }
  index->k_ = shape.hashes_per_band;
  index->l_ = shape.num_bands;

  const uint32_t num_threads = ResolveNumThreads(cfg.num_threads);
  std::unique_ptr<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  if (num_threads > 1) {
    pool_storage = std::make_unique<ThreadPool>(num_threads);
    pool = pool_storage.get();
  }

  // The generation family feeds the banding build; the verification
  // family lives inside the store.
  const HashStream gen = family.Generation();
  index->InitStore(family.Verification());

  // Adopted KLSH signatures are only the same function when the source
  // index hashed against the same kernel and anchors.
  if (adopt != nullptr && family.kernel() != nullptr) {
    const PersistentIndex& src = *adopt->source;
    if (!family.SameKlshFamily(src.spec())) {
      throw std::invalid_argument(
          "SignatureAdoption: KLSH source index kernel/anchors disagree "
          "with the build config");
    }
  }

  // Banding buckets from the generation family (deterministic for any
  // thread count — candgen/banding_index.h).
  index->banding_ =
      gen.bits != nullptr
          ? BandingIndex::BuildBits(d, gen.bits, index->k_, index->l_, pool)
          : BandingIndex::BuildInts(d, gen.ints, index->k_, index->l_,
                                    pool);

  // kPrefetchFull is the default per-candidate serving budget
  // (BayesLshParams::max_hashes), so a warm searcher at default budgets
  // freezes with zero top-up hashing.
  const uint32_t prefetch =
      cfg.prefetch_hashes == kPrefetchFull ? BayesLshParams{}.max_hashes
      : cfg.prefetch_hashes != 0           ? cfg.prefetch_hashes
                                 : family.traits().round_hashes;

  // Adoption happens inside the sharded prefetch (distinct rows touch
  // distinct vectors, like the uncounted growth itself); the ensure call
  // after it only tops up rows the donor left short.
  SignatureStoreBase& store = *index->store_;
  store.AddComputed(ParallelWorkSum(pool, d.num_vectors(), [&](uint64_t r) {
    const auto row = static_cast<uint32_t>(r);
    if (adopt != nullptr &&
        adopt->source_rows[row] != SignatureAdoption::kFreshRow) {
      store.AdoptRow(row, adopt->source->store(), adopt->source_rows[row]);
    }
    return store.EnsureRowUncounted(row, prefetch);
  }));
  return index;
}

void PersistentIndex::InitStore(const HashStream& verification) {
  if (verification.bits != nullptr) {
    store_ = std::make_unique<BitSignatureStore>(&data_, verification.bits);
  } else if (spec_.bbit != 0) {
    store_ = std::make_unique<BbitSignatureStore>(
        &data_, *verification.minwise, spec_.bbit);
  } else {
    store_ = std::make_unique<IntSignatureStore>(&data_, verification.ints);
  }
}

void PersistentIndex::Save(std::ostream& out,
                           uint32_t format_version) const {
  if (format_version < kIndexMinFormatVersion ||
      format_version > kIndexFormatVersion) {
    throw IndexError("index save: unsupported format version " +
                     std::to_string(format_version));
  }
  const MeasureTraits& row = TraitsOf(spec_.measure);
  if (format_version < row.min_format_version) {
    throw IndexError("index save: measure requires format version " +
                     std::to_string(row.min_format_version));
  }
  // v2 and later page-align the signature blob for zero-copy loads.
  const bool align_blob = format_version >= 2;
  out.write(kIndexMagic, sizeof(kIndexMagic));
  WritePod(out, format_version);
  WritePod(out, row.tag);
  WritePod(out, static_cast<uint8_t>(signature_kind()));
  WritePod(out, static_cast<uint8_t>(spec_.bbit));
  WritePod(out, static_cast<uint8_t>(0));  // Reserved.
  WritePod(out, spec_.seed);
  WritePod(out, spec_.threshold);
  WritePod(out, k_);
  WritePod(out, l_);
  const uint64_t fp = Fingerprint(format_version);
  WritePod(out, fp);
  WriteDatasetBinary(data_, out);
  // v3 KLSH measure-config section: the hash family is a function of the
  // kernel and anchors, so both are part of the index — a loaded index
  // must serve bit-for-bit the signatures it stored.
  if (spec_.measure == Measure::kKernelCosine) {
    WritePod(out, static_cast<uint8_t>(spec_.kernel.tag));
    WritePod(out, spec_.kernel.gamma);
    WritePod(out, spec_.klsh.num_anchors);
    WritePod(out, spec_.klsh.subset_size);
    WritePod(out, static_cast<uint8_t>(spec_.klsh.direction));
    WriteDatasetBinary(*spec_.klsh_anchors, out);
  }
  banding_.Save(out);
  store_->Save(out, align_blob);
  WritePod(out, fp);  // End marker: catches truncated tails.
  if (!out) throw IndexError("index save: stream write failed");
}

void PersistentIndex::SaveFile(const std::string& path,
                               uint32_t format_version) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw IndexError("index save: cannot open " + path);
  Save(f, format_version);
}

std::unique_ptr<PersistentIndex> PersistentIndex::Load(std::istream& in,
                                                       bool expect_eof) {
  return LoadInternal(in, expect_eof, /*mapped_base=*/nullptr,
                      /*mapped_size=*/0);
}

std::unique_ptr<PersistentIndex> PersistentIndex::LoadInternal(
    std::istream& in, bool expect_eof, const char* mapped_base,
    size_t mapped_size) {
  try {
    char magic[sizeof(kIndexMagic)];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kIndexMagic, sizeof(magic)) != 0) {
      throw IndexError("index load: bad magic (not a bayeslsh index, or "
                       "written on an incompatible platform)");
    }
    const auto version = ReadPod<uint32_t>(in, "index header: version");
    if (version < kIndexMinFormatVersion ||
        version > kIndexFormatVersion) {
      throw IndexError("index load: unsupported format version " +
                       std::to_string(version) + " (this build reads " +
                       std::to_string(kIndexMinFormatVersion) + ".." +
                       std::to_string(kIndexFormatVersion) + ")");
    }
    if (mapped_base != nullptr && version < 2) {
      throw IndexError(
          "index load: zero-copy (mmap) loading requires a format v2 "
          "index; this file is v" + std::to_string(version) +
          " — load and re-save it to upgrade");
    }
    std::unique_ptr<PersistentIndex> index(new PersistentIndex());
    MeasureSpec& spec = index->spec_;
    const auto measure_tag = ReadPod<uint8_t>(in, "index header: measure");
    const auto rows = MeasureRows();
    const auto row = std::ranges::find(rows, measure_tag, &MeasureTraits::tag);
    if (row == rows.end()) {
      throw IndexError("index header: unknown measure tag " +
                       std::to_string(measure_tag));
    }
    spec.measure = row->measure;
    if (version < row->min_format_version) {
      throw IndexError("index header: measure tag " +
                       std::to_string(measure_tag) +
                       " requires format version " +
                       std::to_string(row->min_format_version));
    }
    const auto sig_kind = ReadPod<uint8_t>(in, "index header: kind");
    spec.bbit = ReadPod<uint8_t>(in, "index header: bbit");
    // Policy since v1: the reserved byte must be zero. It is outside the
    // fingerprint chain, so without this check a flipped reserved byte
    // would load silently — and a future format that assigns it meaning
    // could not trust old writers to have zeroed it.
    const auto reserved = ReadPod<uint8_t>(in, "index header: reserved");
    if (reserved != 0) {
      throw IndexError(
          "index header: reserved byte must be zero (got " +
          std::to_string(reserved) + ")");
    }
    spec.seed = ReadPod<uint64_t>(in, "index header: seed");
    spec.threshold = ReadPod<double>(in, "index header: threshold");
    index->k_ = ReadPod<uint32_t>(in, "index header: hashes_per_band");
    index->l_ = ReadPod<uint32_t>(in, "index header: num_bands");
    const auto stored_fp =
        ReadPod<uint64_t>(in, "index header: fingerprint");

    // Signature kind must cohere with the measure before any store is
    // constructed.
    if (spec.bbit != 0 && spec.measure != Measure::kJaccard) {
      throw IndexError("index header: b-bit width is Jaccard-only");
    }
    const auto kind = static_cast<SignatureKind>(sig_kind);
    if ((kind == SignatureKind::kBbitPacked) !=
        (spec.bbit != 0 && IsValidBbitWidth(spec.bbit))) {
      throw IndexError("index header: inconsistent b-bit width");
    }
    if (kind != index->signature_kind()) {
      throw IndexError("index header: signature kind does not match the "
                       "measure");
    }

    index->data_ = ReadDatasetBinary(in);
    if (index->Fingerprint(version) != stored_fp) {
      throw IndexError("index load: config fingerprint mismatch (file "
                       "corrupt, or header and contents disagree)");
    }
    // v3 KLSH measure-config section (kernel spec + family shape +
    // anchors) — read before the banding so the stores below can rebuild
    // the hash family the file's signatures came from.
    if (spec.measure == Measure::kKernelCosine) {
      const auto ktag = ReadPod<uint8_t>(in, "klsh section: kernel tag");
      if (ktag > static_cast<uint8_t>(KernelTag::kChiSquare)) {
        throw IndexError("klsh section: unknown kernel tag " +
                         std::to_string(ktag));
      }
      spec.kernel.tag = static_cast<KernelTag>(ktag);
      spec.kernel.gamma = ReadPod<double>(in, "klsh section: gamma");
      spec.klsh.num_anchors =
          ReadPod<uint32_t>(in, "klsh section: num_anchors");
      spec.klsh.subset_size =
          ReadPod<uint32_t>(in, "klsh section: subset_size");
      const auto dir = ReadPod<uint8_t>(in, "klsh section: direction");
      if (dir > static_cast<uint8_t>(KlshDirection::kSubsetClt)) {
        throw IndexError("klsh section: unknown direction " +
                         std::to_string(dir));
      }
      spec.klsh.direction = static_cast<KlshDirection>(dir);
      Dataset anchors = ReadDatasetBinary(in);
      if (anchors.num_vectors() == 0 ||
          anchors.num_vectors() != spec.klsh.num_anchors) {
        throw IndexError("klsh section: anchor count disagrees with the "
                         "section header");
      }
      spec.klsh_anchors = std::make_shared<const Dataset>(std::move(anchors));
    }
    index->banding_ = BandingIndex::Load(in, index->data_.num_vectors());
    if (index->banding_.num_bands() != index->l_ ||
        index->banding_.hashes_per_band() != index->k_) {
      throw IndexError("index load: banding section shape disagrees with "
                       "the header");
    }

    // The stores rebuild the verification family the file's signatures
    // came from. Header values the fingerprint vouches for can still
    // name an invalid family (a radius of 0); that fails as a load error.
    try {
      const MeasureFamily family(spec, &index->data_, "index header");
      index->InitStore(family.Verification());
    } catch (const std::invalid_argument& e) {
      throw IndexError(e.what());
    }
    if (mapped_base != nullptr) {
      index->store_->LoadViews(in, mapped_base, mapped_size);
    } else {
      index->store_->Load(in, /*padded=*/version >= 2);
    }

    const auto end_marker = ReadPod<uint64_t>(in, "index end marker");
    if (end_marker != stored_fp) {
      throw IndexError("index load: end marker mismatch (truncated or "
                       "corrupt tail)");
    }
    if (expect_eof && in.peek() != std::istream::traits_type::eof()) {
      throw IndexError("index load: trailing bytes after the end marker");
    }
    return index;
  } catch (const IndexError&) {
    throw;
  } catch (const IoError& e) {
    // Section readers (dataset, banding, signatures) throw plain IoError;
    // surface everything under the one index-load error type.
    throw IndexError(std::string("index load: ") + e.what());
  }
}

std::unique_ptr<PersistentIndex> PersistentIndex::LoadFile(
    const std::string& path) {
  try {
    RequireReadableDataFile(path);
  } catch (const IoError& e) {
    throw IndexError(std::string("index load: ") + e.what());
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) throw IndexError("index load: cannot open " + path);
  return Load(f);
}

std::unique_ptr<PersistentIndex> PersistentIndex::LoadFileMmap(
    const std::string& path) {
#if BAYESLSH_HAS_MMAP
  try {
    RequireReadableDataFile(path);
  } catch (const IoError& e) {
    throw IndexError(std::string("index load: ") + e.what());
  }
  auto mapping = std::make_unique<MappedFile>(path);
  MemoryStreambuf buf(mapping->data, mapping->size);
  std::istream in(&buf);
  auto index = LoadInternal(in, /*expect_eof=*/true, mapping->data,
                            mapping->size);
  index->mapping_ = std::move(mapping);
  return index;
#else
  // No mmap on this platform: plain copying load, identical results.
  return LoadFile(path);
#endif
}

}  // namespace bayeslsh
