#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <thread>

#include "common/prng.h"
#include "common/simd_ops.h"
#include "common/timer.h"
#include "vec/transforms.h"

namespace perfbench {

namespace {

// A text corpus of the given shape in which every document belongs to a
// planted cluster of four (the text generator's default cluster size).
TextCorpusConfig ClusteredText(uint32_t docs, uint32_t vocab, double avg_len,
                               double len_sigma) {
  TextCorpusConfig c;
  c.num_docs = docs;
  c.vocab_size = vocab;
  c.avg_doc_len = avg_len;
  c.doc_len_sigma = len_sigma;
  c.num_clusters = docs / c.cluster_size;
  return c;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // cosine-sharded: a verification-bound join (lazy SRP hashing, bit
  // compares and posterior evaluation; no exact similarity) and read-only
  // fan-out serving over K shards without a WAL.
  // jaccard-durable: a candidate-generation-bound join (prefix filter and
  // exact similarity; little hashing or posterior work) and read/write
  // serving through the WAL with background compaction, at the 80/15/5
  // query/add/remove mix of a serving index that takes writes.
  // The corpus shapes are those data/paper_datasets.cc gives RCV1 and
  // WikiWords500K (the latter at half its default size).
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"cosine-sharded", "RCV1-shaped", ClusteredText(4500, 12000, 76.0, 0.5),
       Measure::kCosine, 0.7, GeneratorKind::kLsh, VerifierKind::kBayesLsh,
       ServeKind::kSharded, 600.0, 0.0, 0.0},
      {"jaccard-durable", "WikiWords500K-shaped",
       ClusteredText(3000, 30000, 200.0, 0.4), Measure::kJaccard, 0.3,
       GeneratorKind::kAllPairs, VerifierKind::kBayesLshLite,
       ServeKind::kDurable, 600.0, 0.15, 0.05},
  };
  return kWorkloads;
}

namespace {

[[noreturn]] void Usage(const char* prog, const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: %s --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--scale F]\nworkloads:",
               why.c_str(), prog);
  for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double ParseNumber(const char* prog, const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0.0)) {
    Usage(prog, std::string(flag) + " needs a non-negative number");
  }
  return v;
}

std::vector<std::pair<DimId, float>> Entries(const SparseVectorView& v) {
  std::vector<std::pair<DimId, float>> out(v.size());
  for (uint32_t i = 0; i < v.size(); ++i) {
    out[i] = {v.indices[i], v.values[i]};
  }
  return out;
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0], flag + " needs a value");
    const char* val = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : Workloads()) {
        if (w.name == std::string(val)) a.spec = &w;
      }
      if (a.spec == nullptr) {
        Usage(argv[0], "unknown workload " + std::string(val));
      }
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') Usage(argv[0], "--seed needs an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = ParseNumber(argv[0], "--seconds", val);
      have_seconds = a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        Usage(argv[0], "--trace must be 0 or 1");
      }
      a.trace = val[0] == '1';
      have_trace = true;
    } else if (flag == "--scale") {
      a.scale = ParseNumber(argv[0], "--scale", val);
      if (a.scale <= 0.0 || a.scale > 1.0) {
        Usage(argv[0], "--scale must be in (0, 1]");
      }
    } else if (flag == "--workdir") {
      a.workdir = val;
    } else {
      Usage(argv[0], "unrecognized argument " + flag);
    }
  }
  if (a.spec == nullptr || !have_seed || !have_seconds || !have_trace ||
      a.workdir.empty()) {
    Usage(argv[0], "missing a required flag");
  }
  std::filesystem::create_directories(a.workdir);
  return a;
}

Dataset MakeCorpus(const WorkloadSpec& spec, const Args& args,
                   uint32_t index) {
  TextCorpusConfig c = spec.corpus;
  c.num_docs = std::max<uint32_t>(
      64, static_cast<uint32_t>(std::lround(c.num_docs * args.scale)));
  c.num_clusters = c.num_docs / c.cluster_size;
  c.seed = Mix64(args.seed, index);
  const Dataset raw = GenerateTextCorpus(c);
  return spec.measure == Measure::kCosine
             ? L2NormalizeRows(TfIdfTransform(raw))
             : Binarize(raw);
}

Inputs MakeInputs(const WorkloadSpec& spec, const Args& args) {
  Inputs in;
  WallTimer timer;
  in.all = MakeCorpus(spec, args, 0);

  // Every fifth row (by a seeded hash, so held-out rows come from every
  // planted cluster) is held out for adds.
  const uint32_t dims = in.all.num_dims();
  DatasetBuilder base(dims), pool(dims), universe(dims);
  std::vector<uint32_t> pool_rows;
  for (uint32_t i = 0; i < in.all.num_vectors(); ++i) {
    if (Mix64(args.seed, i) % 5 == 0) {
      pool_rows.push_back(i);
    } else {
      base.AddRow(Entries(in.all.Row(i)));
      universe.AddRow(Entries(in.all.Row(i)));
    }
  }
  for (const uint32_t i : pool_rows) {
    pool.AddRow(Entries(in.all.Row(i)));
    universe.AddRow(Entries(in.all.Row(i)));
  }
  in.base = std::move(base).Build();
  in.pool = std::move(pool).Build();
  in.universe = std::move(universe).Build();

  std::mt19937_64 rng(Mix64(args.seed, 0x9E3779B97F4A7C15ULL));
  const uint32_t num_queries = std::min<uint32_t>(1000, in.all.num_vectors());
  for (uint32_t i = 0; i < num_queries; ++i) {
    uint32_t row;
    do {
      row = static_cast<uint32_t>(rng() % in.all.num_vectors());
    } while (in.all.Row(row).empty());
    in.query_rows.push_back(row);
  }
  in.gen_seconds = timer.Seconds();
  return in;
}

PipelineConfig JoinConfig(const WorkloadSpec& spec, uint32_t threads) {
  // Exactly what `bayeslsh allpairs` runs: no shared Gaussian tables.
  PipelineConfig c;
  c.measure = spec.measure;
  c.generator = spec.generator;
  c.verifier = spec.verifier;
  c.threshold = spec.threshold;
  c.seed = kIndexSeed;
  c.num_threads = threads;
  return c;
}

IndexBuildConfig BuildConfig(const WorkloadSpec& spec, uint32_t threads) {
  IndexBuildConfig c;  // CLI-default prefetch.
  c.measure = spec.measure;
  c.threshold = spec.threshold;
  c.seed = kIndexSeed;
  c.num_threads = threads;
  return c;
}

QuerySearchConfig SearchConfig(const WorkloadSpec& spec, uint32_t threads) {
  QuerySearchConfig c;
  c.measure = spec.measure;
  c.threshold = spec.threshold;
  c.seed = kIndexSeed;
  c.num_threads = threads;
  return c;
}

DynamicIndexConfig DurableConfig() {
  // Flush per mutation without fsync: a write survives a process crash.
  DynamicIndexConfig c;
  c.num_threads = 1;
  c.auto_compact_delta_rows = kCompactDeltaRows;
  c.wal_sync = false;
  return c;
}

Serving SetUpServing(const WorkloadSpec& spec, const Inputs& in,
                     const std::string& workdir) {
  Serving s;
  const double start = Now();
  double t = start;
  auto lap = [&t] {
    const double now = Now();
    const double d = now - t;
    t = now;
    return d;
  };
  std::unique_ptr<PersistentIndex> index =
      PersistentIndex::Build(in.base, BuildConfig(spec, kThreads));
  s.build_s = lap();
  if (spec.serve == ServeKind::kSharded) {
    s.index_path = workdir + "/sharded.idx";
    index->SaveFile(s.index_path);
    index.reset();
    s.save_s = lap();
    const std::unique_ptr<PersistentIndex> loaded =
        PersistentIndex::LoadFile(s.index_path);
    s.load_s = lap();
    // `serve --shards 4` with its default of one thread: the shards are
    // rebuilt from the loaded corpus with the loaded index's shape.
    IndexBuildConfig b = BuildConfig(spec, 1);
    b.threshold = loaded->build_threshold();
    b.banding.num_bands = loaded->num_bands();
    b.banding.hashes_per_band = loaded->hashes_per_band();
    b.bbit = loaded->bbit();
    b.seed = loaded->seed();
    ShardedIndexConfig sc;
    sc.num_shards = kShards;
    sc.num_threads = 1;
    s.sharded = std::make_unique<ShardedIndex>(loaded->data(), b, sc);
  } else {
    s.wal_path = workdir + "/durable.wal";
    RemoveFile(s.wal_path);
    s.durable =
        std::make_unique<DynamicIndex>(std::move(index), DurableConfig());
    s.durable->AttachWal(s.wal_path);
  }
  s.total_s = Now() - start;
  return s;
}

std::vector<Op> MakeSchedule(const WorkloadSpec& spec, const Inputs& in,
                             uint64_t seed, uint64_t num_ops) {
  std::mt19937_64 rng(Mix64(seed, 0x5C4ED01EULL));
  std::vector<uint32_t> removable(in.base.num_vectors());
  for (uint32_t i = 0; i < removable.size(); ++i) removable[i] = i;
  std::shuffle(removable.begin(), removable.end(), rng);

  std::vector<Op> ops;
  ops.reserve(num_ops);
  uint32_t next_query = 0, next_add = 0, next_remove = 0;
  for (uint64_t i = 0; i < num_ops; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    if (u < spec.remove_frac && next_remove < removable.size()) {
      ops.push_back({Op::kRemove, removable[next_remove++]});
    } else if (u < spec.remove_frac + spec.add_frac &&
               in.pool.num_vectors() > 0) {
      ops.push_back({Op::kAdd, next_add++ % in.pool.num_vectors()});
    } else {
      const auto nq = static_cast<uint32_t>(in.query_rows.size());
      ops.push_back({Op::kQuery, next_query++ % nq});
    }
  }
  return ops;
}

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

void WaitUntil(double due) {
  constexpr double kSpin = 200e-6;
  const double now = Now();
  if (due - now > kSpin) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(due - now - kSpin));
  }
  while (Now() < due) std::this_thread::yield();
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// When a logical id may and must be visible: surely live from `sure_from`
// until `maybe_dead`, possibly live from `maybe_from` until `sure_dead`.
struct Liveness {
  uint32_t urow = 0;
  double maybe_from = -kInf;
  double sure_from = -kInf;
  double maybe_dead = kInf;
  double sure_dead = kInf;
};

}  // namespace

uint64_t CheckAnswers(const WorkloadSpec& spec, const Inputs& in,
                      const std::vector<Op>& ops,
                      const std::vector<OpRecord>& recs) {
  const uint32_t nb = in.base.num_vectors();
  std::vector<Liveness> live(nb);
  for (uint32_t i = 0; i < nb; ++i) live[i].urow = i;
  std::vector<std::vector<uint32_t>> ids_of_pool_row(in.pool.num_vectors());
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = recs[i];
    if (r.error) continue;
    if (ops[i].kind == Op::kAdd) {
      if (r.id >= live.size()) live.resize(r.id + 1);
      live[r.id] = {nb + ops[i].arg, r.start, r.end, kInf, kInf};
      ids_of_pool_row[ops[i].arg].push_back(r.id);
    } else if (ops[i].kind == Op::kRemove) {
      live[ops[i].arg].maybe_dead = r.start;
      live[ops[i].arg].sure_dead = r.end;
    }
  }

  const QuerySearcher oracle(&in.universe, SearchConfig(spec, kThreads));
  std::vector<SparseVectorView> qs;
  for (const uint32_t row : in.query_rows) qs.push_back(in.all.Row(row));
  const std::vector<std::vector<QueryMatch>> expect = oracle.QueryBatch(qs);

  uint64_t bad = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = recs[i];
    if (ops[i].kind != Op::kQuery || r.error) continue;
    const std::vector<QueryMatch>& want = expect[ops[i].arg];
    auto oracle_has = [&](uint32_t urow, double sim) {
      return std::any_of(want.begin(), want.end(), [&](const QueryMatch& m) {
        return m.id == urow && m.sim == sim;
      });
    };
    auto answered = [&](uint32_t id) {
      return std::any_of(r.answer.begin(), r.answer.end(),
                         [id](const QueryMatch& m) { return m.id == id; });
    };
    auto must_see = [&](uint32_t id) {
      return live[id].sure_from <= r.start && live[id].maybe_dead > r.end;
    };
    bool ok = true;
    for (const QueryMatch& m : r.answer) {
      if (m.id >= live.size() || !oracle_has(live[m.id].urow, m.sim) ||
          live[m.id].maybe_from > r.end || live[m.id].sure_dead < r.start) {
        ok = false;
      }
    }
    for (const QueryMatch& w : want) {
      if (w.id < nb) {
        if (must_see(w.id) && !answered(w.id)) ok = false;
      } else {
        for (const uint32_t id : ids_of_pool_row[w.id - nb]) {
          if (must_see(id) && !answered(id)) ok = false;
        }
      }
    }
    if (!ok) ++bad;
  }
  return bad;
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double TailQuantile(size_t n) {
  for (const double q : {0.99, 0.95, 0.9}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

int Report::Finish(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("%s %s %.6g %s (n=%llu)\n", workload_.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g: every digit as measured; JSON has no NaN or infinity.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void PrintRunHeader(const Args& args, const Inputs& in) {
  const WorkloadSpec& s = *args.spec;
  std::printf("# workload %s seed %llu seconds %g trace %d scale %g\n",
              s.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.scale);
  std::printf("# nproc %u simd %s%s build %s index_seed %llu\n",
              std::thread::hardware_concurrency(),
              simd::CompiledIn() ? "avx2-compiled" : "scalar-only",
              simd::Enabled() ? "+dispatch" : "", PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(kIndexSeed));
  std::printf("# %s corpus 0: %u rows, %u dims, %llu nnz (base %u, pool %u, "
              "%zu queries), generated in %.3f s\n",
              s.corpus_name, in.all.num_vectors(),
              in.all.num_dims(),
              static_cast<unsigned long long>(in.all.nnz()),
              in.base.num_vectors(), in.pool.num_vectors(),
              in.query_rows.size(), in.gen_seconds);
}

void RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

}  // namespace perfbench
