// bayeslsh — command-line all-pairs similarity search.
//
// Subcommands:
//
//   bayeslsh allpairs --input data.txt --measure cosine --threshold 0.7
//            [--generator allpairs|lsh] [--verifier bayeslsh|bayeslsh-lite|
//             exact|mle] [--epsilon E] [--delta D] [--gamma G] [--seed S]
//            [--kernel K --kernel-gamma G --anchors N] [--threads N]
//            [--tfidf] [--normalize] [--output pairs.txt]
//       Runs the full pipeline on a dataset file (see vec/io.h for the
//       format) and writes one "a b similarity" line per result pair (for
//       euclidean, "a b distance").
//
//   bayeslsh index --input corpus --output corpus.idx [options]
//       Builds the persistent serving index (banding buckets + prefetched
//       verification signatures) and writes it as one binary file
//       (docs/FORMATS.md).
//
//   bayeslsh query --index corpus.idx --query-file q.txt [options]
//       Loads a persistent index (or a dynamic-index manifest — detected
//       by magic) and runs every row of the query file against it,
//       writing one "query_id match_id similarity" line per match.
//       Repeated invocations amortize index construction: only the load
//       (I/O-bound) is paid per process. --batch serves the whole file
//       through the concurrent QueryBatch engine (sharding over queries
//       with --threads workers), --freeze pins a plain index's signature
//       store to the immutable serving form first, and --qps-report
//       prints a machine-readable throughput line to stderr (reporting
//       the thread count actually used — a contended or unshardable
//       serve reports fewer threads than requested). Results are
//       identical with and without --batch/--freeze.
//
//   bayeslsh add --index corpus.idx --input more.txt [--output FILE]
//       Appends the input rows to the index's delta segment and writes
//       the result as a dynamic-index manifest (a plain index is
//       upgraded to a manifest in place). No rebuild: per row, the cost
//       is one banding insert plus lazy signature growth.
//
//   bayeslsh remove --index corpus.dyn --ids 3,17,42 [--output FILE]
//       Tombstones the given logical ids. All-or-nothing: an id that is
//       not live fails the whole command (exit 2) without writing.
//
//   bayeslsh compact --index corpus.dyn [--output FILE]
//       Folds the delta segment and the tombstones into a new frozen
//       base, preserving logical ids — the background half of the LSM
//       bargain.
//
//   bayeslsh serve --index corpus.idx [--shards K] [options]
//       Long-lived sharded serving front-end: loads either index kind,
//       repartitions the live corpus across K DynamicIndex shards (fresh
//       dense logical ids), and answers a line protocol on stdin —
//       query/add/remove/stats/quit, optionally tagged "@client". Reads
//       degrade instead of hanging (per-query deadlines, per-shard
//       circuit breakers) and overload is rejected immediately
//       (per-client token buckets). The served state is in-memory only;
//       shutdown drains background compaction with a bounded wait.
//
//   bayeslsh generate --kind text|graph --vectors N --output data.txt
//            [--seed S]
//       Writes a synthetic corpus in the library's dataset format, so the
//       tool is try-able without bringing data.
//
//   bayeslsh stats --input data.txt
//       Prints Table-1-style statistics for a dataset file.
//
// Exit codes: 0 success, 1 bad usage, 2 I/O or data error (including
// corrupt, truncated or version-mismatched index files).

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "bayeslsh/bayeslsh.h"

namespace {

using namespace bayeslsh;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  bayeslsh allpairs --input FILE --threshold T [options]\n"
      "  bayeslsh index    --input FILE --output FILE.idx [options]\n"
      "  bayeslsh query    --index FILE.idx --query-file FILE [options]\n"
      "  bayeslsh add      --index FILE.idx --input FILE [--wal FILE]\n"
      "           [--output FILE]\n"
      "  bayeslsh remove   --index FILE.idx --ids ID[,ID...] [--wal FILE]\n"
      "           [--output FILE]\n"
      "  bayeslsh compact  --index FILE.idx [--threads N] [--wal FILE]\n"
      "           [--output FILE]\n"
      "  bayeslsh serve    --index FILE.idx [--shards K] [options]\n"
      "  bayeslsh generate --kind text|graph --vectors N --output FILE\n"
      "           [--binary]\n"
      "  bayeslsh stats --input FILE\n"
      "\n"
      "Input files may be in the text or the binary dataset format\n"
      "(auto-detected); generate writes binary with --binary.\n"
      "\n"
      "allpairs options:\n"
      "  --measure cosine|jaccard|binary-cosine|wjaccard|klsh|euclidean\n"
      "                                           (default cosine)\n"
      "  --threshold T   (for euclidean, the match radius; pairs print\n"
      "                   their distances)\n"
      "  --generator allpairs|lsh                 (default allpairs; the\n"
      "                   allpairs generator covers cosine, jaccard and\n"
      "                   binary-cosine)\n"
      "  --verifier bayeslsh|bayeslsh-lite|exact|mle (default bayeslsh;\n"
      "                   euclidean verifies exactly: bayeslsh runs as\n"
      "                   bayeslsh-lite and mle is refused)\n"
      "  --kernel linear|rbf|chi2 --kernel-gamma G --anchors N\n"
      "                                           (klsh, as for index)\n"
      "  --epsilon E --delta D --gamma G          (default 0.03/0.05/0.03)\n"
      "  --threads N                              (0 = all cores; default 1)\n"
      "  --tfidf --normalize                      (input transforms)\n"
      "  --seed S --output FILE\n"
      "\n"
      "index options:\n"
      "  --measure cosine|jaccard|binary-cosine|wjaccard|klsh|euclidean\n"
      "                                           (default cosine)\n"
      "  --threshold T   (default 0.7; for euclidean, the match radius\n"
      "                   in distance units — required, no default)\n"
      "  --bands L --band-hashes K                (0 = derive; default 0)\n"
      "  --bbit B                                 (Jaccard: b-bit signatures)\n"
      "  --kernel linear|rbf|chi2 --kernel-gamma G --anchors N\n"
      "                  (klsh only: the kernel the measure is defined\n"
      "                   against and the anchor-set size; default\n"
      "                   linear/1.0/256)\n"
      "  --prefetch H|full  (verification hashes/row; full = the whole\n"
      "                      serving budget, the frozen-serving form)\n"
      "  --format-version V (wire layout to write, 1..3; default 3 —\n"
      "                      wjaccard/klsh/euclidean need v3)\n"
      "  --threads N --seed S --tfidf --normalize\n"
      "\n"
      "query options:\n"
      "  --threshold T      (default: the index's build threshold)\n"
      "  --top-k K          (keep only the K best matches per query)\n"
      "  --exact            (exact verification of unpruned candidates)\n"
      "  --normalize        (L2-normalize query rows; cosine indexes)\n"
      "  --batch            (serve all queries through QueryBatch,\n"
      "                      sharded over queries across --threads)\n"
      "  --freeze           (eager-hash to the full budget and freeze the\n"
      "                      store before serving: lock-free reads;\n"
      "                      plain indexes only)\n"
      "  --mmap             (zero-copy load: map the index read-only and\n"
      "                      serve signatures from the mapping; plain\n"
      "                      format-v2+ indexes only, results identical)\n"
      "  --qps-report       (print a JSON throughput line to stderr,\n"
      "                      reporting the threads actually used and the\n"
      "                      tombstone-suppressed ghost candidates)\n"
      "  --threads N --output FILE\n"
      "  --wal FILE         (dynamic indexes: replay un-checkpointed\n"
      "                      mutations from a write-ahead log first)\n"
      "\n"
      "add/remove/compact operate on a dynamic-index manifest (add\n"
      "upgrades a plain index to one); query serves either kind.\n"
      "add options: --normalize (cosine), --threads N, --output FILE\n"
      "\n"
      "serve options (long-lived sharded server; line protocol on stdin,\n"
      "see docs/CLI.md — query/add/remove/stats/quit, '@name' client tag):\n"
      "  --shards K         (index shards behind the router; default 2)\n"
      "  --threshold T --top-k K --exact --normalize --threads N\n"
      "                     (per-query serving knobs, as for `query`)\n"
      "  --mmap             (zero-copy index load, as for `query`)\n"
      "  --deadline-ms D    (per-query budget; expiry returns the merged\n"
      "                      partial answer, flagged — 0 = none)\n"
      "  --rate R --burst B (per-client admission token bucket;\n"
      "                      0 = unlimited)\n"
      "  --breaker-failures N --breaker-open-ms M\n"
      "                     (per-shard circuit breaker: N consecutive\n"
      "                      failures open it for M ms; default 3/1000)\n"
      "  --shard-timeout-ms M  (per-shard sub-query bound, counted as a\n"
      "                         breaker failure; 0 = wait forever)\n"
      "  --drain-timeout-ms M  (shutdown bound on background compaction;\n"
      "                         default 5000 — expiry exits 2)\n"
      "\n"
      "durability options (add/remove/compact):\n"
      "  --wal FILE         (append each mutation to a checksummed\n"
      "                      write-ahead log before acknowledging it, and\n"
      "                      replay any un-checkpointed records from it on\n"
      "                      open; the log resets when the manifest is\n"
      "                      checkpointed)\n"
      "  --wal-sync         (fsync the log after every record: power-loss\n"
      "                      durability, not just process-crash)\n"
      "  --compact-delta-rows N   (auto-compact once the delta segment\n"
      "                            reaches N rows; 0 = off)\n"
      "  --compact-tombstones F   (auto-compact once tombstones exceed\n"
      "                            fraction F of the corpus; 0 = off)\n");
  return 1;
}

// A malformed numeric flag value. Deliberately outside the std::exception
// hierarchy: the commands map std::exception to data and I/O errors
// (exit 2), while a bad flag is a usage error that main reports (exit 1).
struct FlagError {
  std::string message;
};

// The flags a subcommand reads, its helpers' included: `values` take an
// argument, `switches` never do.
struct CommandFlags {
  std::set<std::string> values;
  std::set<std::string> switches;
};

// The subcommand's flags, or null for an unknown subcommand.
const CommandFlags* FlagsOf(const std::string& cmd) {
  static const std::map<std::string, CommandFlags> kFlags = {
      {"allpairs",
       {{"input", "threshold", "measure", "generator", "verifier", "kernel",
         "kernel-gamma", "anchors", "epsilon", "delta", "gamma", "threads",
         "seed", "output"},
        {"tfidf", "normalize"}}},
      {"index",
       {{"input", "output", "measure", "threshold", "bands", "band-hashes",
         "bbit", "kernel", "kernel-gamma", "anchors", "prefetch",
         "format-version", "threads", "seed"},
        {"tfidf", "normalize"}}},
      {"query",
       {{"index", "query-file", "threshold", "top-k", "threads", "output",
         "wal"},
        {"exact", "normalize", "batch", "freeze", "mmap", "qps-report"}}},
      {"serve",
       {{"index", "shards", "threshold", "top-k", "threads", "deadline-ms",
         "rate", "burst", "breaker-failures", "breaker-open-ms",
         "shard-timeout-ms", "drain-timeout-ms"},
        {"exact", "normalize", "mmap"}}},
      {"add",
       {{"index", "input", "output", "threads", "wal", "compact-delta-rows",
         "compact-tombstones"},
        {"normalize", "wal-sync"}}},
      {"remove",
       {{"index", "ids", "output", "threads", "wal", "compact-delta-rows",
         "compact-tombstones"},
        {"wal-sync"}}},
      {"compact",
       {{"index", "output", "threads", "wal", "compact-delta-rows",
         "compact-tombstones"},
        {"wal-sync"}}},
      {"generate", {{"kind", "vectors", "seed", "output"}, {"binary"}}},
      {"stats", {{"input"}, {}}},
  };
  const auto it = kFlags.find(cmd);
  return it == kFlags.end() ? nullptr : &it->second;
}

// Minimal flag parser: --key value pairs plus boolean --flags.
struct Args {
  std::map<std::string, std::string> values;
  std::map<std::string, bool> flags;

  // Parses subcommand `cmd`'s command line. Throws FlagError on a flag
  // the subcommand does not read, a value flag without its value (last,
  // or followed by another --flag), or a token that is no flag's value.
  static Args Parse(int argc, char** argv, int first, const std::string& cmd,
                    const CommandFlags& known) {
    Args a;
    for (int i = first; i < argc; ++i) {
      const std::string token = argv[i];
      const std::string key = token.rfind("--", 0) == 0 ? token.substr(2) : "";
      if (key.empty()) {
        throw FlagError{"unexpected argument '" + token + "'"};
      }
      if (known.switches.count(key) > 0) {
        a.flags[key] = true;
      } else if (known.values.count(key) == 0) {
        throw FlagError{cmd + " does not take " + token};
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        a.values[key] = argv[++i];
      } else {
        throw FlagError{token + " needs a value"};
      }
    }
    return a;
  }

  std::string Get(const std::string& key, const std::string& dflt) const {
    const auto it = values.find(key);
    return it == values.end() ? dflt : it->second;
  }
  // The value of --key as a T (double or an unsigned integer type), or
  // dflt when the flag is absent. Throws FlagError unless the whole value
  // is a finite number that fits T.
  template <typename T>
  T GetNumber(const std::string& key, T dflt) const {
    const auto it = values.find(key);
    if (it == values.end()) return dflt;
    const std::string& text = it->second;
    T v{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size() ||
        !std::isfinite(static_cast<double>(v))) {
      throw FlagError{"--" + key + " must be " +
                      (std::is_integral_v<T> ? "a non-negative integer"
                                             : "a finite number") +
                      " (got '" + text + "')"};
    }
    return v;
  }
  double GetDouble(const std::string& key, double dflt) const {
    return GetNumber(key, dflt);
  }
  bool Has(const std::string& key) const {
    return flags.count(key) > 0 || values.count(key) > 0;
  }
};

// Parses a whole token as a non-negative integer that fits 32 bits:
// digits only, so a negative token cannot wrap into a valid-looking id
// as it would through strtoull. Returns false otherwise.
bool ParseUint32(const std::string& tok, uint32_t* out) {
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), *out);
  return ec == std::errc() && end == tok.data() + tok.size();
}

// Parses --measure into *out by name over the measure table; returns
// false (after printing an error) on an unknown name.
bool ParseMeasure(const Args& args, Measure* out) {
  const std::string name = args.Get("measure", "cosine");
  const auto rows = MeasureRows();
  const auto row = std::ranges::find(rows, std::string_view(name),
                                     &MeasureTraits::name);
  if (row == rows.end()) {
    std::fprintf(stderr, "error: unknown measure '%s'\n", name.c_str());
    return false;
  }
  *out = row->measure;
  return true;
}

// Checks an explicit --threshold against the loaded index's measure: a
// similarity in (0, 1], or a radius > 0. Returns false (after printing an
// error) outside that domain.
bool CheckThresholdFlag(const Args& args, Measure measure) {
  if (!args.Has("threshold")) return true;
  const double t = args.GetDouble("threshold", 0.0);
  try {
    CheckThreshold(measure, t,
                   "--threshold for a " + MeasureName(measure) + " index");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s (got %g)\n", e.what(), t);
    return false;
  }
  return true;
}

// Parses the KLSH-family flags (--kernel, --kernel-gamma, --anchors) of
// `allpairs` and `index`; returns false (after printing an error) on an
// unknown kernel name. No-ops for non-KLSH measures, so callers can apply
// it unconditionally.
template <typename Config>
bool ParseKlshFlags(const Args& args, Config* cfg) {
  if (cfg->measure != Measure::kKernelCosine) return true;
  const std::string kernel = args.Get("kernel", "linear");
  if (!ParseKernelTag(kernel, &cfg->kernel.tag)) {
    std::fprintf(stderr,
                 "error: unknown kernel '%s' (want linear, rbf or chi2)\n",
                 kernel.c_str());
    return false;
  }
  cfg->kernel.gamma = args.GetDouble("kernel-gamma", 1.0);
  const auto anchors = args.GetNumber<uint32_t>("anchors", 0);
  if (anchors != 0) cfg->klsh.num_anchors = anchors;
  return true;
}

// --threads: 0 = all cores, default 1.
uint32_t ParseThreads(const Args& args) {
  return args.GetNumber<uint32_t>("threads", 1);
}

int RunAllPairs(const Args& args) {
  if (!args.Has("input") || !args.Has("threshold")) return Usage();

  Dataset data;
  try {
    data = ReadDatasetAutoFile(args.Get("input", ""));
  } catch (const IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (args.Has("tfidf")) data = TfIdfTransform(data);

  PipelineConfig cfg;
  if (!ParseMeasure(args, &cfg.measure)) return 1;
  if (!ParseKlshFlags(args, &cfg)) return 1;
  const MeasureTraits& traits = TraitsOf(cfg.measure);
  // Cosine expects unit rows; normalize by default for cosine (opt-out by
  // passing pre-normalized data without --normalize is fine too).
  if (traits.unit_rows && (args.Has("normalize") || args.Has("tfidf"))) {
    data = L2NormalizeRows(data);
  }

  const std::string generator = args.Get("generator", "allpairs");
  if (generator == "allpairs") {
    cfg.generator = GeneratorKind::kAllPairs;
  } else if (generator == "lsh") {
    cfg.generator = GeneratorKind::kLsh;
  } else {
    std::fprintf(stderr, "error: unknown generator '%s'\n",
                 generator.c_str());
    return 1;
  }

  const std::string verifier = args.Get("verifier", "bayeslsh");
  if (verifier == "bayeslsh") {
    cfg.verifier = VerifierKind::kBayesLsh;
  } else if (verifier == "bayeslsh-lite") {
    cfg.verifier = VerifierKind::kBayesLshLite;
  } else if (verifier == "exact") {
    cfg.verifier = VerifierKind::kExact;
  } else if (verifier == "mle") {
    cfg.verifier = VerifierKind::kMle;
  } else {
    std::fprintf(stderr, "error: unknown verifier '%s'\n", verifier.c_str());
    return 1;
  }

  cfg.threshold = args.GetDouble("threshold", 0.7);
  cfg.bayes.epsilon = args.GetDouble("epsilon", 0.03);
  cfg.bayes.delta = args.GetDouble("delta", 0.05);
  cfg.bayes.gamma = args.GetDouble("gamma", 0.03);
  cfg.seed = args.GetNumber<uint64_t>("seed", 42);
  cfg.num_threads = ParseThreads(args);

  PipelineResult result;
  try {
    result = RunPipeline(data, cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::ostream* out = &std::cout;
  std::ofstream file;
  if (args.Has("output")) {
    file.open(args.Get("output", ""));
    if (!file) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args.Get("output", "").c_str());
      return 2;
    }
    out = &file;
  }
  // Distance scores are negated; print distances, as `query` does.
  const double sim_scale = traits.distance ? -1.0 : 1.0;
  for (const auto& p : result.pairs) {
    (*out) << p.a << ' ' << p.b << ' ' << p.sim * sim_scale << '\n';
  }

  std::fprintf(stderr,
               "%s: %u vectors, %llu candidates -> %zu pairs in %.3f s "
               "(generate %.3f s, verify %.3f s, %u thread%s)\n",
               result.algorithm.c_str(), data.num_vectors(),
               static_cast<unsigned long long>(result.candidates),
               result.pairs.size(), result.total_seconds,
               result.generate_seconds, result.verify_seconds,
               result.threads_used, result.threads_used == 1 ? "" : "s");
  return 0;
}

int RunIndex(const Args& args) {
  if (!args.Has("input") || !args.Has("output")) return Usage();

  Dataset data;
  try {
    data = ReadDatasetAutoFile(args.Get("input", ""));
  } catch (const IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (args.Has("tfidf")) data = TfIdfTransform(data);

  IndexBuildConfig cfg;
  if (!ParseMeasure(args, &cfg.measure)) return 1;
  if (!ParseKlshFlags(args, &cfg)) return 1;
  const MeasureTraits& traits = TraitsOf(cfg.measure);
  if (traits.unit_rows && (args.Has("normalize") || args.Has("tfidf"))) {
    data = L2NormalizeRows(data);
  }
  // For a distance measure the threshold is a radius, so the similarity
  // default would be meaningless — require an explicit value.
  if (traits.distance && !args.Has("threshold")) {
    std::fprintf(stderr,
                 "error: --measure %s requires an explicit --threshold "
                 "(the match radius, in distance units)\n",
                 traits.name);
    return 1;
  }
  cfg.threshold = args.GetDouble("threshold", 0.7);
  cfg.banding.num_bands = args.GetNumber<uint32_t>("bands", 0);
  cfg.banding.hashes_per_band =
      args.GetNumber<uint32_t>("band-hashes", 0);
  cfg.bbit = args.GetNumber<uint32_t>("bbit", 0);
  if (args.Get("prefetch", "") == "full") {
    cfg.prefetch_hashes = kPrefetchFull;
  } else {
    cfg.prefetch_hashes = args.GetNumber<uint32_t>("prefetch", 0);
  }
  cfg.seed = args.GetNumber<uint64_t>("seed", 42);
  cfg.num_threads = ParseThreads(args);

  // Old writers are still in the fleet, so `index` can emit the previous
  // wire layouts on demand; Save itself rejects a measure the requested
  // version cannot carry (the new measure tags require v3).
  const auto format_version =
      args.GetNumber<uint32_t>("format-version", kIndexFormatVersion);
  if (format_version < 1 || format_version > kIndexFormatVersion) {
    std::fprintf(stderr, "error: --format-version must be 1..%u\n",
                 kIndexFormatVersion);
    return 1;
  }

  try {
    WallTimer build_timer;
    const std::unique_ptr<PersistentIndex> index =
        PersistentIndex::Build(std::move(data), cfg);
    const double build_s = build_timer.Seconds();
    WallTimer save_timer;
    index->SaveFile(args.Get("output", ""), format_version);
    std::fprintf(stderr,
                 "indexed %u vectors: %u bands x %u hashes, built in "
                 "%.3f s, saved to %s in %.3f s\n",
                 index->data().num_vectors(), index->num_bands(),
                 index->hashes_per_band(), build_s,
                 args.Get("output", "").c_str(), save_timer.Seconds());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

// Cross-query accumulation of the per-call QueryStats, for the honest
// --qps-report: widest thread count any query actually reached, plus the
// summed robustness counters (ghosts, expired deadlines, answered shards
// — the last two stay 0 for unsharded serving).
struct ServeTally {
  uint64_t matches = 0;
  uint32_t threads_used = 1;
  uint64_t ghosts = 0;
  uint64_t deadline_expired = 0;
  uint64_t shards_answered = 0;

  void Absorb(const QueryStats& stats) {
    threads_used = std::max(threads_used, stats.threads_used);
    ghosts += stats.ghost_candidates;
    deadline_expired += stats.deadline_expired;
    shards_answered += stats.shards_answered;
  }
};

// Serves every row of `queries` through `searcher` — a QuerySearcher or a
// DynamicIndex, which share the Query/QueryBatch surface —
// writing one "qid id sim" line per match. Stats are per-call (each
// Query overwrites them), so the tally sums across calls. `sim_scale` is
// -1.0 for Euclidean indexes (the engine ranks by negated distance;
// the CLI prints the distance itself) and 1.0 otherwise.
template <typename Searcher>
void ServeQueries(const Searcher& searcher, const Dataset& queries,
                  bool batch, uint32_t top_k, double sim_scale,
                  std::ostream& out, ServeTally* tally) {
  QueryStats stats;
  if (batch) {
    std::vector<SparseVectorView> qviews;
    qviews.reserve(queries.num_vectors());
    for (uint32_t qid = 0; qid < queries.num_vectors(); ++qid) {
      qviews.push_back(queries.Row(qid));
    }
    const std::vector<std::vector<QueryMatch>> batched =
        searcher.QueryBatch(qviews, &stats, top_k);
    tally->Absorb(stats);
    for (uint32_t qid = 0; qid < batched.size(); ++qid) {
      for (const QueryMatch& m : batched[qid]) {
        out << qid << ' ' << m.id << ' ' << m.sim * sim_scale << '\n';
      }
      tally->matches += batched[qid].size();
    }
  } else {
    for (uint32_t qid = 0; qid < queries.num_vectors(); ++qid) {
      const SparseVectorView q = queries.Row(qid);
      const std::vector<QueryMatch> matches =
          searcher.Query(q, &stats, top_k);
      tally->Absorb(stats);
      for (const QueryMatch& m : matches) {
        out << qid << ' ' << m.id << ' ' << m.sim * sim_scale << '\n';
      }
      tally->matches += matches.size();
    }
  }
}

// Applies the shared durability / auto-compaction flags to a dynamic-index
// config. Returns false (after a diagnostic) on a malformed value.
bool ParseDurabilityFlags(const Args& args, DynamicIndexConfig* cfg) {
  cfg->auto_compact_delta_rows =
      args.GetNumber<uint32_t>("compact-delta-rows", 0);
  cfg->auto_compact_tombstone_fraction =
      args.GetDouble("compact-tombstones", 0.0);
  if (cfg->auto_compact_tombstone_fraction < 0.0 ||
      cfg->auto_compact_tombstone_fraction > 1.0) {
    std::fprintf(stderr,
                 "error: --compact-tombstones must be a fraction in "
                 "[0, 1] (got %g)\n",
                 cfg->auto_compact_tombstone_fraction);
    return false;
  }
  cfg->wal_sync = args.Has("wal-sync");
  return true;
}

// Attaches --wal (when given) to an opened dynamic index, replaying any
// un-checkpointed records, and reports what the replay found. Throws
// WalError (exit 2 in the callers) on a corrupt log.
void AttachWalFlag(const Args& args, DynamicIndex* dyn) {
  if (!args.Has("wal")) return;
  const std::string path = args.Get("wal", "");
  const WalRecovery rec = dyn->AttachWal(path);
  if (rec.records > 0 || rec.tail_truncated) {
    std::fprintf(stderr,
                 "wal: replayed %llu record%s from %s (%llu applied, "
                 "%llu already in the checkpoint)%s\n",
                 static_cast<unsigned long long>(rec.records),
                 rec.records == 1 ? "" : "s", path.c_str(),
                 static_cast<unsigned long long>(rec.applied),
                 static_cast<unsigned long long>(rec.skipped),
                 rec.tail_truncated ? "; truncated a torn tail" : "");
  }
}

int RunQuery(const Args& args) {
  if (!args.Has("index") || !args.Has("query-file")) return Usage();

  const uint32_t num_threads = ParseThreads(args);
  const bool dynamic = DynamicIndex::SniffFile(args.Get("index", ""));
  if (dynamic && args.Has("freeze")) {
    std::fprintf(stderr,
                 "error: --freeze applies to plain indexes only (a "
                 "dynamic index keeps its delta segment growable)\n");
    return 1;
  }
  if (!dynamic && args.Has("wal")) {
    std::fprintf(stderr,
                 "error: --wal applies to dynamic indexes only (a plain "
                 "index has no mutation log to replay)\n");
    return 1;
  }
  if (dynamic && args.Has("mmap")) {
    std::fprintf(stderr,
                 "error: --mmap applies to plain indexes only (a dynamic "
                 "manifest embeds its segments mid-stream; compact to a "
                 "plain index to serve zero-copy)\n");
    return 1;
  }

  std::unique_ptr<PersistentIndex> index;
  std::unique_ptr<DynamicIndex> dyn;
  Dataset queries;
  WallTimer load_timer;
  try {
    if (dynamic) {
      DynamicIndexConfig dcfg;
      dcfg.threshold = args.GetDouble("threshold", 0.0);
      dcfg.exact_verification = args.Has("exact");
      dcfg.num_threads = num_threads;
      dyn = DynamicIndex::LoadFile(args.Get("index", ""), dcfg);
      AttachWalFlag(args, dyn.get());
    } else {
      index = args.Has("mmap")
                  ? PersistentIndex::LoadFileMmap(args.Get("index", ""))
                  : PersistentIndex::LoadFile(args.Get("index", ""));
    }
    queries = ReadDatasetAutoFile(args.Get("query-file", ""));
  } catch (const std::invalid_argument& e) {
    // A dynamic index builds its segment searchers at load, so a
    // --threshold outside its measure's domain is refused here, before the
    // measure is known. Reopen it at the build threshold to learn the
    // measure, and refuse the flag in the words used for a plain index.
    if (dynamic) {
      try {
        const Measure measure =
            DynamicIndex::LoadFile(args.Get("index", ""), DynamicIndexConfig{})
                ->measure();
        if (!CheckThresholdFlag(args, measure)) return 1;
      } catch (const std::exception&) {
        // Not a threshold error after all: report the original one.
      }
    }
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {  // IoError/IndexError, bad_alloc.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const double load_s = load_timer.Seconds();
  const Measure measure = dynamic ? dyn->measure() : index->measure();
  // Also refuses an explicit 0, the dynamic config's "serve at the build
  // threshold" sentinel.
  if (!CheckThresholdFlag(args, measure)) return 1;
  const MeasureTraits& traits = TraitsOf(measure);
  const uint32_t index_dims =
      dynamic ? dyn->num_dims() : index->data().num_dims();
  const uint32_t indexed_vectors =
      dynamic ? dyn->num_live() : index->data().num_vectors();
  // Serving contract: an empty query workload or a query vector with no
  // nonzero entries is a data error, not a silent no-op — fail closed with
  // the same exit code 2 + one-line diagnostic as a corrupt index. The
  // emptiness check precedes the dimensionality check: an empty file's
  // declared dimensionality is arbitrary.
  if (queries.num_vectors() == 0) {
    std::fprintf(stderr, "error: query file '%s' contains no query "
                 "vectors\n", args.Get("query-file", "").c_str());
    return 2;
  }
  // A dimensionality mismatch means the query file was vectorized over a
  // different vocabulary — similarities against it would be meaningless,
  // so fail closed rather than emit garbage.
  if (queries.num_dims() != index_dims) {
    std::fprintf(stderr,
                 "error: query file dimensionality %u does not match the "
                 "index's %u (different vocabulary?)\n",
                 queries.num_dims(), index_dims);
    return 2;
  }
  for (uint32_t qid = 0; qid < queries.num_vectors(); ++qid) {
    if (queries.Row(qid).empty()) {
      std::fprintf(stderr, "error: query row %u has no nonzero entries "
                   "(similarity to it is undefined)\n", qid);
      return 2;
    }
  }
  if (args.Has("normalize") && traits.unit_rows) {
    queries = L2NormalizeRows(queries);
  }
  const auto top_k = args.GetNumber<uint32_t>("top-k", 0);

  std::ostream* out = &std::cout;
  std::ofstream file;
  if (args.Has("output")) {
    file.open(args.Get("output", ""));
    if (!file) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args.Get("output", "").c_str());
      return 2;
    }
    out = &file;
  }

  try {
    WallTimer construct_timer;
    std::unique_ptr<QuerySearcher> searcher;
    if (!dynamic) {
      QuerySearchConfig cfg;
      static_cast<MeasureSpec&>(cfg) = index->spec();
      cfg.threshold = args.GetDouble("threshold", index->build_threshold());
      cfg.exact_verification = args.Has("exact");
      cfg.num_threads = num_threads;
      searcher = std::make_unique<QuerySearcher>(index.get(), cfg);
      if (args.Has("freeze")) searcher->Freeze();
    }
    const double construct_s = construct_timer.Seconds();

    WallTimer query_timer;
    ServeTally tally;
    const double sim_scale = traits.distance ? -1.0 : 1.0;
    if (dynamic) {
      ServeQueries(*dyn, queries, args.Has("batch"), top_k, sim_scale,
                   *out, &tally);
    } else {
      ServeQueries(*searcher, queries, args.Has("batch"), top_k, sim_scale,
                   *out, &tally);
    }
    const double serve_s = query_timer.Seconds();

    std::fprintf(stderr,
                 "%u quer%s against %u %s vectors -> %llu matches "
                 "(index loaded in %.3f s, searcher ready in %.3f s, "
                 "served in %.3f s)\n",
                 queries.num_vectors(),
                 queries.num_vectors() == 1 ? "y" : "ies", indexed_vectors,
                 dynamic ? "live" : "indexed",
                 static_cast<unsigned long long>(tally.matches), load_s,
                 construct_s, serve_s);
    if (args.Has("qps-report")) {
      // "threads" is the resolved request; "threads_used" is the widest
      // parallelism any query actually reached — a contended pool or an
      // unshardable candidate list report fewer threads than requested.
      // "ghost_candidates" counts verified matches suppressed because
      // their logical id is tombstoned — the LSM read amplification a
      // compaction would reclaim; always 0 for a plain index.
      // The robustness counters (deadline_expired, shards_answered) are
      // summed from the same QueryStats the sharded serving layer fills;
      // unsharded serving reports them as 0 so one report shape covers
      // every serving mode.
      std::fprintf(
          stderr,
          "{\"queries\": %u, \"matches\": %llu, \"threads\": %u, "
          "\"threads_used\": %u, \"ghost_candidates\": %llu, "
          "\"deadline_expired\": %llu, \"shards_answered\": %llu, "
          "\"batch\": %s, \"frozen\": %s, "
          "\"dynamic\": %s, \"load_seconds\": %.6f, "
          "\"construct_seconds\": %.6f, \"serve_seconds\": %.6f, "
          "\"qps\": %.1f}\n",
          queries.num_vectors(),
          static_cast<unsigned long long>(tally.matches),
          ResolveNumThreads(num_threads), tally.threads_used,
          static_cast<unsigned long long>(tally.ghosts),
          static_cast<unsigned long long>(tally.deadline_expired),
          static_cast<unsigned long long>(tally.shards_answered),
          args.Has("batch") ? "true" : "false",
          !dynamic && searcher->frozen() ? "true" : "false",
          dynamic ? "true" : "false", load_s, construct_s, serve_s,
          serve_s > 0.0 ? queries.num_vectors() / serve_s : 0.0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

// Opens --index as a DynamicIndex: manifests load directly, a plain
// persistent index is wrapped (the in-place upgrade path of `add`).
std::unique_ptr<DynamicIndex> OpenDynamic(const std::string& path,
                                          const DynamicIndexConfig& cfg) {
  if (DynamicIndex::SniffFile(path)) {
    return DynamicIndex::LoadFile(path, cfg);
  }
  return std::make_unique<DynamicIndex>(PersistentIndex::LoadFile(path),
                                        cfg);
}

// ---------------------------------------------------------------------------
// serve: the long-lived sharded serving front-end
// ---------------------------------------------------------------------------

// Parses the serve protocol's vector tokens — "dim:val" pairs, or bare
// "dim" meaning weight 1.0 (the binary-measure shorthand) — into sorted
// parallel arrays, dropping zero-weight entries. On any malformed token,
// non-finite or float-overflowing weight, duplicate or out-of-range
// dimension, or a vector left with no entries, fills *error and returns
// false: protocol errors answer the one client line, they never kill the
// server.
bool ParseServeVector(const std::vector<std::string>& tokens, size_t first,
                      uint32_t num_dims, std::vector<uint32_t>* indices,
                      std::vector<float>* values, std::string* error) {
  std::vector<std::pair<uint32_t, float>> entries;
  for (size_t i = first; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const size_t colon = tok.find(':');
    const std::string dim_part = tok.substr(0, colon);
    uint32_t dim = 0;
    if (!ParseUint32(dim_part, &dim)) {
      *error = "malformed entry '" + tok + "' (want dim:val or dim)";
      return false;
    }
    double val = 1.0;
    if (colon != std::string::npos) {
      const std::string val_part = tok.substr(colon + 1);
      char* end = nullptr;
      val = std::strtod(val_part.c_str(), &end);
      if (val_part.empty() || *end != '\0') {
        *error = "malformed entry '" + tok + "' (want dim:val or dim)";
        return false;
      }
      // Also false for NaN; checked before the float cast overflows.
      if (!(std::abs(val) <= FLT_MAX)) {
        *error = "weight in '" + tok + "' is not a finite float";
        return false;
      }
    }
    if (dim >= num_dims) {
      *error = "dimension " + dim_part + " out of range (index has " +
               std::to_string(num_dims) + " dims)";
      return false;
    }
    entries.emplace_back(dim, static_cast<float>(val));
  }
  std::sort(entries.begin(), entries.end());
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].first == entries[i - 1].first) {
      *error = "duplicate dimension " + std::to_string(entries[i].first);
      return false;
    }
  }
  // As in the dataset text reader: otherwise minwise hashing would count a
  // zero-weight dim as a set member, and serve would answer a row
  // differently from query.
  std::erase_if(entries, [](const auto& e) { return e.second == 0.0f; });
  if (entries.empty()) {
    *error = "vector has no entries (similarity to it is undefined)";
    return false;
  }
  indices->clear();
  values->clear();
  for (const auto& [dim, val] : entries) {
    indices->push_back(dim);
    values->push_back(val);
  }
  return true;
}

// L2-normalizes the parsed values in place (the --normalize convenience
// for cosine serving, mirroring `query`/`add` on files).
void NormalizeServeVector(std::vector<float>* values) {
  double sumsq = 0.0;
  for (const float v : *values) sumsq += static_cast<double>(v) * v;
  if (sumsq <= 0.0) return;
  const float inv = static_cast<float>(1.0 / std::sqrt(sumsq));
  for (float& v : *values) v *= inv;
}

const char* BreakerStateName(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

int RunServe(const Args& args) {
  if (!args.Has("index")) return Usage();
  const uint32_t num_threads = ParseThreads(args);
  ShardedIndexConfig scfg;
  scfg.num_shards = args.GetNumber<uint32_t>("shards", 2);
  scfg.threshold = args.GetDouble("threshold", 0.0);
  scfg.exact_verification = args.Has("exact");
  scfg.num_threads = num_threads;
  scfg.breaker.failure_threshold =
      args.GetNumber<uint32_t>("breaker-failures", 3);
  scfg.breaker.open_seconds =
      args.GetDouble("breaker-open-ms", 1000.0) / 1000.0;
  scfg.shard_timeout_seconds =
      args.GetDouble("shard-timeout-ms", 0.0) / 1000.0;

  AdmissionConfig acfg;
  acfg.tokens_per_second = args.GetDouble("rate", 0.0);
  acfg.burst = args.GetDouble("burst", 0.0);

  ServeOptions opts;
  opts.deadline_seconds = args.GetDouble("deadline-ms", 0.0) / 1000.0;
  const auto top_k = args.GetNumber<uint32_t>("top-k", 0);
  const double drain_s = args.GetDouble("drain-timeout-ms", 5000.0) / 1000.0;

  // Bad control values are refused before the index loads, not
  // reinterpreted: the library would read a negative time, rate or burst
  // as some other setting (no deadline, unlimited, the default burst),
  // and zero breaker failures as one. A bucket below one token would
  // reject every query.
  for (const char* flag : {"shards", "breaker-failures"}) {
    if (args.GetNumber<uint32_t>(flag, 1) == 0) {
      std::fprintf(stderr, "error: --%s must be at least 1\n", flag);
      return 1;
    }
  }
  for (const char* flag : {"deadline-ms", "shard-timeout-ms",
                           "breaker-open-ms", "drain-timeout-ms", "rate"}) {
    if (args.GetDouble(flag, 0.0) < 0.0) {
      std::fprintf(stderr, "error: --%s must not be negative (got %s)\n",
                   flag, args.Get(flag, "").c_str());
      return 1;
    }
  }
  if (acfg.burst != 0.0 && acfg.burst < 1.0) {
    std::fprintf(stderr,
                 "error: --burst must be 0 (the default) or at least 1 "
                 "(got %s)\n",
                 args.Get("burst", "").c_str());
    return 1;
  }

  // Load either index kind and lift out (corpus, build config): the
  // sharded layer repartitions the live rows across K fresh shards, so
  // serve assigns fresh dense logical ids 0..n-1 in the order of the
  // loaded live corpus. The shards hash with the loaded index's family —
  // for KLSH its kernel and anchors, not a resample from the live corpus.
  Dataset corpus;
  IndexBuildConfig build;
  const std::string index_path = args.Get("index", "");
  try {
    if (DynamicIndex::SniffFile(index_path)) {
      if (args.Has("mmap")) {
        std::fprintf(stderr,
                     "error: --mmap applies to plain indexes only (a "
                     "dynamic manifest embeds its segments mid-stream; "
                     "compact to a plain index to serve zero-copy)\n");
        return 1;
      }
      DynamicIndexConfig dcfg;
      dcfg.num_threads = num_threads;
      const std::unique_ptr<DynamicIndex> dyn =
          DynamicIndex::LoadFile(index_path, dcfg);
      static_cast<MeasureSpec&>(build) = dyn->spec();
      build.banding.num_bands = dyn->num_bands();
      build.banding.hashes_per_band = dyn->hashes_per_band();
      corpus = dyn->LiveCorpus();
    } else {
      // --mmap skips copying the signature slabs entirely; serve rebuilds
      // per-shard state from the corpus, so the mapped slabs are never
      // even faulted in.
      const std::unique_ptr<PersistentIndex> index =
          args.Has("mmap") ? PersistentIndex::LoadFileMmap(index_path)
                           : PersistentIndex::LoadFile(index_path);
      static_cast<MeasureSpec&>(build) = index->spec();
      build.banding.num_bands = index->num_bands();
      build.banding.hashes_per_band = index->hashes_per_band();
      corpus = index->data();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  build.num_threads = num_threads;
  // Also refuses an explicit 0, the sharded config's "serve at the build
  // threshold" sentinel.
  if (!CheckThresholdFlag(args, build.measure)) return 1;
  const MeasureTraits& traits = TraitsOf(build.measure);
  const bool normalize = args.Has("normalize") && traits.unit_rows;
  const double sim_scale = traits.distance ? -1.0 : 1.0;

  try {
    ShardedIndex sharded(std::move(corpus), build, scfg);
    AdmissionController admission(acfg);
    std::fprintf(stderr,
                 "serving %u vectors across %u shards (threshold %g, "
                 "%u thread%s per shard); reading protocol lines from "
                 "stdin\n",
                 sharded.num_live(), sharded.num_shards(),
                 scfg.threshold > 0.0 ? scfg.threshold : build.threshold,
                 num_threads, num_threads == 1 ? "" : "s");

    uint64_t queries_served = 0;
    uint64_t matches_total = 0;
    uint64_t deadline_total = 0;
    uint64_t rejected_total = 0;
    std::vector<uint32_t> indices;
    std::vector<float> values;
    std::string line;
    bool quit = false;
    while (!quit && std::getline(std::cin, line)) {
      std::vector<std::string> tokens;
      {
        std::istringstream split(line);
        std::string tok;
        while (split >> tok) tokens.push_back(std::move(tok));
      }
      if (tokens.empty()) continue;
      size_t arg0 = 0;
      std::string client = "anonymous";
      if (tokens[0].size() > 1 && tokens[0][0] == '@') {
        client = tokens[0].substr(1);
        arg0 = 1;
      }
      if (arg0 >= tokens.size()) {
        std::printf("error: client tag without a command\n");
        std::fflush(stdout);
        continue;
      }
      const std::string& cmd = tokens[arg0];
      std::string error;

      if (cmd == "query") {
        if (!ParseServeVector(tokens, arg0 + 1, sharded.num_dims(),
                              &indices, &values, &error)) {
          std::printf("error: %s\n", error.c_str());
          std::fflush(stdout);
          continue;
        }
        if (normalize) NormalizeServeVector(&values);
        // Admission gates reads only: a request whose client has no
        // token is answered "rejected overload" now, never queued behind
        // a flood.
        if (!admission.TryAdmit(client, sharded.Now())) {
          ++rejected_total;
          std::printf("rejected overload\n");
          std::fflush(stdout);
          continue;
        }
        const SparseVectorView q{indices, values};
        QueryStats stats;
        const std::vector<QueryMatch> matches =
            sharded.Query(q, &stats, top_k, opts);
        ++queries_served;
        matches_total += matches.size();
        deadline_total += stats.deadline_expired;
        std::printf("matches %zu shards %llu/%llu%s%s\n", matches.size(),
                    static_cast<unsigned long long>(stats.shards_answered),
                    static_cast<unsigned long long>(stats.shards_total),
                    stats.shards_answered < stats.shards_total
                        ? " partial" : "",
                    stats.deadline_expired != 0 ? " deadline" : "");
        for (const QueryMatch& m : matches) {
          std::printf("%u %g\n", m.id, m.sim * sim_scale);
        }
      } else if (cmd == "add") {
        if (!ParseServeVector(tokens, arg0 + 1, sharded.num_dims(),
                              &indices, &values, &error)) {
          std::printf("error: %s\n", error.c_str());
          std::fflush(stdout);
          continue;
        }
        if (normalize) NormalizeServeVector(&values);
        const uint32_t id = sharded.Add(SparseVectorView{indices, values});
        std::printf("added %u\n", id);
      } else if (cmd == "remove") {
        if (tokens.size() != arg0 + 2) {
          std::printf("error: remove wants exactly one id\n");
          std::fflush(stdout);
          continue;
        }
        const std::string& tok = tokens[arg0 + 1];
        uint32_t id = 0;
        if (!ParseUint32(tok, &id)) {
          std::printf("error: malformed id '%s'\n", tok.c_str());
        } else if (sharded.Remove(id)) {
          std::printf("removed %u\n", id);
        } else {
          std::printf("error: id %u is not a live vector (never "
                      "assigned, or already removed)\n", id);
        }
      } else if (cmd == "stats") {
        std::printf(
            "{\"queries\": %llu, \"matches\": %llu, "
            "\"rejected_overload\": %llu, \"deadline_expired\": %llu, "
            "\"num_live\": %u, \"shards\": %u, \"breakers\": [",
            static_cast<unsigned long long>(queries_served),
            static_cast<unsigned long long>(matches_total),
            static_cast<unsigned long long>(rejected_total),
            static_cast<unsigned long long>(deadline_total),
            sharded.num_live(), sharded.num_shards());
        for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
          std::printf("%s\"%s\"", s == 0 ? "" : ", ",
                      BreakerStateName(sharded.shard_state(s).breaker));
        }
        std::printf("]}\n");
      } else if (cmd == "quit") {
        std::printf("bye\n");
        quit = true;
      } else {
        std::printf("error: unknown command '%s' (want query, add, "
                    "remove, stats or quit)\n", cmd.c_str());
      }
      std::fflush(stdout);
    }

    // Bounded drain: a wedged background compaction must not hang
    // shutdown — report it and exit nonzero instead.
    if (!sharded.WaitForCompaction(drain_s)) {
      std::fprintf(stderr,
                   "error: background compaction still running after the "
                   "%.0f ms drain timeout; exiting without it\n",
                   drain_s * 1000.0);
      return 2;
    }
    std::fprintf(stderr,
                 "served %llu quer%s (%llu matches, %llu rejected for "
                 "overload, %llu past deadline)\n",
                 static_cast<unsigned long long>(queries_served),
                 queries_served == 1 ? "y" : "ies",
                 static_cast<unsigned long long>(matches_total),
                 static_cast<unsigned long long>(rejected_total),
                 static_cast<unsigned long long>(deadline_total));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

int RunAdd(const Args& args) {
  if (!args.Has("index") || !args.Has("input")) return Usage();
  DynamicIndexConfig cfg;
  cfg.num_threads = ParseThreads(args);
  if (!ParseDurabilityFlags(args, &cfg)) return 1;
  const std::string index_path = args.Get("index", "");
  const std::string out_path = args.Get("output", index_path);
  try {
    const std::unique_ptr<DynamicIndex> dyn = OpenDynamic(index_path, cfg);
    AttachWalFlag(args, dyn.get());
    Dataset rows = ReadDatasetAutoFile(args.Get("input", ""));
    // An empty workload is a data error, not a silent no-op — the same
    // fail-closed contract as `query` on an empty query file.
    if (rows.num_vectors() == 0) {
      std::fprintf(stderr, "error: input file '%s' contains no vectors "
                   "to add\n", args.Get("input", "").c_str());
      return 2;
    }
    if (rows.num_dims() != dyn->num_dims()) {
      std::fprintf(stderr,
                   "error: input dimensionality %u does not match the "
                   "index's %u (different vocabulary?)\n",
                   rows.num_dims(), dyn->num_dims());
      return 2;
    }
    if (args.Has("normalize") && TraitsOf(dyn->measure()).unit_rows) {
      rows = L2NormalizeRows(rows);
    }
    uint32_t first_id = 0, last_id = 0;
    for (uint32_t r = 0; r < rows.num_vectors(); ++r) {
      last_id = dyn->Add(rows.Row(r));
      if (r == 0) first_id = last_id;
    }
    // Let any auto-compaction the adds triggered land before the
    // checkpoint, so the saved manifest reflects the compacted shape.
    dyn->WaitForCompaction();
    dyn->SaveFile(out_path);
    std::fprintf(stderr,
                 "added %u vector%s as ids %u..%u; delta now %u rows over "
                 "%u base rows (%u tombstones) -> %s\n",
                 rows.num_vectors(), rows.num_vectors() == 1 ? "" : "s",
                 first_id, last_id, dyn->num_delta_rows(),
                 dyn->num_base_rows(), dyn->num_tombstones(),
                 out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

int RunRemove(const Args& args) {
  if (!args.Has("index") || !args.Has("ids")) return Usage();
  // Parse the comma-separated id list up front: a malformed list is a
  // usage error, before any file is touched.
  std::vector<uint32_t> ids;
  {
    const std::string list = args.Get("ids", "");
    size_t pos = 0;
    while (pos <= list.size()) {
      const size_t comma = std::min(list.find(',', pos), list.size());
      uint32_t v = 0;
      if (!ParseUint32(list.substr(pos, comma - pos), &v)) {
        std::fprintf(stderr,
                     "error: --ids must be a comma-separated list of "
                     "non-negative integers (got '%s')\n", list.c_str());
        return 1;
      }
      ids.push_back(v);
      pos = comma + 1;
    }
    // Dedup: "--ids 5,5" means remove id 5 once; without this the second
    // Remove(5) would silently fail after pre-validation passed.
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  DynamicIndexConfig cfg;
  cfg.num_threads = ParseThreads(args);
  if (!ParseDurabilityFlags(args, &cfg)) return 1;
  const std::string index_path = args.Get("index", "");
  const std::string out_path = args.Get("output", index_path);
  try {
    const std::unique_ptr<DynamicIndex> dyn = OpenDynamic(index_path, cfg);
    AttachWalFlag(args, dyn.get());
    // All-or-nothing: validate every id before the first removal, so a
    // typo'd id cannot leave a half-applied batch behind.
    for (const uint32_t id : ids) {
      if (!dyn->Contains(id)) {
        std::fprintf(stderr,
                     "error: id %u is not a live vector in this index "
                     "(never assigned, or already removed)\n", id);
        return 2;
      }
    }
    for (const uint32_t id : ids) dyn->Remove(id);
    dyn->WaitForCompaction();
    dyn->SaveFile(out_path);
    std::fprintf(stderr,
                 "removed %zu vector%s; %u live rows remain "
                 "(%u tombstones pending compaction) -> %s\n",
                 ids.size(), ids.size() == 1 ? "" : "s", dyn->num_live(),
                 dyn->num_tombstones(), out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

int RunCompact(const Args& args) {
  if (!args.Has("index")) return Usage();
  DynamicIndexConfig cfg;
  cfg.num_threads = ParseThreads(args);
  if (!ParseDurabilityFlags(args, &cfg)) return 1;
  const std::string index_path = args.Get("index", "");
  const std::string out_path = args.Get("output", index_path);
  try {
    // A plain index with no WAL to fold in is already compact. With
    // --wal the log may hold un-checkpointed mutations, so the plain
    // index is upgraded and compacted like any manifest.
    if (!DynamicIndex::SniffFile(index_path) && !args.Has("wal")) {
      // Validate it really is a loadable plain index before declaring
      // victory — a garbage path must still fail closed.
      (void)PersistentIndex::LoadFile(index_path);
      std::fprintf(stderr,
                   "%s is a plain index (a single frozen segment): "
                   "already compact\n", index_path.c_str());
      return 0;
    }
    const std::unique_ptr<DynamicIndex> dyn =
        OpenDynamic(index_path, cfg);
    AttachWalFlag(args, dyn.get());
    const uint32_t delta = dyn->num_delta_rows();
    const uint32_t tombs = dyn->num_tombstones();
    WallTimer timer;
    dyn->Compact();
    dyn->SaveFile(out_path);
    std::fprintf(stderr,
                 "compacted %u delta row%s and %u tombstone%s into a "
                 "frozen base of %u rows in %.3f s -> %s\n",
                 delta, delta == 1 ? "" : "s", tombs,
                 tombs == 1 ? "" : "s", dyn->num_base_rows(),
                 timer.Seconds(), out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

int RunGenerate(const Args& args) {
  if (!args.Has("output")) return Usage();
  const std::string kind = args.Get("kind", "text");
  const uint32_t vectors = args.GetNumber<uint32_t>("vectors", 2000);
  const uint64_t seed = args.GetNumber<uint64_t>("seed", 42);
  if (vectors == 0) {
    std::fprintf(stderr, "error: --vectors must be at least 1\n");
    return 1;
  }

  // The planted clusters or communities are capped so that their rows fit
  // in --vectors; the rest is background.
  Dataset data;
  if (kind == "text") {
    TextCorpusConfig cfg;
    cfg.num_docs = vectors;
    cfg.vocab_size = std::max<uint32_t>(1000, vectors * 4);
    cfg.avg_doc_len = 60;
    cfg.num_clusters = std::min(std::max<uint32_t>(1, vectors / 20),
                                vectors / cfg.cluster_size);
    cfg.seed = seed;
    data = GenerateTextCorpus(cfg);
  } else if (kind == "graph") {
    GraphConfig cfg;
    cfg.num_nodes = vectors;
    cfg.num_communities =
        std::min(cfg.num_communities, vectors / cfg.community_size);
    cfg.seed = seed;
    data = GenerateGraphAdjacency(cfg);
  } else {
    std::fprintf(stderr, "error: unknown kind '%s'\n", kind.c_str());
    return 1;
  }
  try {
    if (args.Has("binary")) {
      WriteDatasetBinaryFile(data, args.Get("output", ""));
    } else {
      WriteDatasetFile(data, args.Get("output", ""));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "wrote %u vectors (%llu non-zeros) to %s\n",
               data.num_vectors(),
               static_cast<unsigned long long>(data.nnz()),
               args.Get("output", "").c_str());
  return 0;
}

int RunStats(const Args& args) {
  if (!args.Has("input")) return Usage();
  Dataset data;
  try {
    data = ReadDatasetAutoFile(args.Get("input", ""));
  } catch (const IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const DatasetStats s = data.Stats();
  std::printf("vectors:        %u\n", s.num_vectors);
  std::printf("dimensions:     %u\n", s.num_dims);
  std::printf("non-zeros:      %llu\n",
              static_cast<unsigned long long>(s.total_nnz));
  std::printf("avg length:     %.1f\n", s.avg_length);
  std::printf("max length:     %u\n", s.max_length);
  std::printf("length stddev:  %.1f\n", s.length_stddev);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const CommandFlags* known = FlagsOf(cmd);
  if (known == nullptr) return Usage();
  try {
    const Args args = Args::Parse(argc, argv, 2, cmd, *known);
    if (cmd == "allpairs") return RunAllPairs(args);
    if (cmd == "index") return RunIndex(args);
    if (cmd == "query") return RunQuery(args);
    if (cmd == "serve") return RunServe(args);
    if (cmd == "add") return RunAdd(args);
    if (cmd == "remove") return RunRemove(args);
    if (cmd == "compact") return RunCompact(args);
    if (cmd == "generate") return RunGenerate(args);
    if (cmd == "stats") return RunStats(args);
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.message.c_str());
    return 1;
  }
  return Usage();
}
