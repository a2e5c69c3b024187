// End-to-end benchmark: one workload per process, untraced.
//
// A run interleaves three measured activities, in rounds, until --seconds
// is spent (at least kMinRounds rounds):
//
//   serve  a window of the open-loop schedule against the one serving
//          index kept for the whole run: operation i is due at a fixed
//          time whatever the server is doing, and its latency runs from
//          that due time, so a stall is charged to every operation queued
//          behind it;
//   join   a join configured exactly as `bayeslsh allpairs` (4 threads),
//          round r on corpus r % kJoinCorpora; every rep must return the
//          pair set of that corpus's first join (for corpus 0, an untimed
//          warm-up join), and recall is counted over the first joins of all
//          corpora against exact joins;
//   setup  the workload's serving index set up from scratch and dropped.
//
// cosine-sharded serves read-only, so its writes go to a second sharded
// index, in a closed-loop burst after every activity.
//
// Interleaving spreads the samples of every metric over the whole run, so
// a slow stretch of the machine moves all of them a little instead of one
// of them a lot; each timing is reported as the median of its samples.
// Recall is pooled over several corpora because one corpus has too few
// true pairs for a steady number: the misses are near-threshold pairs, a
// few percent of them, and their count varies from corpus to corpus.
// Peak memory is read once every activity has run once: later rounds only
// repeat the work, and the allocator's per-thread arenas keep growing with
// the repetition (to 1.7-1.8 times the first round's peak over a 30 s run
// of jaccard-durable), which no single pass of the program would see.
//
// Answers are recorded during the run and checked after it, against an
// unsharded QuerySearcher over every row the index could hold, allowing
// exactly the rows whose add or remove overlapped the query. The durable
// workload also replays its WAL over a pre-run checkpoint and rebuilds the
// final live corpus from scratch; both must answer like the live index.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <random>

#include "common/prng.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr uint32_t kJoinCorpora = 6;
constexpr uint32_t kMinRounds = kJoinCorpora;  // Joins every corpus.
// Per round: one serving window — long enough for a few thousand
// operations overall, short enough to interleave with the rest — then
// joins and set-ups until each has taken this long (so cheap ones get more
// samples).
constexpr double kWindowSeconds = 1.5;
constexpr double kMinJoinSeconds = 0.8;
constexpr double kMinSetupSeconds = 0.4;
// One closed-loop write burst on cosine-sharded: three adds to one
// remove, the 15:5 of jaccard-durable's mix.
constexpr uint32_t kBurstWrites = 40;
// Gates well outside the BayesLSH guarantees (ε = 0.03 misses, estimate
// error ≥ δ with probability ≤ γ = 0.03), so only a broken build fails.
constexpr double kMinRecall = 0.9;
constexpr double kMaxDeltaViolations = 0.1;

// Pairs of `found` that are in `truth` (both sorted by (a, b)).
uint64_t CountFound(const std::vector<ScoredPair>& found,
                    const std::vector<ScoredPair>& truth) {
  uint64_t n = 0;
  size_t j = 0;
  for (const ScoredPair& p : found) {
    while (j < truth.size() &&
           (truth[j].a < p.a || (truth[j].a == p.a && truth[j].b < p.b))) {
      ++j;
    }
    if (j < truth.size() && truth[j].a == p.a && truth[j].b == p.b) ++n;
  }
  return n;
}

uint64_t CsrBytes(const Dataset& d) {
  return d.indptr().size() * sizeof(uint64_t) +
         d.indices().size() * sizeof(DimId) +
         d.values().size() * sizeof(float);
}

// Join quality summed over corpora.
struct Quality {
  uint64_t true_pairs = 0;
  uint64_t found = 0;
  uint64_t output = 0;
  uint64_t violations = 0;

  double Recall() const {
    return true_pairs == 0 ? 1.0
                           : static_cast<double>(found) /
                                 static_cast<double>(true_pairs);
  }
};

// Adds one join's quality against the exact join of `data`. Lite outputs
// exact similarities, so every pair must be a true pair; BayesLSH outputs
// estimates within δ of the truth with probability 1-γ.
void AddQuality(const WorkloadSpec& spec, const Dataset& data,
                const PipelineResult& r, Quality* q) {
  const std::vector<ScoredPair> truth =
      InvertedIndexJoin(data, spec.threshold, spec.measure);
  q->true_pairs += truth.size();
  q->found += CountFound(r.pairs, truth);
  q->output += r.pairs.size();
  const bool lite = spec.verifier == VerifierKind::kBayesLshLite;
  const double delta = JoinConfig(spec, 1).bayes.delta;
  for (const ScoredPair& p : r.pairs) {
    const double exact = ExactSimilarity(data, p.a, p.b, spec.measure);
    if (lite ? exact < spec.threshold || std::abs(exact - p.sim) > 1e-9
             : std::abs(exact - p.sim) >= delta) {
      ++q->violations;
    }
  }
}

bool QualityOk(const WorkloadSpec& spec, const Quality& q) {
  if (spec.verifier == VerifierKind::kBayesLshLite) {
    return q.Recall() >= kMinRecall && q.violations == 0;
  }
  return q.Recall() >= kMinRecall &&
         static_cast<double>(q.violations) <=
             kMaxDeltaViolations * static_cast<double>(q.output);
}

// Closed-loop writes on a sharded index nothing else is using: adds of
// held-out rows and removes of seeded-random base ids, one at a time.
// Appends each latency to *write_ms; returns the number of writes whose
// result was wrong.
uint64_t TimeWrites(ShardedIndex& index, const Inputs& in,
                    std::mt19937_64& rng, std::vector<double>* write_ms) {
  uint64_t bad = 0;
  uint32_t expect_live = index.num_live();
  for (uint32_t i = 0; i < kBurstWrites; ++i) {
    if (i % 4 == 3) {
      const auto id = static_cast<uint32_t>(rng() % in.base.num_vectors());
      const bool live = index.Contains(id);
      const double t0 = Now();
      const bool removed = index.Remove(id);
      write_ms->push_back((Now() - t0) * 1e3);
      bad += removed != live;
      expect_live -= removed ? 1 : 0;
    } else {
      const SparseVectorView row =
          in.pool.Row(static_cast<uint32_t>(rng() % in.pool.num_vectors()));
      const double t0 = Now();
      const uint32_t id = index.Add(row);
      write_ms->push_back((Now() - t0) * 1e3);
      bad += index.Contains(id) ? 0 : 1;
      ++expect_live;
    }
  }
  return bad + (index.num_live() != expect_live ? 1 : 0);
}

// Durable workload: checkpoint + WAL replay, and a from-scratch rebuild of
// the final live corpus, must both answer like the live index. Returns the
// number of checks that failed.
uint64_t CheckDurable(const WorkloadSpec& spec, const Inputs& in,
                      const Serving& serving, const std::string& checkpoint,
                      const std::string& workdir) {
  const DynamicIndex& live = *serving.durable;
  uint64_t bad = 0;
  std::vector<uint32_t> live_ids, replay_ids;
  const Dataset live_rows = live.LiveCorpus(&live_ids);

  const std::string wal_copy = workdir + "/replay.wal";
  std::filesystem::copy_file(serving.wal_path, wal_copy,
                             std::filesystem::copy_options::overwrite_existing);
  DynamicIndexConfig cfg = DurableConfig();
  cfg.auto_compact_delta_rows = 0;
  const std::unique_ptr<DynamicIndex> replayed =
      DynamicIndex::LoadFile(checkpoint, cfg);
  replayed->AttachWal(wal_copy);
  const Dataset replay_rows = replayed->LiveCorpus(&replay_ids);
  if (replay_ids != live_ids || replay_rows.indptr() != live_rows.indptr() ||
      replay_rows.indices() != live_rows.indices() ||
      replay_rows.values() != live_rows.values()) {
    std::fprintf(stderr, "durable check: WAL replay corpus differs\n");
    ++bad;
  }

  const std::unique_ptr<PersistentIndex> fresh =
      PersistentIndex::Build(live_rows, BuildConfig(spec, kThreads));
  const QuerySearcher rebuilt(fresh.get(), SearchConfig(spec, 1));
  constexpr size_t kFinalQueries = 200;
  for (size_t i = 0; i < std::min(kFinalQueries, in.query_rows.size()); ++i) {
    const SparseVectorView q = in.all.Row(in.query_rows[i]);
    const std::vector<QueryMatch> want = live.Query(q);
    std::vector<QueryMatch> got = rebuilt.Query(q);
    for (QueryMatch& m : got) m.id = live_ids[m.id];
    if (replayed->Query(q) != want) ++bad;
    if (got != want) ++bad;
  }
  RemoveFile(wal_copy);
  return bad;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  const Inputs in = MakeInputs(spec, args);
  PrintRunHeader(args, in);
  std::vector<Dataset> extra_corpora;
  for (uint32_t c = 1; c < kJoinCorpora; ++c) {
    extra_corpora.push_back(MakeCorpus(spec, args, c));
  }
  auto corpus = [&](uint32_t c) -> const Dataset& {
    return c == 0 ? in.all : extra_corpora[c - 1];
  };
  Report report(spec.name);
  uint64_t attempted = 0, failed = 0;

  // The untimed warm-up join: the first join of a process also pays for
  // page faults. Its pairs are corpus 0's reference.
  const PipelineConfig join_cfg = JoinConfig(spec, kThreads);
  std::vector<PipelineResult> refs(kJoinCorpora);
  std::vector<bool> have_ref(kJoinCorpora, false);
  refs[0] = RunPipeline(in.all, join_cfg);
  have_ref[0] = true;

  // The serving index kept for the run; its set-up is the first sample.
  std::vector<double> setups, joins, write_ms;
  Serving serving = SetUpServing(spec, in, args.workdir);
  setups.push_back(serving.total_s);
  uint64_t index_bytes = FileBytes(serving.index_path);
  const std::string checkpoint = args.workdir + "/checkpoint.dyn";
  if (serving.durable != nullptr) {
    serving.durable->SaveFile(checkpoint);  // Also resets the WAL.
    index_bytes = FileBytes(checkpoint);
    WarmUp(*serving.durable, in);
  } else {
    WarmUp(*serving.sharded, in);
  }
  const std::string scratch = args.workdir + "/scratch";
  std::filesystem::create_directories(scratch);

  // cosine-sharded's write target.
  Serving writable;
  if (serving.sharded != nullptr) {
    const std::string dir = args.workdir + "/writes";
    std::filesystem::create_directories(dir);
    writable = SetUpServing(spec, in, dir);
  }
  std::mt19937_64 write_rng(Mix64(args.seed, 0x3717E5ULL));
  auto write_burst = [&] {
    if (writable.sharded == nullptr) return;
    attempted += kBurstWrites;
    failed += TimeWrites(*writable.sharded, in, write_rng, &write_ms);
  };

  const double rate = spec.offered_ops_per_s * args.scale;
  const auto window_ops = static_cast<size_t>(std::ceil(rate * kWindowSeconds));
  const std::vector<Op> ops = MakeSchedule(
      spec, in, args.seed,
      static_cast<uint64_t>(std::ceil(rate * args.seconds)) +
          kMinRounds * window_ops);
  std::vector<OpRecord> recs(ops.size());
  size_t done = 0;
  double rss_mb = 0.0;
  const double start = Now();
  for (uint32_t round = 0;
       (round < kMinRounds || Now() - start < args.seconds) &&
       done + window_ops <= ops.size();
       ++round) {
    if (serving.sharded != nullptr) {
      RunOpenLoop(*serving.sharded, in, ops, done, done + window_ops, rate,
                  &recs);
    } else {
      RunOpenLoop(*serving.durable, in, ops, done, done + window_ops, rate,
                  &recs);
      serving.durable->WaitForCompaction();  // Not into the next join.
    }
    done += window_ops;
    write_burst();
    if (round == 0) rss_mb = PeakRssMb();

    const uint32_t c = round % kJoinCorpora;
    for (double spent = 0.0; spent < kMinJoinSeconds;) {
      const double t0 = Now();
      PipelineResult r = RunPipeline(corpus(c), join_cfg);
      joins.push_back(Now() - t0);
      spent += joins.back();
      ++attempted;
      if (!have_ref[c]) {
        refs[c] = std::move(r);
        have_ref[c] = true;
      } else if (r.pairs != refs[c].pairs) {
        ++failed;
      }
      write_burst();
    }
    for (double spent = 0.0; spent < kMinSetupSeconds;) {
      const Serving extra = SetUpServing(spec, in, scratch);
      setups.push_back(extra.total_s);
      spent += extra.total_s;
      write_burst();
    }
  }
  const std::vector<Op> served(ops.begin(), ops.begin() + done);
  recs.resize(done);

  std::vector<double> query_ms, late_ms;
  uint64_t errors = 0;
  for (size_t i = 0; i < done; ++i) {
    const OpRecord& r = recs[i];
    errors += r.error ? 1 : 0;
    (served[i].kind == Op::kQuery ? query_ms : write_ms)
        .push_back((r.end - r.due) * 1e3);
    late_ms.push_back((r.start - r.due) * 1e3);
  }
  attempted += done;
  failed += errors;

  // --- post-run checks (untimed) ---
  Quality quality;
  for (uint32_t c = 0; c < kJoinCorpora; ++c) {
    AddQuality(spec, corpus(c), refs[c], &quality);
  }
  const bool quality_ok = QualityOk(spec, quality);
  const uint64_t wrong = CheckAnswers(spec, in, served, recs);
  failed += wrong;
  if (serving.durable != nullptr) {
    attempted += 1;
    failed += CheckDurable(spec, in, serving, checkpoint, args.workdir) != 0;
  }

  const double tail_q = TailQuantile(query_ms.size());
  report.Add("setup_s", Quantile(setups, 0.5), "s", setups.size());
  report.Add("join_s", Quantile(joins, 0.5), "s", joins.size());
  report.Add("join_recall", quality.Recall(), "frac", quality.true_pairs);
  report.Add("query_p50_ms", Quantile(query_ms, 0.5), "ms", query_ms.size());
  report.Add("write_p50_ms", Quantile(write_ms, 0.5), "ms", write_ms.size());
  report.Add("peak_rss_mb", rss_mb, "MB");
  report.Add("index_bytes_ratio",
             static_cast<double>(index_bytes) /
                 static_cast<double>(CsrBytes(in.base)),
             "ratio");
  char note[240];
  std::snprintf(note, sizeof(note),
                "join: %s, %u corpora, %llu pairs out, %llu true pairs, "
                "%llu found, %llu estimate violations",
                refs[0].algorithm.c_str(), kJoinCorpora,
                static_cast<unsigned long long>(quality.output),
                static_cast<unsigned long long>(quality.true_pairs),
                static_cast<unsigned long long>(quality.found),
                static_cast<unsigned long long>(quality.violations));
  report.Note(note);
  // The tail is reported here, not bounded: on a shared 4-vCPU machine it
  // swings by a quarter or more between identical runs (see README.md).
  std::snprintf(note, sizeof(note),
                "serve: %zu ops in %zu windows at %.0f/s; query p%g %.3f ms "
                "(n=%zu); generator late p99 %.3f ms; %llu errors, %llu "
                "wrong answers",
                done, done / window_ops, rate, tail_q * 100,
                Quantile(query_ms, tail_q), query_ms.size(),
                Quantile(late_ms, 0.99),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(wrong));
  report.Note(note);

  serving = Serving{};
  writable = Serving{};
  std::filesystem::remove_all(args.workdir);
  return report.Finish(quality_ok && failed == 0, attempted, failed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.trace) {
    std::fprintf(stderr, "error: blsh_bench runs untraced; per-layer "
                         "metrics come from blsh_trace\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
