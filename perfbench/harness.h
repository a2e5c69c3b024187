// Shared plumbing of the two benchmark programs (blsh_bench: end-to-end
// metrics, blsh_trace: per-layer metrics): command line, the workload
// table, seeded input generation, configs, and the result printer.
//
// Inputs come only from --seed: the corpora, the held-out split, the query
// order and the write mix. Every hash family the library builds uses the
// fixed kIndexSeed, so the program under test sees nothing but the
// generated inputs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_index.h"
#include "core/index_io.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "core/sharded_index.h"
#include "data/text_generator.h"
#include "sim/brute_force.h"
#include "vec/dataset.h"

namespace perfbench {

using namespace bayeslsh;

// The hash seed of every join and index (the VLDB'12 vintage the bench/
// programs also use).
inline constexpr uint64_t kIndexSeed = 20120828;

// Worker threads for joins and index builds (the container's core count).
inline constexpr uint32_t kThreads = 4;

// Open-loop generator threads and shards.
inline constexpr uint32_t kClientThreads = 4;
inline constexpr uint32_t kShards = 4;

// The durable index compacts its delta in the background once it holds
// this many rows (ShardedIndex shards never compact on their own).
inline constexpr uint32_t kCompactDeltaRows = 400;

enum class ServeKind {
  kSharded,  // ShardedIndex, K shards, 1 thread each: what `serve` runs.
  kDurable,  // One DynamicIndex with a WAL and auto-compaction.
};

struct WorkloadSpec {
  const char* name;
  const char* corpus_name;
  // The corpus shape; its seed is set per corpus. Every document sits in a
  // planted near-duplicate cluster, so a join has thousands of true pairs
  // and its recall is a steady number.
  TextCorpusConfig corpus;
  Measure measure;
  double threshold;
  GeneratorKind generator;
  VerifierKind verifier;
  ServeKind serve;
  double offered_ops_per_s;
  double add_frac;     // Share of serving ops that add a held-out row.
  double remove_frac;  // Share that removes a base row.
};

const std::vector<WorkloadSpec>& Workloads();

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double scale = 1.0;   // Shrinks datasets and rates (smoke test only).
  std::string workdir;  // Scratch files (index, WAL, checkpoint, spans).
};

// Parses --workload --seed --seconds --trace --workdir [--scale]; prints
// usage and exits 2 on anything else.
Args ParseArgs(int argc, char** argv);

// Corpus `index` of a run: tf-idf weighted and L2-normalized for cosine,
// binarized for Jaccard. Corpus 0 is the serving corpus (`Inputs::all`).
Dataset MakeCorpus(const WorkloadSpec& spec, const Args& args,
                   uint32_t index);

// The seeded inputs. `all` is corpus 0; the serving index starts from
// `base` (80%), adds cycle through `pool` (the held-out 20%), and queries
// are corpus rows in a seeded order. U-rows (the rows of `universe` = base
// then pool) name every content the index can ever hold.
struct Inputs {
  Dataset all;
  Dataset base;
  Dataset pool;
  Dataset universe;
  std::vector<uint32_t> query_rows;  // Rows of `all`.
  double gen_seconds = 0.0;
};

Inputs MakeInputs(const WorkloadSpec& spec, const Args& args);

PipelineConfig JoinConfig(const WorkloadSpec& spec, uint32_t threads);
IndexBuildConfig BuildConfig(const WorkloadSpec& spec, uint32_t threads);
// The config of an unsharded QuerySearcher answering exactly what the
// serving index answers.
QuerySearchConfig SearchConfig(const WorkloadSpec& spec, uint32_t threads);

// The serving index of a workload, set up the way a user would: for
// kSharded, build and save an index, load it, and shard the loaded corpus
// (what `bayeslsh index` then `bayeslsh serve --shards 4` do); for
// kDurable, build a base and attach a fresh WAL. Exactly one of the two
// pointers is set. The stage times are in seconds.
struct Serving {
  std::unique_ptr<ShardedIndex> sharded;
  std::unique_ptr<DynamicIndex> durable;
  double build_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double total_s = 0.0;
  std::string index_path;  // kSharded: the saved index file.
  std::string wal_path;    // kDurable.
};

DynamicIndexConfig DurableConfig();
Serving SetUpServing(const WorkloadSpec& spec, const Inputs& in,
                     const std::string& workdir);

// One serving operation of the open-loop schedule.
struct Op {
  enum Kind : uint8_t { kQuery, kAdd, kRemove } kind;
  uint32_t arg;  // Query: index into query_rows. Add: pool row.
                 // Remove: base id.
};
std::vector<Op> MakeSchedule(const WorkloadSpec& spec, const Inputs& in,
                             uint64_t seed, uint64_t num_ops);

// Seconds on the steady clock since an arbitrary process-wide origin.
double Now();

// What happened to one scheduled operation (times from Now()).
struct OpRecord {
  double due = 0.0;
  double start = 0.0;
  double end = 0.0;
  uint32_t id = 0;  // Add: the assigned id.
  bool error = false;
  std::vector<QueryMatch> answer;
};

// Sleeps until `due`, spinning the last stretch so the generator's own
// wake-up delay does not masquerade as server latency.
void WaitUntil(double due);

// Open loop over ops[begin, end): operation i is due at
// start + (i - begin)/rate whatever the server is doing; kClientThreads
// generator threads claim operations in order, so a stall delays every
// operation queued behind it and that wait counts in its latency
// (end - due). Fills (*recs)[begin, end), which must already be sized.
// Index is ShardedIndex or DynamicIndex.
template <typename Index>
void RunOpenLoop(Index& index, const Inputs& in, const std::vector<Op>& ops,
                 size_t begin, size_t end, double rate,
                 std::vector<OpRecord>* recs) {
  std::atomic<size_t> next{begin};
  const double start = Now() + 0.01;
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= end) return;
      OpRecord& r = (*recs)[i];
      r.due = start + static_cast<double>(i - begin) / rate;
      WaitUntil(r.due);
      r.start = Now();
      try {
        switch (ops[i].kind) {
          case Op::kQuery:
            r.answer = index.Query(in.all.Row(in.query_rows[ops[i].arg]));
            break;
          case Op::kAdd:
            r.id = index.Add(in.pool.Row(ops[i].arg));
            break;
          case Op::kRemove:
            r.error = !index.Remove(ops[i].arg);
            break;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "operation %zu failed: %s\n", i, e.what());
        r.error = true;
      }
      r.end = Now();
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kClientThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
}

// Closed-loop pass over every distinct query, untimed: lets lazily grown
// signatures settle as they would on a server that has been up a while.
template <typename Index>
void WarmUp(const Index& index, const Inputs& in) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < in.query_rows.size();) {
        (void)index.Query(in.all.Row(in.query_rows[i]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// Checks every recorded query answer against an unsharded QuerySearcher
// over `universe`: each returned row must be one the oracle returns, with
// the same similarity, and possibly live during the query; each oracle
// row surely live for the whole query must be returned. Returns the
// number of answers that fail.
uint64_t CheckAnswers(const WorkloadSpec& spec, const Inputs& in,
                      const std::vector<Op>& ops,
                      const std::vector<OpRecord>& recs);

// Value at quantile q of `v` (sorted in place), nearest rank.
double Quantile(std::vector<double>& v, double q);

// The highest of {0.99, 0.95, 0.9, 0.5} with at least ten samples beyond
// it, so a reported tail never rests on fewer than ten observations.
double TailQuantile(size_t n);

double PeakRssMb();

// Collects metrics, prints one "workload metric value unit (n=...)" line
// each, then the final JSON result line.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  void Note(const std::string& line);  // Extra human-readable context.
  // Prints everything; returns the process exit code (0 iff correct).
  int Finish(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
};

// The run header: machine and build facts every result should carry.
void PrintRunHeader(const Args& args, const Inputs& in);

void RemoveFile(const std::string& path);
uint64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
