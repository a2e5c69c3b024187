// crash_driver — the crash-kill-recover harness behind
// tests/crash_recover_test.sh.
//
// The durability claim under test (core/dynamic_index.h): with a WAL
// attached, an index killed with SIGKILL at ANY byte of the log —
// including mid-append, leaving a genuinely torn record — recovers on
// the next open to a state query-identical to a from-scratch rebuild of
// exactly the acknowledged mutation prefix. The driver splits the
// experiment into three processes so the kill is a real process death,
// not an in-process simulation:
//
//   crash_driver init   --dir DIR [--seed S]
//       Builds the deterministic base corpus, wraps it in a dynamic
//       index and checkpoints the manifest to DIR/index.dyn. Run once;
//       the test script copies DIR per kill point.
//
//   crash_driver mutate --dir DIR [--seed S] [--crash-at BYTES]
//       Opens the manifest, attaches DIR/wal.log, and applies the
//       scripted pseudo-random Add/Remove sequence (a pure function of
//       the seed), checkpointing every kCheckpointEvery ops. After each
//       acknowledged op it records the op count in DIR/ack (written
//       atomically via rename). With --crash-at, the WAL's fault
//       injection kills the process with SIGKILL once BYTES log bytes
//       have been physically written — usually mid-record.
//
//   crash_driver verify --dir DIR [--seed S]
//       Reopens manifest + WAL (replaying and, when the tail was torn,
//       repairing it), derives from the recovered shape how many script
//       ops k survived, and asserts (a) k covers at least every op the
//       dead process acknowledged (DIR/ack) — durability — and (b) the
//       recovered index answers a deterministic query battery exactly
//       like a fresh index with the first k ops replayed — consistency.
//       It then checkpoints the recovered state and re-verifies the
//       reloaded copy, closing the recover -> checkpoint -> reopen loop.
//
// Exit codes: 0 success, 1 bad usage or failed verification (with a
// diagnostic naming the first divergence), 2 I/O or corruption errors.
// A mutate run killed by its own fault injection exits with SIGKILL
// (status 137 from a shell), which the test script treats as expected.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bayeslsh/bayeslsh.h"

namespace {

using namespace bayeslsh;

// Experiment shape. Small enough that a full init+mutate+verify cycle is
// fast (the test script runs ~20 of them), large enough that the WAL
// spans multiple 4096-byte blocks and checkpoints interleave with ops.
constexpr uint32_t kBaseRows = 48;
constexpr uint32_t kTotalOps = 96;
constexpr uint32_t kCheckpointEvery = 16;
constexpr uint32_t kQueryRows = 24;
constexpr double kThreshold = 0.3;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  crash_driver init   --dir DIR [--seed S]\n"
               "  crash_driver mutate --dir DIR [--seed S] "
               "[--crash-at BYTES]\n"
               "  crash_driver verify --dir DIR [--seed S]\n");
  return 1;
}

// The vector pool: base rows [0, kBaseRows) plus one fresh row per
// possible Add, L2-normalized for the cosine measure. A pure function of
// the seed, so init, mutate and verify all see identical bytes.
Dataset BuildPool(uint64_t seed) {
  TextCorpusConfig cfg;
  cfg.num_docs = kBaseRows + kTotalOps;
  cfg.vocab_size = 600;
  cfg.avg_doc_len = 40.0;
  cfg.num_clusters = 12;
  cfg.seed = seed;
  return L2NormalizeRows(GenerateTextCorpus(cfg));
}

Dataset SliceBase(const Dataset& pool) {
  DatasetBuilder b(pool.num_dims());
  for (uint32_t r = 0; r < kBaseRows; ++r) {
    const SparseVectorView v = pool.Row(r);
    std::vector<std::pair<DimId, float>> entries;
    entries.reserve(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      entries.emplace_back(v.indices[i], v.values[i]);
    }
    b.AddRow(std::move(entries));
  }
  return std::move(b).Build();
}

IndexBuildConfig BaseBuildConfig(uint64_t seed) {
  IndexBuildConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = kThreshold;
  cfg.seed = seed;
  cfg.num_threads = 1;
  return cfg;
}

DynamicIndexConfig ServeConfig() {
  DynamicIndexConfig cfg;
  cfg.num_threads = 1;
  return cfg;
}

// One scripted mutation. Adds consume pool rows kBaseRows, kBaseRows+1,
// ... in order; removes name a logical id that is live at that point of
// the script.
struct Op {
  bool is_add = true;
  uint32_t pool_row = 0;   // is_add: the pool row to insert.
  uint32_t remove_id = 0;  // !is_add: the logical id to tombstone.
};

// The full op script — a pure function of the seed. Roughly one op in
// four removes a (pseudo-randomly chosen) live id, the rest add the next
// pool row; the simulated live set keeps the choices well defined.
std::vector<Op> BuildScript(uint64_t seed) {
  Xoshiro256StarStar rng(Mix64(seed, 0x6f705f736372ull));
  std::vector<uint32_t> live;
  live.reserve(kBaseRows + kTotalOps);
  for (uint32_t id = 0; id < kBaseRows; ++id) live.push_back(id);
  uint32_t next_id = kBaseRows;
  uint32_t next_pool = kBaseRows;

  std::vector<Op> script;
  script.reserve(kTotalOps);
  for (uint32_t i = 0; i < kTotalOps; ++i) {
    Op op;
    if (live.size() > 8 && rng() % 4 == 0) {
      const size_t pick = rng() % live.size();
      op.is_add = false;
      op.remove_id = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      op.is_add = true;
      op.pool_row = next_pool++;
      live.push_back(next_id++);
    }
    script.push_back(op);
  }
  return script;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/index.dyn";
}
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }
std::string AckPath(const std::string& dir) { return dir + "/ack"; }

// Records that the first `count` script ops were acknowledged. Written
// to a temp file and renamed so a SIGKILL can never leave a torn count —
// at worst the file still holds the previous one, which only weakens the
// lower bound verify enforces.
void WriteAck(const std::string& dir, uint32_t count) {
  const std::string tmp = AckPath(dir) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << count << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", tmp.c_str());
      std::exit(2);
    }
  }
  std::filesystem::rename(tmp, AckPath(dir));
}

uint32_t ReadAck(const std::string& dir) {
  std::ifstream in(AckPath(dir));
  uint32_t count = 0;
  if (in) in >> count;
  return count;
}

// Flag parsing (same convention as bayeslsh_cli: --key value).
std::string GetFlag(int argc, char** argv, const std::string& key,
                    const std::string& dflt) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--" + key) return argv[i + 1];
  }
  return dflt;
}
bool HasFlag(int argc, char** argv, const std::string& key) {
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--" + key) return true;
  }
  return false;
}

int RunInit(const std::string& dir, uint64_t seed) {
  std::filesystem::create_directories(dir);
  const Dataset pool = BuildPool(seed);
  std::unique_ptr<PersistentIndex> base =
      PersistentIndex::Build(SliceBase(pool), BaseBuildConfig(seed));
  DynamicIndex dyn(std::move(base), ServeConfig());
  dyn.SaveFile(ManifestPath(dir));
  std::fprintf(stderr, "init: %u base rows -> %s\n", kBaseRows,
               ManifestPath(dir).c_str());
  return 0;
}

int RunMutate(const std::string& dir, uint64_t seed, int argc,
              char** argv) {
  const Dataset pool = BuildPool(seed);
  const std::vector<Op> script = BuildScript(seed);
  std::unique_ptr<DynamicIndex> dyn =
      DynamicIndex::LoadFile(ManifestPath(dir), ServeConfig());
  dyn->AttachWal(WalPath(dir));
  if (HasFlag(argc, argv, "crash-at")) {
    const uint64_t at = std::strtoull(
        GetFlag(argc, argv, "crash-at", "0").c_str(), nullptr, 10);
    // Default on_crash: raise(SIGKILL) mid-append — a real process
    // death leaving a genuinely torn log record behind.
    dyn->SetWalCrashAfterBytes(at);
  }
  for (uint32_t i = 0; i < script.size(); ++i) {
    const Op& op = script[i];
    if (op.is_add) {
      dyn->Add(pool.Row(op.pool_row));
    } else if (!dyn->Remove(op.remove_id)) {
      std::fprintf(stderr, "error: scripted remove of id %u failed\n",
                   op.remove_id);
      return 2;
    }
    // The op is acknowledged (its WAL record is flushed): record it for
    // verify's durability lower bound.
    WriteAck(dir, i + 1);
    if ((i + 1) % kCheckpointEvery == 0) {
      dyn->SaveFile(ManifestPath(dir));  // Also resets the WAL.
    }
  }
  std::fprintf(stderr, "mutate: applied all %zu ops without crashing\n",
               script.size());
  return 0;
}

// Queries every verifier answers in the battery: a prefix of the pool
// (some rows live, some tombstoned, some never added — all legal query
// vectors).
std::vector<uint32_t> QueryBattery() {
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < kQueryRows; ++r) {
    rows.push_back(r * ((kBaseRows + kTotalOps) / kQueryRows));
  }
  return rows;
}

// Compares the two indexes over the battery; returns true iff every
// threshold query and every top-5 query matches result-for-result.
bool QueriesMatch(const DynamicIndex& got, const DynamicIndex& want,
                  const Dataset& pool, const char* phase) {
  for (const uint32_t row : QueryBattery()) {
    const SparseVectorView q = pool.Row(row);
    if (got.Query(q) != want.Query(q) ||
        got.Query(q, nullptr, 5) != want.Query(q, nullptr, 5)) {
      std::fprintf(stderr,
                   "FAIL(%s): query on pool row %u diverges from the "
                   "from-scratch oracle\n",
                   phase, row);
      return false;
    }
  }
  return true;
}

int RunVerify(const std::string& dir, uint64_t seed) {
  const Dataset pool = BuildPool(seed);
  const std::vector<Op> script = BuildScript(seed);
  const uint32_t acked = ReadAck(dir);

  std::unique_ptr<DynamicIndex> dyn =
      DynamicIndex::LoadFile(ManifestPath(dir), ServeConfig());
  const WalRecovery rec = dyn->AttachWal(WalPath(dir));

  // Recover how many script ops survived. The driver never compacts, so
  // the base keeps its init shape, every Add is a delta row and every
  // Remove a tombstone — op count = delta rows + tombstones.
  if (dyn->num_base_rows() != kBaseRows) {
    std::fprintf(stderr, "FAIL: base has %u rows, expected %u\n",
                 dyn->num_base_rows(), kBaseRows);
    return 1;
  }
  const uint32_t k = dyn->num_delta_rows() + dyn->num_tombstones();
  if (k < acked || k > script.size()) {
    std::fprintf(stderr,
                 "FAIL: recovered %u ops but %u were acknowledged "
                 "before the kill (script has %zu)\n",
                 k, acked, script.size());
    return 1;
  }
  // The recovered prefix must be the script's: its add/remove split is
  // forced by the shape we just measured.
  uint32_t adds = 0;
  for (uint32_t i = 0; i < k; ++i) adds += script[i].is_add ? 1 : 0;
  if (adds != dyn->num_delta_rows()) {
    std::fprintf(stderr,
                 "FAIL: recovered shape (%u adds, %u removes) is not "
                 "the script's first %u ops (%u adds)\n",
                 dyn->num_delta_rows(), dyn->num_tombstones(), k, adds);
    return 1;
  }

  // From-scratch oracle: a fresh base with the first k ops replayed —
  // no WAL, no checkpoints, no crash.
  std::unique_ptr<PersistentIndex> base =
      PersistentIndex::Build(SliceBase(pool), BaseBuildConfig(seed));
  DynamicIndex oracle(std::move(base), ServeConfig());
  for (uint32_t i = 0; i < k; ++i) {
    const Op& op = script[i];
    if (op.is_add) {
      oracle.Add(pool.Row(op.pool_row));
    } else if (!oracle.Remove(op.remove_id)) {
      std::fprintf(stderr, "FAIL: oracle remove of id %u failed\n",
                   op.remove_id);
      return 1;
    }
  }
  if (dyn->num_live() != oracle.num_live()) {
    std::fprintf(stderr, "FAIL: recovered %u live rows, oracle has %u\n",
                 dyn->num_live(), oracle.num_live());
    return 1;
  }
  if (!QueriesMatch(*dyn, oracle, pool, "recovered")) return 1;

  // Close the loop: checkpoint the recovered state (resetting the WAL)
  // and verify the reloaded copy too.
  dyn->SaveFile(ManifestPath(dir));
  std::unique_ptr<DynamicIndex> reloaded =
      DynamicIndex::LoadFile(ManifestPath(dir), ServeConfig());
  (void)reloaded->AttachWal(WalPath(dir));  // Now empty; must stay so.
  if (!QueriesMatch(*reloaded, oracle, pool, "checkpointed")) return 1;

  std::fprintf(stderr,
               "verify: OK — %u ops recovered (>= %u acknowledged), "
               "%llu WAL records replayed%s, %u live rows identical to "
               "the oracle\n",
               k, acked, static_cast<unsigned long long>(rec.records),
               rec.tail_truncated ? " after repairing a torn tail" : "",
               dyn->num_live());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const std::string dir = GetFlag(argc, argv, "dir", "");
  if (dir.empty()) return Usage();
  const uint64_t seed = std::strtoull(
      GetFlag(argc, argv, "seed", "42").c_str(), nullptr, 10);
  try {
    if (cmd == "init") return RunInit(dir, seed);
    if (cmd == "mutate") return RunMutate(dir, seed, argc, argv);
    if (cmd == "verify") return RunVerify(dir, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return Usage();
}
