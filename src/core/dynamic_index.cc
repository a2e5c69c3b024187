#include "core/dynamic_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/prng.h"
#include "core/wal.h"
#include "vec/binary_io.h"
#include "vec/io.h"

namespace bayeslsh {

namespace {

// 8 bytes: name + "DX" (dynamic index) + format generation + the trailing
// 'E' endianness canary shared by every binary format (docs/FORMATS.md).
constexpr char kManifestMagic[8] = {'B', 'L', 'S', 'H', 'D', 'X', '1', 'E'};

// WAL record op tags (docs/FORMATS.md, "Write-ahead log").
constexpr uint8_t kWalOpAdd = 1;
constexpr uint8_t kWalOpRemove = 2;

// True iff `id` occurs in the sorted vector.
bool IdInSorted(const std::vector<uint32_t>& ids, uint32_t id) {
  return std::binary_search(ids.begin(), ids.end(), id);
}

// WAL add record: op, logical id, nnz, then the raw (indices, values)
// arrays — the vector exactly as the caller passed it (replay re-applies
// AppendRow, whose duplicate-merge/zero-drop normalization is
// deterministic, so logging pre-normalized entries is equivalent).
std::vector<uint8_t> EncodeWalAdd(uint32_t id, const SparseVectorView& v) {
  const uint32_t nnz = static_cast<uint32_t>(v.size());
  std::vector<uint8_t> rec(9 + static_cast<size_t>(nnz) * 8);
  rec[0] = kWalOpAdd;
  std::memcpy(rec.data() + 1, &id, 4);
  std::memcpy(rec.data() + 5, &nnz, 4);
  if (nnz > 0) {
    std::memcpy(rec.data() + 9, v.indices.data(),
                static_cast<size_t>(nnz) * 4);
    std::memcpy(rec.data() + 9 + static_cast<size_t>(nnz) * 4,
                v.values.data(), static_cast<size_t>(nnz) * 4);
  }
  return rec;
}

std::vector<uint8_t> EncodeWalRemove(uint32_t id) {
  std::vector<uint8_t> rec(5);
  rec[0] = kWalOpRemove;
  std::memcpy(rec.data() + 1, &id, 4);
  return rec;
}

}  // namespace

struct DynamicIndex::Impl {
  DynamicIndexConfig cfg;
  QuerySearchConfig serve_cfg;  // Resolved against the base at construction.

  // Invariants of the index's whole lifetime (compaction preserves all
  // of them), cached so the lock-free accessors never dereference `base`
  // while a concurrent compaction is replacing it. `spec` is the base's
  // hash family: every segment and compaction hashes with it.
  MeasureSpec spec;
  uint32_t num_dims = 0;

  // Frozen base segment: the persistent index plus a warm searcher over
  // it. base_ids maps physical base row -> logical id (strictly
  // ascending).
  std::unique_ptr<PersistentIndex> base;
  std::vector<uint32_t> base_ids;
  std::unique_ptr<QuerySearcher> base_searcher;

  // Mutable delta segment: an append-only dataset, the searcher that
  // grows with it (SyncAppendedRows), and the physical-row -> logical-id
  // map (strictly ascending, every id greater than every base id).
  Dataset delta_data;
  std::vector<uint32_t> delta_ids;
  std::unique_ptr<QuerySearcher> delta_searcher;

  // Logical ids removed but not yet compacted away.
  std::unordered_set<uint32_t> tombstones;

  // Next logical id Add() will assign; ids are never reused.
  uint32_t next_id = 0;

  // Queries shared, mutations exclusive (see the header comment).
  mutable std::shared_mutex mu;

  // Durability: attached write-ahead log, or null. Mutated only under an
  // exclusive hold of `mu` (appends) — except Reset in SaveFile, which
  // also holds `mu` exclusively when a WAL is attached.
  std::unique_ptr<WalWriter> wal;

  // Compaction serialization: at most one rebuild at a time, so the base
  // pointer a snapshot captured stays valid until that rebuild's own
  // swap. Never acquired while holding `mu`.
  std::mutex compact_mu;

  // Background worker management (auto-triggered compactions). worker_mu
  // guards the thread handle, the scheduled flag and the saved error;
  // never acquired while holding `mu` or `compact_mu`.
  std::mutex worker_mu;
  std::thread worker;
  bool compact_scheduled = false;
  std::exception_ptr compact_error;
  // Signaled when compact_scheduled flips to false — the bounded
  // WaitForCompaction overload waits on it instead of joining blind.
  std::condition_variable worker_cv;

  // Test-only slow/wedged-compaction hook, run at the top of CompactLsm
  // while compact_mu is held; compact_mu also guards the assignment.
  std::function<void()> compact_hook;

  ~Impl() {
    // The public destructor already waited; this is the backstop for a
    // constructor failure path.
    std::thread t;
    {
      std::lock_guard<std::mutex> lk(worker_mu);
      t = std::move(worker);
    }
    if (t.joinable()) t.join();
  }

  // The two WaitForCompaction overloads' tail: joins `t`, the worker
  // already taken from `worker`, then rethrows (and clears) the error a
  // compaction left behind.
  void JoinAndRethrow(std::thread t) {
    if (t.joinable()) t.join();
    std::lock_guard<std::mutex> lk(worker_mu);
    if (compact_error != nullptr) {
      std::rethrow_exception(std::exchange(compact_error, nullptr));
    }
  }

  // The live rows, base then delta: the ascending logical-id order a
  // from-scratch build over the live corpus would index, since every
  // delta id exceeds every base id. Fills *ids (if not null) with their
  // ids and *base_rows (if not null) with each one's physical base row,
  // or SignatureAdoption::kFreshRow for a delta row.
  static Dataset LiveRows(const Dataset& base_data,
                          const std::vector<uint32_t>& base_row_ids,
                          const Dataset& delta,
                          const std::vector<uint32_t>& delta_row_ids,
                          const std::unordered_set<uint32_t>& tombs,
                          std::vector<uint32_t>* ids,
                          std::vector<uint32_t>* base_rows) {
    DatasetBuilder builder(base_data.num_dims());
    const auto add = [&](uint32_t id, SparseVectorView row, uint32_t from) {
      if (tombs.count(id) != 0) return;
      builder.AddRow(RowEntries(row));
      if (ids != nullptr) ids->push_back(id);
      if (base_rows != nullptr) base_rows->push_back(from);
    };
    for (uint32_t r = 0; r < base_row_ids.size(); ++r) {
      add(base_row_ids[r], base_data.Row(r), r);
    }
    for (uint32_t r = 0; r < delta_row_ids.size(); ++r) {
      add(delta_row_ids[r], delta.Row(r), SignatureAdoption::kFreshRow);
    }
    return std::move(builder).Build();
  }

  // The delta serves single-threaded: results are thread-count invariant
  // by the engine's determinism guarantee, the segment is small by
  // invariant, and a second worker pool per index (torn down and rebuilt
  // at every compaction) would be pure overhead.
  std::unique_ptr<QuerySearcher> MakeDeltaSearcher() {
    QuerySearchConfig delta_cfg = serve_cfg;
    delta_cfg.num_threads = 1;
    auto searcher =
        std::make_unique<QuerySearcher>(&delta_data, delta_cfg, spec);
    searcher->SyncAppendedRows();
    return searcher;
  }

  // (Re)creates the empty delta and both segment searchers — after
  // construction and after load.
  void ResetDeltaAndServing() {
    delta_searcher.reset();
    base_searcher.reset();
    delta_data = Dataset(base->data().num_dims(), {0}, {}, {});
    base_searcher = std::make_unique<QuerySearcher>(base.get(), serve_cfg);
    delta_searcher = MakeDeltaSearcher();
  }

  bool LiveLocked(uint32_t id) const {
    if (tombstones.count(id) != 0) return false;
    return IdInSorted(base_ids, id) || IdInSorted(delta_ids, id);
  }

  // The one delta growth path: append the row, keep the delta searcher
  // in sync, assign the next logical id. Callers hold `mu` exclusively
  // and have validated the entries.
  void ApplyAddLocked(const std::vector<std::pair<DimId, float>>& entries) {
    delta_data.AppendRow(entries);
    delta_searcher->SyncAppendedRows();
    delta_ids.push_back(next_id++);
  }

  // Replays one WAL record onto the current state. Replay is idempotent
  // against the checkpoint (SaveFile writes the manifest, then resets
  // the log; a crash between the two leaves records the manifest already
  // covers): an add below next_id and a remove of an id that is no
  // longer live are skips, not errors. Everything else out of sequence
  // means the log does not belong to this manifest — fail closed.
  void ApplyWalRecord(std::span<const uint8_t> rec, WalRecovery* out) {
    if (rec.empty()) throw WalError("wal replay: empty record");
    const uint8_t op = rec[0];
    if (op == kWalOpAdd) {
      if (rec.size() < 9) throw WalError("wal replay: short add record");
      uint32_t id, nnz;
      std::memcpy(&id, rec.data() + 1, 4);
      std::memcpy(&nnz, rec.data() + 5, 4);
      if (rec.size() != 9 + static_cast<size_t>(nnz) * 8) {
        throw WalError("wal replay: add record length disagrees with its "
                       "nnz");
      }
      if (id > next_id) {
        throw WalError("wal replay: add skips logical id " +
                       std::to_string(next_id) +
                       " (log does not match this manifest)");
      }
      if (id < next_id) {
        ++out->skipped;  // Already in the checkpoint.
        return;
      }
      std::vector<std::pair<DimId, float>> entries(nnz);
      for (uint32_t i = 0; i < nnz; ++i) {
        std::memcpy(&entries[i].first, rec.data() + 9 + i * 4, 4);
        std::memcpy(&entries[i].second,
                    rec.data() + 9 + static_cast<size_t>(nnz) * 4 + i * 4, 4);
      }
      try {
        ApplyAddLocked(entries);
      } catch (const std::invalid_argument& e) {
        throw WalError(std::string("wal replay: add record does not fit "
                                   "this index: ") + e.what());
      }
      ++out->applied;
    } else if (op == kWalOpRemove) {
      if (rec.size() != 5) {
        throw WalError("wal replay: malformed remove record");
      }
      uint32_t id;
      std::memcpy(&id, rec.data() + 1, 4);
      if (id >= next_id) {
        throw WalError("wal replay: remove of never-assigned logical id " +
                       std::to_string(id) +
                       " (log does not match this manifest)");
      }
      if (!LiveLocked(id)) {
        ++out->skipped;  // Already tombstoned or compacted away.
        return;
      }
      tombstones.insert(id);
      ++out->applied;
    } else {
      throw WalError("wal replay: unknown op tag " + std::to_string(op));
    }
  }

  // True when a size-tiered trigger is due (caller holds `mu`).
  bool AutoCompactDueLocked() const {
    if (cfg.auto_compact_delta_rows > 0 &&
        delta_ids.size() >= cfg.auto_compact_delta_rows) {
      return true;
    }
    if (cfg.auto_compact_tombstone_fraction > 0.0) {
      const uint64_t total = base_ids.size() + delta_ids.size();
      if (total > 0 &&
          static_cast<double>(tombstones.size()) >=
              cfg.auto_compact_tombstone_fraction *
                  static_cast<double>(total)) {
        return true;
      }
    }
    return false;
  }

  // Launches one background compaction unless one is already running —
  // the policy re-fires on the next mutation if still due, so triggers
  // never stack. Callers must NOT hold `mu`.
  void ScheduleCompact() {
    std::lock_guard<std::mutex> lk(worker_mu);
    if (compact_scheduled) return;
    if (worker.joinable()) worker.join();  // Reap the finished predecessor.
    compact_scheduled = true;
    worker = std::thread([this] {
      std::exception_ptr err;
      try {
        CompactLsm();
      } catch (...) {
        err = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk2(worker_mu);
        if (err != nullptr) compact_error = err;
        compact_scheduled = false;
      }
      worker_cv.notify_all();
    });
  }

  // The compaction body: snapshot under a shared lock, rebuild with no
  // lock held (readers keep serving the old segments), swap under a
  // brief exclusive lock. Runs on the caller's thread for an explicit
  // Compact() and on the worker for auto-triggered ones; compact_mu
  // serializes the two.
  void CompactLsm() {
    std::lock_guard<std::mutex> serial(compact_mu);
    if (compact_hook) compact_hook();

    Dataset delta_snap(num_dims, {0}, {}, {});
    std::vector<uint32_t> base_ids_snap, delta_ids_snap;
    std::unordered_set<uint32_t> tomb_snap;
    const PersistentIndex* old_base = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(mu);
      // Nothing to fold in: keep the base untouched, so double-compaction
      // is an exact no-op (idempotence, asserted by tests).
      if (delta_ids.empty() && tombstones.empty()) return;
      // `base` is stable for the whole unlocked rebuild: only a
      // compaction swap replaces it, and compact_mu serializes us
      // against every other compaction.
      old_base = base.get();
      base_ids_snap = base_ids;
      delta_ids_snap = delta_ids;
      delta_snap = delta_data;
      tomb_snap = tombstones;
    }

    // Merged live corpus. Surviving base rows donate their
    // already-computed signatures; former delta rows hash fresh (their
    // signatures live in the delta searcher's store, which grows under
    // concurrent queries this thread is not locked against).
    std::vector<uint32_t> ids;
    SignatureAdoption adopt;
    adopt.source = old_base;
    ids.reserve(base_ids_snap.size() + delta_ids_snap.size());
    adopt.source_rows.reserve(ids.capacity());
    Dataset live = LiveRows(old_base->data(), base_ids_snap, delta_snap,
                            delta_ids_snap, tomb_snap, &ids,
                            &adopt.source_rows);

    // Keep the old base's family, KLSH anchors included: adoption
    // requires it (signatures are functions of the family), and so does
    // segment identity.
    IndexBuildConfig build_cfg;
    static_cast<MeasureSpec&>(build_cfg) = spec;
    build_cfg.banding.hashes_per_band = old_base->hashes_per_band();
    build_cfg.banding.num_bands = old_base->num_bands();
    build_cfg.num_threads = cfg.num_threads;
    std::unique_ptr<PersistentIndex> new_base =
        PersistentIndex::Build(std::move(live), build_cfg, &adopt);
    // The warm searcher copies every signature row, O(corpus) — build it
    // off-lock too, so the swap below stays pointer-cheap.
    auto new_searcher =
        std::make_unique<QuerySearcher>(new_base.get(), serve_cfg);

    // Swap. The old segments are moved into locals and destroyed after
    // the unlock — freeing a corpus-sized index under the exclusive lock
    // would stall readers for no reason.
    std::unique_ptr<PersistentIndex> dead_base;
    std::unique_ptr<QuerySearcher> dead_base_searcher, dead_delta_searcher;
    {
      std::unique_lock<std::shared_mutex> lock(mu);
      // Rows added since the snapshot stay in the (new) delta; removals
      // since the snapshot stay tombstones — they may target rows the
      // new base kept, and AppendLive keeps suppressing them either way.
      Dataset new_delta(num_dims, {0}, {}, {});
      std::vector<uint32_t> new_delta_ids;
      for (uint32_t r = static_cast<uint32_t>(delta_ids_snap.size());
           r < delta_ids.size(); ++r) {
        new_delta.AppendRow(RowEntries(delta_data.Row(r)));
        new_delta_ids.push_back(delta_ids[r]);
      }
      for (const uint32_t id : tomb_snap) tombstones.erase(id);

      dead_base_searcher = std::move(base_searcher);
      dead_delta_searcher = std::move(delta_searcher);
      dead_base = std::move(base);
      base = std::move(new_base);
      base_ids = std::move(ids);
      base_searcher = std::move(new_searcher);
      delta_data = std::move(new_delta);
      delta_ids = std::move(new_delta_ids);
      // Rebuilt under the lock, but over the post-snapshot suffix only —
      // a brief, bounded amount of hashing.
      delta_searcher = MakeDeltaSearcher();
    }
  }

  // Maps one segment's matches to logical ids, dropping tombstones.
  // Each dropped match is a ghost candidate: verification work the
  // deferred delete wasted (reclaimed by compaction).
  void AppendLive(const std::vector<QueryMatch>& matches,
                  const std::vector<uint32_t>& ids,
                  std::vector<QueryMatch>* out, uint64_t* ghosts) const {
    for (const QueryMatch& m : matches) {
      const uint32_t id = ids[m.id];
      if (tombstones.count(id) == 0) {
        out->push_back({id, m.sim});
      } else if (ghosts != nullptr) {
        ++*ghosts;
      }
    }
  }

  std::vector<QueryMatch> MergeSegments(
      const std::vector<QueryMatch>& base_matches,
      const std::vector<QueryMatch>& delta_matches, uint64_t* ghosts) const {
    std::vector<QueryMatch> out;
    out.reserve(base_matches.size() + delta_matches.size());
    AppendLive(base_matches, base_ids, &out, ghosts);
    AppendLive(delta_matches, delta_ids, &out, ghosts);
    SortMatches(&out);
    return out;
  }

  // The segment fan-out behind Query and QueryBatch: serve(searcher,
  // stats) answers all `slots` queries on one segment, one result per
  // slot. The base is always served; an empty delta finds nothing, counts
  // nothing and reports no more threads than the base, so skipping it
  // saves a generation hashing and changes no stat. Segments answer in
  // full and each slot is merged across them, then truncated to top_k
  // (0 keeps every match): truncating before the merge could let a
  // tombstoned row displace a live one.
  // *stats receives the segment stats summed (threads_used maxed) plus
  // the ghost candidates. Callers hold `mu` (shared suffices).
  template <typename Serve>
  std::vector<std::vector<QueryMatch>> FanOut(size_t slots,
                                              const Serve& serve,
                                              uint32_t top_k,
                                              QueryStats* stats) const {
    QueryStats base_stats, delta_stats;
    std::vector<std::vector<QueryMatch>> results =
        serve(*base_searcher, stats != nullptr ? &base_stats : nullptr);
    const std::vector<std::vector<QueryMatch>> delta_results =
        delta_data.num_vectors() == 0
            ? std::vector<std::vector<QueryMatch>>(slots)
            : serve(*delta_searcher,
                    stats != nullptr ? &delta_stats : nullptr);
    uint64_t ghosts = 0;
    for (size_t i = 0; i < slots; ++i) {
      results[i] = MergeSegments(results[i], delta_results[i],
                                 stats != nullptr ? &ghosts : nullptr);
      if (top_k != 0 && results[i].size() > top_k) results[i].resize(top_k);
    }
    if (stats != nullptr) {
      *stats = base_stats;
      stats->MergeFrom(delta_stats);
      stats->ghost_candidates += ghosts;
    }
    return results;
  }

  // The manifest integrity fingerprint: a Mix64 chain over the header
  // counts, every id in every map, the embedded base's own fingerprint,
  // and the delta rows' full CSR content — the end marker checked on
  // load. The delta content matters: the base protects itself with its
  // own fingerprint, and without this fold the delta dataset's values
  // would be the one section a flipped byte could corrupt silently (the
  // CSR structure checks validate shape, not weights).
  uint64_t ManifestFingerprint(
      const std::vector<uint32_t>& sorted_tombstones) const {
    uint64_t fp = Mix64(kManifestFormatVersion, next_id);
    fp = Mix64(fp, base_ids.size(), delta_ids.size());
    fp = Mix64(fp, sorted_tombstones.size(), base->Fingerprint());
    for (const uint32_t id : base_ids) fp = Mix64(fp, id);
    for (const uint32_t id : delta_ids) fp = Mix64(fp, id);
    for (const uint32_t id : sorted_tombstones) fp = Mix64(fp, id);
    fp = Mix64(fp, delta_data.num_dims(), delta_data.nnz());
    for (const uint64_t p : delta_data.indptr()) fp = Mix64(fp, p);
    for (const DimId d : delta_data.indices()) fp = Mix64(fp, d);
    for (const float v : delta_data.values()) {
      fp = Mix64(fp, std::bit_cast<uint32_t>(v));
    }
    return fp;
  }

  // The manifest serialization body; callers hold `mu` (shared suffices).
  void SaveLocked(std::ostream& out) const {
    std::vector<uint32_t> tombs(tombstones.begin(), tombstones.end());
    std::sort(tombs.begin(), tombs.end());

    out.write(kManifestMagic, sizeof(kManifestMagic));
    WritePod(out, kManifestFormatVersion);
    WritePod(out, uint32_t{0});  // Reserved; must be zero in version 1.
    WritePod(out, static_cast<uint64_t>(next_id));
    WritePod(out, static_cast<uint64_t>(base_ids.size()));
    WritePod(out, static_cast<uint64_t>(delta_ids.size()));
    WritePod(out, static_cast<uint64_t>(tombs.size()));
    WritePodVec(out, base_ids);
    base->Save(out);  // Embedded index file, magic and all.
    WritePodVec(out, delta_ids);
    WriteDatasetBinary(delta_data, out);
    WritePodVec(out, tombs);
    WritePod(out, ManifestFingerprint(tombs));  // End marker.
    if (!out) throw IndexError("manifest save: stream write failed");
  }
};

DynamicIndex::DynamicIndex(std::unique_ptr<PersistentIndex> base,
                           const DynamicIndexConfig& cfg)
    : impl_(std::make_unique<Impl>()) {
  if (base == nullptr) {
    throw std::invalid_argument("DynamicIndex: null base index");
  }
  Impl& im = *impl_;
  im.cfg = cfg;
  im.base = std::move(base);
  // The delta and every compaction hash with the base's family — for
  // KLSH its kernel and anchors, never resampled from their own (smaller)
  // corpus; for Euclidean the p-stable width of the build radius — or
  // segment signatures would disagree.
  im.spec = im.base->spec();
  im.num_dims = im.base->data().num_dims();
  static_cast<MeasureSpec&>(im.serve_cfg) = im.spec;
  if (cfg.threshold != 0.0) im.serve_cfg.threshold = cfg.threshold;
  im.serve_cfg.exact_verification = cfg.exact_verification;
  // Pin the delta's banding shape to the base's so every segment (and
  // every future compaction) generates candidates identically.
  im.serve_cfg.banding.hashes_per_band = im.base->hashes_per_band();
  im.serve_cfg.banding.num_bands = im.base->num_bands();
  im.serve_cfg.num_threads = cfg.num_threads;

  const uint32_t n = im.base->data().num_vectors();
  im.base_ids.resize(n);
  for (uint32_t i = 0; i < n; ++i) im.base_ids[i] = i;
  im.next_id = n;
  im.ResetDeltaAndServing();
}

DynamicIndex::~DynamicIndex() {
  try {
    WaitForCompaction();
  } catch (...) {
    // A failed background compaction left the pre-compaction state
    // intact; nothing to surface from a destructor.
  }
}

uint32_t DynamicIndex::Add(const SparseVectorView& v) {
  Impl& im = *impl_;
  uint32_t id;
  bool trigger;
  {
    std::unique_lock<std::shared_mutex> lock(im.mu);
    if (im.next_id == std::numeric_limits<uint32_t>::max()) {
      throw std::length_error("DynamicIndex: logical id space exhausted");
    }
    // Validate before logging or mutating: a record once in the WAL must
    // always replay, and a bad vector must leave the index unchanged.
    for (uint32_t i = 0; i < v.size(); ++i) {
      if (v.indices[i] >= im.num_dims) {
        throw std::invalid_argument(
            "DynamicIndex::Add: dimension " + std::to_string(v.indices[i]) +
            " out of range (num_dims " + std::to_string(im.num_dims) + ")");
      }
      if (!std::isfinite(v.values[i])) {
        throw std::invalid_argument(
            "DynamicIndex::Add: non-finite weight at dimension " +
            std::to_string(v.indices[i]));
      }
    }
    // Durability order: log + flush FIRST, apply second — a mutation is
    // never observable (nor acknowledged) unless it is already on disk.
    if (im.wal != nullptr) {
      const std::vector<uint8_t> rec = EncodeWalAdd(im.next_id, v);
      im.wal->AppendRecord(rec);
      im.wal->Flush(im.cfg.wal_sync);
    }
    im.ApplyAddLocked(RowEntries(v));
    id = im.next_id - 1;
    trigger = im.AutoCompactDueLocked();
  }
  if (trigger) im.ScheduleCompact();
  return id;
}

bool DynamicIndex::Remove(uint32_t id) {
  Impl& im = *impl_;
  bool trigger;
  {
    std::unique_lock<std::shared_mutex> lock(im.mu);
    if (!im.LiveLocked(id)) return false;
    if (im.wal != nullptr) {
      const std::vector<uint8_t> rec = EncodeWalRemove(id);
      im.wal->AppendRecord(rec);
      im.wal->Flush(im.cfg.wal_sync);
    }
    im.tombstones.insert(id);
    trigger = im.AutoCompactDueLocked();
  }
  if (trigger) im.ScheduleCompact();
  return true;
}

bool DynamicIndex::Contains(uint32_t id) const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  return im.LiveLocked(id);
}

std::vector<QueryMatch> DynamicIndex::Query(const SparseVectorView& q,
                                            QueryStats* stats,
                                            uint32_t top_k) const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  auto results = im.FanOut(
      1,
      [&q](const QuerySearcher& segment, QueryStats* segment_stats) {
        std::vector<std::vector<QueryMatch>> one(1);
        one[0] = segment.Query(q, segment_stats);
        return one;
      },
      top_k, stats);
  return std::move(results[0]);
}

std::vector<std::vector<QueryMatch>> DynamicIndex::QueryBatch(
    std::span<const SparseVectorView> queries, QueryStats* stats,
    uint32_t top_k) const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  return im.FanOut(
      queries.size(),
      [queries](const QuerySearcher& segment, QueryStats* segment_stats) {
        return segment.QueryBatch(queries, segment_stats, /*top_k=*/0);
      },
      top_k, stats);
}

void DynamicIndex::Compact() { impl_->CompactLsm(); }

WalRecovery DynamicIndex::AttachWal(const std::string& path) {
  Impl& im = *impl_;
  WalRecovery rec;
  bool trigger;
  {
    std::unique_lock<std::shared_mutex> lock(im.mu);
    if (im.wal != nullptr) {
      throw std::logic_error("DynamicIndex: a WAL is already attached");
    }
    const WalReplayResult replay =
        ReplayWal(path, [&](std::span<const uint8_t> r) {
          im.ApplyWalRecord(r, &rec);
        });
    rec.records = replay.records;
    rec.tail_truncated = replay.tail_truncated;
    // Opening at the replayed prefix truncates any torn tail, so the
    // repaired log and the in-memory state agree from here on.
    im.wal = WalWriter::Open(path, replay.valid_bytes);
    trigger = im.AutoCompactDueLocked();
  }
  if (trigger) im.ScheduleCompact();
  return rec;
}

void DynamicIndex::WaitForCompaction() {
  Impl& im = *impl_;
  std::thread t;
  {
    std::lock_guard<std::mutex> lk(im.worker_mu);
    t = std::move(im.worker);
  }
  im.JoinAndRethrow(std::move(t));
}

bool DynamicIndex::WaitForCompaction(double timeout_seconds) {
  Impl& im = *impl_;
  std::thread t;
  {
    std::unique_lock<std::mutex> lk(im.worker_mu);
    // Wait on the flag, not the thread: a wedged compaction body never
    // flips it, and this overload must come back anyway.
    if (!im.worker_cv.wait_for(
            lk, std::chrono::duration<double>(
                    timeout_seconds > 0 ? timeout_seconds : 0),
            [&] { return !im.compact_scheduled; })) {
      return false;  // Still running; the worker keeps going.
    }
    t = std::move(im.worker);
  }
  // The flag flips in the worker's final statement, so this join is
  // bounded — the thread is already past its body.
  im.JoinAndRethrow(std::move(t));
  return true;
}

void DynamicIndex::SetCompactHookForTest(std::function<void()> hook) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lk(im.compact_mu);
  im.compact_hook = std::move(hook);
}

void DynamicIndex::SetWalCrashAfterBytes(uint64_t total_bytes,
                                         std::function<void()> on_crash) {
  Impl& im = *impl_;
  std::unique_lock<std::shared_mutex> lock(im.mu);
  if (im.wal == nullptr) {
    throw std::logic_error(
        "DynamicIndex: fault injection needs an attached WAL");
  }
  im.wal->SetCrashAfterBytes(total_bytes, std::move(on_crash));
}

void DynamicIndex::Save(std::ostream& out) const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  im.SaveLocked(out);
}

void DynamicIndex::SaveFile(const std::string& path) const {
  Impl& im = *impl_;
  // With a WAL attached, the checkpoint write and the log reset must be
  // one atomic step with respect to mutations — a mutation logged
  // between them would survive in neither — so the lock is exclusive.
  // Without one, Save stays a read and shares the lock with queries.
  std::shared_lock<std::shared_mutex> shared(im.mu, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(im.mu, std::defer_lock);
  if (im.wal != nullptr) {
    exclusive.lock();
  } else {
    shared.lock();
  }

  // Write-then-rename: the CLI's default is an in-place update of the
  // only copy, so a crash or full disk mid-write must leave the original
  // manifest intact, never a truncated one. The flush+close must be
  // checked BEFORE the rename — a failed final buffered flush would
  // otherwise still promote a truncated tmp over the original.
  const std::string tmp = path + ".tmp";
  std::ofstream f(tmp, std::ios::binary);
  if (!f) throw IndexError("manifest save: cannot open " + tmp);
  try {
    im.SaveLocked(f);
  } catch (...) {
    f.close();
    std::remove(tmp.c_str());
    throw;
  }
  f.close();
  if (f.fail() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IndexError("manifest save: cannot finish writing " + tmp +
                     " and replace " + path);
  }
  // The checkpoint covers every logged record; start the log over. A
  // crash between the rename above and this reset is benign: replay
  // skips records the checkpoint already holds (idempotent replay).
  if (im.wal != nullptr) im.wal->Reset();
}

std::unique_ptr<DynamicIndex> DynamicIndex::Load(
    std::istream& in, const DynamicIndexConfig& cfg) {
  try {
    char magic[sizeof(kManifestMagic)];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kManifestMagic, sizeof(magic)) != 0) {
      throw IndexError(
          "manifest load: bad magic (not a bayeslsh dynamic-index "
          "manifest, or written on an incompatible platform)");
    }
    const auto version = ReadPod<uint32_t>(in, "manifest header: version");
    if (version != kManifestFormatVersion) {
      throw IndexError("manifest load: unsupported format version " +
                       std::to_string(version) + " (this build reads " +
                       std::to_string(kManifestFormatVersion) + ")");
    }
    const auto reserved = ReadPod<uint32_t>(in, "manifest header: reserved");
    if (reserved != 0) {
      throw IndexError(
          "manifest header: reserved field must be zero in format "
          "version 1 (got " + std::to_string(reserved) + ")");
    }
    const auto next_id = ReadPod<uint64_t>(in, "manifest header: next id");
    const auto nb = ReadPod<uint64_t>(in, "manifest header: base rows");
    const auto nd = ReadPod<uint64_t>(in, "manifest header: delta rows");
    const auto nt = ReadPod<uint64_t>(in, "manifest header: tombstones");
    if (next_id >= std::numeric_limits<uint32_t>::max() ||
        nb > next_id || nd > next_id || nb + nd > next_id ||
        nt > nb + nd) {
      throw IndexError("manifest header: implausible id counts");
    }

    std::vector<uint32_t> base_ids;
    ReadPodVec(in, &base_ids, nb, "manifest: base id map");
    for (uint64_t i = 0; i < nb; ++i) {
      if (base_ids[i] >= next_id ||
          (i > 0 && base_ids[i] <= base_ids[i - 1])) {
        throw IndexError("manifest: base id map not strictly ascending "
                         "below the next id");
      }
    }

    std::unique_ptr<PersistentIndex> base =
        PersistentIndex::Load(in, /*expect_eof=*/false);
    if (base->data().num_vectors() != nb) {
      throw IndexError("manifest: embedded base row count disagrees with "
                       "the header");
    }

    std::vector<uint32_t> delta_ids;
    ReadPodVec(in, &delta_ids, nd, "manifest: delta id map");
    for (uint64_t i = 0; i < nd; ++i) {
      if (delta_ids[i] >= next_id ||
          (i > 0 && delta_ids[i] <= delta_ids[i - 1]) ||
          (i == 0 && !base_ids.empty() && delta_ids[0] <= base_ids.back())) {
        throw IndexError("manifest: delta id map must ascend strictly "
                         "above every base id");
      }
    }

    const Dataset delta = ReadDatasetBinary(in);
    if (delta.num_vectors() != nd) {
      throw IndexError("manifest: delta row count disagrees with the "
                       "header");
    }
    if (delta.num_dims() != base->data().num_dims()) {
      throw IndexError("manifest: delta dimensionality disagrees with the "
                       "base");
    }

    std::vector<uint32_t> tombs;
    ReadPodVec(in, &tombs, nt, "manifest: tombstone list");
    for (uint64_t i = 0; i < nt; ++i) {
      if ((i > 0 && tombs[i] <= tombs[i - 1]) ||
          (!IdInSorted(base_ids, tombs[i]) &&
           !IdInSorted(delta_ids, tombs[i]))) {
        throw IndexError("manifest: tombstone list must name known ids in "
                         "strictly ascending order");
      }
    }

    std::unique_ptr<DynamicIndex> index(
        new DynamicIndex(std::move(base), cfg));
    Impl& im = *index->impl_;
    im.base_ids = std::move(base_ids);
    im.next_id = static_cast<uint32_t>(next_id);
    // Rebuild the delta's serving state: signatures and banding keys are
    // pure functions of (seed, row content), so re-inserting the rows
    // reproduces the saved segment exactly. The delta is small by
    // invariant (compaction folds it away), so this is cheap relative to
    // the base load.
    for (uint32_t r = 0; r < delta.num_vectors(); ++r) {
      im.delta_data.AppendRow(RowEntries(delta.Row(r)));
    }
    im.delta_searcher->SyncAppendedRows();
    im.delta_ids = std::move(delta_ids);
    im.tombstones.insert(tombs.begin(), tombs.end());

    const auto end_marker = ReadPod<uint64_t>(in, "manifest end marker");
    if (end_marker != im.ManifestFingerprint(tombs)) {
      throw IndexError("manifest load: end marker mismatch (truncated or "
                       "corrupt tail)");
    }
    if (in.peek() != std::istream::traits_type::eof()) {
      throw IndexError("manifest load: trailing bytes after the end "
                       "marker");
    }
    return index;
  } catch (const IndexError&) {
    throw;
  } catch (const IoError& e) {
    // Embedded section readers throw plain IoError; surface everything
    // under the one manifest-load error type.
    throw IndexError(std::string("manifest load: ") + e.what());
  }
}

std::unique_ptr<DynamicIndex> DynamicIndex::LoadFile(
    const std::string& path, const DynamicIndexConfig& cfg) {
  try {
    RequireReadableDataFile(path);
  } catch (const IoError& e) {
    throw IndexError(std::string("manifest load: ") + e.what());
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) throw IndexError("manifest load: cannot open " + path);
  return Load(f, cfg);
}

bool DynamicIndex::SniffFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  char magic[sizeof(kManifestMagic)] = {};
  f.read(magic, sizeof(magic));
  return f && std::memcmp(magic, kManifestMagic, sizeof(magic)) == 0;
}

// The shape accessors read the cached lifetime invariants, never the
// (compaction-replaceable) base pointer — genuinely safe from any thread
// without a lock.
Dataset DynamicIndex::LiveCorpus(std::vector<uint32_t>* ids) const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  if (ids != nullptr) ids->clear();
  return Impl::LiveRows(im.base->data(), im.base_ids, im.delta_data,
                        im.delta_ids, im.tombstones, ids, nullptr);
}

const MeasureSpec& DynamicIndex::spec() const { return impl_->spec; }

Measure DynamicIndex::measure() const { return impl_->spec.measure; }

uint32_t DynamicIndex::num_dims() const { return impl_->num_dims; }

uint32_t DynamicIndex::num_bands() const {
  return impl_->serve_cfg.banding.num_bands;
}

uint32_t DynamicIndex::hashes_per_band() const {
  return impl_->serve_cfg.banding.hashes_per_band;
}

uint32_t DynamicIndex::num_base_rows() const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  return static_cast<uint32_t>(im.base_ids.size());
}

uint32_t DynamicIndex::num_delta_rows() const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  return static_cast<uint32_t>(im.delta_ids.size());
}

uint32_t DynamicIndex::num_tombstones() const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  return static_cast<uint32_t>(im.tombstones.size());
}

uint32_t DynamicIndex::num_live() const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  return static_cast<uint32_t>(im.base_ids.size() + im.delta_ids.size() -
                               im.tombstones.size());
}

uint64_t DynamicIndex::base_hash_work() const {
  const Impl& im = *impl_;
  std::shared_lock<std::shared_mutex> lock(im.mu);
  return im.base->store().computed();
}

}  // namespace bayeslsh
