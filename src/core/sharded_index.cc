#include "core/sharded_index.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/prng.h"
#include "core/measure_table.h"

namespace bayeslsh {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Salt folded into the partitioning hash so shard placement is its own
// hash stream, uncorrelated with the signature/banding streams derived
// from the same master seed.
constexpr uint64_t kShardSalt = 0x73686172644c5348ULL;  // "shardLSH"

// The time point a budget of `seconds` after `from`. Only a positive
// budget bounds anything, so any other maps to `from`; one past a
// century saturates there, since a budget beyond the clock's integer
// ticks (about 292 years of nanoseconds) would overflow the cast and read
// as long expired.
SteadyClock::time_point After(SteadyClock::time_point from, double seconds) {
  constexpr double kCenturySeconds = 100 * 365.25 * 24 * 3600;
  if (!(seconds > 0)) return from;
  return from + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(
                        std::min(seconds, kCenturySeconds)));
}

// The router's owned copy of a fan-out's query: sub-requests may outlive
// the caller's view (an abandoned request sits in a shard queue until its
// executor drains it), so every shard shares one owned copy.
struct OwnedQuery {
  std::vector<DimId> indices;
  std::vector<float> values;

  SparseVectorView view() const { return {indices, values}; }
};

// One shard's answer slot: the router waits on cv with a deadline and
// may abandon; the executor fills it and notifies regardless.
struct SubResult {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  std::vector<QueryMatch> matches;  // shard-LOCAL ids
  QueryStats stats;
  std::atomic<bool> abandoned{false};
};

struct SubRequest {
  std::shared_ptr<const OwnedQuery> query;
  uint32_t top_k = 0;
  std::shared_ptr<SubResult> result;
};

}  // namespace

struct ShardedIndex::Impl {
  struct Shard {
    std::unique_ptr<DynamicIndex> dyn;
    std::unique_ptr<CircuitBreaker> breaker;

    // Ascending global ids routed here; position == shard-local logical
    // id (DynamicIndex assigns 0,1,2,... exactly as we append). Guarded
    // by the router lock `mu`; never shrinks (tombstoned ids keep their
    // mapping, mirroring DynamicIndex's never-reuse contract).
    std::vector<uint32_t> globals;

    // Executor: one thread per shard draining a FIFO of sub-requests,
    // so a wedged or slow shard blocks only itself.
    std::mutex qmu;
    std::condition_variable qcv;
    std::deque<SubRequest> queue;
    bool stop = false;
    std::thread worker;
  };

  ShardedIndexConfig cfg;
  uint64_t seed = 0;
  Measure measure = Measure::kCosine;
  uint32_t num_dims = 0;
  SteadyClock::time_point epoch = SteadyClock::now();

  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<ShardFaultInjector> injector;

  // Router lock: global id assignment + the global<->local maps.
  // Queries take it shared (merge-time mapping), Add exclusive.
  mutable std::shared_mutex mu;
  uint32_t next_id = 0;

  double NowSeconds() const {
    return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
  }

  void ExecutorLoop(uint32_t s) {
    Shard& shard = *shards[s];
    for (;;) {
      SubRequest req;
      {
        std::unique_lock<std::mutex> lock(shard.qmu);
        shard.qcv.wait(lock,
                       [&] { return shard.stop || !shard.queue.empty(); });
        if (shard.queue.empty()) return;  // stop && drained
        req = std::move(shard.queue.front());
        shard.queue.pop_front();
      }
      if (req.result->abandoned.load(std::memory_order_acquire)) continue;
      bool failed = false;
      std::vector<QueryMatch> matches;
      QueryStats stats;
      try {
        injector->BeforeShardQuery(s);
        // A shard's best top_k hold every match of the merged best top_k
        // it owns: local ids ascend with global ids, so ties cut alike.
        matches = shard.dyn->Query(req.query->view(), &stats, req.top_k);
      } catch (const std::exception&) {
        failed = true;
      }
      {
        std::lock_guard<std::mutex> lock(req.result->mu);
        req.result->failed = failed;
        req.result->matches = std::move(matches);
        req.result->stats = stats;
        req.result->done = true;
      }
      req.result->cv.notify_all();
    }
  }

  // The fan-out/collect/merge core behind Query: the matches in GLOBAL
  // ids, merged over every shard that answered within the budget.
  std::vector<QueryMatch> FanOut(const SparseVectorView& q, uint32_t top_k,
                                 const ServeOptions& opts,
                                 QueryStats* stats) const {
    const uint32_t K = static_cast<uint32_t>(shards.size());
    const auto start = SteadyClock::now();
    const bool has_deadline = opts.deadline_seconds > 0;
    const bool has_shard_to = cfg.shard_timeout_seconds > 0;
    const auto deadline_tp = After(start, opts.deadline_seconds);
    const auto shard_to_tp = After(start, cfg.shard_timeout_seconds);

    // Dispatch to every shard whose breaker admits the request. Shards
    // skipped here simply don't contribute (no outcome to record).
    auto owned = std::make_shared<const OwnedQuery>(
        OwnedQuery{{q.indices.begin(), q.indices.end()},
                   {q.values.begin(), q.values.end()}});
    struct Pending {
      uint32_t shard;
      std::shared_ptr<SubResult> res;
    };
    std::vector<Pending> pending;
    pending.reserve(K);
    for (uint32_t s = 0; s < K; ++s) {
      Shard& shard = *shards[s];
      if (!shard.breaker->AllowRequest(NowSeconds())) continue;
      auto res = std::make_shared<SubResult>();
      {
        std::lock_guard<std::mutex> lock(shard.qmu);
        shard.queue.push_back(SubRequest{owned, top_k, res});
      }
      shard.qcv.notify_one();
      pending.push_back(Pending{s, std::move(res)});
    }

    // Collect, bounded by min(per-shard timeout, query deadline). Once
    // the deadline is past, the remaining waits return immediately —
    // already-answered shards are still harvested, the rest abandoned.
    uint32_t answered = 0;
    bool deadline_hit = false;
    std::vector<std::pair<uint32_t, std::vector<QueryMatch>>> collected;
    collected.reserve(pending.size());
    for (Pending& p : pending) {
      Shard& shard = *shards[p.shard];
      bool done = false;
      {
        std::unique_lock<std::mutex> lock(p.res->mu);
        auto is_done = [&] { return p.res->done; };
        if (!has_deadline && !has_shard_to) {
          p.res->cv.wait(lock, is_done);
          done = true;
        } else {
          auto bound = deadline_tp;
          if (!has_deadline || (has_shard_to && shard_to_tp < deadline_tp)) {
            bound = shard_to_tp;
          }
          done = p.res->cv.wait_until(lock, bound, is_done);
        }
      }
      if (done) {
        if (p.res->failed) {
          shard.breaker->RecordFailure(NowSeconds());
        } else {
          shard.breaker->RecordSuccess();
          ++answered;
          if (stats != nullptr) stats->MergeFrom(p.res->stats);
          collected.emplace_back(p.shard, std::move(p.res->matches));
        }
        continue;
      }
      // Timed out: abandon. A per-shard timeout is a health signal (the
      // server's own bound); a query deadline is the client's budget and
      // says nothing about the shard — release any probe slot, count
      // nothing.
      p.res->abandoned.store(true, std::memory_order_release);
      const auto now_tp = SteadyClock::now();
      if (has_shard_to && now_tp >= shard_to_tp) {
        shard.breaker->RecordFailure(NowSeconds());
      } else {
        shard.breaker->RecordAbandoned();
      }
      if (has_deadline && now_tp >= deadline_tp) deadline_hit = true;
    }

    // Merge: map shard-local ids to global ids under the router lock,
    // concatenate, re-sort with the one ordering rule, truncate to top_k.
    std::vector<QueryMatch> merged;
    {
      std::shared_lock<std::shared_mutex> lock(mu);
      for (const auto& [s, matches] : collected) {
        const std::vector<uint32_t>& globals = shards[s]->globals;
        for (QueryMatch m : matches) {
          m.id = globals[m.id];
          merged.push_back(m);
        }
      }
    }
    SortMatches(&merged);
    if (top_k != 0 && merged.size() > top_k) merged.resize(top_k);

    if (stats != nullptr) {
      stats->shards_total += K;
      stats->shards_answered += answered;
      if (deadline_hit) ++stats->deadline_expired;
    }
    return merged;
  }
};

uint32_t ShardedIndex::ShardOfId(uint64_t seed, uint32_t id,
                                 uint32_t num_shards) {
  return static_cast<uint32_t>(Mix64(seed, kShardSalt, id) % num_shards);
}

ShardedIndex::ShardedIndex(Dataset data, const IndexBuildConfig& build,
                           const ShardedIndexConfig& cfg)
    : impl_(std::make_unique<Impl>()) {
  if (cfg.num_shards == 0) {
    throw std::invalid_argument("ShardedIndex: num_shards must be >= 1");
  }
  impl_->cfg = cfg;
  impl_->seed = build.seed;
  impl_->num_dims = data.num_dims();
  const uint32_t K = cfg.num_shards;
  impl_->injector = std::make_unique<ShardFaultInjector>(K);

  // Partition the corpus row-by-row: row i is global id i, placed by the
  // seeded hash. Each shard then gets its own frozen base built with the
  // SAME build config — banding shape depends only on (measure,
  // threshold, params), never on data size, so all shards (and the
  // equivalent unsharded index) agree on every hash.
  //
  // KLSH anchors are the one piece of hash-family state that IS sampled
  // from data, so they are resolved here, ONCE, from the full corpus —
  // every shard (and the equivalent unsharded index given the same
  // anchors) then hashes with the identical family. Without this each
  // shard would sample from its own sub-corpus and the shards would
  // disagree on every signature.
  IndexBuildConfig shard_build = build;
  static_cast<MeasureSpec&>(shard_build) =
      MeasureFamily(build, &data, "IndexBuildConfig").spec();
  impl_->shards.reserve(K);
  for (uint32_t s = 0; s < K; ++s) {
    impl_->shards.push_back(std::make_unique<Impl::Shard>());
    impl_->shards[s]->breaker = std::make_unique<CircuitBreaker>(cfg.breaker);
  }
  const uint32_t n = data.num_vectors();
  for (uint32_t i = 0; i < n; ++i) {
    impl_->shards[ShardOfId(build.seed, i, K)]->globals.push_back(i);
  }
  impl_->next_id = n;

  DynamicIndexConfig dcfg;
  dcfg.threshold = cfg.threshold;
  dcfg.exact_verification = cfg.exact_verification;
  dcfg.num_threads = cfg.num_threads;

  // One builder thread per shard, each building at build.num_threads: a
  // ThreadPool would run every nested build pool inline on its worker.
  // Every build is joined before any failure is rethrown (the
  // lowest-numbered shard's), so a failed build leaves no thread behind.
  std::vector<std::exception_ptr> errors(K);
  {
    std::vector<std::jthread> builders;
    builders.reserve(K);
    for (uint32_t s = 0; s < K; ++s) {
      builders.emplace_back([&, s] {
        Impl::Shard& shard = *impl_->shards[s];
        try {
          DatasetBuilder rows(data.num_dims());
          for (const uint32_t i : shard.globals) {
            rows.AddRow(RowEntries(data.Row(i)));
          }
          shard.dyn = std::make_unique<DynamicIndex>(
              PersistentIndex::Build(std::move(rows).Build(), shard_build),
              dcfg);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  impl_->measure = impl_->shards[0]->dyn->measure();
  for (uint32_t s = 0; s < K; ++s) {
    impl_->shards[s]->worker = std::thread(&Impl::ExecutorLoop, impl_.get(), s);
  }
}

ShardedIndex::~ShardedIndex() {
  // Wake wedged executors first, then drain and join them.
  impl_->injector->Shutdown();
  for (auto& shard : impl_->shards) {
    {
      std::lock_guard<std::mutex> lock(shard->qmu);
      shard->stop = true;
      // Unreached requests would hang routers waiting on them; there are
      // none by construction (the destructor runs after all queries),
      // but drop them defensively.
      shard->queue.clear();
    }
    shard->qcv.notify_all();
  }
  for (auto& shard : impl_->shards) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

uint32_t ShardedIndex::Add(const SparseVectorView& v) {
  std::unique_lock<std::shared_mutex> lock(impl_->mu);
  const uint32_t id = impl_->next_id;
  const uint32_t s =
      ShardOfId(impl_->seed, id, static_cast<uint32_t>(impl_->shards.size()));
  Impl::Shard& shard = *impl_->shards[s];
  const uint32_t local = shard.dyn->Add(v);  // throws on bad input: id unused
  if (local != shard.globals.size()) {
    throw std::logic_error("ShardedIndex: shard-local id map out of sync");
  }
  shard.globals.push_back(id);
  impl_->next_id = id + 1;
  return id;
}

bool ShardedIndex::Remove(uint32_t id) {
  std::unique_lock<std::shared_mutex> lock(impl_->mu);
  if (id >= impl_->next_id) return false;
  const uint32_t s =
      ShardOfId(impl_->seed, id, static_cast<uint32_t>(impl_->shards.size()));
  Impl::Shard& shard = *impl_->shards[s];
  const auto it =
      std::lower_bound(shard.globals.begin(), shard.globals.end(), id);
  if (it == shard.globals.end() || *it != id) return false;
  const uint32_t local =
      static_cast<uint32_t>(it - shard.globals.begin());
  return shard.dyn->Remove(local);
}

bool ShardedIndex::Contains(uint32_t id) const {
  std::shared_lock<std::shared_mutex> lock(impl_->mu);
  if (id >= impl_->next_id) return false;
  const uint32_t s =
      ShardOfId(impl_->seed, id, static_cast<uint32_t>(impl_->shards.size()));
  const Impl::Shard& shard = *impl_->shards[s];
  const auto it =
      std::lower_bound(shard.globals.begin(), shard.globals.end(), id);
  if (it == shard.globals.end() || *it != id) return false;
  return shard.dyn->Contains(
      static_cast<uint32_t>(it - shard.globals.begin()));
}

std::vector<QueryMatch> ShardedIndex::Query(const SparseVectorView& q,
                                            QueryStats* stats, uint32_t top_k,
                                            const ServeOptions& opts) const {
  return impl_->FanOut(q, top_k, opts, stats);
}

void ShardedIndex::WaitForCompaction() {
  for (auto& shard : impl_->shards) shard->dyn->WaitForCompaction();
}

bool ShardedIndex::WaitForCompaction(double timeout_seconds) {
  // One wall-clock budget across all shards: each shard gets whatever
  // remains, so a single wedged compaction bounds the whole drain.
  const auto deadline = After(SteadyClock::now(), timeout_seconds);
  bool all_drained = true;
  for (auto& shard : impl_->shards) {
    const double remaining =
        std::chrono::duration<double>(deadline - SteadyClock::now()).count();
    if (!shard->dyn->WaitForCompaction(remaining > 0 ? remaining : 0)) {
      all_drained = false;
    }
  }
  return all_drained;
}

ShardFaultInjector& ShardedIndex::fault_injector() const {
  return *impl_->injector;
}

ShardState ShardedIndex::shard_state(uint32_t shard) const {
  const Impl::Shard& s = *impl_->shards.at(shard);
  ShardState state;
  state.breaker = s.breaker->state(impl_->NowSeconds());
  state.consecutive_failures = s.breaker->consecutive_failures();
  state.num_live = s.dyn->num_live();
  return state;
}

double ShardedIndex::Now() const { return impl_->NowSeconds(); }

uint32_t ShardedIndex::num_shards() const {
  return static_cast<uint32_t>(impl_->shards.size());
}

Measure ShardedIndex::measure() const { return impl_->measure; }

uint32_t ShardedIndex::num_dims() const { return impl_->num_dims; }

uint32_t ShardedIndex::num_live() const {
  uint32_t live = 0;
  for (const auto& shard : impl_->shards) live += shard->dyn->num_live();
  return live;
}

uint64_t ShardedIndex::seed() const { return impl_->seed; }

}  // namespace bayeslsh
