// A small fixed-size thread pool plus the ParallelFor / ParallelReduce
// helpers the parallel execution engine is built from.
//
// Design constraints, in order:
//
//  1. Determinism. Every parallel construct here is a *static* partition of
//     [0, n) into one contiguous shard per worker, executed with no work
//     stealing. Callers that merge per-shard results in shard order get
//     output identical to a sequential run — which is how the pipeline
//     keeps `num_threads = N` bit-identical to `num_threads = 1`.
//  2. No external dependencies: std::thread + condition variables only.
//  3. Graceful degradation: a null pool, a 1-thread pool, an empty range,
//     and a nested call from inside a worker all run the loop inline on the
//     calling thread (shard 0 spanning the whole range), so library code
//     can be written once against the parallel API.
//
// The pool is NOT a general task scheduler: RunShards is a fork-join
// primitive (one shard per worker, caller participates as shard 0, blocks
// until every shard finishes). That is all the engine needs, and it keeps
// the synchronization surface small enough to reason about under TSan.

#ifndef BAYESLSH_COMMON_THREAD_POOL_H_
#define BAYESLSH_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace bayeslsh {

// Hard cap on resolved thread counts: a knob above this is always a bug
// (e.g. a negative CLI value wrapped through an unsigned cast), and
// honoring it literally would try to spawn billions of workers.
inline constexpr uint32_t kMaxThreads = 256;

// Resolves a user-facing thread-count knob: 0 means "all hardware threads"
// (at least 1); anything else is taken literally up to kMaxThreads.
uint32_t ResolveNumThreads(uint32_t requested);

class ThreadPool {
 public:
  // Spawns num_threads - 1 workers (the caller of RunShards is the
  // remaining one). num_threads is resolved via ResolveNumThreads.
  explicit ThreadPool(uint32_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  // fn(shard, begin, end) over the static partition of [0, total) into
  // num_threads() contiguous shards (shard i covers
  // [total*i/T, total*(i+1)/T); shards may be empty when total < T).
  // Blocks until every shard returns. The first exception thrown by any
  // shard is rethrown here after all shards finish; there is no
  // cancellation of sibling shards.
  //
  // Runs the whole range inline as shard 0 when total == 0 is false and
  // the pool has one thread, or when called from inside one of this
  // process's pool workers (nested parallelism degrades to sequential
  // instead of deadlocking).
  using ShardFn = std::function<void(uint32_t shard, uint64_t begin,
                                     uint64_t end)>;
  void RunShards(uint64_t total, const ShardFn& fn);

  // Boundaries of shard `shard` in the static partition used by RunShards.
  static uint64_t ShardBegin(uint64_t total, uint32_t shard,
                             uint32_t num_shards) {
    return total * shard / num_shards;
  }

 private:
  void WorkerLoop(uint32_t worker);

  uint32_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;   // Bumped once per RunShards call.
  uint32_t pending_ = 0;      // Workers still running the current job.
  const ShardFn* job_ = nullptr;
  uint64_t job_total_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

// Calls fn(i) for every i in [begin, end), sharded across the pool.
// pool == nullptr runs inline. fn must be safe to call concurrently for
// distinct i.
template <typename Fn>
void ParallelFor(ThreadPool* pool, uint64_t begin, uint64_t end, Fn&& fn) {
  if (begin >= end) return;
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (uint64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  pool->RunShards(end - begin,
                  [&fn, begin](uint32_t, uint64_t b, uint64_t e) {
                    for (uint64_t i = b; i < e; ++i) fn(begin + i);
                  });
}

// Sums fn(i) over [0, n), sharded across the pool — the "grow rows,
// merge the hashing tally once" pattern of SignatureStoreBase::EnsureAll,
// the index-build prefetch (core/index_io.cc) and the sharded query
// prefetch. fn must be safe to call concurrently for distinct i.
template <typename Fn>
uint64_t ParallelWorkSum(ThreadPool* pool, uint64_t n, Fn&& fn);

// Maps each shard of [0, n) through map(shard, begin, end) -> T and folds
// the per-shard values with reduce(acc, value) in shard order — so the
// result is deterministic whenever reduce is (as integer sums are).
template <typename T, typename MapFn, typename ReduceFn>
T ParallelReduce(ThreadPool* pool, uint64_t n, T identity, MapFn&& map,
                 ReduceFn&& reduce) {
  if (n == 0) return identity;
  if (pool == nullptr || pool->num_threads() <= 1) {
    return reduce(std::move(identity), map(0u, uint64_t{0}, n));
  }
  const uint32_t shards = pool->num_threads();
  std::vector<T> parts(shards, identity);
  pool->RunShards(n, [&](uint32_t s, uint64_t b, uint64_t e) {
    if (b < e) parts[s] = map(s, b, e);
  });
  T acc = std::move(identity);
  for (T& part : parts) acc = reduce(std::move(acc), std::move(part));
  return acc;
}

template <typename Fn>
uint64_t ParallelWorkSum(ThreadPool* pool, uint64_t n, Fn&& fn) {
  return ParallelReduce(
      pool, n, uint64_t{0},
      [&fn](uint32_t, uint64_t b, uint64_t e) {
        uint64_t work = 0;
        for (uint64_t i = b; i < e; ++i) work += fn(i);
        return work;
      },
      [](uint64_t x, uint64_t y) { return x + y; });
}

}  // namespace bayeslsh

#endif  // BAYESLSH_COMMON_THREAD_POOL_H_
