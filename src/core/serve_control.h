// Serving robustness primitives: admission control, shard health tracking,
// and fault injection — the degradation machinery behind the sharded
// serving layer (core/sharded_index.h) and the CLI `serve` front-end.
//
// A long-lived server has three ways to fall over under stress, and each
// gets a first-class control here:
//
//   Overload.   A client flooding the queue turns every other client's
//               latency unbounded. The TokenBucket + AdmissionController
//               pair turns overload into an *immediate*, cheap
//               rejection instead: each client has a token bucket
//               (rate + burst), and a request that cannot get a token is
//               rejected before it touches any shard.
//
//   Slow/dead shards.  One wedged shard must degrade answers, not hang
//               the server. Each shard gets a CircuitBreaker: consecutive
//               failures (errors or per-shard timeouts) open it, an open
//               breaker skips the shard instantly (partial answers), and
//               after a backoff one half-open probe is let through — a
//               success closes the breaker, a failure re-opens it with a
//               fresh backoff. The classic state machine:
//
//                       failures >= threshold
//                 closed ----------------------> open
//                   ^                              | backoff elapsed
//                   |  probe succeeds              v
//                   +------------------------- half-open
//                              probe fails ----^   | (one probe in flight)
//                              (back to open) <----+
//
//   Faults you cannot wait for in tests.  ShardFaultInjector is the hook
//               the degraded-mode tests and the open-loop bench use to
//               *make* a shard slow (added latency), failing (fail-next-N
//               throws ShardFault) or wedged (block until unwedged) — so
//               every degraded path above is pinned deterministically.
//
// Time: the primitives never read a clock. Every decision takes an
// explicit `now_seconds` (any monotonic origin), so unit tests drive the
// state machines with a fake clock and the serving layer feeds them
// steady_clock time. All classes here are internally synchronized and
// safe to share across serving threads.

#ifndef BAYESLSH_CORE_SERVE_CONTROL_H_
#define BAYESLSH_CORE_SERVE_CONTROL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bayeslsh {

// Thrown by ShardFaultInjector::BeforeShardQuery for an injected failure;
// the shard executor reports it like any other shard error (a breaker
// failure), so injected and organic faults exercise the same path.
class ShardFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

// Classic token bucket: `burst` capacity, refilled at `rate` tokens per
// second, one token per admitted request. rate == 0 disables the limit
// (TryAcquire always succeeds). Not internally synchronized — the
// AdmissionController guards its buckets with one lock.
class TokenBucket {
 public:
  TokenBucket(double tokens_per_second, double burst, double now_seconds);

  // Consumes one token if available; refills lazily from the elapsed
  // time. `now_seconds` must not run backwards (same origin per bucket).
  bool TryAcquire(double now_seconds);

  double tokens(double now_seconds) const;

 private:
  void RefillLocked(double now_seconds);

  double rate_ = 0.0;
  double burst_ = 0.0;
  mutable double tokens_ = 0.0;
  mutable double last_ = 0.0;
};

struct AdmissionConfig {
  // Per-client token bucket: sustained admissions per second, and the
  // burst capacity above it. rate 0 = no rate limit; burst 0 = a capacity
  // of max(rate, 1).
  double tokens_per_second = 0.0;
  double burst = 0.0;
};

// Per-client token buckets. Admission is immediate: a request whose
// client has no token is rejected now, never queued behind a flood.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& cfg);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Admits `client` at `now_seconds` (true), consuming one of its
  // tokens, or rejects it (false) and counts the rejection.
  bool TryAdmit(std::string_view client, double now_seconds);

  uint64_t rejected_total() const;

 private:
  AdmissionConfig cfg_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, TokenBucket> buckets_;
  uint64_t rejected_ = 0;
};

// ---------------------------------------------------------------------------
// Shard health: the circuit breaker
// ---------------------------------------------------------------------------

struct BreakerConfig {
  // Consecutive failures that open the breaker.
  uint32_t failure_threshold = 3;
  // Seconds an open breaker rejects instantly before letting one
  // half-open probe through.
  double open_seconds = 1.0;
};

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

// Per-shard consecutive-failure circuit breaker with a timed half-open
// probe (see the header comment for the state machine). Thread-safe;
// callers pair every AllowRequest() == true with exactly one
// RecordSuccess() or RecordFailure().
class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerConfig& cfg);

  // True when a request may be sent to the shard. While open, false
  // until the backoff elapses; then the breaker moves to half-open and
  // admits exactly one probe (further requests are refused until that
  // probe's outcome is recorded).
  bool AllowRequest(double now_seconds);

  void RecordSuccess();
  void RecordFailure(double now_seconds);

  // Neutral outcome: the caller abandoned the request (a client-imposed
  // query deadline expired) and learned nothing about shard health —
  // releases a half-open probe slot, changes nothing else.
  void RecordAbandoned();

  // The state a request at `now_seconds` would observe (an elapsed open
  // backoff reports kHalfOpen). Read-only — never starts a probe.
  BreakerState state(double now_seconds) const;
  uint32_t consecutive_failures() const;

 private:
  BreakerConfig cfg_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  uint32_t failures_ = 0;
  double opened_at_ = 0.0;
  bool probe_in_flight_ = false;
};

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

// Test/bench hook applied by the sharded index's shard executors before
// every shard sub-query (core/sharded_index.h). Three fault shapes:
//
//   FailNext(s, n)    the next n sub-queries on shard s throw ShardFault;
//   AddLatency(s, d)  every sub-query on shard s first sleeps d seconds
//                     (a slow shard — drives deadline and tail-latency
//                     behaviour);
//   Wedge(s)          sub-queries on shard s block until Unwedge(s) —
//                     a genuinely stuck shard: only the shard's executor
//                     thread hangs; the router times out and degrades.
//
// All methods are thread-safe. Shutdown() (called by the owning index's
// destructor) permanently releases wedged waits as ShardFault so
// executors can drain and join.
class ShardFaultInjector {
 public:
  explicit ShardFaultInjector(uint32_t num_shards);

  void FailNext(uint32_t shard, uint32_t n);
  void AddLatency(uint32_t shard, double seconds);
  void Wedge(uint32_t shard);
  void Unwedge(uint32_t shard);

  // Heals every shard: clears fail-next counts and added latency,
  // unwedges everything.
  void Clear();

  // Permanently releases current and future wedged waits (they throw
  // ShardFault). One-way; used at teardown.
  void Shutdown();

  // Executor-side hook: applies the shard's injected faults in order —
  // fail-next (throws), added latency (sleeps), wedge (blocks). Throws
  // ShardFault on an injected failure or a shutdown-released wedge.
  void BeforeShardQuery(uint32_t shard);

 private:
  struct ShardFaults {
    uint32_t fail_next = 0;
    double added_latency_seconds = 0.0;
    bool wedged = false;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ShardFaults> shards_;
  bool shutdown_ = false;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_SERVE_CONTROL_H_
