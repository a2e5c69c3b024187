#include "core/serve_control.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace bayeslsh {

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TokenBucket::TokenBucket(double tokens_per_second, double burst,
                         double now_seconds)
    : rate_(tokens_per_second < 0 ? 0.0 : tokens_per_second),
      burst_(burst > 0 ? burst : std::max(rate_, 1.0)),
      tokens_(burst_),
      last_(now_seconds) {}

void TokenBucket::RefillLocked(double now_seconds) {
  if (now_seconds > last_) {
    tokens_ = std::min(burst_, tokens_ + (now_seconds - last_) * rate_);
    last_ = now_seconds;
  }
}

bool TokenBucket::TryAcquire(double now_seconds) {
  if (rate_ <= 0.0) return true;  // unlimited
  RefillLocked(now_seconds);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

double TokenBucket::tokens(double now_seconds) const {
  if (rate_ <= 0.0) return burst_;
  const_cast<TokenBucket*>(this)->RefillLocked(now_seconds);
  return tokens_;
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

AdmissionController::AdmissionController(const AdmissionConfig& cfg)
    : cfg_(cfg) {}

bool AdmissionController::TryAdmit(std::string_view client,
                                   double now_seconds) {
  if (cfg_.tokens_per_second <= 0.0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  TokenBucket& bucket =
      buckets_
          .try_emplace(std::string(client), cfg_.tokens_per_second,
                       cfg_.burst, now_seconds)
          .first->second;
  if (bucket.TryAcquire(now_seconds)) return true;
  ++rejected_;
  return false;
}

uint64_t AdmissionController::rejected_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

CircuitBreaker::CircuitBreaker(const BreakerConfig& cfg) : cfg_(cfg) {
  if (cfg_.failure_threshold == 0) cfg_.failure_threshold = 1;
}

bool CircuitBreaker::AllowRequest(double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now_seconds - opened_at_ < cfg_.open_seconds) return false;
      state_ = BreakerState::kHalfOpen;
      probe_in_flight_ = false;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      if (probe_in_flight_) return false;  // one probe at a time
      probe_in_flight_ = true;
      return true;
  }
  return false;  // unreachable
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = BreakerState::kClosed;
  failures_ = 0;
  probe_in_flight_ = false;
}

void CircuitBreaker::RecordFailure(double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  if (state_ == BreakerState::kHalfOpen) {
    // Failed probe: straight back to open with a fresh backoff.
    state_ = BreakerState::kOpen;
    opened_at_ = now_seconds;
    probe_in_flight_ = false;
    return;
  }
  if (failures_ >= cfg_.failure_threshold) {
    state_ = BreakerState::kOpen;
    opened_at_ = now_seconds;
  }
}

void CircuitBreaker::RecordAbandoned() {
  std::lock_guard<std::mutex> lock(mu_);
  probe_in_flight_ = false;
}

BreakerState CircuitBreaker::state(double now_seconds) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == BreakerState::kOpen &&
      now_seconds - opened_at_ >= cfg_.open_seconds) {
    return BreakerState::kHalfOpen;
  }
  return state_;
}

uint32_t CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

// ---------------------------------------------------------------------------
// ShardFaultInjector
// ---------------------------------------------------------------------------

ShardFaultInjector::ShardFaultInjector(uint32_t num_shards)
    : shards_(num_shards) {}

void ShardFaultInjector::FailNext(uint32_t shard, uint32_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_.at(shard).fail_next = n;
}

void ShardFaultInjector::AddLatency(uint32_t shard, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_.at(shard).added_latency_seconds = seconds < 0 ? 0.0 : seconds;
}

void ShardFaultInjector::Wedge(uint32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_.at(shard).wedged = true;
}

void ShardFaultInjector::Unwedge(uint32_t shard) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.at(shard).wedged = false;
  }
  cv_.notify_all();
}

void ShardFaultInjector::Clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : shards_) s = ShardFaults{};
  }
  cv_.notify_all();
}

void ShardFaultInjector::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

void ShardFaultInjector::BeforeShardQuery(uint32_t shard) {
  double sleep_seconds = 0.0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ShardFaults& f = shards_.at(shard);
    if (f.fail_next > 0) {
      --f.fail_next;
      throw ShardFault("injected fault: shard " + std::to_string(shard));
    }
    sleep_seconds = f.added_latency_seconds;
  }
  if (sleep_seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !shards_.at(shard).wedged || shutdown_; });
    if (shutdown_ && shards_.at(shard).wedged) {
      throw ShardFault("shutdown released wedged shard " +
                       std::to_string(shard));
    }
  }
}

}  // namespace bayeslsh
