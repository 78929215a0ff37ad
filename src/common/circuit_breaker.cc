#include "common/circuit_breaker.h"

#include <algorithm>

#include "common/clock.h"

namespace ycsbt {

CircuitBreakerOptions CircuitBreakerOptions::FromProperties(
    const Properties& props) {
  CircuitBreakerOptions o;
  o.enabled = kBreakerEnabled.Get<bool>(props);
  o.window = kBreakerWindow.Get<int>(props);
  o.min_samples = std::min(kBreakerMinSamples.Get<int>(props), o.window);
  o.failure_ratio = kBreakerFailureRatio.Get<double>(props);
  o.cooldown_us = kBreakerCooldownUs.Get<uint64_t>(props);
  o.cooldown_rejects = kBreakerCooldownRejects.Get<int>(props);
  o.probes = kBreakerProbes.Get<int>(props);
  return o;
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options),
      window_(static_cast<size_t>(std::max(options.window, 1)), 0) {}

void CircuitBreaker::TripLocked(uint64_t now_ns) {
  state_ = State::kOpen;
  opened_at_ns_ = now_ns;
  rejects_this_open_ = 0;
  probes_in_flight_ = 0;
  probe_successes_ = 0;
  ++stats_.opens;
}

CircuitBreaker::Ticket CircuitBreaker::Admit() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return Ticket{true, false};
    case State::kOpen: {
      bool cooled =
          SteadyNanos() - opened_at_ns_ >= options_.cooldown_us * 1000 ||
          (options_.cooldown_rejects > 0 &&
           rejects_this_open_ >=
               static_cast<uint64_t>(options_.cooldown_rejects));
      if (!cooled) {
        ++rejects_this_open_;
        ++stats_.fast_fails;
        return Ticket{false, false};
      }
      state_ = State::kHalfOpen;
      probes_in_flight_ = 1;
      probe_successes_ = 0;
      ++stats_.probes_sent;
      return Ticket{true, true};
    }
    case State::kHalfOpen:
      if (probes_in_flight_ < options_.probes) {
        ++probes_in_flight_;
        ++stats_.probes_sent;
        return Ticket{true, true};
      }
      ++stats_.fast_fails;
      return Ticket{false, false};
  }
  return Ticket{true, false};
}

void CircuitBreaker::OnResult(const Status& s, bool probe) {
  bool failure = CountsAsFailure(s);
  std::lock_guard<std::mutex> lock(mu_);
  if (probe) {
    if (state_ != State::kHalfOpen) return;  // stale: breaker moved on
    probes_in_flight_ = std::max(probes_in_flight_ - 1, 0);
    if (failure) {
      TripLocked(SteadyNanos());
      return;
    }
    if (++probe_successes_ >= options_.probes) {
      state_ = State::kClosed;
      std::fill(window_.begin(), window_.end(), 0);
      window_next_ = 0;
      window_filled_ = 0;
      window_failures_ = 0;
      ++stats_.recloses;
    }
    return;
  }
  if (state_ != State::kClosed) return;  // late result from before a trip
  window_failures_ -= window_[window_next_];
  window_[window_next_] = failure ? 1 : 0;
  window_failures_ += window_[window_next_];
  window_next_ = (window_next_ + 1) % window_.size();
  window_filled_ = std::min(window_filled_ + 1, window_.size());
  if (window_filled_ >= static_cast<size_t>(options_.min_samples) &&
      static_cast<double>(window_failures_) >=
          options_.failure_ratio * static_cast<double>(window_filled_)) {
    TripLocked(SteadyNanos());
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

BreakerStats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

CircuitBreakerSet::CircuitBreakerSet(const CircuitBreakerOptions& options,
                                     int backends) {
  int n = std::max(backends, 1);
  breakers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(options));
  }
}

bool CircuitBreakerSet::AnyOpen() const {
  for (const auto& b : breakers_) {
    if (b->state() == CircuitBreaker::State::kOpen) return true;
  }
  return false;
}

BreakerStats CircuitBreakerSet::Aggregate() const {
  BreakerStats total;
  for (const auto& b : breakers_) {
    BreakerStats s = b->stats();
    total.opens += s.opens;
    total.fast_fails += s.fast_fails;
    total.probes_sent += s.probes_sent;
    total.recloses += s.recloses;
  }
  return total;
}

}  // namespace ycsbt
