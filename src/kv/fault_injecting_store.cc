#include "kv/fault_injecting_store.h"

#include "common/latency_model.h"
#include "common/op_context.h"
#include "common/random.h"
#include "kv/ordered_admission.h"

namespace ycsbt {
namespace kv {

FaultOptions FaultOptions::FromProperties(const Properties& props) {
  FaultOptions o;
  o.seed = kFaultSeed.Get<uint64_t>(props);
  o.error_rate = kFaultErrorRate.Get<double>(props);
  o.throttle_rate = kFaultThrottleRate.Get<double>(props);
  o.throttle_burst = kFaultThrottleBurst.Get<int>(props);
  o.latency_spike_rate = kFaultLatencySpikeRate.Get<double>(props);
  o.latency_spike_us = kFaultLatencySpikeUs.Get<uint64_t>(props);
  o.lost_reply_rate = kFaultLostReplyRate.Get<double>(props);
  o.crash_rate = kFaultCrashRate.Get<double>(props);
  for (const std::string& token :
       SplitPropertyList(kFaultCrashPoints.Get<std::string>(props))) {
    o.crash_points |= ParseCrashPointToken(token);
  }
  return o;
}

FaultInjectingStore::FaultInjectingStore(std::shared_ptr<Store> base,
                                         FaultOptions options)
    : base_(std::move(base)), options_(options) {}

FaultStats FaultInjectingStore::stats() const {
  FaultStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.throttles = throttles_.load(std::memory_order_relaxed);
  s.latency_spikes = latency_spikes_.load(std::memory_order_relaxed);
  s.lost_replies = lost_replies_.load(std::memory_order_relaxed);
  s.crashes = crashes_.load(std::memory_order_relaxed);
  s.hedges = hedges_.load(std::memory_order_relaxed);
  s.hedge_faults = hedge_faults_.load(std::memory_order_relaxed);
  return s;
}

void FaultInjectingStore::Collect(LayerStats* out) {
  FaultStats now = stats();
  out->Count("FAULT REQUESTS", now.requests - collected_.requests);
  out->Count("FAULT ERRORS", now.errors - collected_.errors);
  out->Count("FAULT TIMEOUTS", now.timeouts - collected_.timeouts);
  out->Count("FAULT THROTTLES", now.throttles - collected_.throttles);
  out->Count("FAULT LATENCY SPIKES", now.latency_spikes - collected_.latency_spikes);
  out->Count("FAULT LOST REPLIES", now.lost_replies - collected_.lost_replies);
  out->Count("FAULT CRASHES", now.crashes - collected_.crashes);
  out->Count("FAULT HEDGES", now.hedges - collected_.hedges);
  out->Count("FAULT HEDGE FAULTS", now.hedge_faults - collected_.hedge_faults);
  collected_ = now;
}

Status FaultInjectingStore::BeginRequest() {
  if (!enabled()) return Status::OK();
  // A hedge (a duplicate of a read already in flight) is faulted like any
  // request, but from its own ticket stream and on its own counters:
  // whether a hedge fires is a wall-clock decision, and must not shift the
  // primaries' schedule or its counts.
  const bool hedge = CurrentOpContext().hedge;
  auto count = [&](std::atomic<uint64_t>& primary_counter) {
    (hedge ? hedge_faults_ : primary_counter)
        .fetch_add(1, std::memory_order_relaxed);
  };
  (hedge ? hedges_ : requests_).fetch_add(1, std::memory_order_relaxed);
  uint64_t ticket =
      hedge ? hedge_ticket_.fetch_add(1, std::memory_order_relaxed) | kHedgeStream
            : ticket_.fetch_add(1, std::memory_order_relaxed);

  if (options_.latency_spike_rate > 0.0 &&
      TicketDraw(options_.seed, ticket, /*salt=*/1) <
          options_.latency_spike_rate) {
    count(latency_spikes_);
    SleepMicros(options_.latency_spike_us);
  }

  if (options_.throttle_rate > 0.0) {
    // Drain an in-progress burst first: any request arriving during a burst
    // is rejected regardless of its own draw.  A hedge is rejected by a
    // burst too, but neither drains nor starts one, for the same reason it
    // draws from its own stream.
    int left = throttle_burst_left_.load(std::memory_order_relaxed);
    while (!hedge && left > 0 &&
           !throttle_burst_left_.compare_exchange_weak(
               left, left - 1, std::memory_order_relaxed)) {
    }
    if (left > 0) {
      count(throttles_);
      return Status::RateLimited("injected: throttle burst");
    }
    if (TicketDraw(options_.seed, ticket, /*salt=*/2) <
        options_.throttle_rate) {
      if (!hedge) {
        throttle_burst_left_.store(options_.throttle_burst - 1,
                                   std::memory_order_relaxed);
      }
      count(throttles_);
      return Status::RateLimited("injected: throttled");
    }
  }

  if (options_.error_rate > 0.0 &&
      TicketDraw(options_.seed, ticket, /*salt=*/3) < options_.error_rate) {
    // Half the transient errors are Timeouts (retryable), half IOErrors
    // (not retryable per Status::IsRetryable) — so a retry loop's giveup
    // path is exercised alongside its success path.
    if ((Mix64(options_.seed ^ ticket) & 1) != 0) {
      count(timeouts_);
      return Status::Timeout("injected: transient timeout");
    }
    count(errors_);
    return Status::IOError("injected: transient io error");
  }
  return Status::OK();
}

bool FaultInjectingStore::LoseReply() {
  if (!enabled() || options_.lost_reply_rate <= 0.0) return false;
  uint64_t ticket = ticket_.fetch_add(1, std::memory_order_relaxed);
  if (TicketDraw(options_.seed, ticket, /*salt=*/4) <
      options_.lost_reply_rate) {
    lost_replies_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjectingStore::ShouldCrash(CrashPoint point) {
  if (!enabled() || options_.crash_rate <= 0.0) return false;
  if ((options_.crash_points & CrashPointBit(point)) == 0) return false;
  uint64_t ticket = crash_ticket_.fetch_add(1, std::memory_order_relaxed);
  if (TicketDraw(options_.seed, ticket, /*salt=*/5) < options_.crash_rate) {
    crashes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

Status FaultInjectingStore::Get(const std::string& key, std::string* value,
                                uint64_t* etag) {
  Status s = BeginRequest();
  if (!s.ok()) return s;
  return base_->Get(key, value, etag);
}

Status FaultInjectingStore::Put(const std::string& key, std::string_view value,
                                uint64_t* etag_out) {
  Status s = BeginRequest();
  if (!s.ok()) return s;
  s = base_->Put(key, value, etag_out);
  if (s.ok() && LoseReply()) return Status::Timeout("injected: reply lost");
  return s;
}

Status FaultInjectingStore::ConditionalPut(const std::string& key,
                                           std::string_view value,
                                           uint64_t expected_etag,
                                           uint64_t* etag_out) {
  Status s = BeginRequest();
  if (!s.ok()) return s;
  s = base_->ConditionalPut(key, value, expected_etag, etag_out);
  if (s.ok() && LoseReply()) return Status::Timeout("injected: reply lost");
  return s;
}

Status FaultInjectingStore::Delete(const std::string& key) {
  Status s = BeginRequest();
  if (!s.ok()) return s;
  s = base_->Delete(key);
  if (s.ok() && LoseReply()) return Status::Timeout("injected: reply lost");
  return s;
}

Status FaultInjectingStore::ConditionalDelete(const std::string& key,
                                              uint64_t expected_etag) {
  Status s = BeginRequest();
  if (!s.ok()) return s;
  s = base_->ConditionalDelete(key, expected_etag);
  if (s.ok() && LoseReply()) return Status::Timeout("injected: reply lost");
  return s;
}

void FaultInjectingStore::MultiGet(const std::vector<std::string>& keys,
                                   std::vector<MultiGetResult>* results) {
  AdmitInOrder(
      *base_, keys, results,
      [this](const std::string&, NoTicket*) { return BeginRequest(); },
      [](const std::string&, NoTicket&, MultiGetResult*) {});
}

void FaultInjectingStore::MultiWrite(const std::vector<WriteOp>& ops,
                                     std::vector<WriteResult>* results) {
  AdmitInOrder(
      *base_, ops, results,
      [this](const std::string&, NoTicket*) { return BeginRequest(); },
      [this](const std::string&, NoTicket&, WriteResult* r) {
        if (r->status.ok() && LoseReply()) {
          r->status = Status::Timeout("injected: reply lost");
        }
      });
}

Status FaultInjectingStore::Scan(const std::string& start_key, size_t limit,
                                 std::vector<ScanEntry>* out) {
  Status s = BeginRequest();
  if (!s.ok()) return s;
  return base_->Scan(start_key, limit, out);
}

size_t FaultInjectingStore::Count() const { return base_->Count(); }

}  // namespace kv
}  // namespace ycsbt
