#include "kv/resilient_store.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/clock.h"
#include "common/rpc_executor.h"
#include "kv/ordered_admission.h"

namespace ycsbt {
namespace kv {

ResilienceOptions ResilienceOptions::FromProperties(const Properties& props) {
  ResilienceOptions o;
  o.breaker = CircuitBreakerOptions::FromProperties(props);
  o.hedge_enabled = kHedgeEnabled.Get<bool>(props);
  o.hedge_delay_us = kHedgeDelayUs.Get<int64_t>(props);
  o.hedge_percentile = kHedgePercentile.Get<double>(props);
  o.hedge_delay_min_us = kHedgeDelayMinUs.Get<uint64_t>(props);
  o.hedge_delay_max_us =
      std::max(kHedgeDelayMaxUs.Get<uint64_t>(props), o.hedge_delay_min_us);
  o.hedge_workers = kHedgeWorkers.Get<int>(props);
  o.deadline_fail_fast = kDeadlineEnforce.Get<bool>(props);
  return o;
}

ResilientStore::ResilientStore(std::shared_ptr<Store> base,
                               ResilienceOptions options, int backends)
    : base_(std::move(base)), options_(std::move(options)) {
  if (options_.breaker.enabled) {
    breakers_ =
        std::make_unique<CircuitBreakerSet>(options_.breaker, backends);
  }
  if (options_.hedge_enabled) {
    read_samples_us_.reserve(256);
    hedge_pool_ = std::make_unique<RpcExecutor>(options_.hedge_workers);
  }
}

ResilientStore::~ResilientStore() = default;

Status ResilientStore::Preflight(const std::string& key, Admission* admission) {
  if (OpExempt()) return Status::OK();
  if (options_.deadline_fail_fast && OpDeadlineExpired()) {
    deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::Timeout("op deadline expired; request abandoned");
  }
  if (breakers_ != nullptr) {
    CircuitBreaker& breaker =
        backend_resolver_
            ? breakers_->backend(backend_resolver_(key) % breakers_->backends())
            : breakers_->ForKey(key);
    CircuitBreaker::Ticket ticket = breaker.Admit();
    if (!ticket.admitted) {
      // Advertise the wall-clock cooldown only when it is the operative
      // mechanism.  A count-based cooldown is burned by *arrivals*, so
      // telling the retry loop to sleep it out would starve the breaker of
      // the rejects that become its Half-Open probe.
      if (options_.breaker.cooldown_rejects > 0) {
        return Status::Unavailable("breaker open");
      }
      return Status::Unavailable(
          "breaker open; retry_after_us=" +
          std::to_string(options_.breaker.cooldown_us));
    }
    admission->breaker = &breaker;
    admission->probe = ticket.probe;
  }
  return Status::OK();
}

void ResilientStore::RecordReadSampleUs(uint64_t us) {
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (read_samples_us_.size() < 256) {
    read_samples_us_.push_back(us);
  } else {
    read_samples_us_[samples_next_] = us;
    samples_next_ = (samples_next_ + 1) % read_samples_us_.size();
  }
}

uint64_t ResilientStore::CurrentHedgeDelayUs() const {
  if (options_.hedge_delay_us >= 0) {
    return static_cast<uint64_t>(options_.hedge_delay_us);
  }
  std::vector<uint64_t> samples;
  {
    std::lock_guard<std::mutex> lock(samples_mu_);
    samples = read_samples_us_;
  }
  // Too little signal: hedge late rather than flood a cold store.
  if (samples.size() < 16) return options_.hedge_delay_max_us;
  size_t idx = static_cast<size_t>(static_cast<double>(samples.size() - 1) *
                                   options_.hedge_percentile / 100.0);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<ptrdiff_t>(idx),
                   samples.end());
  return std::clamp(samples[idx], options_.hedge_delay_min_us,
                    options_.hedge_delay_max_us);
}

Status ResilientStore::HedgedRead(const std::string& key, const ReadFn& op,
                                  Admission admission, ReadResult* out) {
  auto cell = std::make_shared<HedgeCell>();
  // The primary runs on a pool worker under this thread's OpContext, so the
  // caller can adopt the hedge's answer and return while the stalled
  // primary is still in flight.
  hedge_pool_->Submit([this, cell, op, admission] {
    LatencyTimer watch;
    ReadResult result;
    result.status = op(*base_, &result);
    admission.Settle(result.status);
    RecordReadSampleUs(watch.ElapsedMicros());
    std::lock_guard<std::mutex> lock(cell->mu);
    cell->primary = std::move(result);
    cell->primary_done = true;
    if (cell->winner == 0 && Definitive(cell->primary.status)) {
      cell->winner = 1;
    }
    cell->cv.notify_all();
  });

  uint64_t delay_us = CurrentHedgeDelayUs();
  std::unique_lock<std::mutex> lock(cell->mu);
  cell->cv.wait_for(lock, std::chrono::microseconds(delay_us),
                    [&] { return cell->primary_done; });
  if (!cell->primary_done) {
    // Primary is slow: issue one hedge on this thread.  The hedge pays its
    // own breaker/deadline admission, so an overloaded backend is never
    // double-hammered through the hedging path.
    lock.unlock();
    Admission hedge_admission;
    bool send = Preflight(key, &hedge_admission).ok();
    ReadResult hedge;
    if (send) {
      hedges_sent_.fetch_add(1, std::memory_order_relaxed);
      OpHedgeScope hedge_scope;
      hedge.status = op(*base_, &hedge);
      hedge_admission.Settle(hedge.status);
    }
    lock.lock();
    if (send) {
      if (cell->winner == 0 && Definitive(hedge.status)) {
        // First usable answer: the primary is cancelled in effect — its
        // result will be discarded when it lands.
        cell->winner = 2;
        hedges_won_.fetch_add(1, std::memory_order_relaxed);
      } else {
        hedges_wasted_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (cell->winner == 2) {
      *out = std::move(hedge);
      return out->status;
    }
    cell->cv.wait(lock, [&] { return cell->primary_done; });
  }
  *out = std::move(cell->primary);
  return out->status;
}

Status ResilientStore::RunRead(const std::string& key, const ReadFn& op,
                               ReadResult* out) {
  Admission admission;
  Status admit = Preflight(key, &admission);
  if (!admit.ok()) return admit;
  if (options_.hedge_enabled && !OpExempt()) {
    return HedgedRead(key, op, admission, out);
  }
  LatencyTimer watch;
  out->status = op(*base_, out);
  admission.Settle(out->status);
  if (options_.hedge_enabled) RecordReadSampleUs(watch.ElapsedMicros());
  return out->status;
}

Status ResilientStore::Get(const std::string& key, std::string* value,
                           uint64_t* etag) {
  ReadResult result;
  // The ReadFn owns a copy of the key: a hedged primary may still be
  // running it on a pool worker after the caller (and its key) is gone.
  Status s = RunRead(
      key,
      [key](Store& store, ReadResult* r) {
        return store.Get(key, &r->value, &r->etag);
      },
      &result);
  if (s.ok()) {
    if (value != nullptr) *value = std::move(result.value);
    if (etag != nullptr) *etag = result.etag;
  }
  return s;
}

Status ResilientStore::Scan(const std::string& start_key, size_t limit,
                            std::vector<ScanEntry>* out) {
  ReadResult result;
  // Owning capture: see Get — the primary can outlive the caller's key.
  Status s = RunRead(
      start_key,
      [start_key, limit](Store& store, ReadResult* r) {
        return store.Scan(start_key, limit, &r->entries);
      },
      &result);
  if (s.ok() && out != nullptr) *out = std::move(result.entries);
  return s;
}

template <typename Item, typename Row>
void ResilientStore::AdmitBatch(const std::vector<Item>& items,
                                std::vector<Row>* rows) {
  AdmitInOrder<Admission>(
      *base_, items, rows,
      [this](const std::string& key, Admission* admission) {
        return Preflight(key, admission);
      },
      [](const std::string&, const Admission& admission, Row* row) {
        admission.Settle(row->status);
      });
}

void ResilientStore::MultiGet(const std::vector<std::string>& keys,
                              std::vector<MultiGetResult>* results) {
  // Hedging must see every request individually (the straggler protection
  // is per-RPC), so the batch is one hedged Get per key, fanned out here
  // rather than in the cloud store below.
  if (options_.hedge_enabled) {
    Store::MultiGet(keys, results);
    return;
  }
  AdmitBatch(keys, results);
}

// Mutations: breaker + deadline admission only.  They never enter the
// hedging path — a duplicated lock put, TSR put or delete would break the
// transaction protocol's exactly-once assumptions.

void ResilientStore::MultiWrite(const std::vector<WriteOp>& ops,
                                std::vector<WriteResult>* results) {
  AdmitBatch(ops, results);
}

template <typename Op>
Status ResilientStore::Mutate(const std::string& key, const Op& op) {
  Admission admission;
  Status admit = Preflight(key, &admission);
  if (!admit.ok()) return admit;
  Status s = op();
  admission.Settle(s);
  return s;
}

Status ResilientStore::Put(const std::string& key, std::string_view value,
                           uint64_t* etag_out) {
  return Mutate(key, [&] { return base_->Put(key, value, etag_out); });
}

Status ResilientStore::ConditionalPut(const std::string& key,
                                      std::string_view value,
                                      uint64_t expected_etag,
                                      uint64_t* etag_out) {
  return Mutate(key, [&] {
    return base_->ConditionalPut(key, value, expected_etag, etag_out);
  });
}

Status ResilientStore::Delete(const std::string& key) {
  return Mutate(key, [&] { return base_->Delete(key); });
}

Status ResilientStore::ConditionalDelete(const std::string& key,
                                         uint64_t expected_etag) {
  return Mutate(key,
                [&] { return base_->ConditionalDelete(key, expected_etag); });
}

size_t ResilientStore::Count() const { return base_->Count(); }

ResilienceStats ResilientStore::stats() const {
  ResilienceStats s;
  if (breakers_ != nullptr) s.breaker = breakers_->Aggregate();
  s.hedges_sent = hedges_sent_.load(std::memory_order_relaxed);
  s.hedges_won = hedges_won_.load(std::memory_order_relaxed);
  s.hedges_wasted = hedges_wasted_.load(std::memory_order_relaxed);
  s.deadline_rejects = deadline_rejects_.load(std::memory_order_relaxed);
  return s;
}

void ResilientStore::Collect(LayerStats* out) {
  ResilienceStats now = stats();
  const ResilienceStats& was = collected_;
  out->Count("BREAKER OPENS", now.breaker.opens - was.breaker.opens);
  out->Count("BREAKER FAST-FAILS", now.breaker.fast_fails - was.breaker.fast_fails);
  out->Count("BREAKER PROBES", now.breaker.probes_sent - was.breaker.probes_sent);
  out->Count("BREAKER RECLOSES", now.breaker.recloses - was.breaker.recloses);
  out->Count("HEDGES SENT", now.hedges_sent - was.hedges_sent);
  out->Count("HEDGES WON", now.hedges_won - was.hedges_won);
  out->Count("HEDGES WASTED", now.hedges_wasted - was.hedges_wasted);
  out->Count("DEADLINE ABANDONS", now.deadline_rejects - was.deadline_rejects);
  collected_ = now;
}

}  // namespace kv
}  // namespace ycsbt
