#include "kv/resilient_store.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/clock.h"
#include "common/rpc_executor.h"

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

ResilientStore::WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ResilientStore::WorkerPool::Start(int workers) {
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, queue drained
        std::function<void()> fn = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        fn();
        lock.lock();
      }
    });
  }
}

void ResilientStore::WorkerPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_.empty() || stopping_) {
      // No pool (hedging off) — degenerate to inline execution.
      fn();
      return;
    }
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
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
    pool_.Start(options_.hedge_workers);
  }
}

ResilientStore::~ResilientStore() = default;

Status ResilientStore::Preflight(const std::string& key, CircuitBreaker** b,
                                 bool* probe) {
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
    *b = &breaker;
    *probe = ticket.probe;
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
                                  CircuitBreaker* b, bool probe,
                                  ReadResult* out) {
  auto cell = std::make_shared<HedgeCell>();
  // The primary runs on a pool worker carrying this thread's OpContext, so
  // the caller can adopt the hedge's answer and return while the stalled
  // primary is still in flight.
  OpContext ctx = OpContext::Snapshot();
  pool_.Submit([this, cell, op, b, probe, ctx] {
    OpContextAdoptScope scope(ctx);
    Stopwatch watch;
    ReadResult result;
    result.status = op(*base_, &result);
    if (b != nullptr) b->OnResult(result.status, probe);
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
    CircuitBreaker* hb = nullptr;
    bool hedge_probe = false;
    bool send = Preflight(key, &hb, &hedge_probe).ok();
    ReadResult hedge;
    if (send) {
      hedges_sent_.fetch_add(1, std::memory_order_relaxed);
      OpHedgeScope hedge_scope;
      hedge.status = op(*base_, &hedge);
      if (hb != nullptr) hb->OnResult(hedge.status, hedge_probe);
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
  CircuitBreaker* b = nullptr;
  bool probe = false;
  Status admit = Preflight(key, &b, &probe);
  if (!admit.ok()) return admit;
  if (options_.hedge_enabled && !OpExempt()) {
    return HedgedRead(key, op, b, probe, out);
  }
  Stopwatch watch;
  out->status = op(*base_, out);
  if (b != nullptr) b->OnResult(out->status, probe);
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

void ResilientStore::MultiGet(const std::vector<std::string>& keys,
                              std::vector<MultiGetResult>* results) {
  if (options_.hedge_enabled) {
    // Hedging must see every request individually (the straggler protection
    // is per-RPC), so the batch decomposes into per-key hedged reads.  With
    // an executor attached they run concurrently — the fan-out then happens
    // here rather than in the cloud store below.
    results->clear();
    results->resize(keys.size());
    auto run_one = [this, &keys, results](size_t i) {
      MultiGetResult& r = (*results)[i];
      const std::string& key = keys[i];
      ReadResult read;
      r.status = RunRead(
          key,
          [key](Store& store, ReadResult* out) {
            return store.Get(key, &out->value, &out->etag);
          },
          &read);
      if (r.status.ok()) {
        r.value = std::move(read.value);
        r.etag = read.etag;
      }
      return r.status;
    };
    if (executor_ != nullptr) {
      executor_->ParallelForEach(keys.size(), run_one);
    } else {
      for (size_t i = 0; i < keys.size(); ++i) run_one(i);
    }
    return;
  }

  // No hedging: admit every key in item order, pass the admitted subset down
  // as one batch, settle the breaker tickets in item order afterwards.  The
  // ordered admission/settlement keeps the breaker lifecycle a pure function
  // of the request stream even when the sub-batch fans out below.
  results->clear();
  results->resize(keys.size());
  std::vector<std::string> admitted;
  std::vector<size_t> admitted_index;
  std::vector<CircuitBreaker*> admitted_breaker;
  std::vector<bool> admitted_probe;
  admitted.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    CircuitBreaker* b = nullptr;
    bool probe = false;
    Status s = Preflight(keys[i], &b, &probe);
    if (!s.ok()) {
      (*results)[i].status = s;
      continue;
    }
    admitted.push_back(keys[i]);
    admitted_index.push_back(i);
    admitted_breaker.push_back(b);
    admitted_probe.push_back(probe);
  }
  if (admitted.empty()) return;
  std::vector<MultiGetResult> sub;
  base_->MultiGet(admitted, &sub);
  for (size_t j = 0; j < sub.size(); ++j) {
    if (admitted_breaker[j] != nullptr) {
      admitted_breaker[j]->OnResult(sub[j].status, admitted_probe[j]);
    }
    (*results)[admitted_index[j]] = std::move(sub[j]);
  }
}

void ResilientStore::MultiWrite(const std::vector<WriteOp>& ops,
                                std::vector<WriteResult>* results) {
  // Mutations are never hedged; the batch analogue of the single-op
  // mutation path is ordered admission, one sub-batch, ordered settlement.
  results->clear();
  results->resize(ops.size());
  std::vector<WriteOp> admitted;
  std::vector<size_t> admitted_index;
  std::vector<CircuitBreaker*> admitted_breaker;
  std::vector<bool> admitted_probe;
  admitted.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    CircuitBreaker* b = nullptr;
    bool probe = false;
    Status s = Preflight(ops[i].key, &b, &probe);
    if (!s.ok()) {
      (*results)[i].status = s;
      continue;
    }
    admitted.push_back(ops[i]);
    admitted_index.push_back(i);
    admitted_breaker.push_back(b);
    admitted_probe.push_back(probe);
  }
  if (admitted.empty()) return;
  std::vector<WriteResult> sub;
  base_->MultiWrite(admitted, &sub);
  for (size_t j = 0; j < sub.size(); ++j) {
    if (admitted_breaker[j] != nullptr) {
      admitted_breaker[j]->OnResult(sub[j].status, admitted_probe[j]);
    }
    (*results)[admitted_index[j]] = std::move(sub[j]);
  }
}

// Mutations: breaker + deadline admission only.  They never enter the
// hedging path — a duplicated lock put, TSR put or delete would break the
// transaction protocol's exactly-once assumptions.

Status ResilientStore::Put(const std::string& key, std::string_view value,
                           uint64_t* etag_out) {
  CircuitBreaker* b = nullptr;
  bool probe = false;
  Status admit = Preflight(key, &b, &probe);
  if (!admit.ok()) return admit;
  Status s = base_->Put(key, value, etag_out);
  if (b != nullptr) b->OnResult(s, probe);
  return s;
}

Status ResilientStore::ConditionalPut(const std::string& key,
                                      std::string_view value,
                                      uint64_t expected_etag,
                                      uint64_t* etag_out) {
  CircuitBreaker* b = nullptr;
  bool probe = false;
  Status admit = Preflight(key, &b, &probe);
  if (!admit.ok()) return admit;
  Status s = base_->ConditionalPut(key, value, expected_etag, etag_out);
  if (b != nullptr) b->OnResult(s, probe);
  return s;
}

Status ResilientStore::Delete(const std::string& key) {
  CircuitBreaker* b = nullptr;
  bool probe = false;
  Status admit = Preflight(key, &b, &probe);
  if (!admit.ok()) return admit;
  Status s = base_->Delete(key);
  if (b != nullptr) b->OnResult(s, probe);
  return s;
}

Status ResilientStore::ConditionalDelete(const std::string& key,
                                         uint64_t expected_etag) {
  CircuitBreaker* b = nullptr;
  bool probe = false;
  Status admit = Preflight(key, &b, &probe);
  if (!admit.ok()) return admit;
  Status s = base_->ConditionalDelete(key, expected_etag);
  if (b != nullptr) b->OnResult(s, probe);
  return s;
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
