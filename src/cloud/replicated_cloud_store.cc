#include "cloud/replicated_cloud_store.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/op_context.h"
#include "kv/ordered_admission.h"

namespace ycsbt {
namespace cloud {

Status ReplicationOptions::FromProperties(const Properties& props,
                                          ReplicationOptions* out) {
  Status s = CheckDeclaredProperties(props, kReplicationProperties);
  if (s.ok()) s = CheckDeclaredProperties(props, kFailoverProperties);
  if (!s.ok()) return s;
  ReplicationOptions o;
  o.regions = kCloudRegions.Get<int>(props);
  if (o.regions < 2) {
    return Status::InvalidArgument("replication needs cloud.regions >= 2");
  }
  o.read_mode = kCloudReadMode.GetEnum<ReadMode>(props);
  o.replica_lag_us = kCloudReplicaLagUs.Get<uint64_t>(props);
  o.replica_lag_ops = kCloudReplicaLagOps.Get<uint64_t>(props);
  o.local_region = kCloudLocalRegion.Get<int>(props);
  if (o.local_region >= o.regions) o.local_region = 0;
  o.script = FailoverScript::FromProperties(props);
  *out = o;
  return Status::OK();
}

ReplicatedCloudStore::ReplicatedCloudStore(std::shared_ptr<kv::Store> base,
                                           std::shared_ptr<kv::Store> raw,
                                           ReplicationOptions options)
    : base_(std::move(base)),
      raw_(std::move(raw)),
      opts_(std::move(options)),
      script_(opts_.script),
      regions_(static_cast<size_t>(opts_.regions)),
      rng_(opts_.seed) {}

void ReplicatedCloudStore::set_fault_enabled(bool enabled) {
  std::lock_guard<std::mutex> lk(mu_);
  armed_ = enabled;
}

int ReplicatedCloudStore::leader() const {
  std::lock_guard<std::mutex> lk(mu_);
  return leader_;
}

size_t ReplicatedCloudStore::BreakerBackendFor(const std::string&) const {
  std::lock_guard<std::mutex> lk(mu_);
  switch (opts_.read_mode) {
    case ReadMode::kLeader:
    case ReadMode::kQuorum:
      return static_cast<size_t>(leader_);
    case ReadMode::kStale:
      return static_cast<size_t>(StaleRegionLocked());
    case ReadMode::kNearest:
      return static_cast<size_t>(opts_.local_region);
  }
  return 0;
}

ReplicationStats ReplicatedCloudStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

ReplicationStats ReplicatedCloudStore::DrainStats() {
  std::lock_guard<std::mutex> lk(mu_);
  ReplicationStats out = std::move(stats_);
  stats_ = ReplicationStats{};
  return out;
}

void ReplicatedCloudStore::Collect(LayerStats* out) {
  ReplicationStats drained = DrainStats();
  out->Count("FAILOVERS", drained.failovers);
  out->Count("NOT-LEADER REJECTS", drained.not_leader_rejects);
  out->Count("LOST-TAIL WRITES", drained.lost_tail_writes);
  out->Count("STALE READS", drained.stale_reads);
  out->Count("REPLICA APPLIES", drained.replica_applies);
  out->Count("PARTITION REJECTS", drained.partition_rejects);
  out->Distribution("REPLICA-LAG", std::move(drained.replica_lag));
}

bool ReplicatedCloudStore::VisibleLocked(const PendingApply& p) const {
  if (opts_.replica_lag_ops > 0) return seq_ >= p.visible_seq;
  return SteadyNanos() >= p.visible_at_ns;
}

void ReplicatedCloudStore::DrainLocked(std::deque<PendingApply>* q) {
  while (!q->empty() && VisibleLocked(q->front())) {
    q->pop_front();
    ++stats_.replica_applies;
  }
}

bool ReplicatedCloudStore::FrontLocked(int region, const std::string& key,
                                       PendingApply* front) {
  auto& pend = regions_[static_cast<size_t>(region)].pending;
  auto it = pend.find(key);
  if (it == pend.end()) return false;
  DrainLocked(&it->second);
  if (it->second.empty()) {
    pend.erase(it);
    return false;
  }
  *front = it->second.front();
  return true;
}

bool ReplicatedCloudStore::ElectionOverLocked() const {
  if (election_deadline_ns_ != 0) return SteadyNanos() >= election_deadline_ns_;
  return election_rejects_left_ == 0;
}

void ReplicatedCloudStore::CompleteElectionLocked() {
  in_election_ = false;
  election_deadline_ns_ = 0;
  lost_tail_left_ = 0;
  leader_ = (leader_ + 1) % opts_.regions;
  ++stats_.failovers;
  // The winner catches up from the replicated log before serving: its whole
  // apply backlog lands at once, so no committed write is lost by the
  // leadership move (the "lost tail" was applied, only its acks were lost).
  auto& pend = regions_[static_cast<size_t>(leader_)].pending;
  for (auto& entry : pend) {
    stats_.replica_applies += entry.second.size();
  }
  pend.clear();
}

void ReplicatedCloudStore::TickLocked(bool is_write) {
  ++request_ticket_;
  if (is_write) ++write_ticket_;
  // The visibility sequence advances on EVERY armed request, not just
  // writes: a replica applies its backlog while serving traffic, so reads
  // drain lag too.  (Write-only advance can livelock a read-only waiter —
  // e.g. a transaction polling a stale lock record that only further writes
  // could ever make current.)
  ++seq_;
  if (!partition_fired_ && script_.partition_region >= 0 &&
      script_.partition_region < opts_.regions && script_.partition_at > 0 &&
      request_ticket_ >= script_.partition_at) {
    partition_fired_ = true;
    partition_active_ = true;
    partition_heal_left_ = script_.partition_ops;
  }
  if (!crash_fired_ && script_.leader_crash_at > 0 && is_write &&
      write_ticket_ >= script_.leader_crash_at) {
    crash_fired_ = true;
    in_election_ = true;
    lost_tail_left_ = script_.lost_tail;
    if (script_.election_us > 0) {
      election_deadline_ns_ = SteadyNanos() + script_.election_us * 1000;
      election_rejects_left_ = 0;
    } else {
      election_deadline_ns_ = 0;
      election_rejects_left_ = script_.election_ops;
    }
  }
  if (in_election_ && ElectionOverLocked()) CompleteElectionLocked();
}

Status ReplicatedCloudStore::NotLeaderRejectLocked() {
  ++stats_.not_leader_rejects;
  if (election_deadline_ns_ == 0 && election_rejects_left_ > 0) {
    --election_rejects_left_;
  }
  std::string msg = "not leader: election in progress; redirect=region-" +
                    std::to_string((leader_ + 1) % opts_.regions);
  if (election_deadline_ns_ != 0) {
    uint64_t now = SteadyNanos();
    uint64_t remaining_us = election_deadline_ns_ > now
                                ? (election_deadline_ns_ - now + 999) / 1000
                                : 1;
    msg += "; retry_after_us=" + std::to_string(remaining_us);
  }
  return Status::NotLeader(msg);
}

Status ReplicatedCloudStore::PartitionRejectLocked(int region) {
  ++stats_.partition_rejects;
  if (partition_heal_left_ > 0 && --partition_heal_left_ == 0) {
    partition_active_ = false;
  }
  return Status::Unavailable("region-" + std::to_string(region) +
                             " partitioned from the cluster");
}

Status ReplicatedCloudStore::WriteGateLocked(bool* lost_reply) {
  if (in_election_) {
    if (lost_tail_left_ > 0) {
      --lost_tail_left_;
      ++stats_.lost_tail_writes;
      *lost_reply = true;
      return Status::OK();
    }
    return NotLeaderRejectLocked();
  }
  if (PartitionedLocked(leader_)) return PartitionRejectLocked(leader_);
  return Status::OK();
}

int ReplicatedCloudStore::StaleRegionLocked() const {
  if (opts_.local_region != leader_) return opts_.local_region;
  return (leader_ + 1) % opts_.regions;
}

ReplicatedCloudStore::Route ReplicatedCloudStore::ReadRouteLocked() {
  Route r;
  switch (opts_.read_mode) {
    case ReadMode::kLeader:
      if (armed_) {
        if (in_election_) {
          r.reject = NotLeaderRejectLocked();
        } else if (PartitionedLocked(leader_)) {
          r.reject = PartitionRejectLocked(leader_);
        }
      }
      return r;
    case ReadMode::kQuorum: {
      if (armed_) {
        // A quorum read needs a majority of regions reachable; the crashed
        // leader cannot vote mid-election, and a partitioned region never
        // can.  (When the partitioned region IS the crashed leader the two
        // outages overlap, not add.)
        int down = 0;
        if (partition_active_) ++down;
        if (in_election_ &&
            !(partition_active_ && script_.partition_region == leader_)) {
          ++down;
        }
        int reachable = opts_.regions - down;
        if (reachable < opts_.regions / 2 + 1) {
          // The quorum-lost rejection is the partition's doing, so it burns
          // the partition's heal budget: otherwise a read-first workload can
          // livelock here — every transaction dies on its quorum read, no
          // write ever reaches the gate to collect the NotLeader rejections
          // the election needs, and neither outage can ever end.
          if (partition_active_ && partition_heal_left_ > 0 &&
              --partition_heal_left_ == 0) {
            partition_active_ = false;
          }
          ++stats_.partition_rejects;
          r.reject = Status::Unavailable(
              "quorum lost: " + std::to_string(reachable) + "/" +
              std::to_string(opts_.regions) + " regions reachable");
        }
      }
      return r;
    }
    case ReadMode::kStale: {
      int view = StaleRegionLocked();
      if (armed_ && PartitionedLocked(view)) {
        r.reject = PartitionRejectLocked(view);
        return r;
      }
      r.view_region = view;
      return r;
    }
    case ReadMode::kNearest: {
      int view = opts_.local_region;
      if (armed_ && PartitionedLocked(view)) {
        r.reject = PartitionRejectLocked(view);
        return r;
      }
      if (view == leader_) {
        // Reading the leader region: fresh, but subject to the election.
        if (armed_ && in_election_) r.reject = NotLeaderRejectLocked();
        return r;
      }
      r.view_region = view;
      return r;
    }
  }
  return r;
}

ReplicatedCloudStore::PendingApply ReplicatedCloudStore::CapturePreImage(
    const std::string& key) {
  PendingApply pre;
  // The peek is model bookkeeping, not client traffic: exempt it from
  // deadline/queue admission so a saturated container cannot blind the
  // replication log (matters only on the raw-less fallback path).
  OpExemptScope exempt;
  kv::Store& peek = raw_ ? *raw_ : *base_;
  uint64_t etag = 0;
  Status s = peek.Get(key, &pre.value, &etag);
  if (s.ok()) {
    pre.present = true;
    pre.etag = etag;
  } else {
    // NotFound = the key is being created; any other failure is treated the
    // same (the follower simply never saw the key before this write).
    pre.present = false;
    pre.value.clear();
  }
  return pre;
}

void ReplicatedCloudStore::ReplicateLocked(const std::string& key,
                                           const PendingApply& pre) {
  for (int r = 0; r < opts_.regions; ++r) {
    if (r == leader_) continue;
    PendingApply p = pre;
    if (opts_.replica_lag_ops > 0) {
      // Uniform in [lag, 2*lag] trailing requests: the floor guarantees a
      // write is never visible before `lag` further arrivals (tests and
      // scripted runs can count on the window), the cap bounds the tail.
      uint64_t draw =
          opts_.replica_lag_ops + rng_.Uniform(opts_.replica_lag_ops + 1);
      p.visible_seq = seq_ + draw;
      stats_.replica_lag.Add(static_cast<int64_t>(draw));
    } else if (opts_.replica_lag_us > 0) {
      uint64_t draw =
          opts_.replica_lag_us / 2 + rng_.Uniform(opts_.replica_lag_us + 1);
      p.visible_at_ns = SteadyNanos() + draw * 1000;
      stats_.replica_lag.Add(static_cast<int64_t>(draw));
    }
    regions_[static_cast<size_t>(r)].pending[key].push_back(std::move(p));
    ++stats_.writes_replicated;
  }
}

void ReplicatedCloudStore::OverlayGet(int region, const std::string& key,
                                      Status* s, std::string* value,
                                      uint64_t* etag) {
  if (!s->ok() && !s->IsNotFound()) return;
  std::lock_guard<std::mutex> lk(mu_);
  PendingApply front;
  if (!FrontLocked(region, key, &front)) return;
  ++stats_.stale_reads;
  if (front.present) {
    if (value) *value = front.value;
    if (etag) *etag = front.etag;
    *s = Status::OK();
  } else {
    if (value) value->clear();
    if (etag) *etag = 0;
    *s = Status::NotFound("stale view: write not yet replicated");
  }
}

ReplicatedCloudStore::Route ReplicatedCloudStore::AdmitRead() {
  std::lock_guard<std::mutex> lk(mu_);
  if (armed_) TickLocked(/*is_write=*/false);
  return ReadRouteLocked();
}

Status ReplicatedCloudStore::Get(const std::string& key, std::string* value,
                                 uint64_t* etag) {
  Route route = AdmitRead();
  if (!route.reject.ok()) return route.reject;
  Status s = base_->Get(key, value, etag);
  if (route.view_region >= 0) OverlayGet(route.view_region, key, &s, value, etag);
  return s;
}

Status ReplicatedCloudStore::Scan(const std::string& start_key, size_t limit,
                                  std::vector<kv::ScanEntry>* out) {
  Route route = AdmitRead();
  if (!route.reject.ok()) return route.reject;
  if (route.view_region < 0) return base_->Scan(start_key, limit, out);
  return ScanView(route.view_region, start_key, limit, out);
}

Status ReplicatedCloudStore::ScanView(int region, const std::string& start_key,
                                      size_t limit,
                                      std::vector<kv::ScanEntry>* out) {
  out->clear();
  if (limit == 0) return Status::OK();
  std::string cursor = start_key;
  while (out->size() < limit) {
    size_t want = limit - out->size();
    std::vector<kv::ScanEntry> page;
    Status s = base_->Scan(cursor, want, &page);
    if (!s.ok()) return s;
    bool exhausted = page.size() < want;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto& pend = regions_[static_cast<size_t>(region)].pending;
      auto pit = pend.lower_bound(cursor);
      size_t i = 0;
      // Merge the authoritative page with the region's undelivered
      // pre-images.  A masked key serves its pre-image (or is hidden when
      // the pre-image is "absent"); a pending key the page lacks is a
      // not-yet-replicated delete whose old row is still visible.  Hidden
      // rows shrink the output, so the outer loop refills: callers (the
      // CEW validation sweep) treat a short page as end-of-table.
      while (out->size() < limit) {
        bool pend_live = false;
        while (pit != pend.end()) {
          if (!exhausted && (page.empty() || pit->first > page.back().key)) {
            break;  // beyond this page's confirmed range; next page decides
          }
          DrainLocked(&pit->second);
          if (pit->second.empty()) {
            pit = pend.erase(pit);
            continue;
          }
          pend_live = true;
          break;
        }
        if (i >= page.size() && !pend_live) break;
        bool take_pend =
            pend_live && (i >= page.size() || pit->first <= page[i].key);
        if (take_pend) {
          bool masks_row = i < page.size() && page[i].key == pit->first;
          const PendingApply& front = pit->second.front();
          ++stats_.stale_reads;
          if (front.present) {
            out->push_back(kv::ScanEntry{pit->first, front.value, front.etag});
          }
          if (masks_row) ++i;
          ++pit;
        } else {
          out->push_back(std::move(page[i]));
          ++i;
        }
      }
    }
    if (exhausted || out->size() >= limit) break;
    cursor = page.back().key;
    cursor.push_back('\0');
  }
  if (out->size() > limit) out->resize(limit);
  return Status::OK();
}

void ReplicatedCloudStore::MultiGet(const std::vector<std::string>& keys,
                                    std::vector<kv::MultiGetResult>* results) {
  kv::AdmitInOrder<int>(
      *base_, keys, results,
      [this](const std::string&, int* view_region) {
        Route route = AdmitRead();
        *view_region = route.view_region;
        return route.reject;
      },
      [this](const std::string& key, int view_region, kv::MultiGetResult* row) {
        if (view_region < 0) return;
        OverlayGet(view_region, key, &row->status, &row->value, &row->etag);
      });
}

Status ReplicatedCloudStore::AdmitWrite(const std::string& key,
                                        WriteTicket* ticket) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (armed_) {
      TickLocked(/*is_write=*/true);
      Status gate = WriteGateLocked(&ticket->lost_reply);
      if (!gate.ok()) return gate;
    }
  }
  ticket->pre = CapturePreImage(key);
  return Status::OK();
}

void ReplicatedCloudStore::SettleWrite(const std::string& key,
                                       const WriteTicket& ticket, Status* s,
                                       uint64_t* etag) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (s->ok() && armed_) ReplicateLocked(key, ticket.pre);
  }
  if (ticket.lost_reply) {
    *s = Status::Timeout("ambiguous: applied on crashing leader, ack lost");
    *etag = 0;
  }
}

template <typename Op>
Status ReplicatedCloudStore::Write(const std::string& key, uint64_t* etag_out,
                                   const Op& op) {
  WriteTicket ticket;
  Status s = AdmitWrite(key, &ticket);
  if (!s.ok()) return s;
  uint64_t etag = 0;
  s = op(&etag);
  SettleWrite(key, ticket, &s, &etag);
  if (s.ok() && etag_out) *etag_out = etag;
  return s;
}

Status ReplicatedCloudStore::Put(const std::string& key, std::string_view value,
                                 uint64_t* etag_out) {
  return Write(key, etag_out,
               [&](uint64_t* etag) { return base_->Put(key, value, etag); });
}

Status ReplicatedCloudStore::ConditionalPut(const std::string& key,
                                            std::string_view value,
                                            uint64_t expected_etag,
                                            uint64_t* etag_out) {
  return Write(key, etag_out, [&](uint64_t* etag) {
    return base_->ConditionalPut(key, value, expected_etag, etag);
  });
}

Status ReplicatedCloudStore::Delete(const std::string& key) {
  return Write(key, nullptr, [&](uint64_t*) { return base_->Delete(key); });
}

Status ReplicatedCloudStore::ConditionalDelete(const std::string& key,
                                               uint64_t expected_etag) {
  return Write(key, nullptr, [&](uint64_t*) {
    return base_->ConditionalDelete(key, expected_etag);
  });
}

void ReplicatedCloudStore::MultiWrite(const std::vector<kv::WriteOp>& ops,
                                      std::vector<kv::WriteResult>* results) {
  kv::AdmitInOrder<WriteTicket>(
      *base_, ops, results,
      [this](const std::string& key, WriteTicket* ticket) {
        return AdmitWrite(key, ticket);
      },
      [this](const std::string& key, const WriteTicket& ticket,
             kv::WriteResult* row) {
        SettleWrite(key, ticket, &row->status, &row->etag);
      });
}

size_t ReplicatedCloudStore::Count() const { return base_->Count(); }

}  // namespace cloud
}  // namespace ycsbt
