#include "measurement/measurements.h"

#include <algorithm>

namespace ycsbt {

void ThreadSink::Flush() {
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    bool has_returns =
        std::any_of(slot.returns.begin(), slot.returns.end(),
                    [](uint64_t c) { return c != 0; });
    if (slot.histogram.Count() == 0 && !has_returns) continue;
    parent_->MergeSlot(OpId{static_cast<uint32_t>(i)}, slot);
    slot.histogram.Reset();
    slot.returns.fill(0);
  }
}

ThreadSink* Measurements::CreateSink() {
  std::lock_guard<std::mutex> lock(sinks_mu_);
  if (!free_sinks_.empty()) {
    ThreadSink* sink = free_sinks_.back();
    free_sinks_.pop_back();
    return sink;
  }
  sinks_.emplace_back(new ThreadSink(this));
  return sinks_.back().get();
}

void Measurements::ReleaseSink(ThreadSink* sink) {
  sink->Flush();
  std::lock_guard<std::mutex> lock(sinks_mu_);
  free_sinks_.push_back(sink);
}

size_t Measurements::sink_count() const {
  std::lock_guard<std::mutex> lock(sinks_mu_);
  return sinks_.size();
}

Measurements::Series* Measurements::SeriesFor(OpId op) {
  {
    std::shared_lock<std::shared_mutex> lock(series_mu_);
    if (op.index < series_.size()) return &series_[op.index];
  }
  std::unique_lock<std::shared_mutex> lock(series_mu_);
  while (series_.size() <= op.index) series_.emplace_back();
  return &series_[op.index];
}

const Measurements::Series* Measurements::SeriesForIfPresent(OpId op) const {
  std::shared_lock<std::shared_mutex> lock(series_mu_);
  return op.index < series_.size() ? &series_[op.index] : nullptr;
}

void Measurements::MergeSlot(OpId op, const ThreadSink::Slot& slot) {
  Series* cell = SeriesFor(op);
  std::lock_guard<std::mutex> lock(cell->mu);
  cell->histogram.Merge(slot.histogram);
  for (size_t c = 0; c < slot.returns.size(); ++c) {
    cell->returns[c] += slot.returns[c];
  }
}

void Measurements::Record(OpId op, int64_t latency_us, Status::Code code) {
  Series* cell = SeriesFor(op);
  std::lock_guard<std::mutex> lock(cell->mu);
  cell->histogram.Add(latency_us);
  ++cell->returns[static_cast<size_t>(code)];
}

void Measurements::MergeHistogram(OpId op, const Histogram& histogram,
                                  Status::Code code) {
  if (histogram.Count() == 0) return;
  Series* cell = SeriesFor(op);
  std::lock_guard<std::mutex> lock(cell->mu);
  cell->histogram.Merge(histogram);
  cell->returns[static_cast<size_t>(code)] += histogram.Count();
}

void Measurements::RecordInterval(const IntervalSample& sample) {
  std::lock_guard<std::mutex> lock(intervals_mu_);
  intervals_.push_back(sample);
}

std::vector<IntervalSample> Measurements::Intervals() const {
  std::lock_guard<std::mutex> lock(intervals_mu_);
  return intervals_;
}

OpStats Measurements::SnapshotCell(const Series& cell, std::string name) const {
  std::lock_guard<std::mutex> lock(cell.mu);
  OpStats s;
  s.name = std::move(name);
  s.operations = cell.histogram.Count();
  s.average_latency_us = cell.histogram.Mean();
  s.min_latency_us = cell.histogram.Min();
  s.max_latency_us = cell.histogram.Max();
  s.p50_latency_us = cell.histogram.ValueAtQuantile(0.50);
  s.p95_latency_us = cell.histogram.ValueAtQuantile(0.95);
  s.p99_latency_us = cell.histogram.ValueAtQuantile(0.99);
  s.p999_latency_us = cell.histogram.ValueAtQuantile(0.999);
  for (size_t c = 0; c < cell.returns.size(); ++c) {
    if (cell.returns[c] == 0) continue;
    s.return_counts[Status::CodeName(static_cast<Status::Code>(c))] =
        cell.returns[c];
  }
  return s;
}

std::vector<OpStats> Measurements::Snapshot() const {
  std::vector<OpStats> out;
  size_t n;
  {
    std::shared_lock<std::shared_mutex> lock(series_mu_);
    n = series_.size();
  }
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    OpId op{static_cast<uint32_t>(i)};
    const Series* cell = SeriesForIfPresent(op);
    if (cell == nullptr) continue;
    OpStats s = SnapshotCell(*cell, registry_.Name(op));
    // Registered-but-never-recorded ops (a `MeasuredDB` interns all its
    // handles up front) are omitted, matching the seed's created-on-first-
    // sample behaviour.
    if (s.operations == 0 && s.return_counts.empty()) continue;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const OpStats& a, const OpStats& b) { return a.name < b.name; });
  return out;
}

OpStats Measurements::SnapshotOp(const std::string& op) const {
  OpId id = registry_.Find(op);
  if (!id.valid()) {
    OpStats s;
    s.name = op;
    return s;
  }
  return SnapshotOp(id);
}

OpStats Measurements::SnapshotOp(OpId op) const {
  std::string name = registry_.Name(op);
  const Series* cell = SeriesForIfPresent(op);
  if (cell == nullptr) {
    OpStats s;
    s.name = std::move(name);
    return s;
  }
  return SnapshotCell(*cell, std::move(name));
}

uint64_t Measurements::TotalOperations(const std::vector<std::string>& ops) const {
  uint64_t total = 0;
  for (const auto& op : ops) total += SnapshotOp(op).operations;
  return total;
}

void Measurements::Reset() {
  std::lock_guard<std::mutex> sinks_lock(sinks_mu_);
  std::unique_lock<std::shared_mutex> series_lock(series_mu_);
  std::lock_guard<std::mutex> intervals_lock(intervals_mu_);
  free_sinks_.clear();
  sinks_.clear();
  series_.clear();
  intervals_.clear();
}

}  // namespace ycsbt
