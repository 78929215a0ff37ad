#include "trace.h"

#include <cstdio>

#include "common/clock.h"

namespace perfbench {

namespace {

thread_local ThreadTrace* tls_trace = nullptr;

/// Room kept free in a span buffer when a transaction starts sampling, so a
/// sampled transaction never runs out of buffer midway.
constexpr size_t kTxSpanHeadroom = 512;

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {"core", "db", "txn", "cloud",
                                                      "kv"};
  return kNames[static_cast<size_t>(layer)];
}

const char* OpName(Op op) {
  static constexpr const char* kNames[kOpCount] = {
      "tx",     "start",       "commit", "abort", "read",    "multiread",
      "scan",   "update",      "insert", "batchinsert", "delete", "write",
      "get",    "put",         "condput", "conddelete", "multiget", "multiwrite"};
  return kNames[static_cast<size_t>(op)];
}

uint64_t Counters::Calls(Layer layer) const {
  uint64_t total = 0;
  for (uint64_t c : calls[static_cast<size_t>(layer)]) total += c;
  return total;
}

void Counters::Add(const Counters& other) {
  for (size_t l = 0; l < kLayerCount; ++l) {
    for (size_t o = 0; o < kOpCount; ++o) {
      calls[l][o] += other.calls[l][o];
      in_commit[l][o] += other.in_commit[l][o];
    }
    tsr_in_commit[l] += other.tsr_in_commit[l];
  }
  writing_commits += other.writing_commits;
}

ThreadTrace::ThreadTrace(uint64_t thread_index, size_t span_capacity)
    : thread_index_(thread_index), capacity_(span_capacity) {
  spans_.reserve(span_capacity);
}

void ThreadTrace::BeginTx(bool sample) {
  ++tx_seq_;
  sampling_ = sample && spans_.size() + kTxSpanHeadroom <= capacity_;
  if (sample && !sampling_) ++skipped_samples_;
  if (sampling_) root_ = Open(Layer::kCore, Op::kTx);
}

void ThreadTrace::EndTx() {
  if (sampling_) Close(root_);
  sampling_ = false;
  root_ = Span::kNoParent;
}

uint32_t ThreadTrace::Open(Layer layer, Op op) {
  Span span;
  span.txn = (thread_index_ << 48) | tx_seq_;
  span.parent = open_;
  span.layer = layer;
  span.op = op;
  auto index = static_cast<uint32_t>(spans_.size());
  spans_.push_back(span);
  open_ = index;
  spans_.back().start_ns = ycsbt::SteadyNanos();
  return index;
}

void ThreadTrace::Close(uint32_t index) {
  Span& span = spans_[index];
  span.end_ns = ycsbt::SteadyNanos();
  open_ = span.parent;
}

ThreadTrace* CurrentTrace() { return tls_trace; }

ThreadTrace* Tracer::Attach(int threads) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t share = capacity_ / static_cast<size_t>(threads < 1 ? 1 : threads);
  threads_.push_back(std::make_unique<ThreadTrace>(threads_.size(), share));
  tls_trace = threads_.back().get();
  return tls_trace;
}

void Tracer::Detach() { tls_trace = nullptr; }

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,txn,span,parent,layer,op,start_ns,end_ns\n");
  for (size_t t = 0; t < threads_.size(); ++t) {
    const auto& spans = threads_[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      long long parent = s.parent == Span::kNoParent ? -1 : s.parent;
      std::fprintf(f, "%zu,%llu,%zu,%lld,%s,%s,%llu,%llu\n", t,
                   static_cast<unsigned long long>(s.txn & ((uint64_t{1} << 48) - 1)), i,
                   parent, LayerName(s.layer), OpName(s.op),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
