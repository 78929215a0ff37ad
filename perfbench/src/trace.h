#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The layers a transaction passes through, outermost first.  `kCore` is the
/// benchmark's own client loop plus the workload (generators included); its
/// spans are the transaction roots.
enum class Layer : uint8_t { kCore, kDb, kTxn, kCloud, kKv };
inline constexpr size_t kLayerCount = 5;

/// Operation kinds across all boundaries (each layer uses a subset).
enum class Op : uint8_t {
  kTx,
  kStart,
  kCommit,
  kAbort,
  kRead,
  kMultiRead,
  kScan,
  kUpdate,
  kInsert,
  kBatchInsert,
  kDelete,
  kWrite,
  kGet,
  kPut,
  kCondPut,
  kCondDelete,
  kMultiGet,
  kMultiWrite,
};
inline constexpr size_t kOpCount = 18;

const char* LayerName(Layer layer);
const char* OpName(Op op);

/// One timed call at a layer boundary.  Spans of one transaction share `txn`;
/// `parent` indexes the enclosing span in the same thread's buffer.
struct Span {
  static constexpr uint32_t kNoParent = ~uint32_t{0};
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t txn = 0;
  uint32_t parent = kNoParent;
  Layer layer = Layer::kCore;
  Op op = Op::kTx;
};

/// Call counts per (layer, op), split by whether the call ran inside a
/// `Transaction::Commit`.  `tsr_in_commit` counts store calls, per layer, on
/// keys under the transaction library's status-record prefix.
struct Counters {
  std::array<std::array<uint64_t, kOpCount>, kLayerCount> calls{};
  std::array<std::array<uint64_t, kOpCount>, kLayerCount> in_commit{};
  std::array<uint64_t, kLayerCount> tsr_in_commit{};
  /// Commits that made at least one store call (read-only commits make none).
  uint64_t writing_commits = 0;

  uint64_t Calls(Layer layer) const;
  void Add(const Counters& other);
};

/// One client thread's trace state: its span buffer, its open-span cursor
/// and its counters.  Touched only by the owning thread until the tracer
/// collects it after the threads have joined.
class ThreadTrace {
 public:
  ThreadTrace(uint64_t thread_index, size_t span_capacity);

  /// Opens the root span of the next transaction when `sample` is set and
  /// the buffer has room; otherwise the transaction runs with counters only.
  void BeginTx(bool sample);
  void EndTx();

  bool sampling() const { return sampling_; }
  uint32_t Open(Layer layer, Op op);
  void Close(uint32_t index);

  void Count(Layer layer, Op op) {
    auto l = static_cast<size_t>(layer);
    auto o = static_cast<size_t>(op);
    ++counters_.calls[l][o];
    if (in_commit_) {
      ++counters_.in_commit[l][o];
      if (layer == Layer::kCloud || layer == Layer::kKv) commit_wrote_ = true;
    }
  }
  void CountTsr(Layer layer) {
    if (in_commit_) ++counters_.tsr_in_commit[static_cast<size_t>(layer)];
  }
  /// Brackets one `Transaction::Commit`; a commit that reached the store
  /// counts as a writing commit.
  void BeginCommit() {
    in_commit_ = true;
    commit_wrote_ = false;
  }
  void EndCommit() {
    in_commit_ = false;
    if (commit_wrote_) ++counters_.writing_commits;
  }

  /// Field bytes the open transaction wrote through `DB`; credited to
  /// `user_bytes` only when it commits.
  void AddPendingUserBytes(uint64_t bytes) { pending_user_bytes_ += bytes; }
  void SettleUserBytes(bool committed) {
    if (committed) user_bytes_ += pending_user_bytes_;
    pending_user_bytes_ = 0;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Counters& counters() const { return counters_; }
  uint64_t user_bytes() const { return user_bytes_; }
  /// Transactions due for sampling that ran untraced on a full buffer.
  uint64_t skipped_samples() const { return skipped_samples_; }

 private:
  const uint64_t thread_index_;
  const size_t capacity_;
  std::vector<Span> spans_;
  uint32_t open_ = Span::kNoParent;
  uint32_t root_ = Span::kNoParent;
  uint64_t tx_seq_ = 0;
  bool sampling_ = false;
  bool in_commit_ = false;
  bool commit_wrote_ = false;
  Counters counters_;
  uint64_t pending_user_bytes_ = 0;
  uint64_t user_bytes_ = 0;
  uint64_t skipped_samples_ = 0;
};

/// The calling thread's trace, or null when the thread is not traced (load
/// and validation phases): the wrappers then pass calls through untouched.
ThreadTrace* CurrentTrace();

/// Owns every client thread's `ThreadTrace`.  `Attach` binds a fresh one to
/// the calling thread; `Detach` unbinds it (the data stays here).
class Tracer {
 public:
  explicit Tracer(size_t total_span_capacity) : capacity_(total_span_capacity) {}

  ThreadTrace* Attach(int threads);
  static void Detach();

  const std::vector<std::unique_ptr<ThreadTrace>>& threads() const {
    return threads_;
  }

  /// Writes every span as CSV (thread, txn, span, parent, layer, op,
  /// start_ns, end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span around one call at a layer boundary: counts the call always,
/// times it only inside a sampled transaction.
class SpanScope {
 public:
  SpanScope(Layer layer, Op op) : trace_(CurrentTrace()) {
    if (trace_ == nullptr) return;
    trace_->Count(layer, op);
    if (trace_->sampling()) index_ = trace_->Open(layer, op);
  }
  ~SpanScope() {
    if (index_ != Span::kNoParent) trace_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ThreadTrace* trace() const { return trace_; }

 private:
  ThreadTrace* trace_;
  uint32_t index_ = Span::kNoParent;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
