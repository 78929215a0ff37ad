#ifndef YCSBT_COMMON_OP_CONTEXT_H_
#define YCSBT_COMMON_OP_CONTEXT_H_

#include <cstdint>
#include <limits>

#include "common/clock.h"

namespace ycsbt {

/// Ambient per-operation context: the deadline/budget a caller propagates
/// down the store stack without changing every `kv::Store` signature.
///
/// The runner installs an `OpDeadlineScope` around each transaction (from
/// `retry.deadline_us`); every layer below — `TxnDB`, `ClientTxnStore`, the
/// resilience decorator, `SimCloudStore` — reads the same thread-local, so a
/// doomed transaction stops issuing RPCs mid-flight instead of timing out N
/// more times.  `RpcExecutor`, the one pool that runs RPCs off the caller's
/// thread (fan-out items and hedged primaries), carries the submitting
/// thread's context across the hop with the `OpContext::Snapshot()` /
/// `OpContextAdoptScope` pair so the deadline survives the thread hop.
///
/// `exempt` marks sections that must keep issuing requests even past the
/// deadline or through an open breaker: the post-commit-point cleanup of the
/// client-coordinated transaction protocol (roll-forward, TSR delete,
/// ambiguous-commit settlement).  Cutting those off would be *safe* — the
/// TSR arbitration recovers either way — but every abandonment is recovery
/// churn some later reader pays for, so committed work is let through.
struct OpContext {
  /// Absolute `SteadyNanos()` deadline; 0 = no deadline.
  uint64_t deadline_ns = 0;
  /// Deadline/breaker enforcement suspended (post-commit-point cleanup).
  bool exempt = false;
  /// This request is a hedge: a duplicate of a read already in flight.
  bool hedge = false;

  /// Captures the calling thread's ambient context, to be re-installed on
  /// another thread with `OpContextAdoptScope` (the Snapshot/Adopt pair
  /// `RpcExecutor` uses).  Defined after the thread-local below.
  static OpContext Snapshot();
};

namespace internal {
inline thread_local OpContext tls_op_context;
}  // namespace internal

inline const OpContext& CurrentOpContext() { return internal::tls_op_context; }

inline OpContext OpContext::Snapshot() { return internal::tls_op_context; }

/// True when the calling thread is inside an enforcement-exempt section.
inline bool OpExempt() { return internal::tls_op_context.exempt; }

/// True when the ambient deadline exists, is not exempt, and has passed.
inline bool OpDeadlineExpired() {
  const OpContext& ctx = internal::tls_op_context;
  if (ctx.deadline_ns == 0 || ctx.exempt) return false;
  return SteadyNanos() >= ctx.deadline_ns;
}

/// Nanoseconds left on the ambient deadline; UINT64_MAX when there is no
/// deadline (or the section is exempt), 0 when it has already passed.
inline uint64_t OpDeadlineRemainingNanos() {
  const OpContext& ctx = internal::tls_op_context;
  if (ctx.deadline_ns == 0 || ctx.exempt) {
    return std::numeric_limits<uint64_t>::max();
  }
  uint64_t now = SteadyNanos();
  return now >= ctx.deadline_ns ? 0 : ctx.deadline_ns - now;
}

/// RAII: installs an absolute deadline `budget_us` from now (0 = clears any
/// inherited deadline) and restores the previous context on destruction.
class OpDeadlineScope {
 public:
  explicit OpDeadlineScope(uint64_t budget_us)
      : saved_(internal::tls_op_context) {
    internal::tls_op_context.deadline_ns =
        budget_us == 0 ? 0 : SteadyNanos() + budget_us * 1000;
    internal::tls_op_context.exempt = false;
  }
  ~OpDeadlineScope() { internal::tls_op_context = saved_; }

  OpDeadlineScope(const OpDeadlineScope&) = delete;
  OpDeadlineScope& operator=(const OpDeadlineScope&) = delete;

 private:
  OpContext saved_;
};

/// RAII: suspends deadline/breaker enforcement for the enclosed section.
class OpExemptScope {
 public:
  OpExemptScope() : saved_(internal::tls_op_context) {
    internal::tls_op_context.exempt = true;
  }
  ~OpExemptScope() { internal::tls_op_context = saved_; }

  OpExemptScope(const OpExemptScope&) = delete;
  OpExemptScope& operator=(const OpExemptScope&) = delete;

 private:
  OpContext saved_;
};

/// RAII: marks the enclosed request as a hedge duplicate (see
/// `ResilientStore`), so layers below can tell it from the original.
class OpHedgeScope {
 public:
  OpHedgeScope() : saved_(internal::tls_op_context) {
    internal::tls_op_context.hedge = true;
  }
  ~OpHedgeScope() { internal::tls_op_context = saved_; }
  OpHedgeScope(const OpHedgeScope&) = delete;
  OpHedgeScope& operator=(const OpHedgeScope&) = delete;

 private:
  OpContext saved_;
};

/// RAII: adopts a context captured with `OpContext::Snapshot()` on another
/// thread, restoring the worker's own context on destruction.  This is the
/// second half of the Snapshot/Adopt pair: any code that moves an RPC onto a
/// pool thread must adopt the issuing thread's snapshot, or the RPC silently
/// runs with no deadline and no exempt marking.  `RpcExecutor` does so for
/// every task it runs.
class OpContextAdoptScope {
 public:
  explicit OpContextAdoptScope(const OpContext& ctx)
      : saved_(internal::tls_op_context) {
    internal::tls_op_context = ctx;
  }
  ~OpContextAdoptScope() { internal::tls_op_context = saved_; }

  OpContextAdoptScope(const OpContextAdoptScope&) = delete;
  OpContextAdoptScope& operator=(const OpContextAdoptScope&) = delete;

 private:
  OpContext saved_;
};

}  // namespace ycsbt

#endif  // YCSBT_COMMON_OP_CONTEXT_H_
