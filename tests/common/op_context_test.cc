// The ambient per-operation deadline/budget: scope install/restore,
// expiry, the exempt escape hatch for post-commit-point cleanup, and the
// cross-thread hand-off the hedge workers use.

#include "common/op_context.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>

#include "common/latency_model.h"

namespace ycsbt {
namespace {

constexpr uint64_t kNoDeadline = std::numeric_limits<uint64_t>::max();

TEST(OpContextTest, NoDeadlineByDefault) {
  EXPECT_EQ(CurrentOpContext().deadline_ns, 0u);
  EXPECT_FALSE(OpExempt());
  EXPECT_FALSE(OpDeadlineExpired());
  EXPECT_EQ(OpDeadlineRemainingNanos(), kNoDeadline);
}

TEST(OpContextTest, DeadlineScopeInstallsAndRestores) {
  {
    OpDeadlineScope scope(1'000'000);  // 1s from now
    EXPECT_FALSE(OpDeadlineExpired());
    uint64_t remaining = OpDeadlineRemainingNanos();
    EXPECT_GT(remaining, 0u);
    EXPECT_LE(remaining, 1'000'000'000u);
  }
  EXPECT_EQ(CurrentOpContext().deadline_ns, 0u);
  EXPECT_EQ(OpDeadlineRemainingNanos(), kNoDeadline);
}

TEST(OpContextTest, PassedDeadlineExpires) {
  OpDeadlineScope scope(1);
  SleepMicros(2000);
  EXPECT_TRUE(OpDeadlineExpired());
  EXPECT_EQ(OpDeadlineRemainingNanos(), 0u);
}

TEST(OpContextTest, ZeroBudgetClearsAnInheritedDeadline) {
  OpDeadlineScope outer(1);
  SleepMicros(2000);
  ASSERT_TRUE(OpDeadlineExpired());
  {
    OpDeadlineScope inner(0);
    EXPECT_FALSE(OpDeadlineExpired());
    EXPECT_EQ(OpDeadlineRemainingNanos(), kNoDeadline);
  }
  EXPECT_TRUE(OpDeadlineExpired());  // outer restored
}

TEST(OpContextTest, ExemptScopeSuspendsEnforcement) {
  OpDeadlineScope scope(1);
  SleepMicros(2000);
  ASSERT_TRUE(OpDeadlineExpired());
  {
    OpExemptScope exempt;
    EXPECT_TRUE(OpExempt());
    EXPECT_FALSE(OpDeadlineExpired());
    EXPECT_EQ(OpDeadlineRemainingNanos(), kNoDeadline);
  }
  EXPECT_FALSE(OpExempt());
  EXPECT_TRUE(OpDeadlineExpired());
}

TEST(OpContextTest, NestedScopesRestoreExactly) {
  OpDeadlineScope outer(1'000'000);
  uint64_t outer_deadline = CurrentOpContext().deadline_ns;
  {
    OpDeadlineScope inner(5'000'000);
    EXPECT_NE(CurrentOpContext().deadline_ns, outer_deadline);
  }
  EXPECT_EQ(CurrentOpContext().deadline_ns, outer_deadline);
}

TEST(OpContextTest, AdoptScopeCarriesContextAcrossThreads) {
  OpDeadlineScope scope(1'000'000);
  OpContext captured = CurrentOpContext();
  uint64_t seen_deadline = 0;
  bool seen_before = true;
  std::thread worker([&] {
    seen_before = CurrentOpContext().deadline_ns != 0;  // fresh thread: none
    OpContextAdoptScope adopt(captured);
    seen_deadline = CurrentOpContext().deadline_ns;
  });
  worker.join();
  EXPECT_FALSE(seen_before);
  EXPECT_EQ(seen_deadline, captured.deadline_ns);
}

}  // namespace
}  // namespace ycsbt
