#include "kv/fault_env.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "common/properties.h"
#include "kv/env.h"

namespace ycsbt {
namespace kv {
namespace {

class FaultEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    path_ = ::testing::TempDir() + "fault_env_" +
            std::to_string(counter.fetch_add(1)) + ".dat";
    (void)Env::Default()->RemoveFile(path_);
  }
  void TearDown() override { (void)Env::Default()->RemoveFile(path_); }

  std::string ReadBack(const std::string& path) {
    std::string data;
    EXPECT_TRUE(Env::Default()->ReadFileToString(path, &data).ok());
    return data;
  }

  std::string path_;
};

TEST_F(FaultEnvTest, DisarmedPassesEverythingThrough) {
  StorageFaultOptions opts;
  opts.torn_write_at = 1;
  opts.write_error_rate = 1.0;
  opts.sync_fail_at = 1;
  FaultInjectingEnv env(Env::Default(), opts);  // never armed

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path_, true, &file).ok());
  EXPECT_TRUE(file->Append("hello").ok());
  EXPECT_TRUE(file->Sync().ok());
  EXPECT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadBack(path_), "hello");
  EXPECT_EQ(env.stats().TotalInjected(), 0u);
  EXPECT_EQ(env.stats().appends, 0u);  // disarmed ops aren't even counted
}

TEST_F(FaultEnvTest, TornWriteLandsHalfTheBuffer) {
  StorageFaultOptions opts;
  opts.torn_write_at = 2;
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path_, true, &file).ok());
  ASSERT_TRUE(file->Append("aaaa").ok());
  Status s = file->Append("bbbbbb");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadBack(path_), "aaaabbb");  // exactly half of the second buffer
  EXPECT_EQ(env.stats().torn_writes, 1u);
}

TEST_F(FaultEnvTest, WriteErrorLeavesNoBytes) {
  StorageFaultOptions opts;
  opts.write_error_rate = 1.0;
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path_, true, &file).ok());
  EXPECT_TRUE(file->Append("doomed").IsIOError());
  EXPECT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadBack(path_), "");
  EXPECT_EQ(env.stats().write_errors, 1u);
}

TEST_F(FaultEnvTest, FsyncgateDropsDirtyBytesAndRecovers) {
  StorageFaultOptions opts;
  opts.sync_fail_at = 2;
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path_, true, &file).ok());
  ASSERT_TRUE(file->Append("durable|").ok());
  ASSERT_TRUE(file->Sync().ok());  // sync #1: watermark = 8 bytes
  ASSERT_TRUE(file->Append("dirty").ok());
  EXPECT_TRUE(file->Sync().IsIOError());  // sync #2 fails, dirty pages GONE
  // fsyncgate: the fd is not poisoned forever — later writes and syncs work,
  // but the dropped bytes never come back.
  EXPECT_TRUE(file->Append("after").ok());
  EXPECT_TRUE(file->Sync().ok());
  EXPECT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadBack(path_), "durable|after");
  EXPECT_EQ(env.stats().sync_failures, 1u);
}

TEST_F(FaultEnvTest, EnospcCutsTheCrossingAppendShort) {
  StorageFaultOptions opts;
  opts.enospc_after_bytes = 6;
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path_, true, &file).ok());
  ASSERT_TRUE(file->Append("1234").ok());     // 4 of 6 budget bytes
  EXPECT_TRUE(file->Append("5678").IsIOError());  // crosses: 2 bytes land
  EXPECT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadBack(path_), "123456");
  EXPECT_EQ(env.stats().enospc_failures, 1u);
}

TEST_F(FaultEnvTest, ReadFlipCorruptsTheViewNotTheDisk) {
  std::string other = path_ + ".other";
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(Env::Default()->NewWritableFile(path_, true, &file).ok());
    ASSERT_TRUE(file->Append("payload").ok());
    ASSERT_TRUE(file->Close().ok());
    ASSERT_TRUE(Env::Default()->NewWritableFile(other, true, &file).ok());
    ASSERT_TRUE(file->Append("payload").ok());
    ASSERT_TRUE(file->Close().ok());
  }
  StorageFaultOptions opts;
  opts.read_flip_offset = 2;
  opts.read_flip_file = ".other";  // substring filter: only `other` flips
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  std::string clean, flipped;
  ASSERT_TRUE(env.ReadFileToString(path_, &clean).ok());
  ASSERT_TRUE(env.ReadFileToString(other, &flipped).ok());
  EXPECT_EQ(clean, "payload");
  EXPECT_NE(flipped, "payload");
  EXPECT_EQ(flipped.size(), 7u);
  EXPECT_EQ(ReadBack(other), "payload");  // the disk bytes are untouched
  EXPECT_EQ(env.stats().read_flips, 1u);
  (void)Env::Default()->RemoveFile(other);
}

TEST_F(FaultEnvTest, NamedCrashPointFreezesOnTheRequestedPass) {
  StorageFaultOptions opts;
  opts.crash_point = "wal_pre_sync";
  opts.crash_point_pass = 3;
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  EXPECT_TRUE(env.MaybeCrashPoint("wal_pre_sync").ok());   // pass 1
  EXPECT_TRUE(env.MaybeCrashPoint("ckpt_pre_rename").ok()); // other point
  EXPECT_TRUE(env.MaybeCrashPoint("wal_pre_sync").ok());   // pass 2
  EXPECT_TRUE(env.MaybeCrashPoint("wal_pre_sync").IsIOError());  // pass 3
  EXPECT_TRUE(env.crashed());
  // The frozen env fails everything but close/exists.
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(env.NewWritableFile(path_, true, &file).IsIOError());
  std::string data;
  EXPECT_TRUE(env.ReadFileToString(path_, &data).IsIOError());
  EXPECT_EQ(env.stats().crash_fired_at, "wal_pre_sync");
}

TEST_F(FaultEnvTest, CrashWriteOffsetFreezesMidAppend) {
  StorageFaultOptions opts;
  opts.crash_write_offset = 6;
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path_, true, &file).ok());
  ASSERT_TRUE(file->Append("1234").ok());
  EXPECT_TRUE(file->Append("5678").IsIOError());  // dies at byte 6: "56" lands
  EXPECT_TRUE(env.crashed());
  EXPECT_TRUE(file->Close().ok());  // close never mutates bytes
  EXPECT_EQ(ReadBack(path_), "123456");
}

TEST_F(FaultEnvTest, CrashDropsUnsyncedBytesWhenAsked) {
  StorageFaultOptions opts;
  opts.crash_point = "wal_pre_sync";
  opts.drop_unsynced_on_crash = true;
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path_, true, &file).ok());
  ASSERT_TRUE(file->Append("synced").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("lost").ok());
  EXPECT_TRUE(env.MaybeCrashPoint("wal_pre_sync").IsIOError());
  EXPECT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadBack(path_), "synced");  // the page cache never hit media
}

TEST_F(FaultEnvTest, CrashRollsBackRenamesNotMadeDurable) {
  std::string tmp = path_ + ".tmp";
  auto write_file = [&](const std::string& p, const std::string& bytes) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(Env::Default()->NewWritableFile(p, true, &f).ok());
    ASSERT_TRUE(f->Append(bytes).ok());
    ASSERT_TRUE(f->Close().ok());
  };
  write_file(path_, "old snapshot");
  write_file(tmp, "new snapshot");

  StorageFaultOptions opts;
  opts.crash_point = "ckpt_post_rename_pre_trunc";
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  ASSERT_TRUE(env.RenameFile(tmp, path_).ok());
  EXPECT_EQ(ReadBack(path_), "new snapshot");  // visible pre-crash
  EXPECT_TRUE(env.MaybeCrashPoint("ckpt_post_rename_pre_trunc").IsIOError());
  // No directory fsync happened, so the crash resurrected the old dirents:
  // the destination holds its previous content again and the source is back.
  EXPECT_EQ(ReadBack(path_), "old snapshot");
  EXPECT_EQ(ReadBack(tmp), "new snapshot");
  (void)Env::Default()->RemoveFile(tmp);
}

TEST_F(FaultEnvTest, DirFsyncMakesRenamesCrashDurable) {
  std::string tmp = path_ + ".tmp";
  auto write_file = [&](const std::string& p, const std::string& bytes) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(Env::Default()->NewWritableFile(p, true, &f).ok());
    ASSERT_TRUE(f->Append(bytes).ok());
    ASSERT_TRUE(f->Close().ok());
  };
  write_file(path_, "old snapshot");
  write_file(tmp, "new snapshot");

  StorageFaultOptions opts;
  opts.crash_point = "ckpt_post_trunc";
  FaultInjectingEnv env(Env::Default(), opts);
  env.set_enabled(true);

  ASSERT_TRUE(env.RenameFile(tmp, path_).ok());
  ASSERT_TRUE(env.SyncDirOf(path_).ok());  // the durability point
  EXPECT_TRUE(env.MaybeCrashPoint("ckpt_post_trunc").IsIOError());
  EXPECT_EQ(ReadBack(path_), "new snapshot");  // rename survived the crash
  EXPECT_FALSE(Env::Default()->FileExists(tmp));
}

TEST_F(FaultEnvTest, SameSeedSameStreamSameSchedule) {
  auto run = [this](uint64_t seed) {
    StorageFaultOptions opts;
    opts.seed = seed;
    opts.write_error_rate = 0.3;
    opts.sync_fail_rate = 0.2;
    FaultInjectingEnv env(Env::Default(), opts);
    env.set_enabled(true);
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env.NewWritableFile(path_, true, &file).ok());
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += file->Append("x").ok() ? 'a' : 'A';
      pattern += file->Sync().ok() ? 's' : 'S';
    }
    EXPECT_TRUE(file->Close().ok());
    return pattern;
  };
  std::string first = run(42);
  std::string second = run(42);
  std::string different = run(43);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, different);
  EXPECT_NE(first.find('A'), std::string::npos);  // faults actually fired
  EXPECT_NE(first.find('a'), std::string::npos);
}

TEST_F(FaultEnvTest, EveryEngineCrashPointNameValidates) {
  // The names the engine passes to MaybeCrashPoint, which the torture sweep
  // arms.
  for (const char* point : {"wal_pre_sync", "wal_post_sync", "ckpt_pre_rename",
                            "ckpt_post_rename_pre_trunc", "ckpt_post_trunc"}) {
    EXPECT_TRUE(kCrashPoint.Check(kCrashPoint.name, point).ok()) << point;
  }
  EXPECT_TRUE(kCrashPoint.Check(kCrashPoint.name, "").ok());
  EXPECT_TRUE(kCrashPoint.Check(kCrashPoint.name, "wal_frame_mid").IsInvalidArgument());
}

TEST_F(FaultEnvTest, FromPropertiesReadsTheNamespace) {
  Properties props;
  props.Set("storage.fault.seed", "99");
  props.Set("storage.fault.torn_write_at", "7");
  props.Set("storage.fault.write_error_rate", "0.25");
  props.Set("storage.fault.sync_fail_at", "3");
  props.Set("storage.fault.enospc_after_bytes", "4096");
  props.Set("storage.fault.read_flip_offset", "12");
  props.Set("storage.fault.crash_point", "ckpt_pre_rename");
  props.Set("storage.fault.crash_point_pass", "2");
  props.Set("storage.fault.crash_file", "wal");
  props.Set("storage.fault.drop_unsynced_on_crash", "true");
  StorageFaultOptions opts = StorageFaultOptions::FromProperties(props);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_EQ(opts.torn_write_at, 7u);
  EXPECT_DOUBLE_EQ(opts.write_error_rate, 0.25);
  EXPECT_EQ(opts.sync_fail_at, 3u);
  EXPECT_EQ(opts.enospc_after_bytes, 4096u);
  EXPECT_EQ(opts.read_flip_offset, 12);
  EXPECT_EQ(opts.crash_point, "ckpt_pre_rename");
  EXPECT_EQ(opts.crash_point_pass, 2u);
  EXPECT_EQ(opts.crash_file, "wal");
  EXPECT_TRUE(opts.drop_unsynced_on_crash);
  EXPECT_TRUE(opts.Any());
  EXPECT_FALSE(StorageFaultOptions{}.Any());
  // Passes count from 1: a zero is rejected, not floored.
  Properties zero;
  zero.Set("storage.fault.crash_point_pass", "0");
  EXPECT_TRUE(CheckDeclaredProperties(zero, kStorageFaultProperties)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace kv
}  // namespace ycsbt
