#include "kv/torture.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/random.h"
#include "kv/env.h"
#include "kv/fault_env.h"
#include "kv/store.h"

namespace ycsbt {
namespace kv {

namespace {

constexpr const char* kWalFile = "wal.log";
constexpr const char* kCkptFile = "ckpt.snap";

/// splitmix64 stream: the torture schedule must be a pure function of the
/// seed, so every random choice comes from here.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state += 0x9E3779B97F4A7C15ull;
    return Mix64(state);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
};

/// FNV-1a, the schedule/state digest.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void Mix(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void Mix(const std::string& s) { Mix(s.data(), s.size()); }
  void Mix(uint64_t v) { Mix(&v, sizeof(v)); }
};

/// One scripted operation.  Transfers are atomic two-account `MultiPut`s
/// (the CEW debit/credit pair); everything else is a single-key op.
struct ScriptOp {
  enum class Kind { kTransfer, kPut, kDelete } kind = Kind::kPut;
  std::string key_a, val_a;
  std::string key_b, val_b;  // transfer credit leg
};

using ValueMap = std::map<std::string, std::string>;

long long BalanceOf(const std::string& value) {
  // Values are "<balance>:<seq>"; the seq keeps rewrites byte-distinct.
  return std::strtoll(value.c_str(), nullptr, 10);
}

std::string MakeValue(long long balance, uint64_t seq) {
  return std::to_string(balance) + ":" + std::to_string(seq);
}

/// The deterministic workload: account loads, then a seeded mix of atomic
/// transfers (55%), single-account rewrites (20%), scratch inserts (15%)
/// and scratch deletes (10%).  Generation simulates the value model, so
/// `states[i]` is the exact expected key->value map after i+1 acked ops.
struct Script {
  std::vector<ScriptOp> ops;
  std::vector<ValueMap> states;  ///< states[i] = after ops[0..i]
  long long total_balance = 0;

  const ValueMap& StateAfter(size_t op_count) const {
    static const ValueMap kEmpty;
    return op_count == 0 ? kEmpty : states[op_count - 1];
  }
};

Script BuildScript(const TortureOptions& opts) {
  Script script;
  Rng rng(opts.seed ^ 0x5C21A7ull);
  ValueMap model;
  std::vector<std::string> accounts;
  std::vector<std::string> scratch_live;
  uint64_t seq = 0;
  int scratch_counter = 0;

  auto push = [&](ScriptOp op) {
    if (op.kind == ScriptOp::Kind::kDelete) {
      model.erase(op.key_a);
    } else {
      model[op.key_a] = op.val_a;
      if (op.kind == ScriptOp::Kind::kTransfer) model[op.key_b] = op.val_b;
    }
    script.ops.push_back(std::move(op));
    script.states.push_back(model);
  };

  for (int i = 0; i < opts.accounts; ++i) {
    std::string key = "acct_" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    accounts.push_back(key);
    ScriptOp op;
    op.kind = ScriptOp::Kind::kPut;
    op.key_a = key;
    op.val_a = MakeValue(opts.initial_balance, seq++);
    push(std::move(op));
  }
  script.total_balance =
      static_cast<long long>(opts.accounts) * opts.initial_balance;

  for (int i = 0; i < opts.ops; ++i) {
    uint64_t dice = rng.Below(100);
    if (dice < 55) {
      // Atomic CEW transfer: one kTxnPut frame, balance conserved.
      size_t a = rng.Below(accounts.size());
      size_t b = rng.Below(accounts.size() - 1);
      if (b >= a) ++b;
      long long amount = 1 + static_cast<long long>(rng.Below(10));
      ScriptOp op;
      op.kind = ScriptOp::Kind::kTransfer;
      op.key_a = accounts[a];
      op.val_a = MakeValue(BalanceOf(model[accounts[a]]) - amount, seq++);
      op.key_b = accounts[b];
      op.val_b = MakeValue(BalanceOf(model[accounts[b]]) + amount, seq++);
      push(std::move(op));
    } else if (dice < 75) {
      // Rewrite: same balance, fresh seq (etag churn without balance drift).
      size_t a = rng.Below(accounts.size());
      ScriptOp op;
      op.kind = ScriptOp::Kind::kPut;
      op.key_a = accounts[a];
      op.val_a = MakeValue(BalanceOf(model[accounts[a]]), seq++);
      push(std::move(op));
    } else if (dice < 90 || scratch_live.empty()) {
      // Zero-balance scratch insert: exercises key creation frames.
      ScriptOp op;
      op.kind = ScriptOp::Kind::kPut;
      op.key_a = "scratch_" + std::to_string(scratch_counter++);
      op.val_a = MakeValue(0, seq++);
      scratch_live.push_back(op.key_a);
      push(std::move(op));
    } else {
      size_t pick = rng.Below(scratch_live.size());
      ScriptOp op;
      op.kind = ScriptOp::Kind::kDelete;
      op.key_a = scratch_live[pick];
      scratch_live.erase(scratch_live.begin() +
                         static_cast<ptrdiff_t>(pick));
      push(std::move(op));
    }
  }
  return script;
}

/// Applies script op i to the store; returns the store's status (the ack).
Status ApplyScriptOp(ShardedStore& store, const ScriptOp& op) {
  switch (op.kind) {
    case ScriptOp::Kind::kTransfer:
      return store.MultiPut({{op.key_a, op.val_a}, {op.key_b, op.val_b}});
    case ScriptOp::Kind::kPut:
      return store.Put(op.key_a, op.val_a);
    case ScriptOp::Kind::kDelete:
      return store.Delete(op.key_a);
  }
  return Status::InvalidArgument("unknown script op");
}

void EnsureDir(const std::string& dir) { ::mkdir(dir.c_str(), 0755); }

void WipeStoreFiles(Env* env, const std::string& dir) {
  for (const char* name : {kWalFile, kCkptFile}) {
    std::string path = dir + "/" + name;
    if (env->FileExists(path)) (void)env->RemoveFile(path);
    std::string tmp = path + ".tmp";
    if (env->FileExists(tmp)) (void)env->RemoveFile(tmp);
  }
}

StoreOptions MakeStoreOptions(const TortureOptions& opts,
                              const std::string& dir, Env* env,
                              bool dir_sync = true) {
  StoreOptions so;
  so.num_shards = opts.num_shards;
  so.wal_path = dir + "/" + kWalFile;
  so.checkpoint_path = dir + "/" + kCkptFile;
  so.sync_wal = true;  // every op is one synced frame: exact boundaries
  so.checkpoint_dir_sync = dir_sync;
  so.env = env;
  return so;
}

std::vector<ScanEntry> Snapshot(ShardedStore& store) {
  std::vector<ScanEntry> out;
  (void)store.Scan("", static_cast<size_t>(1) << 20, &out);
  return out;
}

std::string DescribeEntry(const ScanEntry& e) {
  return e.key + "=" + e.value + "@" + std::to_string(e.etag);
}

/// Exact-state comparison.  `with_etags` compares the recorded etags too
/// (materialised sweeps — the recording captured them); live-injection
/// cases compare keys and values against the value model.
bool StatesEqual(const std::vector<ScanEntry>& got,
                 const std::vector<ScanEntry>& want_entries,
                 const ValueMap* want_map, bool with_etags,
                 std::string* diff) {
  size_t want_size = want_map != nullptr ? want_map->size() : want_entries.size();
  if (got.size() != want_size) {
    *diff = "size " + std::to_string(got.size()) + " != " +
            std::to_string(want_size);
    return false;
  }
  if (want_map != nullptr) {
    auto it = want_map->begin();
    for (size_t i = 0; i < got.size(); ++i, ++it) {
      if (got[i].key != it->first || got[i].value != it->second) {
        *diff = "entry " + std::to_string(i) + ": got " +
                DescribeEntry(got[i]) + " want " + it->first + "=" + it->second;
        return false;
      }
    }
    return true;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const ScanEntry& w = want_entries[i];
    if (got[i].key != w.key || got[i].value != w.value ||
        (with_etags && got[i].etag != w.etag)) {
      *diff = "entry " + std::to_string(i) + ": got " + DescribeEntry(got[i]) +
              " want " + DescribeEntry(w);
      return false;
    }
  }
  return true;
}

long long SumBalances(const std::vector<ScanEntry>& entries) {
  long long total = 0;
  for (const ScanEntry& e : entries) total += BalanceOf(e.value);
  return total;
}

void MixState(Digest* digest, const std::vector<ScanEntry>& entries) {
  for (const ScanEntry& e : entries) {
    digest->Mix(e.key);
    digest->Mix(e.value);
    digest->Mix(e.etag);
  }
}

void ReportFailure(TortureReport* report, const std::string& c,
                   const std::string& detail) {
  report->failures++;
  if (report->failure_details.size() < 20) {
    report->failure_details.push_back(c + ": " + detail);
  }
}

// ---------------------------------------------------------------------------
// Phase A: record the fault-free run — per-op frame boundaries, per-epoch WAL
// byte streams, checkpoint images, and the acked-state oracle.
// ---------------------------------------------------------------------------

struct RecordedOp {
  size_t epoch = 0;
  uint64_t wal_end = 0;  ///< WAL size after this op, within its epoch
};

struct EpochRec {
  bool has_ckpt = false;
  std::string ckpt_bytes;  ///< checkpoint image at epoch start
  std::string wal_bytes;   ///< the epoch's full WAL stream (pre-truncation)
  size_t base_ops = 0;     ///< script ops already folded into the checkpoint
};

struct Recording {
  std::vector<RecordedOp> ops;
  std::vector<EpochRec> epochs;
  /// Store state (with etags) after each acked op, the sweep oracle.
  std::vector<std::vector<ScanEntry>> store_states;
  bool ok = false;
  std::string error;
};

Recording RecordRun(const TortureOptions& opts, const Script& script,
                    const std::string& dir) {
  Recording rec;
  Env* env = Env::Default();
  EnsureDir(dir);
  WipeStoreFiles(env, dir);
  StoreOptions so = MakeStoreOptions(opts, dir, /*env=*/nullptr);
  ShardedStore store(so);
  Status s = store.Open();
  if (!s.ok()) {
    rec.error = "open: " + s.ToString();
    return rec;
  }
  rec.epochs.push_back(EpochRec{});

  for (size_t i = 0; i < script.ops.size(); ++i) {
    if (opts.checkpoint_every > 0 && i > 0 &&
        i % static_cast<size_t>(opts.checkpoint_every) == 0) {
      // Close out the epoch: its WAL stream must be captured BEFORE the
      // checkpoint truncates it.
      (void)env->ReadFileToString(so.wal_path, &rec.epochs.back().wal_bytes);
      s = store.Checkpoint();
      if (!s.ok()) {
        rec.error = "checkpoint: " + s.ToString();
        return rec;
      }
      EpochRec next;
      next.has_ckpt = true;
      (void)env->ReadFileToString(so.checkpoint_path, &next.ckpt_bytes);
      next.base_ops = i;
      rec.epochs.push_back(std::move(next));
    }
    s = ApplyScriptOp(store, script.ops[i]);
    if (!s.ok()) {
      rec.error = "op " + std::to_string(i) + ": " + s.ToString();
      return rec;
    }
    RecordedOp rop;
    rop.epoch = rec.epochs.size() - 1;
    uint64_t size = 0;
    (void)env->FileSize(so.wal_path, &size);
    rop.wal_end = size;
    rec.ops.push_back(rop);
    rec.store_states.push_back(Snapshot(store));
    // Cross-check the store against the independent value model: a store
    // bug during recording must not silently become the oracle.
    std::string diff;
    if (!StatesEqual(rec.store_states.back(), {}, &script.states[i],
                     /*with_etags=*/false, &diff)) {
      rec.error = "recording mismatch after op " + std::to_string(i) + ": " + diff;
      return rec;
    }
  }
  (void)env->ReadFileToString(so.wal_path, &rec.epochs.back().wal_bytes);
  rec.ok = true;
  return rec;
}

// ---------------------------------------------------------------------------
// Phase B: materialised crash states.  A crash at byte offset c of epoch e
// leaves: the epoch's checkpoint image + the first c bytes of its WAL.
// Reopen and require the exact oracle state.
// ---------------------------------------------------------------------------

struct MaterializedCase {
  std::string name;
  size_t epoch = 0;
  uint64_t wal_cut = 0;
  std::string ckpt_override;    ///< non-empty = damaged checkpoint image
  bool ckpt_overridden = false;
  size_t expect_ops = 0;         ///< oracle: state after this many ops
  uint64_t expect_truncated = 0; ///< torn bytes recovery must report
  bool expect_scrub = false;
};

void RunMaterialized(const TortureOptions& opts, const Recording& rec,
                     const MaterializedCase& c, const std::string& sweep_dir,
                     TortureReport* report, Digest* digest) {
  Env* env = Env::Default();
  WipeStoreFiles(env, sweep_dir);
  const EpochRec& epoch = rec.epochs[c.epoch];
  StoreOptions so = MakeStoreOptions(opts, sweep_dir, /*env=*/nullptr);

  auto write_file = [&](const std::string& path, const std::string& bytes) {
    std::unique_ptr<WritableFile> f;
    if (!env->NewWritableFile(path, /*truncate_existing=*/true, &f).ok()) {
      return false;
    }
    return f->Append(bytes).ok() && f->Close().ok();
  };

  if (c.ckpt_overridden) {
    if (!write_file(so.checkpoint_path, c.ckpt_override)) {
      ReportFailure(report, c.name, "materialise ckpt failed");
      return;
    }
  } else if (epoch.has_ckpt) {
    if (!write_file(so.checkpoint_path, epoch.ckpt_bytes)) {
      ReportFailure(report, c.name, "materialise ckpt failed");
      return;
    }
  }
  if (!write_file(so.wal_path, epoch.wal_bytes.substr(0, c.wal_cut))) {
    ReportFailure(report, c.name, "materialise wal failed");
    return;
  }

  ShardedStore store(so);
  Status s = store.Open();
  report->crash_states++;
  digest->Mix(c.name);
  digest->Mix(c.wal_cut);
  if (!s.ok()) {
    ReportFailure(report, c.name, "recovery failed: " + s.ToString());
    return;
  }
  const RecoveryReport& rr = store.recovery_report();
  report->replayed_records_total += rr.wal_records_replayed;
  report->truncated_bytes_total += rr.truncated_bytes;
  if (rr.checkpoint_scrubbed) report->scrubbed_checkpoints++;

  std::vector<ScanEntry> got = Snapshot(store);
  MixState(digest, got);

  const std::vector<ScanEntry>* want = nullptr;
  static const std::vector<ScanEntry> kEmpty;
  want = c.expect_ops == 0 ? &kEmpty : &rec.store_states[c.expect_ops - 1];
  std::string diff;
  if (!StatesEqual(got, *want, nullptr, /*with_etags=*/true, &diff)) {
    long long want_balance =
        SumBalances(*want);
    ReportFailure(report, c.name,
                  diff + " (balance got " + std::to_string(SumBalances(got)) +
                      " want " + std::to_string(want_balance) + ")");
    return;
  }
  if (rr.truncated_bytes != c.expect_truncated) {
    ReportFailure(report, c.name,
                  "truncated_bytes " + std::to_string(rr.truncated_bytes) +
                      " != expected " + std::to_string(c.expect_truncated));
    return;
  }
  if (rr.checkpoint_scrubbed != c.expect_scrub) {
    ReportFailure(report, c.name,
                  c.expect_scrub ? "checkpoint not scrubbed"
                                 : "checkpoint unexpectedly scrubbed");
  }
}

// ---------------------------------------------------------------------------
// Phase C: live fault injection.  Re-run the script under an armed
// FaultInjectingEnv, stop at the first failure, reopen through a clean Env
// (the process-restart view) and require the state to match the acked
// oracle — or acked+1 when the failing frame legitimately reached disk
// (crash after the write landed / after fdatasync but before the ack).
// ---------------------------------------------------------------------------

struct LiveCase {
  std::string name;
  StorageFaultOptions faults;
  bool allow_plus_one = true;    ///< failing op's frame may survive
  bool expect_failure = true;    ///< the run must not complete cleanly
  bool probe_poison = false;     ///< after failure: reads OK, writes fail
  int64_t expect_truncated = -1; ///< -1 = don't check
};

void RunLive(const TortureOptions& opts, const Script& script,
             const LiveCase& c, const std::string& dir,
             TortureReport* report, Digest* digest) {
  Env* base = Env::Default();
  EnsureDir(dir);
  WipeStoreFiles(base, dir);
  FaultInjectingEnv env(base, c.faults);
  size_t acked = 0;
  {
    StoreOptions so = MakeStoreOptions(opts, dir, &env);
    ShardedStore store(so);
    Status s = store.Open();
    if (!s.ok()) {
      ReportFailure(report, c.name, "open: " + s.ToString());
      return;
    }
    env.set_enabled(true);
    bool failed = false;
    for (size_t i = 0; i < script.ops.size() && !failed; ++i) {
      if (opts.checkpoint_every > 0 && i > 0 &&
          i % static_cast<size_t>(opts.checkpoint_every) == 0) {
        if (!store.Checkpoint().ok()) {
          failed = true;
          break;
        }
      }
      if (ApplyScriptOp(store, script.ops[i]).ok()) {
        acked = i + 1;
      } else {
        failed = true;
      }
    }
    env.set_enabled(false);
    if (c.expect_failure && !failed) {
      ReportFailure(report, c.name, "fault never fired");
      return;
    }
    if (c.probe_poison && failed && !env.crashed()) {
      // Poison-not-corrupt: the in-memory state stays readable, writes stay
      // rejected.  (Disarmed now, so the probes hit the store contract, not
      // fresh injections.)
      const std::string& probe_key = script.ops[0].key_a;
      std::string value;
      if (!store.Get(probe_key, &value).ok()) {
        ReportFailure(report, c.name, "poisoned store refused a read");
        return;
      }
      if (store.Put("poison_probe", "x").ok()) {
        ReportFailure(report, c.name, "poisoned store accepted a write");
        return;
      }
      if (!store.IsPoisoned()) {
        ReportFailure(report, c.name, "store not poisoned after failure");
        return;
      }
    }
  }

  // Process restart: reopen the frozen files through a clean Env.
  StoreOptions so = MakeStoreOptions(opts, dir, /*env=*/nullptr);
  ShardedStore store(so);
  Status s = store.Open();
  report->crash_states++;
  report->live_cases++;
  StorageFaultStats stats = env.stats();
  digest->Mix(c.name);
  digest->Mix(stats.appends);
  digest->Mix(stats.syncs);
  digest->Mix(stats.TotalInjected());
  digest->Mix(static_cast<uint64_t>(acked));
  if (!s.ok()) {
    ReportFailure(report, c.name, "recovery failed: " + s.ToString());
    return;
  }
  const RecoveryReport& rr = store.recovery_report();
  report->replayed_records_total += rr.wal_records_replayed;
  report->truncated_bytes_total += rr.truncated_bytes;
  if (rr.checkpoint_scrubbed) report->scrubbed_checkpoints++;

  std::vector<ScanEntry> got = Snapshot(store);
  MixState(digest, got);
  std::string diff_acked, diff_next;
  bool match_acked = StatesEqual(got, {}, &script.StateAfter(acked),
                                 /*with_etags=*/false, &diff_acked);
  bool match_next =
      c.allow_plus_one && acked + 1 <= script.ops.size() &&
      StatesEqual(got, {}, &script.StateAfter(acked + 1),
                  /*with_etags=*/false, &diff_next);
  if (!match_acked && !match_next) {
    ReportFailure(report, c.name,
                  "state matches neither acked(" + std::to_string(acked) +
                      "): " + diff_acked +
                      (c.allow_plus_one ? " nor acked+1: " + diff_next : ""));
    return;
  }
  if (c.expect_truncated >= 0 &&
      rr.truncated_bytes != static_cast<uint64_t>(c.expect_truncated)) {
    ReportFailure(report, c.name,
                  "truncated_bytes " + std::to_string(rr.truncated_bytes) +
                      " != expected " + std::to_string(c.expect_truncated));
  }
}

}  // namespace

TortureReport RunCrashTorture(const TortureOptions& opts) {
  TortureReport report;
  Digest digest;
  EnsureDir(opts.dir);

  Script script = BuildScript(opts);
  std::string record_dir = opts.dir + "/record";
  Recording rec = RecordRun(opts, script, record_dir);
  if (!rec.ok) {
    ReportFailure(&report, "record", rec.error);
    return report;
  }
  report.recorded_ops = rec.ops.size();
  report.epochs = rec.epochs.size();
  for (const EpochRec& e : rec.epochs) {
    report.wal_bytes_total += e.wal_bytes.size();
    digest.Mix(e.wal_bytes);
    digest.Mix(e.ckpt_bytes);
  }

  std::string sweep_dir = opts.dir + "/sweep";
  EnsureDir(sweep_dir);

  // Every epoch start (crash just after checkpoint compaction, before any
  // new frame) and every frame boundary.
  for (size_t e = 0; e < rec.epochs.size(); ++e) {
    MaterializedCase c;
    c.name = "boundary:e" + std::to_string(e) + "@0";
    c.epoch = e;
    c.wal_cut = 0;
    c.expect_ops = rec.epochs[e].base_ops;
    RunMaterialized(opts, rec, c, sweep_dir, &report, &digest);
  }
  for (size_t i = 0; i < rec.ops.size(); ++i) {
    MaterializedCase c;
    c.epoch = rec.ops[i].epoch;
    c.wal_cut = rec.ops[i].wal_end;
    c.name = "boundary:e" + std::to_string(c.epoch) + "@" +
             std::to_string(c.wal_cut);
    c.expect_ops = i + 1;
    RunMaterialized(opts, rec, c, sweep_dir, &report, &digest);
  }

  // Seeded mid-frame offsets: the torn frame must be truncated, nothing
  // else lost, and the reported torn-byte count exact.
  Rng rng(opts.seed ^ 0x31DF7A11ull);
  for (int n = 0; n < opts.mid_frame_samples; ++n) {
    size_t i = rng.Below(rec.ops.size());
    size_t e = rec.ops[i].epoch;
    uint64_t frame_start = 0;
    if (i > 0 && rec.ops[i - 1].epoch == e) frame_start = rec.ops[i - 1].wal_end;
    uint64_t frame_len = rec.ops[i].wal_end - frame_start;
    if (frame_len < 2) continue;
    uint64_t cut = frame_start + 1 + rng.Below(frame_len - 1);
    MaterializedCase c;
    c.epoch = e;
    c.wal_cut = cut;
    c.name = "midframe:e" + std::to_string(e) + "@" + std::to_string(cut);
    c.expect_ops = i;  // the torn op's frame must vanish
    c.expect_truncated = cut - frame_start;
    RunMaterialized(opts, rec, c, sweep_dir, &report, &digest);
  }

  // Damaged-checkpoint scrub: epoch 1's image torn or bit-rotted while the
  // full epoch-0 WAL still exists (the post-rename-pre-truncation crash
  // window).  Recovery must scrub the snapshot and rebuild from WAL alone.
  if (rec.epochs.size() >= 2 && rec.epochs[1].has_ckpt) {
    const std::string& image = rec.epochs[1].ckpt_bytes;
    for (int n = 0; n < opts.ckpt_scrub_samples && image.size() > 2; ++n) {
      MaterializedCase c;
      c.epoch = 0;  // the WAL that still covers everything
      c.wal_cut = rec.epochs[0].wal_bytes.size();
      c.expect_ops = rec.epochs[1].base_ops;
      c.ckpt_overridden = true;
      c.expect_scrub = true;
      if (n % 2 == 0) {
        uint64_t cut = 1 + rng.Below(image.size() - 1);
        c.ckpt_override = image.substr(0, cut);
        c.name = "ckptscrub:torn@" + std::to_string(cut);
      } else {
        uint64_t at = rng.Below(image.size());
        c.ckpt_override = image;
        c.ckpt_override[at] ^= static_cast<char>(1u << rng.Below(8));
        c.name = "ckptscrub:flip@" + std::to_string(at);
      }
      RunMaterialized(opts, rec, c, sweep_dir, &report, &digest);
    }
  }

  // Live fault injection.  Pass/target numbers are drawn in the pre-first-
  // checkpoint window so the checkpoint's own writes don't shift them.
  size_t window = script.ops.size();
  if (opts.checkpoint_every > 0) {
    window = std::min(window, static_cast<size_t>(opts.checkpoint_every));
  }
  auto draw_pass = [&](uint64_t salt) {
    // A sync ticket in [accounts+2, window-2]: inside the mixed-op stream.
    uint64_t lo = static_cast<uint64_t>(opts.accounts) + 2;
    uint64_t hi = window > 4 ? static_cast<uint64_t>(window) - 2 : lo + 1;
    Rng r(opts.seed ^ salt);
    return lo + r.Below(hi > lo ? hi - lo : 1);
  };

  std::vector<LiveCase> cases;
  {
    LiveCase c;
    c.name = "live:wal_pre_sync";
    c.faults.crash_point = "wal_pre_sync";
    c.faults.crash_point_pass = draw_pass(0xA1);
    cases.push_back(c);
  }
  {
    LiveCase c;
    c.name = "live:wal_pre_sync+drop";
    c.faults.crash_point = "wal_pre_sync";
    c.faults.crash_point_pass = draw_pass(0xA2);
    c.faults.drop_unsynced_on_crash = true;
    cases.push_back(c);
  }
  {
    LiveCase c;
    c.name = "live:wal_post_sync";
    c.faults.crash_point = "wal_post_sync";
    c.faults.crash_point_pass = draw_pass(0xA3);
    cases.push_back(c);
  }
  {
    // Mid-frame device crash at an exact byte offset taken from the
    // recording.  The offset is chosen strictly inside a frame, so the torn
    // prefix must be truncated and reported byte-exactly.
    size_t i = static_cast<size_t>(draw_pass(0xA4));
    while (i > 0 && rec.ops[i].epoch != 0) --i;
    uint64_t frame_start = i > 0 ? rec.ops[i - 1].wal_end : 0;
    uint64_t frame_len = rec.ops[i].wal_end - frame_start;
    LiveCase c;
    c.name = "live:wal_frame_mid";
    c.faults.crash_file = kWalFile;
    c.faults.crash_write_offset =
        static_cast<int64_t>(frame_start + 1 + (frame_len > 2 ? frame_len / 2 : 0));
    c.allow_plus_one = false;
    c.expect_truncated =
        c.faults.crash_write_offset - static_cast<int64_t>(frame_start);
    cases.push_back(c);
  }
  {
    LiveCase c;
    c.name = "live:fsyncgate";
    c.faults.sync_fail_at = draw_pass(0xA5);
    c.allow_plus_one = false;  // the dirty frame was dropped, then truncated
    c.probe_poison = true;
    cases.push_back(c);
  }
  {
    LiveCase c;
    c.name = "live:enospc";
    // A byte budget ~60% into epoch 0: the append crossing it is cut short.
    c.faults.enospc_after_bytes =
        std::max<uint64_t>(64, rec.epochs[0].wal_bytes.size() * 6 / 10);
    c.allow_plus_one = false;
    c.probe_poison = true;
    cases.push_back(c);
  }
  if (opts.checkpoint_every > 0 &&
      script.ops.size() > static_cast<size_t>(opts.checkpoint_every)) {
    for (const char* point :
         {"ckpt_pre_rename", "ckpt_post_rename_pre_trunc", "ckpt_post_trunc"}) {
      LiveCase c;
      c.name = std::string("live:") + point;
      c.faults.crash_point = point;
      c.allow_plus_one = false;  // checkpoints ride between acked ops
      cases.push_back(c);
    }
  }
  for (const LiveCase& c : cases) {
    RunLive(opts, script, c, opts.dir + "/live", &report, &digest);
  }

  report.schedule_digest = digest.h;
  return report;
}

bool DemonstrateDirSyncLoss(const std::string& dir, uint64_t seed,
                            bool dir_sync) {
  TortureOptions opts;
  opts.seed = seed;
  opts.dir = dir;
  opts.ops = 130;
  opts.checkpoint_every = 50;  // the crash fires on the SECOND checkpoint
  Script script = BuildScript(opts);

  Env* base = Env::Default();
  EnsureDir(dir);
  WipeStoreFiles(base, dir);
  StorageFaultOptions faults;
  faults.crash_point = "ckpt_post_trunc";
  faults.crash_point_pass = 2;
  FaultInjectingEnv env(base, faults);
  size_t acked = 0;
  {
    StoreOptions so = MakeStoreOptions(opts, dir, &env, dir_sync);
    ShardedStore store(so);
    if (!store.Open().ok()) return false;
    env.set_enabled(true);
    for (size_t i = 0; i < script.ops.size(); ++i) {
      if (opts.checkpoint_every > 0 && i > 0 &&
          i % static_cast<size_t>(opts.checkpoint_every) == 0) {
        if (!store.Checkpoint().ok()) break;
      }
      if (!ApplyScriptOp(store, script.ops[i]).ok()) break;
      acked = i + 1;
    }
  }
  if (!env.crashed()) return false;  // the scenario never materialised

  StoreOptions so = MakeStoreOptions(opts, dir, /*env=*/nullptr, dir_sync);
  ShardedStore store(so);
  if (!store.Open().ok()) return true;  // unrecoverable counts as loss
  std::vector<ScanEntry> got = Snapshot(store);
  std::string diff;
  return !StatesEqual(got, {}, &script.StateAfter(acked),
                      /*with_etags=*/false, &diff);
}

std::string FormatTortureReport(const TortureReport& report) {
  std::ostringstream out;
  out << "CRASH-TORTURE crash_states=" << report.crash_states
      << " failures=" << report.failures
      << " recorded_ops=" << report.recorded_ops
      << " epochs=" << report.epochs
      << " wal_bytes=" << report.wal_bytes_total
      << " live_cases=" << report.live_cases
      << " replayed_total=" << report.replayed_records_total
      << " truncated_total=" << report.truncated_bytes_total
      << " ckpt_scrubs=" << report.scrubbed_checkpoints << "\n"
      << "CRASH-TORTURE schedule_digest=0x" << std::hex
      << report.schedule_digest << std::dec << "\n";
  for (const std::string& f : report.failure_details) {
    out << "CRASH-TORTURE FAIL " << f << "\n";
  }
  return out.str();
}

}  // namespace kv
}  // namespace ycsbt
