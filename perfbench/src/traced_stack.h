#ifndef PERFBENCH_TRACED_STACK_H_
#define PERFBENCH_TRACED_STACK_H_

#include <memory>
#include <string>

#include "cloud/sim_cloud_store.h"
#include "common/properties.h"
#include "common/status.h"
#include "db/db.h"
#include "kv/store.h"
#include "txn/client_txn_store.h"
#include "txn/local_2pl.h"
#include "txn/occ_engine.h"

namespace perfbench {

/// The binding `DBFactory` would build for the workload's `db` property,
/// assembled from the layers' public constructors with a pass-through
/// tracing wrapper at every boundary:
///
///   TracedDB -> TxnDB -> TracedTxnKV/TracedTxn -> engine or txn library
///     -> [TracedStore(cloud) -> SimCloudStore] -> TracedStore(kv)
///     -> ShardedStore
///
/// Supported bindings: `occ+memkv`, `2pl+memkv`, `txn+memkv`, `txn+was`.
/// Only the properties those bindings read with the benchmark's workloads
/// are honoured; the same-program check compares this stack against the
/// factory-built one.
class TracedStack {
 public:
  static ycsbt::Status Build(const ycsbt::Properties& props,
                             std::unique_ptr<TracedStack>* out);

  /// A traced client binding for one thread.
  std::unique_ptr<ycsbt::DB> CreateClient() const;

  /// The transactional store below the tracing wrapper.
  ycsbt::txn::TransactionalKV* txn_kv() const { return inner_txn_.get(); }

  ycsbt::kv::ShardedStore* engine() const { return engine_.get(); }
  ycsbt::cloud::SimCloudStore* cloud() const { return cloud_.get(); }
  ycsbt::txn::ClientTxnStore* client_txn() const { return client_txn_; }
  ycsbt::txn::Local2PLStore* local_2pl() const { return local_2pl_; }
  ycsbt::txn::OccEngine* occ() const { return occ_; }

 private:
  TracedStack() = default;

  std::shared_ptr<ycsbt::kv::ShardedStore> engine_;
  std::shared_ptr<ycsbt::cloud::SimCloudStore> cloud_;
  std::shared_ptr<ycsbt::txn::TransactionalKV> inner_txn_;
  std::shared_ptr<ycsbt::txn::TransactionalKV> traced_txn_;
  ycsbt::txn::ClientTxnStore* client_txn_ = nullptr;  // owned via inner_txn_
  ycsbt::txn::Local2PLStore* local_2pl_ = nullptr;    // owned via inner_txn_
  ycsbt::txn::OccEngine* occ_ = nullptr;              // owned via inner_txn_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_STACK_H_
