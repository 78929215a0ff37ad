#ifndef YCSBT_KV_ORDERED_ADMISSION_H_
#define YCSBT_KV_ORDERED_ADMISSION_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "kv/store.h"

namespace ycsbt {
namespace kv {

/// What a decorator carries from an item's admission to its settlement when
/// it needs nothing.
struct NoTicket {};

namespace ordered_admission_internal {

inline const std::string& KeyOf(const std::string& key) { return key; }
inline const std::string& KeyOf(const WriteOp& op) { return op.key; }

inline void SendDown(Store& base, const std::vector<std::string>& keys,
                     std::vector<MultiGetResult>* rows) {
  base.MultiGet(keys, rows);
}
inline void SendDown(Store& base, const std::vector<WriteOp>& ops,
                     std::vector<WriteResult>* rows) {
  base.MultiWrite(ops, rows);
}

}  // namespace ordered_admission_internal

/// The one batch path of the store decorators (DESIGN.md §7): a
/// `MultiGet`/`MultiWrite` over `items`, filling `rows` (resized to match).
///
///  1. `admit(key, &ticket)` runs for every item, in item order, before any
///     item goes down.  A non-OK status becomes that item's row.
///  2. The admitted items go to `base` as ONE sub-batch, which may fan out
///     below; its rows are scattered back to their items.
///  3. `settle(key, ticket, &row)` runs for every admitted item, in item
///     order, once the whole sub-batch is back.
///
/// Whatever a decorator draws or counts (fault tickets, breaker admissions,
/// replication ticks) happens in steps 1 and 3 only, so a seed replays the
/// same schedule however the pool below runs the sub-batch.
template <typename Ticket = NoTicket, typename Item, typename Row,
          typename Admit, typename Settle>
void AdmitInOrder(Store& base, const std::vector<Item>& items,
                  std::vector<Row>* rows, Admit&& admit, Settle&& settle) {
  namespace internal = ordered_admission_internal;
  rows->clear();
  rows->resize(items.size());
  std::vector<size_t> admitted;
  std::vector<Ticket> tickets;
  admitted.reserve(items.size());
  tickets.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    Ticket ticket{};
    Status s = admit(internal::KeyOf(items[i]), &ticket);
    if (!s.ok()) {
      (*rows)[i].status = std::move(s);
      continue;
    }
    admitted.push_back(i);
    tickets.push_back(std::move(ticket));
  }
  if (admitted.empty()) return;
  if (admitted.size() == items.size()) {
    internal::SendDown(base, items, rows);  // nothing to copy or scatter
  } else {
    std::vector<Item> sub;
    sub.reserve(admitted.size());
    for (size_t i : admitted) sub.push_back(items[i]);
    std::vector<Row> sub_rows;
    internal::SendDown(base, sub, &sub_rows);
    for (size_t j = 0; j < admitted.size(); ++j) {
      (*rows)[admitted[j]] = std::move(sub_rows[j]);
    }
  }
  for (size_t j = 0; j < admitted.size(); ++j) {
    settle(internal::KeyOf(items[admitted[j]]), tickets[j],
           &(*rows)[admitted[j]]);
  }
}

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_ORDERED_ADMISSION_H_
