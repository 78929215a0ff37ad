#include "core/brownout.h"

namespace ycsbt {
namespace core {

BrownoutOptions BrownoutOptions::FromProperties(const Properties& props) {
  BrownoutOptions o;
  o.enabled = kShedEnabled.Get<bool>(props);
  o.max_inflight = kShedMaxInflight.Get<int>(props);
  o.drop_read_only = kShedDropReads.Get<bool>(props);
  o.queue_delay_us = kShedQueueDelayUs.Get<double>(props);
  o.windows = kShedWindows.Get<int>(props);
  return o;
}

}  // namespace core
}  // namespace ycsbt
