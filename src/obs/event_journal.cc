#include "src/obs/event_journal.h"

namespace dircache {
namespace obs {

const char* JournalArgName(JournalEvent e, int arg) {
  switch (e) {
    case JournalEvent::kInvalidateSubtree:
      switch (arg) {
        case 0:
          return "dentries_bumped";
        case 1:
          return "dlht_evicted";
        case 2:
          return "workers";
        default:
          return "dlht_batches";
      }
    case JournalEvent::kInvalWorker:
      return arg == 0 ? "worker" : "visited";
    case JournalEvent::kRename:
      return arg == 0 ? "lock_hold_ns" : "arg1";
    case JournalEvent::kUnlink:
      return arg == 0 ? "rmdir" : "arg1";
    case JournalEvent::kEpochAdvance:
      return arg == 0 ? "epoch" : "arg1";
    case JournalEvent::kDlhtResize:
      return arg == 0 ? "old_buckets" : "new_buckets";
    case JournalEvent::kDlhtMigrate:
      return arg == 0 ? "migrated" : "buckets";
    case JournalEvent::kGovernorShrink:
      return arg == 0 ? "total_bytes" : "evicted";
    case JournalEvent::kPccPressure:
      return arg == 0 ? "occupied" : "capacity";
    default:
      switch (arg) {
        case 0:
          return "arg0";
        case 1:
          return "arg1";
        case 2:
          return "arg2";
        default:
          return "arg3";
      }
  }
}

int JournalArgCount(JournalEvent e) {
  return e == JournalEvent::kInvalidateSubtree ? 4 : 2;
}

}  // namespace obs
}  // namespace dircache
