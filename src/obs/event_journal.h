// Coherence event journal (DESIGN.md §10): begin/end span events for the
// cache's write side.
//
// The paper's §3.2 coherence protocol makes mutations pay O(cached-subtree)
// work; this journal records what each mutation actually cost: every
// rename/chmod/chown/unlink emits a span, every subtree invalidation pass
// reports how many version counters it bumped and how many DLHT entries it
// evicted, rename records its rename_lock (rename_seq write section) hold
// time, and PCC epoch advances land as instants. Events land in the
// recording shard's SeqRing (seq_ring.h), drain into snapshots (schema v2
// `journal` section) and export as Chrome trace-event JSON
// (ObsSnapshot::ToChromeTrace) for chrome://tracing.
#ifndef DIRCACHE_OBS_EVENT_JOURNAL_H_
#define DIRCACHE_OBS_EVENT_JOURNAL_H_

#include <cstddef>
#include <cstdint>

namespace dircache {
namespace obs {

// Event taxonomy. Keep in sync with JournalEventName().
enum class JournalEvent : uint8_t {
  kRename = 0,        // whole rename mutation section
  kRenameLock,        // rename_seq write section (rename_lock hold time)
  kChmod,             // chmod invalidation+apply section
  kChown,             // chown invalidation+apply section
  kSetLabel,          // security-label invalidation+apply section
  kUnlink,            // unlink/rmdir victim invalidation+kill section
  kInvalidateSubtree, // one §3.2 subtree pass (arg0=bumped, arg1=evicted,
                      //   arg2=workers, arg3=dlht_batches)
  kEpochAdvance,      // global PCC epoch bump (instant, §3.1)
  kInvalWorker,       // one worker's share of a parallel invalidation pass
                      //   (arg0=worker index, arg1=dentries visited); nested
                      //   inside the owning kInvalidateSubtree span
  kDlhtResize,        // elastic DLHT resize begun (instant, DESIGN.md §15;
                      //   arg0=old buckets, arg1=new buckets)
  kDlhtMigrate,       // elastic DLHT resize completed (instant; arg0=buckets
                      //   migrated, arg1=final bucket count)
  kGovernorShrink,    // governor budget-enforcement pass (arg0=accounted
                      //   bytes at entry, arg1=dentries evicted)
  kPccPressure,       // PCC (not the DLHT) is the bottleneck under budget
                      //   (instant; arg0=occupied entries, arg1=capacity)
  kCount,
};

inline constexpr size_t kJournalEventCount =
    static_cast<size_t>(JournalEvent::kCount);

inline const char* JournalEventName(JournalEvent e) {
  switch (e) {
    case JournalEvent::kRename:
      return "rename";
    case JournalEvent::kRenameLock:
      return "rename_lock";
    case JournalEvent::kChmod:
      return "chmod";
    case JournalEvent::kChown:
      return "chown";
    case JournalEvent::kSetLabel:
      return "set_label";
    case JournalEvent::kUnlink:
      return "unlink";
    case JournalEvent::kInvalidateSubtree:
      return "invalidate_subtree";
    case JournalEvent::kEpochAdvance:
      return "epoch_advance";
    case JournalEvent::kInvalWorker:
      return "inval_worker";
    case JournalEvent::kDlhtResize:
      return "dlht_resize";
    case JournalEvent::kDlhtMigrate:
      return "dlht_migrate";
    case JournalEvent::kGovernorShrink:
      return "governor_shrink";
    case JournalEvent::kPccPressure:
      return "pcc_pressure";
    case JournalEvent::kCount:
      break;
  }
  return "unknown";
}

// The meaning of arg0..arg3 per event type, for rendering.
const char* JournalArgName(JournalEvent e, int arg);
// How many payload args the event type carries (2 or 4). Renderers emit
// exactly this many keys; the record always carries all four.
int JournalArgCount(JournalEvent e);

// One journal span.
struct JournalEventRecord {
  JournalEvent type = JournalEvent::kCount;
  uint32_t shard = 0;        // recording shard (exported as Chrome tid)
  uint64_t begin_ns = 0;     // span begin (instants: the event time)
  uint64_t duration_ns = 0;  // 0 for instants
  uint64_t arg0 = 0;         // per-type payload (see taxonomy above)
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;         // schema v2 addition: parallel-pass payloads
  uint64_t arg3 = 0;
};

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_EVENT_JOURNAL_H_
