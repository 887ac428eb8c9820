// Walk tracing: the outcome taxonomy (DESIGN.md §9).
//
// Every path resolution is classified by *where* it was decided — the
// question Figure 3 / §6.3 of the paper keep asking ("why did this lookup
// fall off the fastpath?"). The classification feeds the per-outcome
// counters and the lookup-latency histogram; a traced request additionally
// carries the walk as a walk_fast/walk_slow span (request_trace.h).
#ifndef DIRCACHE_OBS_WALK_TRACE_H_
#define DIRCACHE_OBS_WALK_TRACE_H_

#include <cstddef>
#include <cstdint>

namespace dircache {
namespace obs {

// Where a path resolution was decided. Keep in sync with WalkOutcomeName().
enum class WalkOutcome : uint8_t {
  kFastHit = 0,        // DLHT probe + PCC validation: done in O(1)
  kFastNegative,       // fast ENOENT/ENOTDIR from a published negative
  kFastMissDlht,       // signature absent from the DLHT
  kFastMissPccCred,    // DLHT hit but no PCC entry for this credential
  kFastMissPccStale,   // PCC entry found but its seq counter moved
  kFastMissPccEpoch,   // PCC self-flushed on a global epoch bump this walk
  kFastMissStructural, // symlink / mount boundary / base state / lexical cap
  // DLHT-miss shortcut fallback (DESIGN.md §14). These replace
  // kFastMissDlht when the shortcut is enabled and the final probe missed
  // on an eligible path shape.
  kFastMissShortcutHit,     // resumed from a cached ancestor; resume held
  kFastMissShortcutPartial, // resume invalidated under us; walked from base
  kFastMissShortcutNone,    // probe found no usable ancestor
  kSlowOptimistic,     // optimistic (lock-free) component walk completed
  kSlowRetried,        // optimistic walk fell back to the locked walk
  kSlowLocked,         // locked walk ran directly (locking mode / config)
  kCount,
};

inline const char* WalkOutcomeName(WalkOutcome o) {
  switch (o) {
    case WalkOutcome::kFastHit:
      return "fast_hit";
    case WalkOutcome::kFastNegative:
      return "fast_negative";
    case WalkOutcome::kFastMissDlht:
      return "fast_miss_dlht";
    case WalkOutcome::kFastMissPccCred:
      return "fast_miss_pcc_cred";
    case WalkOutcome::kFastMissPccStale:
      return "fast_miss_pcc_stale";
    case WalkOutcome::kFastMissPccEpoch:
      return "fast_miss_pcc_epoch";
    case WalkOutcome::kFastMissStructural:
      return "fast_miss_structural";
    case WalkOutcome::kFastMissShortcutHit:
      return "fast_miss_shortcut_hit";
    case WalkOutcome::kFastMissShortcutPartial:
      return "fast_miss_shortcut_partial";
    case WalkOutcome::kFastMissShortcutNone:
      return "fast_miss_shortcut_none";
    case WalkOutcome::kSlowOptimistic:
      return "slow_optimistic";
    case WalkOutcome::kSlowRetried:
      return "slow_retried";
    case WalkOutcome::kSlowLocked:
      return "slow_locked";
    case WalkOutcome::kCount:
      break;
  }
  return "unknown";
}

inline constexpr size_t kWalkOutcomeCount =
    static_cast<size_t>(WalkOutcome::kCount);

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_WALK_TRACE_H_
