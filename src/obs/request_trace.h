// Request-scoped tracing (DESIGN.md §13): the span model and the per-thread
// trace context every layer hooks into.
//
// The aggregate surfaces (histograms, heat sketches, journal) can say *that*
// p99.9 spiked; a request trace says *why this request* was slow. A sampled
// (or force-flagged) SubmissionQueueEntry carries a nonzero trace id; while
// it executes, a RequestTrace rides the executing thread as a thread-local
// pointer, and the walk, invalidation, and storage layers append child spans
// to it with plain stores — no atomics, no shared state, because a trace
// belongs to exactly one thread from execute-begin to complete. Untraced
// requests (the 99%+) pay one thread-local pointer load per hook site and
// nothing else, so the warm-hit read path stays shared-write-free.
//
// On completion, Observability::CompleteTrace folds the finished tree into
// the recording shard's span ring (snapshot `spans` section), the
// tail-latency attributor (snapshot `attribution` section), and the flight
// recorder.
#ifndef DIRCACHE_OBS_REQUEST_TRACE_H_
#define DIRCACHE_OBS_REQUEST_TRACE_H_

#include <cstddef>
#include <cstdint>

#include "src/util/clock.h"

namespace dircache {
namespace obs {

// The operation a trace describes — mirrors server::OpCode (which obs must
// not depend on; task.cc maps between them). Keep in sync with
// TraceOpName().
enum class TraceOp : uint8_t {
  kNop = 0,
  kStatx,
  kAccess,
  kOpen,
  kClose,
  kReaddir,
  kMkdir,
  kUnlink,
  kRename,
  kOther,
  kCount,
};

inline constexpr size_t kTraceOpCount = static_cast<size_t>(TraceOp::kCount);

inline const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kNop:
      return "nop";
    case TraceOp::kStatx:
      return "statx";
    case TraceOp::kAccess:
      return "access";
    case TraceOp::kOpen:
      return "open";
    case TraceOp::kClose:
      return "close";
    case TraceOp::kReaddir:
      return "readdir";
    case TraceOp::kMkdir:
      return "mkdir";
    case TraceOp::kUnlink:
      return "unlink";
    case TraceOp::kRename:
      return "rename";
    case TraceOp::kOther:
      return "other";
    case TraceOp::kCount:
      break;
  }
  return "unknown";
}

// Child-span taxonomy. kRequest/kQueue/kDispatch are synthesized from the
// SQE timestamps at fold time; the rest are emitted live by the layer that
// did the work. Keep in sync with SpanKindName().
enum class SpanKind : uint8_t {
  kRequest = 0,   // whole request: submit (or execute-begin) -> complete
  kQueue,         // SQ ring wait: submit -> shard dequeue
  kDispatch,      // dequeue -> execute-begin (batch position cost)
  kWalkFast,      // fastpath resolution (hit or published negative)
  kWalkSlow,      // slowpath walk, including a failed fastpath probe
  kComponent,     // one slowpath component step (instant; arg0 = depth)
  kGate,          // fastpath bailed on an open coherence gate (instant)
  kEpochRetry,    // optimistic walk fell back to the locked walk (instant)
  kIo,            // block-device access (duration = simulated device ns)
  kInval,         // subtree invalidation pass run by this request
  kWalkShortcut,  // walk resumed from a cached ancestor (instant;
                  // arg0 = ancestor depth, arg1 = suffix components)
  kCount,
};

inline constexpr size_t kSpanKindCount = static_cast<size_t>(SpanKind::kCount);

inline const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kDispatch:
      return "dispatch";
    case SpanKind::kWalkFast:
      return "walk_fast";
    case SpanKind::kWalkSlow:
      return "walk_slow";
    case SpanKind::kComponent:
      return "component";
    case SpanKind::kGate:
      return "gate_wait";
    case SpanKind::kEpochRetry:
      return "epoch_retry";
    case SpanKind::kIo:
      return "block_io";
    case SpanKind::kInval:
      return "invalidate";
    case SpanKind::kWalkShortcut:
      return "walk_shortcut";
    case SpanKind::kCount:
      break;
  }
  return "unknown";
}

// One child span (instants carry duration 0). arg0/arg1 meaning per kind:
// kWalk*: (components, WalkOutcome); kComponent: (depth, 0); kIo:
// (block_no, is_write); kInval: (visited, evicted); others 0.
struct TraceSpan {
  SpanKind kind = SpanKind::kCount;
  uint64_t begin_ns = 0;
  uint64_t duration_ns = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

// One completed span as a snapshot reports it: a TraceSpan stamped with
// its request's identity and the shard whose ring it was recorded into.
struct SpanEvent {
  SpanKind kind = SpanKind::kCount;
  TraceOp op = TraceOp::kNop;  // the owning request's operation
  uint32_t shard = 0;          // recording ring (exported as Chrome tid)
  uint64_t trace_id = 0;
  uint64_t begin_ns = 0;
  uint64_t duration_ns = 0;    // 0 for instants
  uint64_t arg0 = 0;           // per-kind payload (see TraceSpan)
  uint64_t arg1 = 0;
};

// Deep-enough for an 8-component slowpath walk with per-component instants
// plus I/O; overflow increments spans_dropped instead of spilling.
inline constexpr size_t kMaxTraceSpans = 24;

// One in-flight (then completed) traced request. Trivially copyable: the
// flight recorder stores these by value.
struct RequestTrace {
  uint64_t trace_id = 0;
  TraceOp op = TraceOp::kNop;
  bool forced = false;       // trace_force-flagged, not sampled
  uint16_t shard = 0;        // serving server shard (0 on the direct path)
  uint64_t submit_ns = 0;    // 0 when not submitted through a ring
  uint64_t dequeue_ns = 0;   // 0 when not submitted through a ring
  uint64_t begin_ns = 0;     // execute-begin
  uint64_t complete_ns = 0;
  int32_t res = 0;           // CQE result (>=0 ok, <0 negated errno)
  uint32_t span_count = 0;
  uint32_t spans_dropped = 0;
  TraceSpan spans[kMaxTraceSpans];

  void AddSpan(SpanKind kind, uint64_t begin_ns_in, uint64_t duration_ns,
               uint64_t arg0 = 0, uint64_t arg1 = 0) {
    if (span_count >= kMaxTraceSpans) {
      ++spans_dropped;
      return;
    }
    spans[span_count++] = TraceSpan{kind, begin_ns_in, duration_ns, arg0,
                                    arg1};
  }
};

// Process-unique-enough trace id: a per-thread counter mixed (splitmix64
// finisher) with the counter's address, which distinguishes live threads
// without any shared atomic. Never returns 0 — 0 means "untraced".
inline uint64_t NextTraceId() {
  thread_local uint64_t counter = 0;
  uint64_t x = ++counter + reinterpret_cast<uintptr_t>(&counter);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x | 1;
}

// The executing thread's active trace, or null (the overwhelmingly common
// case). Owned by RequestTraceScope (observability.h); hook sites below
// only ever read it.
inline thread_local RequestTrace* g_active_trace = nullptr;

inline RequestTrace* ActiveTrace() { return g_active_trace; }

// Hook-site helper: append a span to the active trace, if any. One
// thread-local load when no trace is active.
inline void TraceAddSpan(SpanKind kind, uint64_t begin_ns,
                         uint64_t duration_ns, uint64_t arg0 = 0,
                         uint64_t arg1 = 0) {
  if (RequestTrace* t = ActiveTrace()) {
    t->AddSpan(kind, begin_ns, duration_ns, arg0, arg1);
  }
}

// Instant-event helper: reads the clock only when a trace is active, so an
// untraced op never pays for it.
inline void TraceInstant(SpanKind kind, uint64_t arg0 = 0,
                         uint64_t arg1 = 0) {
  if (RequestTrace* t = ActiveTrace()) {
    t->AddSpan(kind, NowNanos(), 0, arg0, arg1);
  }
}

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_REQUEST_TRACE_H_
