// ObsSnapshot: the versioned introspection surface (DESIGN.md §9).
//
// Kernel::Observe() returns one of these — a self-contained, immutable copy
// of everything the observability subsystem knows: per-operation latency
// histograms, the walk-outcome breakdown, and the flat cache counters that
// CacheStats::ToString() used to be the only window onto. It renders to
// human-readable text (ToText) and to a stable, versioned JSON object
// (ToJson) that the bench harness embeds verbatim in its BENCH_*.json
// artifacts; scripts/bench_smoke.sh validates the schema version on every
// run.
//
// Schema evolution contract: kObsSchemaVersion bumps whenever a field is
// renamed, removed, or changes meaning. Adding fields is backward
// compatible and does not bump the version.
#ifndef DIRCACHE_OBS_SNAPSHOT_H_
#define DIRCACHE_OBS_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/event_journal.h"
#include "src/obs/histogram.h"
#include "src/obs/request_trace.h"
#include "src/obs/walk_trace.h"

namespace dircache {
namespace obs {

// Bump on any breaking schema change (see contract above).
//
// v1 -> v2: the continuous-telemetry sections (`timeline`, `heat`,
// `journal`) were ADDED; every v1 field is unchanged in name, position, and
// meaning. The bump exists because v2 consumers need a way to distinguish
// "no timeline section because the producer predates it" from "no timeline
// section because the sampler is off" — a v1 document simply has none of
// the new keys. Readers of v1 documents parse v2 documents unmodified.
//
// v2 -> v3: the request-tracing sections (`spans`, `attribution`,
// `flight_dumps`) were ADDED after every v2 field, same contract as v1->v2:
// nothing renamed, removed, or re-meant. The bump distinguishes "no spans
// because the producer predates request tracing" from "no spans because
// tracing is off". Readers of v2 documents parse v3 documents unmodified.
//
// v3 -> v4: the `memory` section (cache memory accounting: dentry/DLHT/PCC
// bytes, elastic-resize state, per-tenant charges; DESIGN.md §15) was ADDED
// before `flight_dumps`, same contract: nothing renamed, removed, or
// re-meant. The bump distinguishes "no memory section because the producer
// predates the governor" from a zeroed section. Readers of v3 documents
// parse v4 documents unmodified.
//
// v4 -> v5: fields were REMOVED, and one changed meaning, so v4 readers
// must not assume v5 documents parse unmodified:
//  - the `trace` array (the per-walk trace ring's newest records) is gone;
//    walks stay visible as outcome counters, the lookup histogram, heat,
//    and, for traced requests, as walk_fast/walk_slow spans;
//  - `cm_est` (the Count-Min estimate) is gone from every heat entry;
//  - the `locked_walk` journal event is gone;
//  - a timeline sample's `slow_walks` now counts every walk that ran the
//    slowpath (walks - fast_hits), fastpath misses included; under v4 it
//    counted only the kSlow* outcomes, which a fastpath kernel's misses
//    never reach, so it read 0 there.
//
// v5 -> v6: a section was REMOVED: the `heat` section (the top-K path heat
// sketches `hot_paths`, `slow_paths` and `miss_dirs`) is gone; no bench,
// script or policy read it, and it cost every recorded walk a second path
// hash and a locked slot scan. Every other field is unchanged in name,
// position and meaning, so a v5 reader that skips `heat` parses v6.
inline constexpr int kObsSchemaVersion = 6;

// printf-style append to `out` (one bounded stack buffer per call: split
// wide rows across calls). Shared by the snapshot and report renderers.
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// Operations with a dedicated latency histogram. Keep in sync with
// ObsOpName(). kInvalidate is the write-side cost the paper's Figure 7
// worries about (chmod/rename invalidation storms).
enum class ObsOp : uint8_t {
  kLookup = 0,  // every walk (recorded by the walker)
  kOpen,
  kStat,
  kRename,
  kChmod,
  kReaddir,
  kInvalidate,  // subtree invalidation passes (dcache write side)
  // Server-frontend batch telemetry (DESIGN.md §12). These reuse the
  // histogram machinery with non-latency units where noted: kBatchDepth and
  // kBatchOccupancy record entry counts, kBatchDispatch records the
  // submit->dispatch queue wait in nanoseconds. Added fields, no schema
  // version bump (see the evolution contract above).
  kBatchDepth,      // SQEs executed per run-to-completion turn (count)
  kBatchOccupancy,  // SQ ring occupancy seen at drain time (count)
  kBatchDispatch,   // queue wait: SQE submit -> shard dispatch (ns)
  kCount,
};

inline constexpr size_t kObsOpCount = static_cast<size_t>(ObsOp::kCount);

inline const char* ObsOpName(ObsOp op) {
  switch (op) {
    case ObsOp::kLookup:
      return "lookup";
    case ObsOp::kOpen:
      return "open";
    case ObsOp::kStat:
      return "stat";
    case ObsOp::kRename:
      return "rename";
    case ObsOp::kChmod:
      return "chmod";
    case ObsOp::kReaddir:
      return "readdir";
    case ObsOp::kInvalidate:
      return "invalidate";
    case ObsOp::kBatchDepth:
      return "batch_depth";
    case ObsOp::kBatchOccupancy:
      return "batch_occupancy";
    case ObsOp::kBatchDispatch:
      return "batch_dispatch";
    case ObsOp::kCount:
      break;
  }
  return "unknown";
}

// One periodic sample the background sampler took: the deltas of one
// window, already reduced to rates and percentile estimates.
struct TimelineSample {
  uint64_t t_ns = 0;        // sample completion time (NowNanos clock)
  uint64_t window_ns = 0;   // covered window length
  uint64_t walks = 0;       // walks finished in the window
  uint64_t fast_hits = 0;   // fast_hit + fast_negative outcomes
  uint64_t slow_walks = 0;  // walks that ran the slowpath: walks - fast_hits
  uint64_t invalidations = 0;  // subtree invalidation passes
  uint64_t p50_ns = 0;      // lookup latency within the window
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;
  double hit_rate = 0.0;    // fast_hits / walks (0 when no walks)

  double InvalidationsPerSec() const {
    return window_ns == 0
               ? 0.0
               : static_cast<double>(invalidations) * 1e9 /
                     static_cast<double>(window_ns);
  }
};

// The sampler's read surface: the retained sample ring plus the sticky
// watchdog flags (schema v2 `timeline` section; Kernel::Timeline()).
struct ObsTimeline {
  bool active = false;             // a sampler thread is running
  uint64_t interval_ms = 0;
  uint64_t samples_taken = 0;      // total, including overwritten ones
  bool hit_rate_collapse = false;  // sticky: some window collapsed
  bool invalidation_spike = false; // sticky: some window spiked
  std::vector<TimelineSample> samples;  // oldest first, ring-bounded
};

// Per-op "where did the time go" totals over every completed traced
// request (schema v3 `attribution` section). All fields are nanosecond
// sums except the trailing counts. exec = complete - execute-begin;
// other_ns = exec minus every attributed child, clamped at zero — the
// dispatch-loop and syscall-decode overhead no layer claimed.
struct OpAttribution {
  uint64_t traced = 0;         // completed traced requests
  uint64_t total_ns = 0;       // submit (or execute-begin) -> complete
  uint64_t queue_ns = 0;       // submit -> shard dequeue
  uint64_t dispatch_ns = 0;    // dequeue -> execute-begin
  uint64_t walk_fast_ns = 0;
  uint64_t walk_slow_ns = 0;
  uint64_t io_ns = 0;          // simulated block-device time
  uint64_t inval_ns = 0;       // subtree invalidation passes
  uint64_t other_ns = 0;       // unattributed execute-side remainder
  uint64_t gate_waits = 0;     // fastpath coherence-gate bails
  uint64_t epoch_retries = 0;  // optimistic -> locked walk fallbacks
  uint64_t shortcut_resumes = 0;  // walks resumed from a cached ancestor
  uint64_t spans_dropped = 0;  // spans lost to the per-trace cap

  OpAttribution& operator+=(const OpAttribution& o) {
    traced += o.traced;
    total_ns += o.total_ns;
    queue_ns += o.queue_ns;
    dispatch_ns += o.dispatch_ns;
    walk_fast_ns += o.walk_fast_ns;
    walk_slow_ns += o.walk_slow_ns;
    io_ns += o.io_ns;
    inval_ns += o.inval_ns;
    other_ns += o.other_ns;
    gate_waits += o.gate_waits;
    epoch_retries += o.epoch_retries;
    shortcut_resumes += o.shortcut_resumes;
    spans_dropped += o.spans_dropped;
    return *this;
  }
};

// One tenant's dentry-cache charge (schema v4 `memory.tenants` rows). The
// governor's proportional shrinker reads the same counters; tenant 0 is the
// kernel itself (roots, pre-cred instantiation), kTenantOverflow aggregates
// every uid beyond the tracked-slot budget.
struct TenantMemory {
  uint32_t tenant = 0;
  uint64_t dentries = 0;
  uint64_t negatives = 0;
};

// Cache memory accounting (schema v4 `memory` section; DESIGN.md §15).
// Filled by Kernel::Observe() from the live structures — always present,
// even when obs recording is disabled, like the counter section.
struct MemoryAccounting {
  uint64_t budget_bytes = 0;    // Config::cache_memory_budget (0=unlimited)
  uint64_t total_bytes = 0;     // the governor's accounted total
  uint64_t dentry_count = 0;
  uint64_t dentry_bytes = 0;    // dentry_count * approx per-dentry cost
  uint64_t negative_dentries = 0;
  uint64_t dlht_bytes = 0;      // bucket arrays across all namespaces
  uint64_t dlht_buckets = 0;    // target geometry sum across namespaces
  uint64_t dlht_entries = 0;
  bool dlht_resize_in_flight = false;  // any namespace mid-migration
  uint64_t pcc_count = 0;       // live PCC tables across registered creds
  uint64_t pcc_bytes = 0;
  uint64_t pcc_entries = 0;     // occupied entries (racy scan)
  uint64_t pcc_capacity = 0;    // total entry slots
  std::vector<TenantMemory> tenants;
};

struct ObsSnapshot {
  int schema_version = kObsSchemaVersion;
  bool enabled = false;

  // Per-operation latency distributions, indexed by ObsOp.
  std::array<HistogramSummary, kObsOpCount> ops{};

  // Walk-outcome breakdown, indexed by WalkOutcome.
  std::array<uint64_t, kWalkOutcomeCount> outcomes{};

  // Flat cache counters (label, value), in CacheStats declaration order.
  std::vector<std::pair<std::string, uint64_t>> counters;

  // --- schema v2 additions (absent from v1 documents) ----------------------
  // Background-sampler time series + watchdogs (empty/inactive when the
  // sampler is off).
  ObsTimeline timeline;

  // Most recent coherence journal events, oldest first (at most
  // kJournalSnapshotLimit).
  std::vector<JournalEventRecord> journal;

  // --- schema v3 additions (absent from v1/v2 documents) -------------------
  // Most recent request-trace spans, oldest first (at most
  // kSpanSnapshotLimit). Spans sharing a trace_id form one request tree.
  std::vector<SpanEvent> spans;

  // Tail-latency attribution totals, indexed by TraceOp.
  std::array<OpAttribution, kTraceOpCount> attribution{};

  // --- schema v4 additions (absent from v1..v3 documents) ------------------
  // Cache memory accounting + elastic-resize state (DESIGN.md §15).
  MemoryAccounting memory;

  // Flight-recorder dumps fired so far (watchdog trips + audit failures).
  uint64_t flight_dumps = 0;

  uint64_t TotalWalks() const {
    uint64_t n = 0;
    for (uint64_t v : outcomes) {
      n += v;
    }
    return n;
  }

  const HistogramSummary& Op(ObsOp op) const {
    return ops[static_cast<size_t>(op)];
  }

  // Human-readable report (examples/shell `observe`, debugging).
  std::string ToText() const;

  // Stable JSON object (no trailing newline). Field order is fixed; every
  // number is decimal; floating-point fields are mean_ns, hit_rate, and the
  // timeline rates.
  std::string ToJson() const;

  // Chrome trace-event JSON (the chrome://tracing / Perfetto "JSON Array
  // Format"): an object whose `traceEvents` array holds one complete ("X")
  // event per journal span and per request-trace span (request trees nest
  // by ts containment on tid 100+shard; their walk_fast/walk_slow spans
  // carry category `walk`), ts/dur in microseconds, tid = recording shard.
  // Load via chrome://tracing or ui.perfetto.dev.
  std::string ToChromeTrace() const;
};

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_SNAPSHOT_H_
