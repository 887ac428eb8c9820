// Observability: per-kernel latency histograms, walk-outcome counters, and
// (since schema v2) continuous telemetry — background sampler, path heat
// sketches, coherence event journal (DESIGN.md §9–§10).
//
// One instance lives inside each Kernel. When disabled (the default) it
// owns no memory and every recording entry point is a single plain-bool
// branch — the warm-hit read path stays exactly as shared-write-free as the
// scalability work left it. When enabled, recording goes to sharded
// structures (histograms, outcome counters, heat sketches, and one SeqRing
// per shard for each of journal events and request spans) that
// follow the same thread->shard mapping as ShardedCounter, so concurrent
// recorders do not contend. The optional sampler thread only *reads* that
// sharded state.
//
// The read side is Kernel::Observe(), which asks this class for a
// versioned ObsSnapshot (see snapshot.h), and Kernel::Timeline() for the
// sampler's time series alone.
#ifndef DIRCACHE_OBS_OBSERVABILITY_H_
#define DIRCACHE_OBS_OBSERVABILITY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/event_journal.h"
#include "src/obs/heat_sketch.h"
#include "src/obs/histogram.h"
#include "src/obs/obs_config.h"
#include "src/obs/request_trace.h"
#include "src/obs/sampler.h"
#include "src/obs/seq_ring.h"
#include "src/obs/snapshot.h"
#include "src/obs/walk_trace.h"
#include "src/util/clock.h"
#include "src/util/hash.h"
#include "src/util/stats.h"

namespace dircache {

class Observability {
 public:
  Observability() = default;
  ~Observability();
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  // Applies the config. Enabling allocates the recording state (and starts
  // the sampler thread when cfg.sampler is set); disabling frees it and
  // joins any sampler. Not thread-safe against concurrent recorders —
  // configure before the kernel starts serving (Kernel does this in its
  // constructor).
  void Configure(const ObsConfig& cfg);

  bool enabled() const { return state_ != nullptr; }

  void RecordLatency(obs::ObsOp op, uint64_t ns) {
    if (!enabled()) {
      return;
    }
    state_->ops[static_cast<size_t>(op)].Record(ns);
  }

  // Records one finished walk: outcome counter, lookup-latency histogram,
  // and the path heat sketches (`path` is the observed request text; it is
  // hashed, never copied, on this path).
  void RecordWalk(obs::WalkOutcome outcome, uint64_t latency_ns,
                  std::string_view path) {
    if (!enabled()) {
      return;
    }
    RecordWalkSlow(outcome, latency_ns, path);
  }

  // Records one coherence journal span (instants pass duration 0) into the
  // calling thread's journal ring. arg2/arg3 carry the parallel-pass
  // payloads (workers, batches) on kInvalidateSubtree events.
  void RecordJournal(obs::JournalEvent type, uint64_t begin_ns,
                     uint64_t duration_ns, uint64_t arg0 = 0,
                     uint64_t arg1 = 0, uint64_t arg2 = 0,
                     uint64_t arg3 = 0) {
    if (!enabled()) {
      return;
    }
    const uint32_t shard = internal::StatsShardId();
    state_->journals[shard]->Push(
        {type, shard, begin_ns, duration_ns, arg0, arg1, arg2, arg3});
  }

  // --- request-scoped tracing (schema v3, DESIGN.md §13) -------------------
  // Sampling decision for one submitted request: the force flag always
  // wins; otherwise 1 in trace_sample_every on a per-thread counter (no
  // shared dice state).
  bool ShouldTrace(bool force) {
    if (!enabled()) {
      return false;
    }
    if (force) {
      return true;
    }
    const uint32_t every = state_->cfg.trace_sample_every;
    if (every == 0) {
      return false;
    }
    if (every == 1) {
      return true;
    }
    thread_local uint64_t dice = 0;
    return (dice++ % every) == 0;
  }

  // Folds one completed trace into the span rings, the tail-latency
  // attributor, and the flight recorder. Called by RequestTraceScope.
  void CompleteTrace(const obs::RequestTrace& trace);

  // Renders every retained flight-recorder entry (the last N fully traced
  // requests per shard) with a per-request attribution breakdown.
  std::string FlightRecorderReport() const;

  // Writes the flight-recorder report to stderr tagged with `reason` and
  // bumps the dump counter. Fired on a sampler watchdog transition and on
  // Kernel::Audit() failure.
  void DumpFlightRecorder(const char* reason);

  uint64_t flight_dumps() const {
    return enabled()
               ? state_->flight_dumps.load(std::memory_order_relaxed)
               : 0;
  }

  // Clears the sampler's sticky watchdog flags (Kernel::ClearWatchdogFlags;
  // they latch forever otherwise, so one transient spike would poison every
  // later Timeline() reading).
  void ClearWatchdogFlags();

  // Builds the versioned snapshot; `stats` (may be null) supplies the flat
  // counter section.
  obs::ObsSnapshot Snapshot(const CacheStats* stats) const;

  // The sampler's time series; `active == false` when disabled or the
  // sampler was never started.
  obs::ObsTimeline Timeline() const;

  void Reset();

 private:
  struct State {
    explicit State(const ObsConfig& cfg);

    ObsConfig cfg;
    std::array<obs::LatencyHistogram, obs::kObsOpCount> ops;
    std::array<ShardedCounter, obs::kWalkOutcomeCount> outcomes;
    // One ring per stats shard (same mapping as ShardedCounter) for each
    // record stream.
    std::vector<std::unique_ptr<obs::SeqRing<obs::JournalEventRecord>>>
        journals;
    std::vector<std::unique_ptr<obs::SeqRing<obs::SpanEvent>>> span_rings;

    // §3.3 hash family for heat-sketch keys. A fixed seed (not the kernel's
    // signer key): heat keys only need distribution, and a stable seed
    // makes sketch contents reproducible across runs.
    PathHashKey heat_key;
    PathHasher heat_hasher;
    obs::PathHeatSketch hot_paths;
    obs::PathHeatSketch slow_paths;
    obs::PathHeatSketch miss_dirs;

    // Tail-latency attribution cells, one per TraceOp. Relaxed atomics:
    // written only when a *traced* request completes (the sampling rate),
    // never on the untraced warm path.
    struct AttributionCell {
      std::atomic<uint64_t> traced{0};
      std::atomic<uint64_t> total_ns{0};
      std::atomic<uint64_t> queue_ns{0};
      std::atomic<uint64_t> dispatch_ns{0};
      std::atomic<uint64_t> walk_fast_ns{0};
      std::atomic<uint64_t> walk_slow_ns{0};
      std::atomic<uint64_t> io_ns{0};
      std::atomic<uint64_t> inval_ns{0};
      std::atomic<uint64_t> other_ns{0};
      std::atomic<uint64_t> gate_waits{0};
      std::atomic<uint64_t> epoch_retries{0};
      std::atomic<uint64_t> shortcut_resumes{0};
      std::atomic<uint64_t> spans_dropped{0};
    };
    std::array<AttributionCell, obs::kTraceOpCount> attribution;

    // Flight recorder: the last kFlightRecorderDepth fully traced requests
    // per stats shard. A per-shard mutex (touched at the sampling rate, not
    // per op) keeps the ~1 KiB RequestTrace copies torn-read-free without a
    // word-by-word atomic protocol.
    struct FlightRecorder {
      mutable std::mutex mu;
      // slot = seq % ring.size()
      std::array<obs::RequestTrace, obs::kFlightRecorderDepth> ring;
      uint64_t seq = 0;  // total traces recorded
    };
    std::vector<std::unique_ptr<FlightRecorder>> flight;

    std::atomic<uint64_t> flight_dumps{0};

    // Declared last: destroyed first, joining the thread while every
    // structure its snapshot callback reads is still alive.
    std::unique_ptr<obs::Sampler> sampler;
  };

  void RecordWalkSlow(obs::WalkOutcome outcome, uint64_t latency_ns,
                      std::string_view path);

  // ops + outcomes only — the cheap periodic sample the sampler diffs.
  static obs::ObsSnapshot CoreSample(const State& s);

  std::unique_ptr<State> state_;
};

// RAII coherence-journal span: captures the begin timestamp at
// construction, records the event at destruction. When obs is disabled the
// whole thing is one plain-bool branch and no clock read.
class JournalSpan {
 public:
  JournalSpan(Observability& obs, obs::JournalEvent type)
      : obs_(obs), type_(type), begin_ns_(obs.enabled() ? NowNanos() : 0) {}
  ~JournalSpan() {
    if (begin_ns_ != 0) {
      obs_.RecordJournal(type_, begin_ns_, NowNanos() - begin_ns_, arg0_,
                         arg1_);
    }
  }
  JournalSpan(const JournalSpan&) = delete;
  JournalSpan& operator=(const JournalSpan&) = delete;

  void SetArgs(uint64_t arg0, uint64_t arg1 = 0) {
    arg0_ = arg0;
    arg1_ = arg1;
  }

 private:
  Observability& obs_;
  const obs::JournalEvent type_;
  const uint64_t begin_ns_;
  uint64_t arg0_ = 0;
  uint64_t arg1_ = 0;
};

// RAII request-trace context (DESIGN.md §13): arms the thread-local active
// trace for one SQE execution and folds the finished tree into the obs
// subsystem on destruction. The trace storage is one reused thread-local
// slot — no allocation, no zeroing of untouched span slots beyond the
// header fields. If a trace is somehow already active on this thread the
// scope is a no-op and the outer trace keeps collecting.
class RequestTraceScope {
 public:
  RequestTraceScope(Observability& obs, obs::TraceOp op, uint64_t trace_id,
                    bool forced, uint16_t shard, uint64_t submit_ns,
                    uint64_t dequeue_ns)
      : obs_(obs), armed_(obs::g_active_trace == nullptr) {
    if (!armed_) {
      return;
    }
    obs::RequestTrace& t = Slot();
    t.trace_id = trace_id;
    t.op = op;
    t.forced = forced;
    t.shard = shard;
    t.submit_ns = submit_ns;
    t.dequeue_ns = dequeue_ns;
    t.begin_ns = NowNanos();
    t.complete_ns = 0;
    t.res = 0;
    t.span_count = 0;
    t.spans_dropped = 0;
    obs::g_active_trace = &t;
  }
  ~RequestTraceScope() {
    if (!armed_) {
      return;
    }
    obs::RequestTrace& t = *obs::g_active_trace;
    obs::g_active_trace = nullptr;
    t.complete_ns = NowNanos();
    t.res = res_;
    obs_.CompleteTrace(t);
  }
  RequestTraceScope(const RequestTraceScope&) = delete;
  RequestTraceScope& operator=(const RequestTraceScope&) = delete;

  // The CQE result, recorded into the kRequest span at fold time.
  void set_res(int32_t res) { res_ = res; }

 private:
  static obs::RequestTrace& Slot() {
    static thread_local obs::RequestTrace slot;
    return slot;
  }

  Observability& obs_;
  const bool armed_;
  int32_t res_ = 0;
};

}  // namespace dircache

#endif  // DIRCACHE_OBS_OBSERVABILITY_H_
