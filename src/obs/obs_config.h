// Observability configuration: the run-time switch for the latency-histogram
// / walk-outcome subsystem (DESIGN.md §9) and the fixed sizes of its
// recording structures.
//
// The paper's argument is quantitative (hit ratios, per-component walk
// costs, scalability knees), so the repro needs tails and outcome
// breakdowns — but the measurement layer must never perturb the property it
// measures. ObsConfig::enabled (default OFF) gates recording behind a single
// plain-bool branch. Disabled kernels allocate no histogram or ring memory
// at all, and the warm-hit read path stays exactly as shared-write-free as
// with no observability in the tree.
#ifndef DIRCACHE_OBS_OBS_CONFIG_H_
#define DIRCACHE_OBS_OBS_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace dircache {

struct ObsConfig {
  // Master run-time switch. Off by default: observability is opt-in so the
  // headline benchmarks measure the undisturbed read path.
  bool enabled = false;

  // --- background sampler (timeline, schema v2) ---------------------------
  // Opt-in on top of `enabled`: a background thread takes periodic snapshot
  // deltas into a fixed ring, yielding rate/percentile time series and the
  // watchdog flags. The sampler only *reads* the sharded recording state,
  // so warm-hit lookups stay shared-write-free while it runs.
  bool sampler = false;
  uint64_t sample_interval_ms = 100;
  // Watchdog: flag an invalidation-rate spike above this many subtree
  // invalidation passes per second.
  double watchdog_max_invalidations_per_sec = 10000.0;

  // --- request-scoped tracing (schema v3) ---------------------------------
  // Sampling rate: trace 1 in N submitted requests. 0 traces only entries
  // carrying the force flag (Sqe::trace_force); 1 traces everything. The
  // dice are per-thread counters, so untraced requests never share state.
  uint32_t trace_sample_every = 0;

  static ObsConfig Enabled() {
    ObsConfig c;
    c.enabled = true;
    return c;
  }

  // Everything on, including the background sampler thread.
  static ObsConfig EnabledWithSampler() {
    ObsConfig c = Enabled();
    c.sampler = true;
    return c;
  }

  // Continuous-telemetry profile: sampler plus sampled request tracing, so
  // a watchdog trip always has flight-recorder evidence to dump.
  static ObsConfig EnabledWithTracing(uint32_t sample_every = 64) {
    ObsConfig c = EnabledWithSampler();
    c.trace_sample_every = sample_every;
    return c;
  }
};

namespace obs {

// Per-shard ring capacities (records; powers of two) and the number of
// newest records of each stream a snapshot reports.
inline constexpr size_t kJournalRingEvents = 256;
inline constexpr size_t kJournalSnapshotLimit = 64;
inline constexpr size_t kSpanRingEvents = 256;
inline constexpr size_t kSpanSnapshotLimit = 96;

// Samples the background sampler retains; the oldest is overwritten.
inline constexpr size_t kTimelineCapacity = 128;

// Flight recorder: the last N fully traced requests retained per shard,
// dumped when a watchdog flag trips or Kernel::Audit() fails.
inline constexpr size_t kFlightRecorderDepth = 4;

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_OBS_CONFIG_H_
