// Background telemetry sampler (DESIGN.md §10): a thread that reduces
// periodic snapshot deltas into the timeline ring.
//
// Production telemetry wants rates and windows, not lifetime totals: "the
// hit rate collapsed at 14:02" is invisible in a counter that has been
// accumulating since boot. The sampler wakes every `sample_interval_ms`,
// takes a core observability snapshot (a pure read of the sharded recording
// state — it performs no shared writes the warm hit path could feel),
// subtracts the previous one (HistogramSummary::Since clamps, so a
// concurrent Reset() yields an empty window instead of garbage), and stores
// one reduced TimelineSample in a fixed ring. Two watchdogs latch sticky
// flags: a fastpath hit-rate collapse and an invalidation-rate spike, the
// two regressions the paper's design is most exposed to (§3.2's coherence
// storms, §6.3's PCC thrash).
//
// Threading: the ring and flags are guarded by a mutex touched only by the
// sampler thread and (rare) Timeline() readers. The thread is joined by the
// destructor, which the owning Observability state runs before any of the
// structures the snapshot function reads are torn down.
#ifndef DIRCACHE_OBS_SAMPLER_H_
#define DIRCACHE_OBS_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/obs_config.h"
#include "src/obs/snapshot.h"

namespace dircache {
namespace obs {

class Sampler {
 public:
  // `snapshot_fn` must return a core snapshot (ops + outcomes filled in)
  // and stay callable until the Sampler is destroyed.
  using SnapshotFn = std::function<ObsSnapshot()>;
  // Fired (off-lock, from the sampler thread) when a watchdog flag goes
  // false -> true; the argument names the flag. The observability layer
  // uses this to dump the flight recorder exactly once per trip.
  using WatchdogFn = std::function<void(const char*)>;

  Sampler(const ObsConfig& cfg, SnapshotFn snapshot_fn,
          WatchdogFn on_watchdog = nullptr);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Idempotent; joins the thread. Called by the destructor.
  void Stop();

  // The retained time series plus watchdog state, oldest sample first.
  ObsTimeline Timeline() const;

  // Resets the sticky watchdog flags so one transient spike does not poison
  // every later Timeline() reading. A later trip latches (and fires the
  // callback) again.
  void ClearWatchdogFlags();

 private:
  void Loop();

  // Reduce one window [prev, cur] to a sample.
  TimelineSample Reduce(const ObsSnapshot& prev, const ObsSnapshot& cur,
                        uint64_t t_prev, uint64_t t_now) const;

  const uint64_t interval_ms_;
  const double max_inval_per_sec_;
  const SnapshotFn snapshot_fn_;
  const WatchdogFn on_watchdog_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<TimelineSample> ring_;  // ring_next_ is the oldest slot
  size_t ring_next_ = 0;
  uint64_t samples_taken_ = 0;
  bool hit_rate_collapse_ = false;
  bool invalidation_spike_ = false;

  std::thread thread_;  // last member: joined before the state above dies
};

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_SAMPLER_H_
