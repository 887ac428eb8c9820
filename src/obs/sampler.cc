#include "src/obs/sampler.h"

#include <chrono>
#include <utility>

#include "src/util/clock.h"

namespace dircache {
namespace obs {

namespace {

// Watchdog: flag a fastpath hit-rate collapse when a window with at least
// kWatchdogMinWalks walks hits below kWatchdogMinHitRate.
constexpr double kWatchdogMinHitRate = 0.10;
constexpr uint64_t kWatchdogMinWalks = 128;

uint64_t DeltaClamped(uint64_t cur, uint64_t prev) {
  return cur >= prev ? cur - prev : 0;
}

}  // namespace

Sampler::Sampler(const ObsConfig& cfg, SnapshotFn snapshot_fn,
                 WatchdogFn on_watchdog)
    : interval_ms_(cfg.sample_interval_ms == 0 ? 1 : cfg.sample_interval_ms),
      max_inval_per_sec_(cfg.watchdog_max_invalidations_per_sec),
      snapshot_fn_(std::move(snapshot_fn)),
      on_watchdog_(std::move(on_watchdog)) {
  ring_.reserve(kTimelineCapacity);
  thread_ = std::thread([this] { Loop(); });
}

Sampler::~Sampler() { Stop(); }

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

ObsTimeline Sampler::Timeline() const {
  std::lock_guard<std::mutex> lk(mu_);
  ObsTimeline t;
  t.active = !stop_;
  t.interval_ms = interval_ms_;
  t.samples_taken = samples_taken_;
  t.hit_rate_collapse = hit_rate_collapse_;
  t.invalidation_spike = invalidation_spike_;
  t.samples.reserve(ring_.size());
  // ring_next_ is the oldest slot once the ring has wrapped.
  if (ring_.size() == kTimelineCapacity) {
    for (size_t i = 0; i < kTimelineCapacity; ++i) {
      t.samples.push_back(ring_[(ring_next_ + i) % kTimelineCapacity]);
    }
  } else {
    t.samples = ring_;
  }
  return t;
}

TimelineSample Sampler::Reduce(const ObsSnapshot& prev, const ObsSnapshot& cur,
                               uint64_t t_prev, uint64_t t_now) const {
  TimelineSample s;
  s.t_ns = t_now;
  s.window_ns = t_now >= t_prev ? t_now - t_prev : 0;
  for (size_t o = 0; o < kWalkOutcomeCount; ++o) {
    uint64_t d = DeltaClamped(cur.outcomes[o], prev.outcomes[o]);
    s.walks += d;
    if (o == static_cast<size_t>(WalkOutcome::kFastHit) ||
        o == static_cast<size_t>(WalkOutcome::kFastNegative)) {
      s.fast_hits += d;
    }
  }
  // A fastpath miss is classified by its miss reason, never by a kSlow*
  // outcome, yet it ran the slowpath too: every walk that did not end on
  // the fastpath counts.
  s.slow_walks = s.walks - s.fast_hits;
  s.invalidations = DeltaClamped(cur.Op(ObsOp::kInvalidate).count,
                                 prev.Op(ObsOp::kInvalidate).count);
  HistogramSummary lookups =
      cur.Op(ObsOp::kLookup).Since(prev.Op(ObsOp::kLookup));
  s.p50_ns = lookups.P50();
  s.p95_ns = lookups.P95();
  s.p99_ns = lookups.P99();
  s.hit_rate = s.walks == 0 ? 0.0
                            : static_cast<double>(s.fast_hits) /
                                  static_cast<double>(s.walks);
  return s;
}

void Sampler::Loop() {
  ObsSnapshot prev = snapshot_fn_();
  uint64_t t_prev = NowNanos();
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(interval_ms_),
                 [this] { return stop_; });
    if (stop_) {
      break;
    }
    lk.unlock();
    ObsSnapshot cur = snapshot_fn_();
    uint64_t t_now = NowNanos();
    TimelineSample sample = Reduce(prev, cur, t_prev, t_now);
    prev = std::move(cur);
    t_prev = t_now;
    lk.lock();
    if (ring_.size() < kTimelineCapacity) {
      ring_.push_back(sample);
    } else {
      ring_[ring_next_] = sample;
      ring_next_ = (ring_next_ + 1) % kTimelineCapacity;
    }
    ++samples_taken_;
    // Fire the watchdog callback only on the false -> true transition, and
    // off-lock: the callee (the flight-recorder dump) takes its own locks
    // and renders a report.
    const char* fired = nullptr;
    if (sample.walks >= kWatchdogMinWalks &&
        sample.hit_rate < kWatchdogMinHitRate) {
      if (!hit_rate_collapse_) {
        fired = "hit_rate_collapse";
      }
      hit_rate_collapse_ = true;
    }
    if (sample.InvalidationsPerSec() > max_inval_per_sec_) {
      if (!invalidation_spike_) {
        fired = fired == nullptr ? "invalidation_spike" : fired;
      }
      invalidation_spike_ = true;
    }
    if (fired != nullptr && on_watchdog_) {
      lk.unlock();
      on_watchdog_(fired);
      lk.lock();
    }
  }
}

void Sampler::ClearWatchdogFlags() {
  std::lock_guard<std::mutex> lk(mu_);
  hit_rate_collapse_ = false;
  invalidation_spike_ = false;
}

}  // namespace obs
}  // namespace dircache
