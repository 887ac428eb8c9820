// LMBench-style latency measurement helpers (§6.1).
#ifndef DIRCACHE_WORKLOAD_LATENCY_H_
#define DIRCACHE_WORKLOAD_LATENCY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/clock.h"

namespace dircache {

// Nearest-rank quantile num/den of the samples `v`: v[n*num/den] once
// sorted, clamped to the largest. `v` must not be empty.
template <typename T>
T Quantile(std::vector<T> v, size_t num, size_t den) {
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, v.size() * num / den)];
}

struct LatencyResult {
  double mean_ns = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double ci95_ns = 0;  // 95% confidence half-width of the mean
  uint64_t iterations = 0;
};

// Measure fn() latency: warm up, then sample batches until `min_total_ns`
// real time has elapsed (default 50ms). fn runs once per sample.
template <typename Fn>
LatencyResult MeasureLatency(Fn&& fn, uint64_t min_total_ns = 50'000'000,
                             uint64_t warmup = 64) {
  for (uint64_t i = 0; i < warmup; ++i) {
    fn();
  }
  std::vector<uint64_t> samples;
  samples.reserve(1 << 16);
  uint64_t start = NowNanos();
  // Batch 8 calls per timestamp pair to amortize clock cost, recording the
  // per-call average of each batch.
  while (NowNanos() - start < min_total_ns) {
    uint64_t t0 = NowNanos();
    for (int i = 0; i < 8; ++i) {
      fn();
    }
    uint64_t t1 = NowNanos();
    samples.push_back((t1 - t0) / 8);
  }
  LatencyResult r;
  if (samples.empty()) {
    return r;
  }
  r.iterations = samples.size() * 8;
  double sum = 0;
  for (uint64_t s : samples) {
    sum += static_cast<double>(s);
  }
  r.mean_ns = sum / static_cast<double>(samples.size());
  double var = 0;
  for (uint64_t s : samples) {
    double d = static_cast<double>(s) - r.mean_ns;
    var += d * d;
  }
  var /= static_cast<double>(samples.size());
  r.ci95_ns = 1.96 * std::sqrt(var / static_cast<double>(samples.size()));
  r.p50_ns = static_cast<double>(Quantile(samples, 1, 2));
  r.p99_ns = static_cast<double>(Quantile(std::move(samples), 99, 100));
  return r;
}

}  // namespace dircache

#endif  // DIRCACHE_WORKLOAD_LATENCY_H_
