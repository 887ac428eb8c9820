// Figure 8: stat/open latency of one shared path as threads are added.
//
// The design property under test is that the read path of a warm lookup is
// free of BOTH lock acquisitions and shared-cacheline writes: statistics go
// to per-thread sharded slots, and LRU and PCC recency are per-entry bits
// armed once. We count the remaining shared writes the machinery performs
// (`shared_writes`) next to lock acquisitions (`locks_taken`); both must be
// ~0 per warm op. NOTE: this host exposes a single CPU, so added threads
// time-slice rather than run in parallel — per-operation CPU time under
// oversubscription plus the two counters substitute for the paper's 12-core
// scaling curve (see DESIGN.md).
#include <atomic>
#include <cstdlib>
#include <chrono>
#include <ctime>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/common.h"

namespace dircache {
namespace bench {
namespace {

constexpr const char* kPath = "/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF";

int OpsPerThread() {
  if (const char* s = std::getenv("FIG8_OPS")) {
    int n = std::atoi(s);
    if (n > 0) {
      return n;
    }
  }
  if (const char* q = std::getenv("FIG8_QUICK"); q != nullptr && *q == '1') {
    return 4000;
  }
  return 40000;
}

std::vector<int> ThreadCounts() {
  if (const char* q = std::getenv("FIG8_QUICK"); q != nullptr && *q == '1') {
    return {1, 8};
  }
  return {1, 2, 4, 8, 12};
}

void Build(Task& t) {
  std::string p;
  for (const char* d : {"XXX", "YYY", "ZZZ", "AAA", "BBB", "CCC", "DDD"}) {
    p += "/";
    p += d;
    (void)t.Mkdir(p);
  }
  auto fd = t.Open(p + "/FFF", kOCreat | kOWrite);
  if (fd.ok()) {
    (void)t.Close(*fd);
  }
}

struct Point {
  double stat_ns;
  double open_ns;
  double locks_per_op;
  double shared_writes_per_op;
};

Point Measure(const CacheConfig& cfg, int threads) {
  Env env = MakeEnv(cfg);
  Build(env.T());
  // Warm the caches past their one-time writes: the first few hits park the
  // dentries on the LRU and arm the dentry and PCC second-chance bits. Only
  // then is the steady state measured.
  for (int i = 0; i < 4; ++i) {
    (void)env.T().Statx(kAtFdCwd, kPath, 0);
  }
  if (auto fd = env.T().Open(kPath, kORead); fd.ok()) {
    (void)env.T().Close(*fd);
  }

  const int ops_per_thread = OpsPerThread();
  env.kernel->stats().locks_taken.Reset();
  env.kernel->stats().shared_writes.Reset();

  auto run_phase = [&](bool do_open) -> double {
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    std::atomic<uint64_t> total_ns{0};
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([&, i] {
        TaskPtr task = env.task->Fork();
        while (!go.load(std::memory_order_acquire)) {
        }
        // Per-thread CPU time: on this single-CPU host, wall time per op
        // is dominated by time-slicing; CPU time isolates the actual
        // lookup cost, which is what the paper's multi-core axis shows.
        timespec t0{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
        for (int op = 0; op < ops_per_thread; ++op) {
          if (do_open) {
            auto fd = task->Open(kPath, kORead);
            if (fd.ok()) {
              (void)task->Close(*fd);
            }
          } else {
            (void)task->Statx(kAtFdCwd, kPath, 0);
          }
        }
        timespec t1{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
        total_ns.fetch_add(
            static_cast<uint64_t>(t1.tv_sec - t0.tv_sec) * 1'000'000'000ull +
            static_cast<uint64_t>(t1.tv_nsec - t0.tv_nsec));
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& w : workers) {
      w.join();
    }
    // Mean per-op latency across threads (CPU time per thread / ops).
    return static_cast<double>(total_ns.load()) /
           (static_cast<double>(threads) * ops_per_thread);
  };

  Point pt;
  pt.stat_ns = run_phase(false);
  pt.open_ns = run_phase(true);
  double total_ops = 2.0 * threads * ops_per_thread;
  pt.locks_per_op =
      static_cast<double>(env.kernel->stats().locks_taken.value()) /
      total_ops;
  pt.shared_writes_per_op =
      static_cast<double>(env.kernel->stats().shared_writes.value()) /
      total_ops;
  return pt;
}

// Instrumented rerun. The verdict above is measured with observability OFF
// so the shared-write-free property is judged on the undisturbed read path;
// this pass re-runs the same warm stat/open loop on the optimized kernel
// with the obs subsystem ON and returns its snapshot (per-op latency
// percentiles + walk-outcome breakdown) for the JSON artifact.
obs::ObsSnapshot ObservedRun(int ops) {
  Env env = MakeEnv(Optimized(), 1 << 17, 1 << 16, ObsConfig::Enabled());
  Build(env.T());
  for (int i = 0; i < 4; ++i) {
    (void)env.T().Statx(kAtFdCwd, kPath, 0);
  }
  for (int op = 0; op < ops; ++op) {
    (void)env.T().Statx(kAtFdCwd, kPath, 0);
    if (auto fd = env.T().Open(kPath, kORead); fd.ok()) {
      (void)env.T().Close(*fd);
    }
  }
  return env.kernel->Observe();
}

// Sampler overhead: the same warm single-thread stat loop with recording ON
// vs recording + the background sampler thread, min-of-5 each (min, not
// mean — the sampler's cost model predicts near-zero added latency, and the
// minimum filters scheduler noise on this time-sliced host). The <3% budget
// is asserted by scripts/bench_smoke.sh.
struct SamplerOverhead {
  double obs_ns = 0;      // warm stat, obs enabled, no sampler
  double sampler_ns = 0;  // warm stat, obs + sampler running
  double overhead_pct = 0;
  uint64_t samples_taken = 0;  // proves the sampler actually ran
};

SamplerOverhead MeasureSamplerOverhead(int ops) {
  auto run = [&](const ObsConfig& obs_cfg, uint64_t* samples) -> double {
    Env env = MakeEnv(Optimized(), 1 << 17, 1 << 16, obs_cfg);
    Build(env.T());
    for (int i = 0; i < 4; ++i) {
      (void)env.T().Statx(kAtFdCwd, kPath, 0);
    }
    double best_ns = 0;
    for (int rep = 0; rep < 5; ++rep) {
      timespec t0{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
      for (int op = 0; op < ops; ++op) {
        (void)env.T().Statx(kAtFdCwd, kPath, 0);
      }
      timespec t1{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
      double ns = static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e9 +
                  static_cast<double>(t1.tv_nsec - t0.tv_nsec);
      if (rep == 0 || ns < best_ns) {
        best_ns = ns;
      }
    }
    if (samples != nullptr) {
      // Quick runs can finish inside one sampling interval; give the
      // background thread a bounded grace period to prove it is alive
      // before reading the count (the overhead numbers above are already
      // settled — this only de-flakes the samples_taken > 0 assertion).
      for (int spin = 0;
           spin < 40 && env.kernel->Timeline().samples_taken == 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      *samples = env.kernel->Timeline().samples_taken;
    }
    return best_ns / ops;
  };
  SamplerOverhead r;
  r.obs_ns = run(ObsConfig::Enabled(), nullptr);
  ObsConfig with_sampler = ObsConfig::EnabledWithSampler();
  with_sampler.sample_interval_ms = 10;  // 10x the default pressure
  r.sampler_ns = run(with_sampler, &r.samples_taken);
  r.overhead_pct =
      r.obs_ns > 0 ? (r.sampler_ns / r.obs_ns - 1.0) * 100.0 : 0.0;
  return r;
}

void WriteJson(const std::vector<int>& threads, const std::vector<Point>& base,
               const std::vector<Point>& opt, int ops_per_thread,
               bool lock_free, bool shared_write_free, double ratio_8t,
               const obs::ObsSnapshot& snap,
               const SamplerOverhead& sampler) {
  std::ofstream out("BENCH_fig8.json");
  if (!out) {
    return;
  }
  auto point = [&](const Point& p) {
    out << "{\"stat_ns\": " << p.stat_ns << ", \"open_ns\": " << p.open_ns
        << ", \"locks_per_op\": " << p.locks_per_op
        << ", \"shared_writes_per_op\": " << p.shared_writes_per_op << "}";
  };
  out << "{\n  \"benchmark\": \"fig8_scalability\",\n"
      << "  \"ops_per_thread\": " << ops_per_thread << ",\n"
      << "  \"points\": [\n";
  for (size_t i = 0; i < threads.size(); ++i) {
    out << "    {\"threads\": " << threads[i] << ", \"base\": ";
    point(base[i]);
    out << ", \"opt\": ";
    point(opt[i]);
    out << "}" << (i + 1 < threads.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"obs\": " << snap.ToJson() << ",\n"
      << "  \"sampler\": {\"obs_stat_ns\": " << sampler.obs_ns
      << ", \"sampler_stat_ns\": " << sampler.sampler_ns
      << ", \"overhead_pct\": " << sampler.overhead_pct
      << ", \"samples_taken\": " << sampler.samples_taken << "},\n"
      << "  \"verdict\": {\"fastpath_lock_free\": "
      << (lock_free ? "true" : "false")
      << ", \"fastpath_shared_write_free\": "
      << (shared_write_free ? "true" : "false")
      << ", \"opt_stat_8t_over_1t\": " << ratio_8t << "}\n}\n";
}

}  // namespace
}  // namespace bench
}  // namespace dircache

int main() {
  using namespace dircache;
  using namespace dircache::bench;
  Banner("Figure 8",
         "stat/open latency vs thread count on one path (single-CPU host: "
         "threads time-slice)");
  const int ops_per_thread = OpsPerThread();
  const std::vector<int> thread_counts = ThreadCounts();
  std::printf("%8s | %10s %10s %9s %9s | %10s %10s %9s %9s\n", "threads",
              "stat-base", "open-base", "locks/op", "shwr/op", "stat-opt",
              "open-opt", "locks/op", "shwr/op");
  std::vector<Point> base_pts;
  std::vector<Point> opt_pts;
  for (int threads : thread_counts) {
    Point base = Measure(Unmodified(), threads);
    Point opt = Measure(Optimized(), threads);
    base_pts.push_back(base);
    opt_pts.push_back(opt);
    std::printf("%8d | %10.0f %10.0f %9.4f %9.4f | %10.0f %10.0f %9.4f "
                "%9.4f\n",
                threads, base.stat_ns, base.open_ns, base.locks_per_op,
                base.shared_writes_per_op, opt.stat_ns, opt.open_ns,
                opt.locks_per_op, opt.shared_writes_per_op);
  }

  // Verdict on the optimized kernel's warm hit path. The threshold forgives
  // a handful of one-time writes that leak past warmup (e.g. a thread's
  // first refresh after a fork) but fails any per-op write traffic.
  constexpr double kEps = 1e-3;
  bool lock_free = true;
  bool shared_write_free = true;
  for (const Point& p : opt_pts) {
    lock_free = lock_free && p.locks_per_op < kEps;
    shared_write_free = shared_write_free && p.shared_writes_per_op < kEps;
  }
  double ratio_8t = 0.0;
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    if (thread_counts[i] == 8 && opt_pts[0].stat_ns > 0) {
      ratio_8t = opt_pts[i].stat_ns / opt_pts[0].stat_ns;
    }
  }
  // Instrumented pass (single-threaded, obs ON) for the JSON artifact: the
  // per-op latency distribution and the walk-outcome breakdown.
  obs::ObsSnapshot snap = ObservedRun(ops_per_thread);
  std::printf("\nobserved (obs-enabled rerun, schema v%d):\n",
              snap.schema_version);
  for (obs::ObsOp op : {obs::ObsOp::kLookup, obs::ObsOp::kStat,
                        obs::ObsOp::kOpen}) {
    const obs::HistogramSummary& h = snap.Op(op);
    std::printf("  %-8s p50 %6llu ns  p95 %6llu ns  p99 %6llu ns  "
                "(n=%llu)\n",
                obs::ObsOpName(op),
                static_cast<unsigned long long>(h.P50()),
                static_cast<unsigned long long>(h.P95()),
                static_cast<unsigned long long>(h.P99()),
                static_cast<unsigned long long>(h.count));
  }
  std::printf("  walk outcomes:");
  for (size_t i = 0; i < obs::kWalkOutcomeCount; ++i) {
    if (snap.outcomes[i] != 0) {
      std::printf(" %s=%llu",
                  obs::WalkOutcomeName(static_cast<obs::WalkOutcome>(i)),
                  static_cast<unsigned long long>(snap.outcomes[i]));
    }
  }
  std::printf("\n");

  // Enabled-sampler cost: how much the background sampler thread adds to an
  // already-recording warm stat loop.
  SamplerOverhead sampler = MeasureSamplerOverhead(ops_per_thread);
  std::printf("  sampler overhead: obs %0.0f ns -> obs+sampler %0.0f ns "
              "(%+.2f%%, %llu samples taken)\n",
              sampler.obs_ns, sampler.sampler_ns, sampler.overhead_pct,
              static_cast<unsigned long long>(sampler.samples_taken));

  WriteJson(thread_counts, base_pts, opt_pts, ops_per_thread, lock_free,
            shared_write_free, ratio_8t, snap, sampler);

  std::printf(
      "\nThe design property: a warm read-side lookup takes no locks AND\n"
      "performs no shared-cacheline writes beyond the returned reference —\n"
      "stats are per-thread shards, the LRU and PCC reference bits are\n"
      "written only when not already set. Per-op CPU time therefore\n"
      "stays flat as threads are added, matching the paper's Figure 8 flat\n"
      "curves (in wall time, on 12 real cores).\n");
  std::printf("verdict: fastpath locks/op %s, shared-writes/op %s\n",
              lock_free ? "OK (~0)" : "FAIL (nonzero)",
              shared_write_free ? "OK (~0)" : "FAIL (nonzero)");
  return (lock_free && shared_write_free) ? 0 : 1;
}
