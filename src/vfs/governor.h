// CacheGovernor (DESIGN.md §15): the background policy loop that keeps the
// whole caching plane — dentries, negative dentries, the per-namespace
// DLHTs, and every credential's PCC — inside a byte budget while steering
// the elastic DLHT's geometry.
//
// Policy, per tick:
//  1. Account usage: dentry_count * approx-per-dentry cost, plus each
//     namespace DLHT's bucket arrays, plus each live PCC table.
//  2. Over budget: evict dentries, proportionally from the tenants whose
//     charge exceeds their fair share (DentryCache::ShrinkTenant), falling
//     back to the global LRU clock (Shrink) for the remainder. One noisy
//     tenant pays for its own storm; quiet tenants' hot sets survive.
//  3. DLHT steering: drive an in-flight migration forward one bounded step;
//     otherwise begin a 2x grow when the sampled chain-length p99 degrades
//     past kDlhtGrowChainP99 (and the budget has headroom for the new
//     table), or a 2x shrink when occupancy falls below kDlhtShrinkLoad.
//  4. Attribution: when more than half of a window of PCC lookups missed
//     (CacheStats pcc_hits/pcc_misses, the definition behind perfbench's
//     core.pcc_hit_ratio) while the DLHT's chains are healthy, journal
//     kPccPressure — the operator's cue that the per-cred memo, not the
//     shared table, is the bottleneck.
//
// The loop thread is optional (Config::governor + governor_interval_us);
// Tick() is public so tests and benches drive the same policy
// deterministically. Every structural action happens under the tree lock
// (shared for migration steps — they are safe against concurrent walkers
// and mutators but must not overlap an exclusive Audit; exclusive for
// eviction, which requires it).
#ifndef DIRCACHE_VFS_GOVERNOR_H_
#define DIRCACHE_VFS_GOVERNOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace dircache {

class Kernel;
struct CacheUsage;

class CacheGovernor {
 public:
  explicit CacheGovernor(Kernel* kernel) : kernel_(kernel) {}
  ~CacheGovernor() { Stop(); }
  CacheGovernor(const CacheGovernor&) = delete;
  CacheGovernor& operator=(const CacheGovernor&) = delete;

  // Spawns the background loop (no-op when governor_interval_us == 0 or
  // already running). Stop() joins it; the kernel calls Stop() before any
  // teardown so the thread never races namespace destruction.
  void Start();
  void Stop();

  // One policy pass; returns true when any action was taken (eviction,
  // resize begun, or migration advanced). Public for deterministic tests
  // and benches; safe to call concurrently with walkers and mutators.
  bool Tick();

  // The accounted picture behind decisions (Kernel::MeasureCacheUsage),
  // exposed for tests and benches.
  using Usage = CacheUsage;
  Usage MeasureUsage() const;

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  void Loop();
  // Budget enforcement (step 2). Returns dentries evicted.
  size_t EnforceBudget(const Usage& usage);
  // DLHT steering (steps 3-4). Returns true when a resize was begun or
  // advanced on any namespace.
  bool SteerDlht(const Usage& usage);
  // The PCC thrash verdict of the last full window of lookups (step 4).
  bool PccThrashing();

  Kernel* const kernel_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;

  // Edge-trigger for kPccPressure so a persistently thrashing PCC journals
  // once per episode, not once per tick.
  bool pcc_pressure_latched_ = false;
  // The PCC window: the pcc_hits/pcc_misses readings at its start, and
  // the verdict of the last window that reached kPccWindow lookups.
  uint64_t pcc_window_hits_ = 0;
  uint64_t pcc_window_misses_ = 0;
  bool pcc_thrashing_ = false;

  std::atomic<uint64_t> ticks_{0};
};

}  // namespace dircache

#endif  // DIRCACHE_VFS_GOVERNOR_H_
