// Feature flags for the directory cache.
//
// Every optimization from the paper toggles independently so experiments can
// attribute gains (and reproduce "unmodified Linux" by disabling them all).
// LockingMode additionally stages the baseline's synchronization regime to
// model the kernel-era progression in the paper's Figure 2.
#ifndef DIRCACHE_CORE_CONFIG_H_
#define DIRCACHE_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace dircache {

// Synchronization regime of the baseline (slowpath) walk.
enum class LockingMode {
  // One big lock around every lookup — models the pre-scalability era
  // (~2.6.x) for the Figure 2 progression.
  kGlobalLock,
  // Fine-grained: shared tree lock + per-component reference counting —
  // models the pre-RCU-walk era (~3.0).
  kFineGrained,
  // Optimistic lock-free walk with seqcount validation and a locked
  // fallback — models Linux 3.14 (the paper's baseline).
  kOptimistic,
};

// How ".." is treated on the fastpath (§4.2 / §6.1).
enum class DotDotMode {
  // POSIX/Linux semantics: each ".." costs an extra fastpath permission
  // lookup on the directory being exited.
  kPosix,
  // Plan 9 lexical semantics: ".." is resolved by textual truncation before
  // hashing, keeping the lookup a single probe.
  kLexical,
};

struct CacheConfig {
  // --- Baseline knobs --------------------------------------------------
  LockingMode locking = LockingMode::kOptimistic;

  // --- §3: fastpath ----------------------------------------------------
  bool fastpath = false;         // DLHT + PCC direct lookup
  size_t dlht_buckets = 1 << 16; // per-namespace direct lookup hash table
  size_t pcc_bytes = 64 * 1024;  // per-credential prefix check cache
  DotDotMode dotdot = DotDotMode::kPosix;
  // Miss fallback: on a DLHT miss, probe signatures of successively shorter
  // path prefixes and resume the slowpath from the deepest cached ancestor
  // instead of the walk base (DESIGN.md §14). Costs nothing until a final
  // probe actually misses.
  bool shortcut = false;
  // §3.3 hardening (described but not implemented in the paper's
  // prototype): root-credential lookups skip signature-based acceleration,
  // so a brute-forced signature collision can never steer a privileged
  // process (e.g. a setuid helper fed an attacker path) to the wrong file.
  bool fastpath_for_privileged = true;

  // --- §3.2 write side: subtree invalidation engine ----------------------
  // Subtree size (dentries visited) at which an invalidation pass spills
  // from the serial zero-allocation DFS onto the worker pool. Passes below
  // the threshold never touch the pool (or the heap).
  size_t inval_parallel_threshold = 1024;
  // Worker-pool size cap for parallel passes. 0 disables parallelism
  // entirely (every pass runs serially on the mutating thread).
  size_t inval_max_workers = 8;

  // --- §5.1: directory completeness -------------------------------------
  bool dir_completeness = false;

  // --- §5.2: aggressive negative caching ---------------------------------
  bool negative_on_unlink = false;   // keep negatives after unlink/rename
  bool negative_on_pseudo_fs = false;  // negatives in proc-like file systems
  bool deep_negative = false;          // negative children under negatives

  // --- DESIGN.md §15: elastic DLHT + memory-budget governor ---------------
  // Byte budget the CacheGovernor keeps the cache complex under (DLHT
  // tables + dentries + negatives + PCC memos). 0 = unlimited (the
  // governor never shrinks on memory pressure).
  size_t cache_memory_budget = 0;
  // Run the background governor thread. Off by default: policy actions are
  // deliberately not part of the paper-equivalence configurations, and
  // tests/benches that want determinism drive CacheGovernor::Tick() by
  // hand instead.
  bool governor = false;
  uint64_t governor_interval_us = 10 * 1000;
  // Smallest table an online shrink may leave (a power of two).
  size_t dlht_min_buckets = 1 << 6;
  // Old buckets migrated per governor tick while a resize is in flight.
  size_t dlht_resize_step = 512;

  // A fully optimized configuration (every paper feature on).
  static CacheConfig Optimized() {
    CacheConfig c;
    c.fastpath = true;
    c.shortcut = true;
    c.dir_completeness = true;
    c.negative_on_unlink = true;
    c.negative_on_pseudo_fs = true;
    c.deep_negative = true;
    return c;
  }

  // The unmodified-Linux-3.14 baseline.
  static CacheConfig Baseline() { return CacheConfig{}; }
};

}  // namespace dircache

#endif  // DIRCACHE_CORE_CONFIG_H_
