// Cache statistics counters.
//
// Every experiment in the paper reports derived statistics (hit rate,
// negative-dentry rate, fastpath vs slowpath mix); the caches bump these
// counters on their hot paths. A naive shared atomic would make every hit
// write a cache line every other core also writes — exactly the shared-state
// cost the paper's read path is designed to avoid (§6.3, Figure 8) — so the
// counters are sharded: Add() touches only a cache-line-aligned per-thread
// slot, and value() sums the slots on the (cold) read side.
#ifndef DIRCACHE_UTIL_STATS_H_
#define DIRCACHE_UTIL_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "src/util/align.h"

namespace dircache {

// Number of per-thread slots per counter (power of two). Threads are
// assigned round-robin shard ids at first use, so any group of up to
// kStatsShardCount concurrently-started threads maps to distinct slots;
// beyond that, slots are shared (correct, just contended).
inline constexpr size_t kStatsShardCount = 32;

namespace internal {

inline std::atomic<uint32_t> g_stats_thread_seq{0};

// Stable per-thread shard index. Assigned once per thread, process-wide
// (shard identity is about avoiding cross-thread line sharing, not about
// which kernel instance the counter belongs to).
inline uint32_t StatsShardId() {
  thread_local const uint32_t id =
      g_stats_thread_seq.fetch_add(1, std::memory_order_relaxed);
  return id & (kStatsShardCount - 1);
}

}  // namespace internal

// A single shared atomic counter. Fine for cold or device-rate paths
// (block I/O, RPC counts); lookup-rate counters use ShardedCounter below so
// the hit path never bounces a shared line.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// A statistics counter whose write side never touches a shared cache line
// (for threads mapped to distinct shards): Add() is a relaxed RMW on the
// calling thread's own 64-byte slot. Reads sum all slots and are therefore
// O(kStatsShardCount) — fine for reporting, not for hot-path reads.
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t n = 1) {
    slots_[internal::StatsShardId()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

  // Racing Reset/Add is benign: an Add concurrent with Reset lands either
  // before or after the zeroing of its slot, never corrupts the counter.
  void Reset() {
    for (Slot& s : slots_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(kCacheLineSize) Slot {
    std::atomic<uint64_t> v{0};
  };
  static_assert(sizeof(Slot) == kCacheLineSize,
                "each stats slot must own exactly one cache line");
  static_assert(alignof(Slot) == kCacheLineSize,
                "stats slots must be cache-line aligned");

  Slot slots_[kStatsShardCount];
};

// The single source of truth for the counter set. ResetAll(), ToString(),
// and ForEachCounter() are all generated from this list, so adding a
// counter here is the whole job — nothing can silently fall out of sync.
// The second column is the (stable) label used in ToString() output.
#define DIRCACHE_STAT_COUNTERS(X)                                           \
  /* Lookup outcomes (per path-based syscall resolution). */                \
  X(lookups, "lookups")               /* total path resolutions */          \
  X(fastpath_hits, "fast_hit")        /* DLHT + PCC hit, no walk */         \
  X(fastpath_misses, "fast_miss")     /* fastpath fell to slowpath */       \
  X(slowpath_walks, "slow")           /* component-at-a-time walks */       \
  X(slowpath_retries, "slow_retry")   /* optimistic walk retried locked */  \
  X(dcache_hits, "dc_hit")            /* component found in primary hash */ \
  X(dcache_misses, "dc_miss")         /* component missed; FS consulted */  \
  X(negative_hits, "neg")             /* resolved from a negative dentry */ \
  X(dir_complete_hits, "dir_complete") /* miss elided by DIR_COMPLETE */    \
  X(readdir_cached, "readdir_cached") /* readdir served from the dcache */  \
  X(readdir_uncached, "readdir_fs")   /* readdir went to the FS */          \
  /* PCC / DLHT behaviour. */                                               \
  X(pcc_hits, "pcc_hit")                                                    \
  X(pcc_misses, "pcc_miss")                                                 \
  X(pcc_stale, "pcc_stale")           /* seq mismatched */                  \
  X(dlht_hits, "dlht_hit")                                                  \
  X(dlht_misses, "dlht_miss")                                               \
  X(dlht_collisions, "dlht_coll")     /* chain entries skipped */           \
  /* Shortcut miss fallback (DESIGN.md §14). */                             \
  X(shortcut_probes, "sc_probe")      /* prefix-signature DLHT probes */    \
  X(shortcut_resumes, "sc_resume")    /* walks resumed from an ancestor */  \
  X(shortcut_restarts, "sc_restart")  /* resumes invalidated; walked again */\
  X(shortcut_skipped, "sc_skipped")   /* components the resumes skipped */  \
  X(slow_components, "slow_comps")    /* components walked by slowpaths */  \
  /* Invalidation work. */                                                  \
  X(invalidation_walks, "inval_walks")                                      \
  X(invalidated_dentries, "inval_dentries")                                 \
  /* Elastic DLHT + memory governor (DESIGN.md §15). */                     \
  X(dlht_resizes, "dlht_resizes")     /* resize cycles started */           \
  X(dlht_buckets_migrated, "dlht_migrated") /* buckets moved by steps */    \
  X(governor_shrinks, "gov_shrinks")  /* budget-pressure shrink actions */  \
  /* Synchronization behaviour (for the scalability experiment). */         \
  X(locks_taken, "locks")             /* lock acquisitions on lookups */    \
  X(shared_writes, "shared_writes")   /* see below */

// `shared_writes` counts writes to *shared* mutable state performed by the
// lookup machinery itself: lock acquisitions, LRU list edits, per-dentry
// and per-PCC-entry reference-bit arming. It deliberately excludes the
// reference count of the handle a successful resolution returns to the
// caller (taking that reference is the caller's request, not cache
// bookkeeping). A warm hit path reports 0 here — the property Figure 8's
// flat curve depends on.

// Directory-cache statistics, one instance per simulated kernel.
struct CacheStats {
#define DIRCACHE_DECLARE_COUNTER(field, label) ShardedCounter field;
  DIRCACHE_STAT_COUNTERS(DIRCACHE_DECLARE_COUNTER)
#undef DIRCACHE_DECLARE_COUNTER

  // Invoke fn(label, counter) for every counter, in declaration order.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) {
#define DIRCACHE_VISIT_COUNTER(field, label) fn(label, field);
    DIRCACHE_STAT_COUNTERS(DIRCACHE_VISIT_COUNTER)
#undef DIRCACHE_VISIT_COUNTER
  }

  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
#define DIRCACHE_VISIT_COUNTER(field, label) fn(label, field);
    DIRCACHE_STAT_COUNTERS(DIRCACHE_VISIT_COUNTER)
#undef DIRCACHE_VISIT_COUNTER
  }

  void ResetAll() {
    ForEachCounter(
        [](const char*, ShardedCounter& c) { c.Reset(); });
  }

  double HitRate() const {
    uint64_t h = dcache_hits.value();
    uint64_t m = dcache_misses.value();
    return (h + m) == 0 ? 1.0
                        : static_cast<double>(h) / static_cast<double>(h + m);
  }

  std::string ToString() const;
};

}  // namespace dircache

#endif  // DIRCACHE_UTIL_STATS_H_
