// Direct Lookup Hash Table (DLHT), §3.1 + elastic resize (DESIGN.md §15).
//
// A per-mount-namespace hash table mapping full-canonical-path signatures to
// dentries. Lazily populated from slowpath results; entries are removed for
// coherence with directory-tree mutations (§3.2) and on eviction. A dentry
// is on at most one DLHT under one signature at a time, which keeps mount
// aliases and namespaces coherent (§4.3).
//
// Readers probe buckets lock-free (epoch-protected); writers serialize on
// per-bucket spinlocks. Insert and RemoveFromCurrent calls for a given
// dentry must be serialized by its owner (the VFS holds the dentry lock),
// which is what makes `on_dlht` safe to read there.
//
// The table geometry is NOT fixed at boot (the paper pins 16 index bits;
// §3.3): the bucket array can be doubled or halved online. Internally the
// table is reached through an atomically published View:
//
//   View { from, to, cursor }   // from == to when no resize is in flight
//
// A resize migrates old buckets [0, cursor) to the new table in bounded
// MigrateStep() increments under the existing per-bucket locks; the cursor
// only grows. Readers take NO locks and perform NO stores: a probe during a
// split checks at most two candidate buckets — the old home (if not yet
// migrated) and the new home. A reader racing the migration of its very
// bucket can false-miss, which is safe: the DLHT is a validated hint cache
// and a miss falls back to the slowpath. Every writer takes its bucket
// through one validated-lock step (lock the home bucket, re-check the view
// and cursor under the lock, retry on change); holding old bucket b's lock
// with cursor <= b guarantees b cannot migrate concurrently, because the
// migrator needs that same lock. Retired views/tables are reclaimed through
// the epoch domain, so anyone dereferencing them must be inside an epoch
// read guard.
#ifndef DIRCACHE_CORE_DLHT_H_
#define DIRCACHE_CORE_DLHT_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/core/fast_dentry.h"
#include "src/util/align.h"
#include "src/util/epoch.h"
#include "src/util/hash.h"
#include "src/util/spinlock.h"
#include "src/util/stats.h"

namespace dircache {

class Dlht {
 public:
  // `buckets` must be a power of two (paper default: 2^16).
  explicit Dlht(size_t buckets);
  ~Dlht();
  Dlht(const Dlht&) = delete;
  Dlht& operator=(const Dlht&) = delete;

  // Lock-free probe. The caller must be inside an epoch read guard (which
  // also protects the published view/table against resize reclamation) and
  // must re-validate the returned dentry (seq checks) before trusting it.
  // Counts skipped chain entries into `stats` for the collision statistic.
  FastDentry* Lookup(const Signature& sig, CacheStats* stats) const;

  // Ancestor probe for the shortcut miss fallback (DESIGN.md §14): the same
  // chain walk as Lookup, but counted into shortcut_probes (not
  // dlht_hits/dlht_misses) so the longest-prefix search neither inflates
  // the hit rate nor shows up as extra misses — one lookup, one taxonomy
  // row, however many prefixes were probed on the way.
  FastDentry* ProbePrefix(const Signature& sig, CacheStats* stats) const;

  // Publish `fd` under fd->signature. If `fd` is currently on another table
  // (or on this one under an old signature), the caller must Remove it
  // first. Caller holds the owning dentry's lock.
  void Insert(FastDentry* fd);

  // Remove `fd` from whatever table holds it (no-op when unhashed, in which
  // case false is returned). Caller holds the owning dentry's lock. Static
  // because an invalidation may need to evict a dentry from a *different*
  // namespace's table (§4.3). Revalidates `on_dlht` under the bucket lock:
  // a concurrent RemoveBatch flush may have unhashed the entry first.
  static bool RemoveFromCurrent(FastDentry* fd);

  // Batched eviction for subtree invalidation (§3.2): remove the subset of
  // `fds[0..n)` that was batched under bucket key `bucket_key` and is still
  // present in that key's home chain, clearing their `on_dlht`; it costs ONE
  // bucket-lock acquisition (the key's home lock) in every view, during a
  // resize too. Entries that moved (re-hashed under a new signature) or were
  // already unhashed since they were batched are skipped — membership is
  // verified by walking the locked chain, never trusted from the caller.
  // Returns the count removed. Unlike Insert/RemoveFromCurrent the caller
  // does NOT hold the owning dentries' locks; that is the point of
  // deferring the flush.
  size_t RemoveBatch(size_t bucket_key, FastDentry* const* fds, size_t n);

  // Grouping key for batched removals: the signature's full bucket hash,
  // deliberately NOT masked to a bucket index. The mask is applied against
  // whatever view is published at flush time, so a batch grouped before a
  // resize still flushes into the right bucket after it.
  static size_t BucketKeyFor(const Signature& sig) {
    return static_cast<size_t>(sig.bucket);
  }

  // --- elastic resize (DESIGN.md §15) --------------------------------------

  // Start doubling (new_buckets == 2*current) or halving (current/2) the
  // bucket array. Publishes the in-flight view; no buckets move until
  // MigrateStep. Returns false (and does nothing) if a resize is already in
  // flight or new_buckets is not exactly one doubling/halving away. Bumps
  // stats->dlht_resizes on success.
  bool BeginResize(size_t new_buckets, CacheStats* stats);

  // Migrate up to `max_buckets` old buckets into the new table, advancing
  // the split cursor. When the last bucket moves, publishes the new stable
  // view and retires the old view+table through the epoch domain. Safe to
  // call concurrently (steps serialize on an internal lock) and when no
  // resize is in flight (returns 0). Bumps stats->dlht_buckets_migrated.
  size_t MigrateStep(size_t max_buckets, CacheStats* stats);

  bool resize_in_flight() const;

  // Current target geometry (the `to` table during a resize).
  size_t bucket_count() const;

  // O(1) approximate entry count, maintained by the writer paths (the read
  // path performs no stores, so this is exact whenever writers quiesce).
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  // Bytes held by bucket arrays (both tables while a resize is in flight).
  size_t memory_bytes() const;

  // Governor signal: lock-free sample of up to `samples` chains of the
  // target table, evenly strided. Lengths are approximate under concurrent
  // mutation; that is fine for a policy trigger.
  struct ChainSample {
    size_t sampled = 0;  // buckets actually visited
    size_t max_len = 0;
    size_t p99_len = 0;
  };
  ChainSample SampleChains(size_t samples) const;

  // Exact number of entries; walks every chain of the published view (old
  // unmigrated buckets plus the whole new table). Writers must quiesce for
  // the count to be exact (Kernel::Audit holds the tree lock exclusive).
  size_t SizeSlow() const;

  // Audit iteration: invoke `fn(FastDentry*)` for every entry, one bucket
  // at a time under that bucket's lock, tolerating an in-flight split: old
  // buckets already behind the cursor are skipped (their entries are
  // enumerated from the new table), and the cursor is re-checked under each
  // old bucket's lock so a bucket cannot migrate mid-enumeration. Entries
  // may be inserted or removed between buckets; callers wanting an exact
  // view must quiesce writers first (Kernel::Audit holds the tree lock
  // exclusive).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) {
    EpochDomain::ReadGuard epoch(EpochDomain::Global());
    View* v = view_.load(std::memory_order_acquire);
    auto walk = [&fn](const Bucket& bucket) {
      for (HNode* n = bucket.chain.First(); n != nullptr;
           n = n->next.load(std::memory_order_acquire)) {
        fn(FromHNode<FastDentry, &FastDentry::dlht_node>(n));
      }
    };
    if (!v->stable()) {
      std::vector<Bucket>& old_buckets = v->from->buckets;
      for (size_t b = 0; b < old_buckets.size(); ++b) {
        SpinGuard guard(old_buckets[b].lock);
        // A migrated bucket's entries are enumerated from the new table.
        if (v->cursor.load(std::memory_order_acquire) <= b) {
          walk(old_buckets[b]);
        }
      }
    }
    for (Bucket& bucket : v->to->buckets) {
      SpinGuard guard(bucket.lock);
      walk(bucket);
    }
  }

 private:
  // One cache line per bucket, same rationale as the primary hash table:
  // insert/remove writers on bucket i must not invalidate the line a
  // lock-free fastpath probe of bucket i±1 is reading.
  struct alignas(kCacheLineSize) Bucket {
    SpinLock lock;
    HListHead chain;
  };
  static_assert(sizeof(Bucket) == kCacheLineSize &&
                    alignof(Bucket) == kCacheLineSize,
                "DLHT buckets must each own exactly one cache line");

  // An immutable bucket array. Heap-allocated so old generations can be
  // epoch-retired while readers drain.
  struct Table {
    explicit Table(size_t n) : buckets(n), mask(n - 1) {}
    std::vector<Bucket> buckets;
    size_t mask;
  };

  // The published probe state. `from == to` means stable (no resize);
  // otherwise old buckets [0, cursor) have been migrated into `to`.
  struct View {
    Table* from;
    Table* to;
    std::atomic<size_t> cursor{0};
    bool stable() const { return from == to; }
  };

  // The writers' one locking step: lock the home bucket of `bucket_key`
  // under the published view (the old bucket until the cursor passes it,
  // then the new one), re-check the view and the cursor under that lock,
  // retry on a change, and return `work(home)` with the lock still held.
  // Inside an epoch read guard, so the view and its tables stay live.
  template <typename Work>
  auto WithHomeLocked(size_t bucket_key, Work&& work);

  // Splice `fd` out of `home`, whose lock the caller holds.
  void Unhash(Bucket& home, FastDentry* fd);

  // The read path's probe body, shared by Lookup and ProbePrefix. Counts
  // skipped chain entries into dlht_collisions; each caller counts its own
  // probe or hit.
  FastDentry* Probe(const Signature& sig, CacheStats* stats) const;

  std::atomic<View*> view_;
  std::atomic<size_t> size_{0};
  // Serializes the control plane (BeginResize/MigrateStep); never taken on
  // the read path.
  SpinLock resize_mu_;
};

}  // namespace dircache

#endif  // DIRCACHE_CORE_DLHT_H_
