// The dentry cache: primary hash table, LRU, lifecycle, and the paper's
// coherence machinery (§2.2, §3.2).
//
// The primary hash table is keyed by (parent dentry pointer, component
// name), exactly as in Linux. Lock-free readers probe chains under an epoch
// guard; writers take per-bucket spinlocks. Subtree invalidation implements
// §3.2: before a directory's permissions or position change, every cached
// descendant's version counter is bumped (lazily invalidating PCC entries
// everywhere) and evicted from its DLHT; a global invalidation counter stops
// in-flight slowpath results from being re-cached stale.
#ifndef DIRCACHE_VFS_DCACHE_H_
#define DIRCACHE_VFS_DCACHE_H_

#include <atomic>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/config.h"
#include "src/util/align.h"
#include "src/util/spinlock.h"
#include "src/util/stats.h"
#include "src/vfs/dentry.h"
#include "src/vfs/inval.h"

namespace dircache {

// Primary dentry hash table buckets (Linux's default, a power of two).
inline constexpr size_t kDcacheBuckets = 1 << 18;

class CoherenceSection;
class Kernel;
class Pcc;

namespace obs {
struct AuditReport;
AuditReport RunAudit(Kernel&, const std::vector<const Pcc*>&);
}  // namespace obs

class DentryCache {
 public:
  DentryCache(Kernel* kernel, const CacheConfig& config);
  ~DentryCache();
  DentryCache(const DentryCache&) = delete;
  DentryCache& operator=(const DentryCache&) = delete;

  // --- lookup in the primary hash table ---------------------------------
  // Lock-free probe; returns an UNREFERENCED dentry (caller must be inside
  // an epoch read guard and must validate before trusting).
  Dentry* LookupRcu(const Dentry* parent, std::string_view name) const;

  // Locked probe; returns a referenced dentry or null.
  Dentry* LookupRef(Dentry* parent, std::string_view name);

  // --- instantiation ------------------------------------------------------
  // Create, hash, and parent a child dentry. Consumes `inode` (may be
  // null for negatives/stubs). If a live child with this name appears
  // concurrently, returns that one instead (the inode reference is dropped).
  // The returned dentry carries a reference for the caller. Fails only if
  // `parent` died concurrently (ESTALE).
  // Alias dentries (kDentAlias) are not hashed in the primary table (they
  // are only reachable through the DLHT, §4.2); `alias_target` must carry a
  // reference, which the alias dentry adopts.
  // `tenant` is the credential uid the new dentry is charged to (DESIGN.md
  // §15 per-tenant accounting); pass the acting task's uid.
  Result<Dentry*> AddChild(Dentry* parent, std::string_view name,
                           Inode* inode, uint32_t flags, uint32_t tenant,
                           InodeNum stub_ino = 0,
                           FileType stub_type = FileType::kRegular,
                           Dentry* alias_target = nullptr);

  // Create the (unhashed, parentless) root dentry for a superblock.
  Dentry* MakeRoot(SuperBlock* sb, Inode* inode);

  // --- references -----------------------------------------------------------
  void Dput(Dentry* d);
  // Testing hook (see RaceHook): Dput, after dropping the last reference of
  // a live dentry and before looking at it again.
  static inline thread_local RaceHook after_last_put = nullptr;

  // --- removal ---------------------------------------------------------------
  // Unhash + mark dead (unlink/rmdir/rename-victim). Safe with or without
  // the caller holding a reference.
  void Kill(Dentry* d);

  // Kill all cached children of `dir`, recursively (rmdir of a directory
  // whose cached children are negatives/stubs; symlink alias drop).
  void KillCachedChildren(Dentry* dir);

  // d_move: relink `d` under (new_parent, new_name) — rename support.
  // Caller holds the tree write lock and wraps the call in a rename_seq
  // write section; the subtree must already have been invalidated (§3.2).
  void MoveDentry(Dentry* d, Dentry* new_parent, std::string_view new_name);

  // --- cached readdir (§5.1) ------------------------------------------------
  // A reference on `dir`'s listing of its current live positive and stub
  // children, built from the children list if no scan has since the list
  // last changed. The caller holds a reference on `dir` and has found it
  // DIR_COMPLETE; AddChild, Kill, MoveDentry and eviction drop the listing
  // under the directory's lock whenever they edit its children list.
  DirListingRef PinListing(Dentry* dir);

  // --- eviction ----------------------------------------------------------
  // Evict up to `max` unused dentries, scanning from the LRU tail with
  // second-chance (clock) semantics: an entry whose `lru_referenced` bit is
  // set is rotated back to the front with the bit cleared instead of being
  // evicted, so entries kept hot by (lock-free) lookups survive a round.
  // Returns the count evicted. Eviction clears the parent's DIR_COMPLETE
  // flag (§5.1).
  size_t Shrink(size_t max);
  // Evict everything unused, ignoring reference bits (echo 2 >
  // drop_caches). Returns count.
  size_t ShrinkAll();
  // Targeted eviction for the governor's proportional shrink (DESIGN.md
  // §15): evict up to `max` unused dentries charged to `tenant`, scanning
  // from the LRU tail. Other tenants' entries are rotated past untouched
  // (their reference bits are not consumed), so a noisy tenant's penalty
  // cannot age out a quiet tenant's hot set. The scan is bounded by the
  // LRU length at entry. Returns the count evicted.
  size_t ShrinkTenant(uint32_t tenant, size_t max);

  // --- §3.2 coherence ------------------------------------------------------
  // Bump version counters and evict from DLHTs across the whole cached
  // subtree rooted at `dir` (inclusive). Opens its own coherence section
  // (fast-path gate) around the pass; unlike the pre-engine implementation
  // it does NOT require the tree write lock — mutation paths call it after
  // dropping the lock, shrinking their critical sections (ISSUE: minimal
  // rename critical section). Large subtrees are traversed in parallel and
  // evicted from DLHTs in per-bucket batches (src/vfs/inval.h).
  void InvalidateSubtree(Dentry* dir);

  // O(1) single-dentry invalidation: bump the version counter, drop path
  // validity, unhash from the current DLHT. This is what remains inside the
  // rename_seq write section for the moved dentry itself; the descendant
  // pass runs deferred, under the caller's still-open CoherenceSection.
  void InvalidateDentry(Dentry* d);

  // --- the fast-path coherence gate ---------------------------------------
  // A mutation that defers its subtree pass past the rename_seq write
  // section opens a "coherence section" (see CoherenceSection below) for
  // the whole mutation+pass window. While any section is open, the
  // lock-free fast path refuses to produce results and walks take the slow
  // path, whose invalidation-counter double-check (bumped at both section
  // open and close) prevents stale memoization. Readers only *load* these
  // counters — warm hits stay shared-write-free.
  //
  // Returns true (and fills `token`) iff no section is open. A later
  // InvalidationTokenValid(token) confirms no section opened since.
  bool InvalidationQuiescent(uint64_t* token = nullptr) const {
    uint64_t completed = inval_completed_.load(std::memory_order_acquire);
    uint64_t started = inval_started_.load(std::memory_order_acquire);
    if (token != nullptr) {
      *token = started;
    }
    // Conservative on races: a section opening between the two loads reads
    // started > completed; one closing reads the stale (open) state.
    return started == completed;
  }
  bool InvalidationTokenValid(uint64_t token) const {
    return inval_started_.load(std::memory_order_acquire) == token;
  }

  // Stats of the most recently completed invalidation pass (benchmarks).
  InvalPassStats last_inval_stats() const {
    return engine_->last_pass_stats();
  }

  // Fresh version-counter value (global monotonic; handles 32-bit
  // wraparound by bumping the kernel-wide PCC epoch, §3.1).
  uint32_t NewVersion();

  // Global invalidation counter (read around slowpath walks).
  uint64_t invalidation_counter() const {
    return invalidation_counter_.load(std::memory_order_acquire);
  }
  void BumpInvalidation() {
    invalidation_counter_.fetch_add(1, std::memory_order_acq_rel);
  }

  // --- introspection -------------------------------------------------------
  size_t dentry_count() const {
    return count_.load(std::memory_order_relaxed);
  }
  size_t negative_count() const {
    auto n = negative_count_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }
  // Bytes of the listings directories hold. A listing that only streams
  // still pin is counted with them, like the rest of a stream's state: not
  // at all.
  uint64_t listing_bytes() const {
    return listing_bytes_.load(std::memory_order_relaxed);
  }
  size_t bucket_count() const { return buckets_.size(); }
  // Chain-length histogram of the primary hash table (for §6.5 statistics).
  std::vector<size_t> ChainHistogram(size_t max_len = 10) const;

  // Per-tenant charge counters (DESIGN.md §15). A fixed number of tenant
  // slots is tracked exactly; everything beyond that folds into one
  // overflow row reported as tenant = kTenantOverflow.
  struct TenantUsage {
    uint32_t tenant = 0;
    uint64_t dentries = 0;
    uint64_t negatives = 0;
  };
  static constexpr uint32_t kTenantOverflow = 0xffffffffu;
  std::vector<TenantUsage> TenantUsages() const;

  // The governor's per-dentry byte cost: the object itself plus an
  // allowance for the name string, hash-chain membership, and children-list
  // links. Policy-grade, not an allocator-exact figure.
  static constexpr size_t kApproxDentryBytes = sizeof(Dentry) + 48;

 private:
  // The invariant auditor cross-checks the hash chains, LRU, and counters
  // directly (src/obs/audit.cc).
  friend obs::AuditReport obs::RunAudit(Kernel&,
                                        const std::vector<const Pcc*>&);
  friend class CoherenceSection;

  // Open/close the fast-path coherence gate. The invalidation counter is
  // bumped at BOTH edges: the open bump catches walks that snapshotted the
  // counter before the gate appeared; the close bump catches walks that
  // snapshotted it while the gate was open and would otherwise memoize
  // after it closed (see DESIGN.md §11 for the three-case argument).
  void BeginCoherence() {
    inval_started_.fetch_add(1, std::memory_order_acq_rel);
    BumpInvalidation();
  }
  void EndCoherence() {
    BumpInvalidation();
    inval_completed_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Run one engine pass (gate state unchanged; callers hold a section).
  void RunDeferredPass(Dentry* dir) { engine_->Invalidate(dir); }

  // One cache line per bucket: a writer spinning on (or unlocking) bucket i
  // must never invalidate the line a lock-free reader of bucket i±1 is
  // probing. The sizing static_assert lives in dcache.cc.
  struct alignas(kCacheLineSize) HBucket {
    SpinLock lock;
    HListHead chain;
  };
  static_assert(sizeof(HBucket) == kCacheLineSize &&
                    alignof(HBucket) == kCacheLineSize,
                "primary hash buckets must each own exactly one cache line");

  uint64_t KeyFor(const Dentry* parent, std::string_view name) const;
  HBucket& BucketForKey(uint64_t key) {
    return buckets_[key & bucket_mask_];
  }
  const HBucket& BucketForKey(uint64_t key) const {
    return buckets_[key & bucket_mask_];
  }

  // Final teardown of a dead, unreferenced dentry (and, transitively, of
  // parents whose last reference this drop releases).
  void Release(Dentry* d);
  // Drop `dir`'s listing, if it has one; caller holds dir->lock.
  void DropListing(Dentry* dir);
  // Shared implementation of Shrink/ShrinkAll; `second_chance` toggles
  // whether referenced entries get rotated back or evicted outright.
  size_t ShrinkInternal(size_t max, bool second_chance);
  // Tear down one dentry already popped off the LRU: freeze, unhash from
  // the DLHT/primary table/children list, invalidate the parent's
  // completeness, release. Returns false if the dentry was busy (it
  // re-enters the LRU at its next idle moment).
  bool EvictOne(Dentry* d);

  // One tenant charge row. Cache-line aligned: charges are writer-path
  // traffic (dentry birth/death) and must not bounce a line shared with
  // another tenant's row.
  struct alignas(kCacheLineSize) TenantSlot {
    std::atomic<uint64_t> key{0};  // tenant uid + 1; 0 = free
    std::atomic<int64_t> dentries{0};
    std::atomic<int64_t> negatives{0};
  };
  static constexpr size_t kTenantSlots = 16;
  // Claim (or find) the row for `tenant`; the last slot absorbs overflow.
  TenantSlot* TenantSlotFor(uint32_t tenant);
  void ChargeTenant(uint32_t tenant, bool negative, int64_t delta);

  Kernel* const kernel_;
  std::vector<HBucket> buckets_;
  size_t bucket_mask_;
  uint64_t hash_seed_;

  // The LRU is touched only on dentry birth (first idle park), death, and
  // eviction — never on lookup hits, which arm the per-dentry reference bit
  // instead. Padded: this lock must not share a line with the list head or
  // the counters below.
  CacheAlignedSpinLock lru_lock_;
  IntrusiveList<Dentry, &Dentry::lru_node> lru_;  // front = most recent
  size_t lru_len_ = 0;                            // guarded by lru_lock_

  std::atomic<uint64_t> version_counter_{1};
  std::atomic<uint64_t> invalidation_counter_{1};
  std::atomic<size_t> count_{0};
  std::atomic<int64_t> negative_count_{0};
  std::atomic<uint64_t> listing_bytes_{0};
  TenantSlot tenants_[kTenantSlots];

  // Fast-path coherence gate: sections open (started > completed) while a
  // deferred subtree pass may still be pending. Monotonic; started doubles
  // as the quiescence token.
  std::atomic<uint64_t> inval_started_{0};
  std::atomic<uint64_t> inval_completed_{0};

  std::unique_ptr<InvalidationEngine> engine_;
};

// RAII coherence section: opens the fast-path gate for the lifetime of a
// mutation whose subtree invalidation runs AFTER the structural change
// (deferred past the rename_seq write section and the tree lock). Typical
// shape (task.cc):
//
//   CoherenceSection section(&dc);    // gate opens, counter bumps
//   ... structural splice + InvalidateDentry(moved) under locks ...
//   ... release rename_seq / tree lock ...
//   section.InvalidateNow(subtree);   // the O(subtree) pass, unlocked
//   // ~CoherenceSection: counter bumps again, gate closes
class CoherenceSection {
 public:
  explicit CoherenceSection(DentryCache* dc) : dc_(dc) {
    if (dc_ != nullptr) {
      dc_->BeginCoherence();
    }
  }
  ~CoherenceSection() { Close(); }
  CoherenceSection(const CoherenceSection&) = delete;
  CoherenceSection& operator=(const CoherenceSection&) = delete;

  // Run a subtree pass while the gate is (still) open.
  void InvalidateNow(Dentry* dir) { dc_->RunDeferredPass(dir); }

  void Close() {
    if (dc_ != nullptr) {
      dc_->EndCoherence();
      dc_ = nullptr;
    }
  }

 private:
  DentryCache* dc_;
};

}  // namespace dircache

#endif  // DIRCACHE_VFS_DCACHE_H_
