// Dentries: cached (parent, name) -> inode mappings (§2.2).
//
// A dentry is threaded onto the structures Linux uses (§2.2): the primary
// hash chain, its parent's children list, and the LRU list; plus the
// paper's FastDentry extension (signature, DLHT linkage, PCC version
// counter). Negative dentries have no inode; readdir stubs (§5.1) know
// their inode number and type but have no materialized Inode; alias
// dentries (§4.2) redirect a literal symlink-crossing path to its target.
//
// Reference counting uses a lockref-style packed word: bit 31 is the dead
// bit, set exactly once when the dentry is unhashed for good. Lock-free
// walkers acquire references with a CAS that fails on dead dentries, which
// makes "observed on a hash chain during the grace period" safe. The
// release of the final reference frees the dentry through the epoch domain.
#ifndef DIRCACHE_VFS_DENTRY_H_
#define DIRCACHE_VFS_DENTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/core/fast_dentry.h"
#include "src/util/hlist.h"
#include "src/util/intrusive_list.h"
#include "src/util/spinlock.h"
#include "src/vfs/inode.h"

namespace dircache {

class Dentry;
class DentryCache;
struct Mount;

// The cached readdir of a DIR_COMPLETE directory (§5.1): its live positive
// and stub children as (ino, type, name), immutable once built. One
// allocation holds the header, an array of fixed-size entries and one
// buffer of names, so a stream copies each entry out of contiguous memory
// instead of chasing every child dentry. The directory holds one reference
// (Dentry::listing) until a children-list edit drops it, and each directory
// stream that served from it holds one (File::listing).
class DirListing {
 public:
  struct Entry {
    InodeNum ino;
    uint32_t name_off;  // into the names buffer
    uint16_t name_len;  // names are at most NAME_MAX bytes
    FileType type;
  };

  size_t size() const { return count_; }
  // Bytes of the one allocation: header, entries and names.
  size_t bytes() const { return bytes_; }
  const Entry& entry(size_t i) const { return entries()[i]; }
  std::string_view name(size_t i) const {
    return {names() + entries()[i].name_off, entries()[i].name_len};
  }
  // Appends entries from index `from` to `out`, at most `max` of them, and
  // returns the index after the last one appended.
  size_t CopyOut(size_t from, size_t max, std::vector<DirEntry>* out) const;

  void Ref() const { refs_.fetch_add(1, std::memory_order_relaxed); }
  // The last reference frees the listing.
  void Unref() const;
  struct Unrefer {
    void operator()(const DirListing* l) const { l->Unref(); }
  };

 private:
  friend class DentryCache;

  // An empty listing with room for `count` entries and `name_bytes` of
  // names, holding one reference; Append fills it.
  static DirListing* Create(size_t count, size_t name_bytes);
  DirListing(size_t count, size_t bytes) : count_(count), bytes_(bytes) {}
  void Append(std::string_view name, InodeNum ino, FileType type);

  Entry* entries() { return reinterpret_cast<Entry*>(this + 1); }
  const Entry* entries() const {
    return reinterpret_cast<const Entry*>(this + 1);
  }
  char* names() { return reinterpret_cast<char*>(entries() + count_); }
  const char* names() const {
    return reinterpret_cast<const char*>(entries() + count_);
  }

  mutable std::atomic<uint32_t> refs_{1};
  uint32_t filled_ = 0;      // entries appended so far
  uint32_t names_used_ = 0;  // name bytes appended so far
  size_t count_;
  size_t bytes_;
};
static_assert(sizeof(DirListing) % alignof(DirListing::Entry) == 0,
              "the entries array starts right after the header");

// One reference on a DirListing, dropped on destruction or reset().
using DirListingRef = std::unique_ptr<const DirListing, DirListing::Unrefer>;

// Dentry state flags (Dentry::flags, atomic).
inline constexpr uint32_t kDentNegative = 1u << 0;     // cached ENOENT
inline constexpr uint32_t kDentEnotdir = 1u << 1;      // cached ENOTDIR (§5.2)
inline constexpr uint32_t kDentStub = 1u << 2;         // readdir stub (§5.1)
inline constexpr uint32_t kDentDirComplete = 1u << 3;  // §5.1
inline constexpr uint32_t kDentOnLru = 1u << 4;
inline constexpr uint32_t kDentAlias = 1u << 5;        // symlink alias (§4.2)
inline constexpr uint32_t kDentMountpoint = 1u << 6;   // mount hangs here
inline constexpr uint32_t kDentRoot = 1u << 7;         // superblock root

// Reference word: bit 31 = dead, low 31 bits = count.
inline constexpr uint32_t kRefDead = 1u << 31;
inline constexpr uint32_t kRefCountMask = kRefDead - 1;

class Dentry {
 public:
  // Creates a dentry with one reference, holding a reference on `parent`
  // (which may be null for superblock roots) and consuming a reference on
  // `inode` (null for negatives/stubs).
  Dentry(SuperBlock* sb, Dentry* parent, std::string name, Inode* inode,
         uint32_t initial_flags);
  ~Dentry();
  Dentry(const Dentry&) = delete;
  Dentry& operator=(const Dentry&) = delete;

  SuperBlock* sb() const { return sb_; }

  // --- identity (atomic: lock-free readers; writers hold lock + tree lock)
  const std::string& name() const {
    return *name_.load(std::memory_order_acquire);
  }
  Dentry* parent() const { return parent_.load(std::memory_order_acquire); }
  Inode* inode() const { return inode_.load(std::memory_order_acquire); }

  // Writers (rename / unlink / stub materialization); caller holds lock.
  void set_name(std::string n);  // epoch-retires the old string
  void set_parent(Dentry* p) {
    parent_.store(p, std::memory_order_release);
  }
  void set_inode(Inode* i) { inode_.store(i, std::memory_order_release); }

  // --- flags
  uint32_t flags() const { return flags_.load(std::memory_order_acquire); }
  bool TestFlags(uint32_t mask) const { return (flags() & mask) != 0; }
  void SetFlags(uint32_t mask) {
    flags_.fetch_or(mask, std::memory_order_acq_rel);
  }
  void ClearFlags(uint32_t mask) {
    flags_.fetch_and(~mask, std::memory_order_acq_rel);
  }

  bool IsNegative() const { return TestFlags(kDentNegative); }
  bool IsStub() const { return TestFlags(kDentStub); }
  // Positive = has (or can materialize) an inode.
  bool IsPositive() const { return !IsNegative(); }

  // --- reference counting -------------------------------------------------
  // Acquire a reference on a dentry found on a hash chain; fails if dead.
  bool DgetLive() {
    uint32_t v = refs_.load(std::memory_order_seq_cst);
    while (true) {
      if ((v & kRefDead) != 0) {
        return false;
      }
      if (refs_.compare_exchange_weak(v, v + 1, std::memory_order_seq_cst)) {
        return true;
      }
    }
  }

  // Add a reference when the caller already holds one.
  void DgetHeld() {
    uint32_t prev = refs_.fetch_add(1, std::memory_order_relaxed);
    (void)prev;
  }

  // Set the dead bit. Returns true if this caller must release the dentry
  // (the count was already zero); otherwise the final Dput releases it.
  bool MarkDead() {
    uint32_t prev = refs_.fetch_or(kRefDead, std::memory_order_seq_cst);
    if ((prev & kRefDead) != 0) {
      return false;  // someone else killed it first
    }
    return (prev & kRefCountMask) == 0;
  }

  // Drop a reference. Returns true if this was the final reference on a
  // dead dentry and the caller must release it.
  bool DputNeedsRelease() {
    uint32_t prev = refs_.fetch_sub(1, std::memory_order_seq_cst);
    return prev == (kRefDead | 1);
  }

  uint32_t ref_count() const {
    return refs_.load(std::memory_order_relaxed) & kRefCountMask;
  }
  bool IsDead() const {
    return (refs_.load(std::memory_order_seq_cst) & kRefDead) != 0;
  }

  // Freeze an unreferenced, live dentry for eviction: atomically moves
  // count 0 -> dead. Fails if referenced or already dead.
  bool FreezeForEviction() {
    uint32_t expected = 0;
    return refs_.compare_exchange_strong(expected, kRefDead,
                                         std::memory_order_seq_cst);
  }

  // --- stub / alias payload ------------------------------------------------
  InodeNum stub_ino = 0;           // kDentStub: inode number from readdir
  // The cached readdir of this directory's children (§5.1), or null until
  // a cached scan builds it; every children-list edit drops it. this->lock.
  const DirListing* listing = nullptr;
  std::atomic<Dentry*> alias_target{nullptr};  // kDentAlias: holds a ref

  // Credential uid whose activity instantiated this dentry (0 = root /
  // system), for the governor's per-tenant charge counters and
  // proportional shrink (DESIGN.md §15). Written exactly once, before the
  // dentry is published.
  uint32_t tenant = 0;

  // --- linkage --------------------------------------------------------------
  SpinLock lock;  // guards children list, DLHT moves, stub materialization
  FileType stub_type = FileType::kRegular;  // kDentStub: type from readdir

  HNode hash_node;    // primary hash chain (bucket lock)
  uint64_t hash_key = 0;

  ListNode child_node;  // position in parent->children (parent's lock)
  IntrusiveList<Dentry, &Dentry::child_node> children;  // this->lock
  // Bumped when a child is evicted for space; snapshot-compared to decide
  // whether a readdir scan may set kDentDirComplete (§5.1).
  std::atomic<uint64_t> child_evict_gen{0};
  // Cached child counts (this->lock): total and negative/stub split is not
  // tracked; completeness logic only needs eviction detection.

  ListNode lru_node;  // dcache LRU (LRU lock)

  // Second-chance (clock) reference bit: lookup hits arm it instead of
  // taking the LRU lock to reorder the list; Shrink() grants one extra
  // round to entries with the bit set, clearing it as the clock hand
  // passes. The store is conditional, so a warm hit path performs no write
  // at all — the bit is already set.
  std::atomic<bool> lru_referenced{false};

  // Arm the reference bit. Returns true when this call actually wrote
  // (callers count that write in the shared_writes statistic).
  bool MarkReferenced() {
    if (lru_referenced.load(std::memory_order_relaxed)) {
      return false;
    }
    lru_referenced.store(true, std::memory_order_relaxed);
    return true;
  }

  // --- subtree invalidation engine linkage (§3.2, src/vfs/inval.h) ----------
  // Intrusive work-list link + visit-generation stamp: an invalidation pass
  // claims a dentry by exchanging `inval_gen` to the pass's generation
  // (guaranteeing single-queue membership even across mount aliases) and
  // threads it through `inval_next`, so the common small-subtree pass
  // allocates nothing. Only the engine touches these, and the engine-wide
  // pass mutex serializes passes, so the link is never shared.
  std::atomic<Dentry*> inval_next{nullptr};
  std::atomic<uint64_t> inval_gen{0};

  // --- the paper's extension (§3, Fig. 5) -----------------------------------
  FastDentry fast;

 private:
  SuperBlock* const sb_;
  std::atomic<const std::string*> name_;
  std::atomic<Dentry*> parent_;
  std::atomic<Inode*> inode_;
  std::atomic<uint32_t> flags_;
  std::atomic<uint32_t> refs_{1};
};

// Testing hook type: called with a dentry inside a race window so a test
// can run the losing side of the race deterministically (e.g. kill or
// evict the dentry). See PathWalker::before_publish and
// DentryCache::after_last_put.
using RaceHook = void (*)(Dentry*);

// Recover the owning dentry from its embedded FastDentry (the VFS knows the
// layout; the core library treats dentries as opaque). Lives next to the
// `fast` member it depends on so the two cannot drift apart.
//
// Dentry is not standard-layout (it mixes access specifiers), so
// offsetof on it is conditionally-supported; GCC/Clang define it for this
// shape, and the assertions below pin down what the cast actually relies
// on: `fast` is an embedded subobject at a fixed offset in every Dentry.
static_assert(std::is_standard_layout_v<FastDentry>,
              "FastDentry must be standard-layout: DentryFromFast converts "
              "a FastDentry* back to its enclosing Dentry*");
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
inline constexpr size_t kDentryFastOffset = offsetof(Dentry, fast);
#pragma GCC diagnostic pop

// The size is the governor's per-dentry cost (kApproxDentryBytes), and the
// fastpath reads the fields from `fast` on where they are: a new field goes
// into a padding hole, not onto the end.
static_assert(sizeof(Dentry) == 376, "Dentry must not grow");
static_assert(kDentryFastOffset == 144, "Dentry::fast must not move");

// Whether `child` belongs in its directory's listing (§5.1): live, positive
// or a stub, and not an alias. Fills its inode number and type. Caller
// holds the parent's lock, under which none of this changes (materializing
// a stub keeps its number and type).
inline bool ListedChild(const Dentry& child, InodeNum* ino, FileType* type) {
  if (child.IsNegative() || child.TestFlags(kDentAlias) || child.IsDead()) {
    return false;
  }
  if (child.IsStub()) {
    *ino = child.stub_ino;
    *type = child.stub_type;
    return true;
  }
  if (const Inode* i = child.inode()) {
    *ino = i->ino();
    *type = i->type();
    return true;
  }
  return false;
}

inline Dentry* DentryFromFast(FastDentry* fd) {
  return reinterpret_cast<Dentry*>(reinterpret_cast<char*>(fd) -
                                   kDentryFastOffset);
}

inline const Dentry* DentryFromFast(const FastDentry* fd) {
  return reinterpret_cast<const Dentry*>(
      reinterpret_cast<const char*>(fd) - kDentryFastOffset);
}

}  // namespace dircache

#endif  // DIRCACHE_VFS_DENTRY_H_
