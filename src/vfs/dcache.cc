#include "src/vfs/dcache.h"

#include <cassert>

#include "src/core/dlht.h"
#include "src/util/clock.h"
#include "src/util/epoch.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/vfs/kernel.h"

namespace dircache {

DentryCache::DentryCache(Kernel* kernel, const CacheConfig& config)
    : kernel_(kernel),
      buckets_(kDcacheBuckets),
      bucket_mask_(buckets_.size() - 1),
      hash_seed_(0x6ca32015d15cULL),
      engine_(std::make_unique<InvalidationEngine>(kernel, config)) {}

DentryCache::~DentryCache() = default;

uint64_t DentryCache::KeyFor(const Dentry* parent,
                             std::string_view name) const {
  // Keyed by (parent dentry virtual address, component name), §2.2. Kernel
  // object addresses are stable and process-wide, exactly as in Linux.
  uint64_t seed = hash_seed_ ^ reinterpret_cast<uintptr_t>(parent);
  return HashBytes64(seed, name);
}

Dentry* DentryCache::LookupRcu(const Dentry* parent,
                               std::string_view name) const {
  const uint64_t key = KeyFor(parent, name);
  const HBucket& bucket = BucketForKey(key);
  for (HNode* n = bucket.chain.First(); n != nullptr;
       n = n->next.load(std::memory_order_acquire)) {
    auto* d = FromHNode<Dentry, &Dentry::hash_node>(n);
    if (d->hash_key != key || d->IsDead()) {
      continue;
    }
    if (d->parent() == parent && d->name() == name) {
      return d;
    }
  }
  return nullptr;
}

Dentry* DentryCache::LookupRef(Dentry* parent, std::string_view name) {
  const uint64_t key = KeyFor(parent, name);
  HBucket& bucket = BucketForKey(key);
  SpinGuard guard(bucket.lock);
  CacheStats& stats = kernel_->stats();
  stats.locks_taken.Add();
  stats.shared_writes.Add();
  for (HNode* n = bucket.chain.First(); n != nullptr;
       n = n->next.load(std::memory_order_acquire)) {
    auto* d = FromHNode<Dentry, &Dentry::hash_node>(n);
    if (d->hash_key != key) {
      continue;
    }
    if (d->parent() == parent && d->name() == name && d->DgetLive()) {
      if (d->MarkReferenced()) {
        stats.shared_writes.Add();
      }
      return d;
    }
  }
  return nullptr;
}

Result<Dentry*> DentryCache::AddChild(Dentry* parent, std::string_view name,
                                      Inode* inode, uint32_t flags,
                                      uint32_t tenant, InodeNum stub_ino,
                                      FileType stub_type,
                                      Dentry* alias_target) {
  auto drop_inputs = [&] {
    if (inode != nullptr) {
      inode->sb()->Iput(inode);
    }
    if (alias_target != nullptr) {
      Dput(alias_target);
    }
  };
  SpinGuard parent_guard(parent->lock);
  if (parent->IsDead()) {
    parent_guard.Release();
    drop_inputs();
    return Errno::kESTALE;
  }
  Dentry* fresh = nullptr;
  if ((flags & kDentAlias) != 0) {
    // Aliases are invisible to the primary hash; dedupe via the children
    // list instead.
    for (Dentry* child : parent->children) {
      if (child->TestFlags(kDentAlias) && child->name() == name &&
          child->DgetLive()) {
        parent_guard.Release();
        drop_inputs();
        return child;
      }
    }
    fresh = new Dentry(parent->sb(), parent, std::string(name), inode, flags);
    fresh->tenant = tenant;
    fresh->alias_target.store(alias_target, std::memory_order_release);
    fresh->fast.seq.store(NewVersion(), std::memory_order_release);
  } else {
    const uint64_t key = KeyFor(parent, name);
    HBucket& bucket = BucketForKey(key);
    SpinGuard bucket_guard(bucket.lock);
    // Re-check for a concurrent instantiation of the same name.
    for (HNode* n = bucket.chain.First(); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      auto* d = FromHNode<Dentry, &Dentry::hash_node>(n);
      if (d->hash_key == key && d->parent() == parent && d->name() == name &&
          d->DgetLive()) {
        bucket_guard.Release();
        parent_guard.Release();
        drop_inputs();
        return d;
      }
    }
    fresh = new Dentry(parent->sb(), parent, std::string(name), inode, flags);
    fresh->tenant = tenant;
    fresh->hash_key = key;
    fresh->stub_ino = stub_ino;
    fresh->stub_type = stub_type;
    fresh->fast.seq.store(NewVersion(), std::memory_order_release);
    bucket.chain.PushFront(&fresh->hash_node);
  }
  parent->children.PushBack(fresh);
  DropListing(parent);
  parent_guard.Release();
  count_.fetch_add(1, std::memory_order_relaxed);
  ChargeTenant(tenant, (flags & kDentNegative) != 0, +1);
  return fresh;
}

Dentry* DentryCache::MakeRoot(SuperBlock* sb, Inode* inode) {
  auto* d = new Dentry(sb, nullptr, "", inode, kDentRoot);
  d->fast.seq.store(NewVersion(), std::memory_order_release);
  count_.fetch_add(1, std::memory_order_relaxed);
  ChargeTenant(/*tenant=*/0, /*negative=*/false, +1);
  return d;
}

void DentryCache::Dput(Dentry* d) {
  // Once our reference is gone, an eviction may retire `d` at any moment;
  // the read section keeps it allocated while the checks below still look
  // at it (Linux's dput holds rcu_read_lock for the same reason).
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  if (d->DputNeedsRelease()) {
    Release(d);
    return;
  }
  if (d->ref_count() == 0 && !d->IsDead()) {
    if (after_last_put != nullptr) {
      after_last_put(d);
    }
    if (d->TestFlags(kDentOnLru)) {
      // Already resident on the LRU. Recency is carried by the per-dentry
      // reference bit (armed by the lookup that took this reference), so
      // the steady-state hit path releases its reference without touching
      // the dentry lock, the LRU lock, or the list — no shared writes.
      return;
    }
    // First idle moment since creation (or since an eviction pass dropped
    // it): park on the LRU so Shrink can find it.
    SpinGuard guard(d->lock);
    if (!d->IsDead() && d->ref_count() == 0 &&
        !d->TestFlags(kDentOnLru)) {
      d->SetFlags(kDentOnLru);
      SpinGuard lru_guard(lru_lock_);
      lru_.PushFront(d);
      ++lru_len_;
      kernel_->stats().shared_writes.Add();
    }
  }
}

void DentryCache::Release(Dentry* d) {
  // Every kill path unhashes the dentry from the DLHT under d->lock, and
  // Populate never re-publishes a dead one; a reader in a later epoch must
  // not find it on a chain once it is retired below.
  assert(d->fast.on_dlht.load(std::memory_order_acquire) == nullptr);
  {
    SpinGuard lru_guard(lru_lock_);
    if (d->lru_node.linked()) {
      d->lru_node.Unlink();
      --lru_len_;
    }
  }
  Dentry* alias = d->alias_target.exchange(nullptr);
  Dentry* parent = d->parent();
  // Dead and unreferenced: no stream can pin this directory's listing now.
  DropListing(d);
  count_.fetch_sub(1, std::memory_order_relaxed);
  ChargeTenant(d->tenant, d->TestFlags(kDentNegative), -1);
  // The inode reference is dropped by the *deferred* deleter, not here:
  // optimistic readers that found this dentry before it was unhashed may
  // still dereference d->inode() until the epoch turns over. An eager Iput
  // could free the inode under them (heap corruption under eviction/lookup
  // races). Kernel teardown runs ShrinkAll() + Synchronize() before the
  // superblocks die, so the deferred Iput always finds its sb alive.
  EpochDomain::Global().Retire(d, [](void* p) {
    Dentry* dd = static_cast<Dentry*>(p);
    if (Inode* i = dd->inode()) {
      i->sb()->Iput(i);
    }
    delete dd;
  });
  if (alias != nullptr) {
    Dput(alias);
  }
  if (parent != nullptr) {
    Dput(parent);  // may cascade up the (bounded-depth) ancestor chain
  }
}

void DentryCache::Kill(Dentry* d) {
  Dentry* parent = d->parent();
  if (parent != nullptr) {
    parent->lock.lock();
  }
  d->lock.lock();
  if (d->IsDead()) {
    d->lock.unlock();
    if (parent != nullptr) {
      parent->lock.unlock();
    }
    return;
  }
  Dlht::RemoveFromCurrent(&d->fast);
  if (d->hash_node.hashed) {
    HBucket& bucket = BucketForKey(d->hash_key);
    SpinGuard guard(bucket.lock);
    bucket.chain.Remove(&d->hash_node);
  }
  if (d->child_node.linked()) {
    d->child_node.Unlink();
    DropListing(parent);
  }
  bool release = d->MarkDead();
  d->lock.unlock();
  if (parent != nullptr) {
    parent->lock.unlock();
  }
  if (release) {
    Release(d);
  }
}

void DentryCache::KillCachedChildren(Dentry* dir) {
  std::vector<Dentry*> children;
  {
    SpinGuard guard(dir->lock);
    for (Dentry* child : dir->children) {
      children.push_back(child);
    }
  }
  for (Dentry* child : children) {
    KillCachedChildren(child);
    Kill(child);
  }
}

void DentryCache::MoveDentry(Dentry* d, Dentry* new_parent,
                             std::string_view new_name) {
  Dentry* old_parent = d->parent();
  // Lock both parents in address order, then the dentry.
  Dentry* first = old_parent < new_parent ? old_parent : new_parent;
  Dentry* second = old_parent < new_parent ? new_parent : old_parent;
  first->lock.lock();
  if (second != first) {
    second->lock.lock();
  }
  d->lock.lock();

  // Unhash under the old key.
  if (d->hash_node.hashed) {
    HBucket& bucket = BucketForKey(d->hash_key);
    SpinGuard guard(bucket.lock);
    bucket.chain.Remove(&d->hash_node);
  }
  if (d->child_node.linked()) {
    d->child_node.Unlink();
    DropListing(old_parent);
  }

  new_parent->DgetHeld();
  d->set_name(std::string(new_name));
  d->set_parent(new_parent);
  d->hash_key = KeyFor(new_parent, new_name);
  {
    HBucket& bucket = BucketForKey(d->hash_key);
    SpinGuard guard(bucket.lock);
    bucket.chain.PushFront(&d->hash_node);
  }
  new_parent->children.PushBack(d);
  DropListing(new_parent);

  d->lock.unlock();
  if (second != first) {
    second->lock.unlock();
  }
  first->lock.unlock();
  Dput(old_parent);  // the reference the dentry held on its old parent
}

DirListingRef DentryCache::PinListing(Dentry* dir) {
  EpochDomain::ReadGuard epoch(EpochDomain::Global());
  SpinGuard guard(dir->lock);
  if (dir->listing == nullptr) {
    // Two passes under the lock, which freezes the list: size the one
    // allocation, then fill it.
    InodeNum ino = 0;
    FileType type = FileType::kRegular;
    size_t count = 0;
    size_t name_bytes = 0;
    for (Dentry* child : dir->children) {
      if (ListedChild(*child, &ino, &type)) {
        ++count;
        name_bytes += child->name().size();
      }
    }
    DirListing* l = DirListing::Create(count, name_bytes);
    for (Dentry* child : dir->children) {
      if (ListedChild(*child, &ino, &type)) {
        l->Append(child->name(), ino, type);
      }
    }
    dir->listing = l;
    listing_bytes_.fetch_add(l->bytes(), std::memory_order_relaxed);
  }
  dir->listing->Ref();
  return DirListingRef(dir->listing);
}

void DentryCache::DropListing(Dentry* dir) {
  if (const DirListing* l = dir->listing) {
    dir->listing = nullptr;
    listing_bytes_.fetch_sub(l->bytes(), std::memory_order_relaxed);
    l->Unref();
  }
}

size_t DentryCache::Shrink(size_t max) {
  return ShrinkInternal(max, /*second_chance=*/true);
}

size_t DentryCache::ShrinkInternal(size_t max, bool second_chance) {
  size_t evicted = 0;
  // The clock hand grants each resident entry at most one rotation per
  // call: the budget is the list length at entry, so a population of
  // entirely-referenced entries cannot spin the scan forever — once every
  // bit has been cleared, the tail is evicted like plain LRU.
  size_t rotation_budget = 0;
  if (second_chance) {
    SpinGuard lru_guard(lru_lock_);
    rotation_budget = lru_len_;
  }
  size_t rotations = 0;
  while (evicted < max) {
    Dentry* d = nullptr;
    {
      SpinGuard lru_guard(lru_lock_);
      while (true) {
        d = lru_.Back();
        if (d == nullptr) {
          break;
        }
        if (second_chance && rotations < rotation_budget &&
            d->lru_referenced.load(std::memory_order_relaxed)) {
          // Second chance: a lookup touched this entry since the last
          // pass. Clear the bit and rotate it to the young end.
          d->lru_referenced.store(false, std::memory_order_relaxed);
          d->lru_node.Unlink();
          lru_.PushFront(d);
          ++rotations;
          continue;
        }
        d->lru_node.Unlink();
        --lru_len_;
        d->ClearFlags(kDentOnLru);
        break;
      }
      if (d == nullptr) {
        break;
      }
    }
    if (EvictOne(d)) {
      ++evicted;
    }
  }
  return evicted;
}

bool DentryCache::EvictOne(Dentry* d) {
  Dentry* parent = d->parent();
  if (parent != nullptr) {
    parent->lock.lock();
  }
  d->lock.lock();
  // Children, mounts, open files, and tasks all hold references, so a
  // successful freeze (count 0 -> dead) proves the dentry is an unused
  // leaf that is safe to tear down.
  if (!d->FreezeForEviction()) {
    d->lock.unlock();
    if (parent != nullptr) {
      parent->lock.unlock();
    }
    return false;  // busy; it re-enters the LRU at its next idle moment
  }
  Dlht::RemoveFromCurrent(&d->fast);
  if (d->hash_node.hashed) {
    HBucket& bucket = BucketForKey(d->hash_key);
    SpinGuard guard(bucket.lock);
    bucket.chain.Remove(&d->hash_node);
  }
  if (d->child_node.linked()) {
    d->child_node.Unlink();
    DropListing(parent);
  }
  if (parent != nullptr) {
    // Losing a cached child for space reasons invalidates directory
    // completeness (§5.1).
    parent->ClearFlags(kDentDirComplete);
    parent->child_evict_gen.fetch_add(1, std::memory_order_acq_rel);
  }
  d->lock.unlock();
  if (parent != nullptr) {
    parent->lock.unlock();
  }
  Release(d);
  return true;
}

size_t DentryCache::ShrinkTenant(uint32_t tenant, size_t max) {
  size_t evicted = 0;
  size_t scan_budget;
  {
    SpinGuard lru_guard(lru_lock_);
    scan_budget = lru_len_;
  }
  while (evicted < max && scan_budget > 0) {
    Dentry* d = nullptr;
    {
      SpinGuard lru_guard(lru_lock_);
      while (scan_budget > 0) {
        d = lru_.Back();
        if (d == nullptr) {
          break;
        }
        --scan_budget;
        if (d->tenant != tenant) {
          // Someone else's entry: rotate it past the clock hand without
          // consuming its reference bit — a noisy tenant's penalty scan
          // must not age out quiet tenants' hot sets.
          d->lru_node.Unlink();
          lru_.PushFront(d);
          d = nullptr;
          continue;
        }
        d->lru_node.Unlink();
        --lru_len_;
        d->ClearFlags(kDentOnLru);
        break;
      }
    }
    if (d == nullptr) {
      break;
    }
    if (EvictOne(d)) {
      ++evicted;
    }
  }
  return evicted;
}

DentryCache::TenantSlot* DentryCache::TenantSlotFor(uint32_t tenant) {
  // Open addressing over the first kTenantSlots-1 rows; the last row is the
  // shared overflow bucket. Rows are claimed with a CAS and never freed —
  // real deployments have few distinct uids per kernel instance.
  const size_t probes = kTenantSlots - 1;
  const uint64_t key = static_cast<uint64_t>(tenant) + 1;
  size_t h = tenant % probes;
  for (size_t i = 0; i < probes; ++i) {
    TenantSlot& slot = tenants_[(h + i) % probes];
    uint64_t cur = slot.key.load(std::memory_order_acquire);
    if (cur == key) {
      return &slot;
    }
    if (cur == 0) {
      uint64_t expected = 0;
      if (slot.key.compare_exchange_strong(expected, key,
                                           std::memory_order_acq_rel)) {
        return &slot;
      }
      if (expected == key) {
        return &slot;  // a racer claimed it for the same tenant
      }
    }
  }
  return &tenants_[kTenantSlots - 1];  // overflow row
}

void DentryCache::ChargeTenant(uint32_t tenant, bool negative, int64_t delta) {
  TenantSlot* slot = TenantSlotFor(tenant);
  slot->dentries.fetch_add(delta, std::memory_order_relaxed);
  if (negative) {
    slot->negatives.fetch_add(delta, std::memory_order_relaxed);
    negative_count_.fetch_add(delta, std::memory_order_relaxed);
  }
}

std::vector<DentryCache::TenantUsage> DentryCache::TenantUsages() const {
  std::vector<TenantUsage> out;
  for (size_t i = 0; i < kTenantSlots; ++i) {
    const TenantSlot& slot = tenants_[i];
    const bool overflow = i == kTenantSlots - 1;
    uint64_t key = slot.key.load(std::memory_order_acquire);
    int64_t dentries = slot.dentries.load(std::memory_order_relaxed);
    int64_t negatives = slot.negatives.load(std::memory_order_relaxed);
    if ((key == 0 && !overflow) || (dentries == 0 && negatives == 0)) {
      continue;
    }
    TenantUsage u;
    u.tenant =
        overflow ? kTenantOverflow : static_cast<uint32_t>(key - 1);
    u.dentries = dentries > 0 ? static_cast<uint64_t>(dentries) : 0;
    u.negatives = negatives > 0 ? static_cast<uint64_t>(negatives) : 0;
    out.push_back(u);
  }
  return out;
}

size_t DentryCache::ShrinkAll() {
  size_t total = 0;
  while (true) {
    // drop_caches semantics: reference bits do not protect anything here.
    size_t n = ShrinkInternal(1024, /*second_chance=*/false);
    total += n;
    if (n == 0) {
      break;
    }
  }
  return total;
}

void DentryCache::InvalidateSubtree(Dentry* dir) {
  // Self-contained synchronous form: gate open, one engine pass, gate
  // close. Mutation paths that need the pass deferred past their critical
  // section (rename) open the CoherenceSection themselves and call
  // InvalidateNow at the right moment instead. The traversal, parallelism,
  // batched DLHT eviction, and obs recording all live in the engine
  // (src/vfs/inval.cc).
  CoherenceSection section(this);
  section.InvalidateNow(dir);
}

void DentryCache::InvalidateDentry(Dentry* d) {
  SpinGuard guard(d->lock);
  d->fast.seq.store(NewVersion(), std::memory_order_release);
  d->fast.path_valid.store(false, std::memory_order_release);
  Dlht::RemoveFromCurrent(&d->fast);
  kernel_->stats().invalidated_dentries.Add();
}

uint32_t DentryCache::NewVersion() {
  while (true) {
    uint64_t v = version_counter_.fetch_add(1, std::memory_order_acq_rel);
    auto low = static_cast<uint32_t>(v);
    if (low == 0) {
      // 32-bit wraparound: invalidate every active PCC (§3.1).
      kernel_->BumpPccEpoch();
      continue;
    }
    return low;
  }
}

std::vector<size_t> DentryCache::ChainHistogram(size_t max_len) const {
  std::vector<size_t> histogram(max_len + 1, 0);
  for (const HBucket& bucket : buckets_) {
    size_t len = 0;
    for (HNode* n = bucket.chain.First(); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      ++len;
    }
    histogram[std::min(len, max_len)] += 1;
  }
  return histogram;
}

}  // namespace dircache
