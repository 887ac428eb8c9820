// The invariant auditor's traversal (see audit.h for the contract). This
// file needs the VFS internals (DentryCache befriends RunAudit), so it is
// compiled into the vfs library even though its interface lives in obs.
#include "src/obs/audit.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string_view>
#include <tuple>
#include <unordered_set>

#include "src/core/dlht.h"
#include "src/core/pcc.h"
#include "src/vfs/dentry.h"
#include "src/vfs/kernel.h"
#include "src/vfs/mount.h"

namespace dircache {

obs::AuditReport Kernel::Audit(const std::vector<const Pcc*>& pccs) {
  obs::AuditReport report = obs::RunAudit(*this, pccs);
  if (!report.clean()) {
    // Ship the anomaly with its evidence: the last fully traced requests
    // (span trees + attribution) go to stderr alongside the violations.
    obs_.DumpFlightRecorder("audit_failure");
  }
  return report;
}

namespace obs {

namespace {

// Deeper than any legal parent chain (paths are capped at PATH_MAX and
// components are at least one byte).
constexpr size_t kMaxParentDepth = PathHashKey::kMaxPathLen + 2;

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

const char* DentName(const Dentry* d) {
  return d->name().empty() ? "<root>" : d->name().c_str();
}

struct Auditor {
  AuditReport report;
  // Every dentry reached by the children-list traversal from mount roots.
  std::unordered_set<const Dentry*> reachable;

  void Violate(AuditCheck check, std::string detail) {
    report.violations.push_back({check, std::move(detail)});
  }

  // DFS over the children lists from `root`, checking parent back-pointers,
  // liveness, and acyclicity. Bind mounts share dentries, so re-reaching an
  // already-visited subtree through another mount is legal; a cycle within
  // one DFS path is not.
  void WalkTree(Dentry* root) {
    std::unordered_set<const Dentry*> on_path;
    WalkTreeFrom(root, 0, &on_path);
  }

  void WalkTreeFrom(Dentry* d, size_t depth,
                    std::unordered_set<const Dentry*>* on_path) {
    if (depth > kMaxParentDepth) {
      Violate(AuditCheck::kTreeStructure,
              Format("children-list depth exceeds %zu below dentry %p '%s'",
                     kMaxParentDepth, static_cast<void*>(d), DentName(d)));
      return;
    }
    if (!on_path->insert(d).second) {
      Violate(AuditCheck::kTreeStructure,
              Format("children-list cycle through dentry %p '%s'",
                     static_cast<void*>(d), DentName(d)));
      return;
    }
    if (reachable.insert(d).second) {
      ++report.dentries_visited;
    }
    std::vector<Dentry*> children;
    {
      SpinGuard guard(d->lock);
      for (Dentry* child : d->children) {
        if (child->parent() != d) {
          Violate(AuditCheck::kTreeStructure,
                  Format("dentry %p '%s' on children list of %p '%s' but its "
                         "parent pointer is %p",
                         static_cast<void*>(child), DentName(child),
                         static_cast<void*>(d), DentName(d),
                         static_cast<void*>(child->parent())));
        }
        if (child->IsDead()) {
          Violate(AuditCheck::kTreeStructure,
                  Format("dead dentry %p '%s' still on children list of "
                         "%p '%s'",
                         static_cast<void*>(child), DentName(child),
                         static_cast<void*>(d), DentName(d)));
        }
        children.push_back(child);
      }
      if (d->listing != nullptr) {
        CheckListing(d);
      }
    }
    // Recurse outside the parent's lock (quiescence makes the two-phase
    // scan exact; taking child locks under d->lock would invert the
    // Kill/AddChild order).
    for (Dentry* child : children) {
      WalkTreeFrom(child, depth + 1, on_path);
    }
    on_path->erase(d);
  }

  // Compare `dir`'s listing with its children list, as (name, ino, type)
  // multisets. Caller holds dir->lock.
  void CheckListing(Dentry* dir) {
    using Row = std::tuple<std::string_view, InodeNum, FileType>;
    ++report.listings;
    const DirListing& l = *dir->listing;
    std::vector<Row> listed;
    for (size_t i = 0; i < l.size(); ++i) {
      listed.emplace_back(l.name(i), l.entry(i).ino, l.entry(i).type);
    }
    std::vector<Row> live;
    for (const Dentry* child : dir->children) {
      InodeNum ino = 0;
      FileType type = FileType::kRegular;
      if (ListedChild(*child, &ino, &type)) {
        live.emplace_back(child->name(), ino, type);
      }
    }
    std::sort(listed.begin(), listed.end());
    std::sort(live.begin(), live.end());
    if (listed != live) {
      Violate(AuditCheck::kDirListing,
              Format("directory %p '%s': listing holds %zu entries but %zu "
                     "live positive or stub children (a children-list edit "
                     "kept a stale listing?)",
                     static_cast<const void*>(dir), DentName(dir),
                     listed.size(), live.size()));
    }
  }

  void CheckDlhtEntry(FastDentry* fd, Dlht* table, uint64_t ns_id) {
    ++report.dlht_entries;
    const Dentry* d = DentryFromFast(fd);
    if (fd->on_dlht.load(std::memory_order_acquire) != table) {
      Violate(AuditCheck::kDlhtEntry,
              Format("dentry %p '%s' chained on namespace %" PRIu64
                     "'s DLHT but on_dlht says %p",
                     static_cast<const void*>(d), DentName(d), ns_id,
                     static_cast<void*>(
                         fd->on_dlht.load(std::memory_order_acquire))));
    }
    if (d->IsDead()) {
      Violate(AuditCheck::kDlhtEntry,
              Format("dead dentry %p '%s' still on namespace %" PRIu64
                     "'s DLHT",
                     static_cast<const void*>(d), DentName(d), ns_id));
    }
    if (!fd->path_valid.load(std::memory_order_acquire)) {
      Violate(AuditCheck::kDlhtEntry,
              Format("DLHT entry %p '%s' has path_valid == false (stale "
                     "signature left published)",
                     static_cast<const void*>(d), DentName(d)));
    }
    if (fd->seq.load(std::memory_order_acquire) == 0) {
      Violate(AuditCheck::kDlhtEntry,
              Format("DLHT entry %p '%s' has an uninitialized version "
                     "counter",
                     static_cast<const void*>(d), DentName(d)));
    }
    if (reachable.count(d) == 0) {
      Violate(AuditCheck::kDlhtEntry,
              Format("DLHT entry %p '%s' is not reachable from any mount "
                     "root (retired or leaked node still linked)",
                     static_cast<const void*>(d), DentName(d)));
    }
    // The parent chain must terminate at a superblock root within path
    // bounds — a dangling parent pointer would send fastpath validation
    // through freed memory.
    const Dentry* p = d;
    for (size_t depth = 0; p->parent() != nullptr; p = p->parent()) {
      if (++depth > kMaxParentDepth) {
        Violate(AuditCheck::kDlhtEntry,
                Format("DLHT entry %p '%s': parent chain exceeds %zu "
                       "(cycle?)",
                       static_cast<const void*>(d), DentName(d),
                       kMaxParentDepth));
        return;
      }
    }
    if (!p->TestFlags(kDentRoot)) {
      Violate(AuditCheck::kDlhtEntry,
              Format("DLHT entry %p '%s': parent chain ends at %p '%s', "
                     "which is not a superblock root",
                     static_cast<const void*>(d), DentName(d),
                     static_cast<const void*>(p), DentName(p)));
    }
  }
};

}  // namespace

std::string AuditReport::Summary() const {
  return Format("audit: %s (%" PRIu64 " dentries, %" PRIu64
                " dlht entries, %" PRIu64 " lru entries, %" PRIu64
                " hash-chain entries, %" PRIu64 " pcc entries in %" PRIu64
                " pccs, %" PRIu64 " listings)",
                clean() ? "clean"
                        : Format("%zu violations", violations.size()).c_str(),
                dentries_visited, dlht_entries, lru_entries,
                hash_chain_entries, pcc_entries, pccs_checked, listings);
}

std::string AuditReport::ToText() const {
  std::string out = Summary();
  out.push_back('\n');
  for (const AuditViolation& v : violations) {
    out += Format("  [%s] ", AuditCheckName(v.check));
    out += v.detail;
    out.push_back('\n');
  }
  return out;
}

AuditReport RunAudit(Kernel& kernel, const std::vector<const Pcc*>& pccs) {
  Auditor a;
  // Exclusive tree lock: stops locked walkers and mutators. Lock-free
  // walkers and Shrink() are the caller's responsibility (quiescence).
  std::unique_lock<std::shared_mutex> tree(kernel.tree_lock());
  DentryCache& dc = kernel.dcache();

  // 1. Tree structure + reachability, from every mount root of every
  // namespace (bind mounts and namespace clones share dentries; the
  // reachable set is the union).
  for (const MountNamespacePtr& ns : kernel.namespaces_) {
    for (Mount* m : ns->AllMounts()) {
      a.WalkTree(m->root);
    }
  }

  // 2. Primary hash chains: liveness, key/bucket placement, and membership
  // in the parent's children list.
  for (size_t i = 0; i < dc.buckets_.size(); ++i) {
    DentryCache::HBucket& bucket = dc.buckets_[i];
    SpinGuard guard(bucket.lock);
    for (HNode* n = bucket.chain.First(); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      auto* d = FromHNode<Dentry, &Dentry::hash_node>(n);
      ++a.report.hash_chain_entries;
      if (d->IsDead()) {
        a.Violate(AuditCheck::kHashChain,
                  Format("dead dentry %p '%s' still on a hash chain",
                         static_cast<void*>(d), DentName(d)));
        continue;
      }
      if (d->TestFlags(kDentAlias)) {
        a.Violate(AuditCheck::kHashChain,
                  Format("alias dentry %p '%s' is hashed (aliases must be "
                         "DLHT-only, §4.2)",
                         static_cast<void*>(d), DentName(d)));
      }
      if ((d->hash_key & dc.bucket_mask_) != i) {
        a.Violate(AuditCheck::kHashChain,
                  Format("dentry %p '%s' chained in bucket %zu but its key "
                         "maps to bucket %zu",
                         static_cast<void*>(d), DentName(d), i,
                         static_cast<size_t>(d->hash_key & dc.bucket_mask_)));
      }
      Dentry* parent = d->parent();
      if (parent == nullptr) {
        a.Violate(AuditCheck::kHashChain,
                  Format("hashed dentry %p '%s' has no parent",
                         static_cast<void*>(d), DentName(d)));
        continue;
      }
      if (d->hash_key != dc.KeyFor(parent, d->name())) {
        a.Violate(AuditCheck::kHashChain,
                  Format("dentry %p '%s': hash_key does not match "
                         "KeyFor(parent, name) — stale after a move?",
                         static_cast<void*>(d), DentName(d)));
      }
      bool on_children = false;
      {
        SpinGuard pguard(parent->lock);
        for (Dentry* child : parent->children) {
          if (child == d) {
            on_children = true;
            break;
          }
        }
      }
      if (!on_children) {
        a.Violate(AuditCheck::kHashChain,
                  Format("hashed dentry %p '%s' missing from parent %p "
                         "'%s''s children list",
                         static_cast<void*>(d), DentName(d),
                         static_cast<void*>(parent), DentName(parent)));
      }
    }
  }

  // 3. LRU: walked length matches the maintained counter; every resident
  // entry carries the flag. (Dead entries may legally sit here until their
  // last external reference drops.)
  {
    SpinGuard guard(dc.lru_lock_);
    size_t walked = 0;
    for (Dentry* d : dc.lru_) {
      ++walked;
      if (!d->TestFlags(kDentOnLru)) {
        a.Violate(AuditCheck::kLruConsistency,
                  Format("dentry %p '%s' on the LRU list without "
                         "kDentOnLru",
                         static_cast<void*>(d), DentName(d)));
      }
      if (walked > dc.lru_len_ + 1024) {
        a.Violate(AuditCheck::kLruConsistency,
                  Format("LRU walk exceeded lru_len_=%zu by 1024 entries "
                         "(corrupt list?)",
                         dc.lru_len_));
        break;
      }
    }
    a.report.lru_entries = walked;
    if (walked != dc.lru_len_) {
      a.Violate(AuditCheck::kLruConsistency,
                Format("LRU length mismatch: walked %zu, counter says %zu",
                       walked, dc.lru_len_));
    }
  }

  // 4. Residency: at quiescence a live, unreferenced, reachable dentry must
  // be parked on the LRU, or nothing can ever evict it.
  for (const Dentry* d : a.reachable) {
    if (!d->IsDead() && d->ref_count() == 0 && !d->TestFlags(kDentOnLru)) {
      a.Violate(AuditCheck::kLruResidency,
                Format("live unreferenced dentry %p '%s' is not parked on "
                       "the LRU",
                       static_cast<const void*>(d), DentName(d)));
    }
  }

  // 5. DLHT entries, per namespace. The iteration is resize-aware (it
  // covers un-migrated old buckets plus the new table when a migration is
  // parked mid-flight), so the walked count must match the maintained size
  // counter exactly at quiescence.
  for (const MountNamespacePtr& ns : kernel.namespaces_) {
    Dlht* table = &ns->dlht();
    uint64_t walked = 0;
    table->ForEachEntry([&](FastDentry* fd) {
      ++walked;
      a.CheckDlhtEntry(fd, table, ns->id());
    });
    if (walked != table->size()) {
      a.Violate(AuditCheck::kDlhtEntry,
                Format("namespace %" PRIu64 "'s DLHT size counter says %zu "
                       "but the table holds %" PRIu64
                       " entries (lost during a resize?)",
                       ns->id(), table->size(), walked));
    }
  }

  // 6. PCC sequence sanity: no entry memoizes a version the global counter
  // has not issued. Meaningful only before 32-bit wraparound (afterwards
  // the epoch flush, not the seq compare, is the defense — §3.1).
  uint64_t version_high_water =
      dc.version_counter_.load(std::memory_order_acquire);
  for (const Pcc* pcc : pccs) {
    if (pcc == nullptr) {
      continue;
    }
    ++a.report.pccs_checked;
    pcc->ForEachEntry([&](uint64_t key, uint32_t seq) {
      ++a.report.pcc_entries;
      if (version_high_water <= 0xffffffffull && seq >= version_high_water) {
        a.Violate(AuditCheck::kPccSeq,
                  Format("PCC entry (key %#" PRIx64
                         ") memoizes seq %u but the version counter has "
                         "only issued up to %" PRIu64,
                         key, seq, version_high_water - 1));
      }
    });
  }

  return a.report;
}

}  // namespace obs
}  // namespace dircache
