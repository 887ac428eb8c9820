// The simulated kernel: configuration, the dentry cache, security stack,
// path signer, superblock registry, namespaces, and the global
// synchronization objects the walk and mutation paths share.
//
// Synchronization model (documented in DESIGN.md):
//  - Optimistic walks take no locks; they validate a global rename seqcount
//    (rename_lock analog) and per-structure seqcounts, with memory safety
//    from epoch-based reclamation.
//  - Locked walks hold tree_lock shared.
//  - Structure/permission mutations hold tree_lock exclusive and wrap
//    structural changes in rename_seq writes.
#ifndef DIRCACHE_VFS_KERNEL_H_
#define DIRCACHE_VFS_KERNEL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/core/config.h"
#include "src/core/signature.h"
#include "src/obs/audit.h"
#include "src/obs/obs_config.h"
#include "src/obs/observability.h"
#include "src/util/clock.h"
#include "src/util/spinlock.h"
#include "src/util/stats.h"
#include "src/vfs/dcache.h"
#include "src/vfs/lsm.h"
#include "src/vfs/mount.h"

namespace dircache {

class CacheGovernor;
class Task;

// The cache's accounted bytes (DESIGN.md §15): dentries at
// DentryCache::kApproxDentryBytes each plus the readdir listings they hold
// (§5.1), every namespace's DLHT, and every live PCC. The governor's budget
// and Observe()'s memory section read this one measure.
struct CacheUsage {
  uint64_t dentry_bytes = 0;
  uint64_t dlht_bytes = 0;
  uint64_t pcc_bytes = 0;
  uint64_t total() const { return dentry_bytes + dlht_bytes + pcc_bytes; }
};

struct KernelConfig {
  CacheConfig cache;
  // Seed for the signature hash key; 0 draws entropy at boot (§3.3).
  uint64_t signature_seed = 0;
  // Observability (latency histograms + walk tracing). Off by default so
  // the headline benchmarks measure the undisturbed read path.
  ObsConfig obs;
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const CacheConfig& config() const { return config_.cache; }
  DentryCache& dcache() { return *dcache_; }
  CacheStats& stats() { return stats_; }
  SecurityStack& security() { return security_; }
  const PathSigner& signer() const { return *signer_; }

  // --- observability (DESIGN.md §9) ----------------------------------------
  Observability& obs() { return obs_; }

  // The introspection API: a versioned snapshot of latency histograms,
  // walk-outcome counts, recent traces, path heat, the coherence journal,
  // the sampler timeline, the flat cache counters, and (schema v4) the
  // cache memory-accounting block. Supersedes reading stats().ToString().
  // Safe to call concurrently with lookups; always includes the counter and
  // memory sections even when obs is disabled.
  obs::ObsSnapshot Observe() const;
  CacheUsage MeasureCacheUsage() const;

  // The background sampler's time series alone (schema v2 `timeline`
  // section); `active == false` when obs or the sampler is off. Safe to
  // call concurrently with lookups.
  obs::ObsTimeline Timeline() const { return obs_.Timeline(); }

  // Resets the sampler's sticky watchdog flags (hit-rate collapse,
  // invalidation spike). Without this, one transient spike latches into
  // every later Timeline() reading; an operator acknowledges the incident
  // and re-arms the watchdogs here. A later trip latches (and dumps the
  // flight recorder) again. No-op when obs or the sampler is off.
  void ClearWatchdogFlags() { obs_.ClearWatchdogFlags(); }

  // Online invariant auditor (DESIGN.md §10): cross-checks the dcache /
  // DLHT / LRU structural invariants and (optionally) the supplied PCCs,
  // returning a typed violation report. Holds the tree lock exclusive;
  // expects quiescence — no concurrent mutators or lock-free walkers — for
  // exact results.
  obs::AuditReport Audit(const std::vector<const Pcc*>& pccs = {});

  // --- global synchronization ---------------------------------------------
  std::shared_mutex& tree_lock() { return tree_mutex_; }
  SeqCount& rename_seq() { return rename_seq_; }
  // Serializes whole walks in the kGlobalLock era (Figure 2 staging).
  std::mutex& global_walk_lock() { return global_walk_mutex_; }

  // --- PCC epoch (version-counter wraparound, §3.1) -------------------------
  uint64_t pcc_epoch() const {
    return pcc_epoch_.load(std::memory_order_acquire);
  }
  void BumpPccEpoch() {
    uint64_t next = pcc_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (obs_.enabled()) {
      // Epoch advances are rare (32-bit version wraparound) but flush every
      // PCC in the system — worth an instant in the coherence journal.
      obs_.RecordJournal(obs::JournalEvent::kEpochAdvance, NowNanos(),
                         /*duration_ns=*/0, next);
    }
  }

  // --- file systems and namespaces ----------------------------------------
  // Create a superblock for `fs` (does not mount it).
  SuperBlock* RegisterFs(std::shared_ptr<FileSystem> fs);

  // Install the root file system (must be the first mount).
  Status MountRootFs(std::shared_ptr<FileSystem> fs);

  MountNamespacePtr root_ns() const { return root_ns_; }

  // Every mount (across all namespaces) whose mountpoint is `dentry`.
  // Used by subtree invalidation to propagate across mount boundaries.
  std::vector<Mount*> MountsOn(Dentry* mountpoint);

  // Clone a namespace: a private copy of the mount tree with its own DLHT.
  // `remap_out` (optional) receives the old-mount -> new-mount mapping so
  // callers can translate held paths (e.g. a task's root/cwd).
  MountNamespacePtr CloneNamespace(
      const MountNamespacePtr& source,
      std::unordered_map<const Mount*, Mount*>* remap_out = nullptr);

  // --- tasks ----------------------------------------------------------------
  // The first task: cwd = root = the root mount. Must follow MountRootFs.
  std::shared_ptr<Task> CreateInitTask(CredPtr cred);

  // --- memory-pressure / cold-cache helpers ---------------------------------
  // Drop all unused dentries and each file system's clean buffers.
  void DropCaches();

  // --- cache governor (DESIGN.md §15) ---------------------------------------
  // The memory-budget policy loop; null unless Config::governor is set.
  // Tests and benches drive governor()->Tick() directly for determinism.
  CacheGovernor* governor() { return governor_.get(); }

  // Every registered mount namespace (each owns one elastic DLHT), copied
  // under sb_mu_ so the governor and Observe() can walk tables without
  // holding the registry lock.
  std::vector<MountNamespacePtr> AllNamespaces() const;

  // Cred registry for PCC accounting: creds create their PCC lazily on the
  // first slowpath walk, so the kernel tracks the cred (weakly) and asks it
  // for the table at accounting time. Called from Task construction and
  // SetCred — cold paths.
  void RegisterCred(const CredPtr& cred);
  // Every live PCC across registered creds (expired creds are pruned).
  std::vector<std::shared_ptr<Pcc>> LivePccs() const;

 private:
  friend class Task;
  // The invariant auditor walks the namespace list directly (audit.cc).
  friend obs::AuditReport obs::RunAudit(Kernel&,
                                        const std::vector<const Pcc*>&);

  KernelConfig config_;
  CacheStats stats_;
  Observability obs_;
  std::unique_ptr<PathSigner> signer_;
  std::unique_ptr<DentryCache> dcache_;
  SecurityStack security_;

  std::shared_mutex tree_mutex_;
  SeqCount rename_seq_;
  std::mutex global_walk_mutex_;
  std::atomic<uint64_t> pcc_epoch_{1};

  mutable std::mutex sb_mu_;
  std::vector<std::unique_ptr<SuperBlock>> superblocks_;
  uint64_t next_dev_id_ = 1;

  MountNamespacePtr root_ns_;
  std::vector<MountNamespacePtr> namespaces_;

  // Cred registry for PCC memory accounting (DESIGN.md §15).
  mutable std::mutex cred_mu_;
  std::vector<std::weak_ptr<const Cred>> creds_;

  std::unique_ptr<CacheGovernor> governor_;
};

}  // namespace dircache

#endif  // DIRCACHE_VFS_KERNEL_H_
