#include "src/vfs/kernel.h"

#include <random>

#include "src/core/pcc.h"
#include "src/util/epoch.h"
#include "src/vfs/governor.h"
#include "src/vfs/task.h"

namespace dircache {

Kernel::Kernel(const KernelConfig& config) : config_(config) {
  uint64_t seed = config_.signature_seed;
  if (seed == 0) {
    std::random_device rd;
    seed = (static_cast<uint64_t>(rd()) << 32) | rd();
  }
  signer_ = std::make_unique<PathSigner>(seed);
  dcache_ = std::make_unique<DentryCache>(this, config_.cache);
  obs_.Configure(config_.obs);
  if (config_.cache.governor) {
    governor_ = std::make_unique<CacheGovernor>(this);
    governor_->Start();
  }
}

Kernel::~Kernel() {
  // Contract: all tasks and file handles have been destroyed by now. The
  // governor goes first — its loop walks namespaces and drives migrations.
  if (governor_ != nullptr) {
    governor_->Stop();
  }
  for (auto& ns : namespaces_) {
    ns->DetachAll();
  }
  dcache_->ShrinkAll();
  // Let deferred frees run before superblocks disappear.
  EpochDomain::Global().Synchronize();
}

obs::ObsSnapshot Kernel::Observe() const {
  obs::ObsSnapshot snap = obs_.Snapshot(&stats_);
  obs::MemoryAccounting& mem = snap.memory;
  mem.budget_bytes = config_.cache.cache_memory_budget;
  mem.dentry_count = dcache_->dentry_count();
  mem.negative_dentries = dcache_->negative_count();
  const CacheUsage usage = MeasureCacheUsage();
  mem.dentry_bytes = usage.dentry_bytes;
  mem.dlht_bytes = usage.dlht_bytes;
  mem.pcc_bytes = usage.pcc_bytes;
  mem.total_bytes = usage.total();
  for (const MountNamespacePtr& ns : AllNamespaces()) {
    Dlht& table = ns->dlht();
    mem.dlht_buckets += table.bucket_count();
    mem.dlht_entries += table.size();
    mem.dlht_resize_in_flight |= table.resize_in_flight();
  }
  for (const std::shared_ptr<Pcc>& pcc : LivePccs()) {
    ++mem.pcc_count;
    mem.pcc_entries += pcc->OccupiedEntries();
    mem.pcc_capacity += pcc->capacity_entries();
  }
  for (const DentryCache::TenantUsage& t : dcache_->TenantUsages()) {
    mem.tenants.push_back({t.tenant, t.dentries, t.negatives});
  }
  return snap;
}

CacheUsage Kernel::MeasureCacheUsage() const {
  CacheUsage u;
  u.dentry_bytes = static_cast<uint64_t>(dcache_->dentry_count()) *
                       DentryCache::kApproxDentryBytes +
                   dcache_->listing_bytes();
  for (const MountNamespacePtr& ns : AllNamespaces()) {
    u.dlht_bytes += ns->dlht().memory_bytes();
  }
  for (const std::shared_ptr<Pcc>& pcc : LivePccs()) {
    u.pcc_bytes += pcc->bytes();
  }
  return u;
}

std::vector<MountNamespacePtr> Kernel::AllNamespaces() const {
  std::lock_guard<std::mutex> lock(sb_mu_);
  return namespaces_;
}

void Kernel::RegisterCred(const CredPtr& cred) {
  if (cred == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(cred_mu_);
  for (auto it = creds_.begin(); it != creds_.end();) {
    auto held = it->lock();
    if (held == nullptr) {
      it = creds_.erase(it);
      continue;
    }
    if (held == cred) {
      return;  // already registered
    }
    ++it;
  }
  creds_.push_back(cred);
}

std::vector<std::shared_ptr<Pcc>> Kernel::LivePccs() const {
  std::vector<std::shared_ptr<Pcc>> out;
  std::lock_guard<std::mutex> lock(cred_mu_);
  for (const auto& weak : creds_) {
    auto cred = weak.lock();
    if (cred == nullptr) {
      continue;
    }
    auto pcc = cred->pcc_shared();
    if (pcc != nullptr) {
      out.push_back(std::move(pcc));
    }
  }
  return out;
}

SuperBlock* Kernel::RegisterFs(std::shared_ptr<FileSystem> fs) {
  std::lock_guard<std::mutex> lock(sb_mu_);
  for (auto& sb : superblocks_) {
    if (sb->fs() == fs.get()) {
      return sb.get();  // mount alias of an already-registered instance
    }
  }
  superblocks_.push_back(
      std::make_unique<SuperBlock>(this, std::move(fs), next_dev_id_++));
  return superblocks_.back().get();
}

Status Kernel::MountRootFs(std::shared_ptr<FileSystem> fs) {
  if (root_ns_ != nullptr) {
    return Errno::kEBUSY;
  }
  SuperBlock* sb = RegisterFs(std::move(fs));
  auto root_inode = sb->Iget(sb->fs()->RootIno());
  if (!root_inode.ok()) {
    return root_inode.error();
  }
  Dentry* root_dentry = dcache_->MakeRoot(sb, *root_inode);
  root_ns_ = std::make_shared<MountNamespace>(this,
                                              config_.cache.dlht_buckets);
  auto* m = new Mount(root_ns_.get(), sb, root_dentry, nullptr, nullptr,
                      MountFlags{});
  root_ns_->SetRootMount(m);
  namespaces_.push_back(root_ns_);
  return Status::Ok();
}

std::vector<Mount*> Kernel::MountsOn(Dentry* mountpoint) {
  std::vector<Mount*> result;
  std::lock_guard<std::mutex> lock(sb_mu_);
  for (const auto& ns : namespaces_) {
    for (Mount* m : ns->AllMounts()) {
      if (m->mountpoint == mountpoint &&
          m->attached.load(std::memory_order_acquire)) {
        result.push_back(m);
      }
    }
  }
  return result;
}

MountNamespacePtr Kernel::CloneNamespace(
    const MountNamespacePtr& source,
    std::unordered_map<const Mount*, Mount*>* remap_out) {
  auto clone = std::make_shared<MountNamespace>(this,
                                                config_.cache.dlht_buckets);
  std::unordered_map<const Mount*, Mount*> remap;
  // all_mounts_ preserves creation order, so parents precede children.
  for (Mount* m : source->AllMounts()) {
    Mount* new_parent =
        m->parent == nullptr ? nullptr : remap.at(m->parent);
    if (m->parent == nullptr) {
      m->root->DgetHeld();
      auto* copy = new Mount(clone.get(), m->sb, m->root, nullptr, nullptr,
                             m->flags);
      clone->SetRootMount(copy);
      remap.emplace(m, copy);
    } else {
      auto added = clone->AddMount(m->sb, m->root, new_parent,
                                   m->mountpoint, m->flags);
      if (added.ok()) {
        remap.emplace(m, *added);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(sb_mu_);
    namespaces_.push_back(clone);
  }
  if (remap_out != nullptr) {
    *remap_out = std::move(remap);
  }
  return clone;
}

std::shared_ptr<Task> Kernel::CreateInitTask(CredPtr cred) {
  Mount* rm = root_ns_->root_mount();
  PathHandle root = PathHandle::Acquire(rm, rm->root);
  PathHandle cwd = root;
  return std::make_shared<Task>(this, std::move(cred), root_ns_,
                                std::move(root), std::move(cwd));
}

void Kernel::DropCaches() {
  std::unique_lock<std::shared_mutex> tree(tree_mutex_);
  dcache_->ShrinkAll();
  std::lock_guard<std::mutex> lock(sb_mu_);
  for (auto& sb : superblocks_) {
    sb->fs()->DropCaches();
  }
}

}  // namespace dircache
