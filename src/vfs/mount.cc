#include "src/vfs/mount.h"

#include <atomic>
#include <cassert>

#include "src/vfs/kernel.h"

namespace dircache {

namespace {
std::atomic<uint64_t> g_ns_ids{1};
}  // namespace

Mount::Mount(MountNamespace* ns, SuperBlock* sb, Dentry* root, Mount* parent,
             Dentry* mountpoint, MountFlags flags)
    : ns(ns),
      sb(sb),
      root(root),
      parent(parent),
      mountpoint(mountpoint),
      flags(flags) {}

MountNamespace::MountNamespace(Kernel* kernel, size_t dlht_buckets)
    : kernel_(kernel), id_(g_ns_ids.fetch_add(1)), dlht_(dlht_buckets) {}

MountNamespace::~MountNamespace() {
  // Kernel teardown detaches mounts; here we only drop bookkeeping.
  std::lock_guard<std::mutex> lock(mu_);
  for (Mount* m : all_mounts_) {
    delete m;
  }
}

void MountNamespace::SetRootMount(Mount* m) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(root_mount_ == nullptr);
  root_mount_ = m;
  all_mounts_.push_back(m);
}

Result<Mount*> MountNamespace::AddMount(SuperBlock* sb, Dentry* fs_root,
                                        Mount* parent_mnt, Dentry* mountpoint,
                                        MountFlags flags) {
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(static_cast<const Mount*>(parent_mnt),
                            static_cast<const Dentry*>(mountpoint));
  if (mounts_at_.count(key) > 0) {
    return Errno::kEBUSY;
  }
  if (!fs_root->DgetLive()) {
    return Errno::kESTALE;
  }
  if (!mountpoint->DgetLive()) {
    kernel_->dcache().Dput(fs_root);
    return Errno::kESTALE;
  }
  auto* m = new Mount(this, sb, fs_root, parent_mnt, mountpoint, flags);
  mounts_at_.emplace(key, m);
  all_mounts_.push_back(m);
  mountpoint->SetFlags(kDentMountpoint);
  return m;
}

Status MountNamespace::RemoveMount(Mount* m) {
  std::lock_guard<std::mutex> lock(mu_);
  // Refuse if a mount is still stacked on top of any dentry of this mount;
  // detached (already-unmounted) children don't count.
  for (Mount* other : all_mounts_) {
    if (other->parent == m &&
        other->attached.load(std::memory_order_acquire)) {
      return Errno::kEBUSY;
    }
  }
  auto key = std::make_pair(static_cast<const Mount*>(m->parent),
                            static_cast<const Dentry*>(m->mountpoint));
  auto it = mounts_at_.find(key);
  if (it == mounts_at_.end() || it->second != m) {
    return Errno::kEINVAL;
  }
  mounts_at_.erase(it);
  m->attached.store(false, std::memory_order_release);
  // The kDentMountpoint flag stays set (harmless hint) unless no namespace
  // mounts here anymore; clearing it precisely would require a global scan,
  // so we leave it — walkers tolerate a stale hint.
  return Status::Ok();
}

Mount* MountNamespace::MountAt(Mount* parent_mnt, Dentry* mountpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(static_cast<const Mount*>(parent_mnt),
                            static_cast<const Dentry*>(mountpoint));
  auto it = mounts_at_.find(key);
  return it == mounts_at_.end() ? nullptr : it->second;
}

std::vector<Mount*> MountNamespace::AllMounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return all_mounts_;
}

void MountNamespace::DetachAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Mount* m : all_mounts_) {
    kernel_->dcache().Dput(m->root);
    if (m->mountpoint != nullptr) {
      kernel_->dcache().Dput(m->mountpoint);
    }
  }
  mounts_at_.clear();
}

}  // namespace dircache
