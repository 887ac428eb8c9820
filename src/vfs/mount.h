// Mounts and mount namespaces (§4.3).
//
// A Mount stacks a SuperBlock's root dentry over a mountpoint dentry of a
// parent mount. A MountNamespace is a private view of the mount tree; each
// namespace owns its own Direct Lookup Hash Table, so the same path inside
// and outside a namespace maps to different dentries without conflict.
#ifndef DIRCACHE_VFS_MOUNT_H_
#define DIRCACHE_VFS_MOUNT_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/dlht.h"
#include "src/vfs/dentry.h"

namespace dircache {

class Kernel;
class MountNamespace;

// Permission-relevant mount flags (§4.3).
struct MountFlags {
  bool read_only = false;
  bool nosuid = false;
  bool noexec = false;
};

// A Mount has no reference count. It lives until its namespace is destroyed
// at kernel teardown (RemoveMount only detaches it), so walkers and
// PathHandles hold plain non-owning Mount pointers and a warm lookup writes
// nothing on the mount.
struct Mount {
  Mount(MountNamespace* ns, SuperBlock* sb, Dentry* root, Mount* parent,
        Dentry* mountpoint, MountFlags flags);

  MountNamespace* const ns;
  SuperBlock* const sb;
  Dentry* const root;        // reference held
  Mount* const parent;       // null for the namespace root mount
  Dentry* const mountpoint;  // dentry covered in the parent mount (ref held)
  const MountFlags flags;

  // Cleared on umount; detached mounts no longer block their parents.
  std::atomic<bool> attached{true};
};

class MountNamespace {
 public:
  MountNamespace(Kernel* kernel, size_t dlht_buckets);
  ~MountNamespace();
  MountNamespace(const MountNamespace&) = delete;
  MountNamespace& operator=(const MountNamespace&) = delete;

  Kernel* kernel() const { return kernel_; }
  Dlht& dlht() { return dlht_; }
  uint64_t id() const { return id_; }

  Mount* root_mount() const { return root_mount_; }

  // Install the namespace's root mount (once, at kernel init / clone).
  void SetRootMount(Mount* m);

  // Create and attach a mount of `sb` at (parent_mnt, mountpoint).
  // Fails with EBUSY if something is already mounted exactly there.
  Result<Mount*> AddMount(SuperBlock* sb, Dentry* fs_root, Mount* parent_mnt,
                          Dentry* mountpoint, MountFlags flags);

  // Detach a mount (EBUSY if child mounts sit on top of it).
  Status RemoveMount(Mount* m);

  // The mount covering `mountpoint` under `parent_mnt`, or null. Callers
  // should check the dentry's kDentMountpoint flag first (hot path).
  Mount* MountAt(Mount* parent_mnt, Dentry* mountpoint) const;

  // All mounts, for namespace cloning and teardown.
  std::vector<Mount*> AllMounts() const;

  // Drop the dentry references held by every mount (kernel teardown; must
  // run before the dentry cache is destroyed).
  void DetachAll();

 private:
  Kernel* const kernel_;
  const uint64_t id_;
  Dlht dlht_;

  mutable std::mutex mu_;
  Mount* root_mount_ = nullptr;
  // Keyed by (parent mount, mountpoint dentry).
  std::map<std::pair<const Mount*, const Dentry*>, Mount*> mounts_at_;
  std::vector<Mount*> all_mounts_;
};

using MountNamespacePtr = std::shared_ptr<MountNamespace>;

}  // namespace dircache

#endif  // DIRCACHE_VFS_MOUNT_H_
