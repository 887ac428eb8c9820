// PathHandle: a (mount, dentry) pair — the kernel's struct path.
#ifndef DIRCACHE_VFS_PATH_H_
#define DIRCACHE_VFS_PATH_H_

#include <utility>

#include "src/vfs/kernel.h"

namespace dircache {

// Holds one dentry reference and a non-owning mount pointer (mounts live
// until kernel teardown; see Mount). Copyable (copies take an additional
// dentry reference) and movable.
class PathHandle {
 public:
  PathHandle() = default;

  // Adopts an already-acquired dentry reference.
  static PathHandle Adopt(Mount* mnt, Dentry* dentry) {
    PathHandle p;
    p.mnt_ = mnt;
    p.dentry_ = dentry;
    return p;
  }

  // Takes a new dentry reference (the caller's is untouched). The dentry
  // must be alive (callers pass dentries they hold references on).
  static PathHandle Acquire(Mount* mnt, Dentry* dentry) {
    dentry->DgetHeld();
    return Adopt(mnt, dentry);
  }

  PathHandle(const PathHandle& o) : mnt_(o.mnt_), dentry_(o.dentry_) {
    if (dentry_ != nullptr) {
      dentry_->DgetHeld();
    }
  }

  PathHandle& operator=(const PathHandle& o) {
    if (this != &o) {
      PathHandle copy(o);
      *this = std::move(copy);
    }
    return *this;
  }

  PathHandle(PathHandle&& o) noexcept : mnt_(o.mnt_), dentry_(o.dentry_) {
    o.mnt_ = nullptr;
    o.dentry_ = nullptr;
  }

  PathHandle& operator=(PathHandle&& o) noexcept {
    if (this != &o) {
      Reset();
      mnt_ = o.mnt_;
      dentry_ = o.dentry_;
      o.mnt_ = nullptr;
      o.dentry_ = nullptr;
    }
    return *this;
  }

  ~PathHandle() { Reset(); }

  void Reset() {
    if (dentry_ != nullptr) {
      dentry_->sb()->kernel()->dcache().Dput(dentry_);
      dentry_ = nullptr;
    }
    mnt_ = nullptr;
  }

  explicit operator bool() const { return dentry_ != nullptr; }
  Mount* mnt() const { return mnt_; }
  Dentry* dentry() const { return dentry_; }
  Inode* inode() const {
    return dentry_ == nullptr ? nullptr : dentry_->inode();
  }

 private:
  Mount* mnt_ = nullptr;
  Dentry* dentry_ = nullptr;
};

}  // namespace dircache

#endif  // DIRCACHE_VFS_PATH_H_
