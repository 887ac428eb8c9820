// In-memory inodes and the per-superblock inode cache.
//
// An Inode caches the attributes of a low-level FS inode in VFS-generic
// form. Attribute words are atomics so the lock-free walk can read them for
// permission checks without taking locks; this VFS is the only mutator of
// its file systems, so cached attributes stay coherent by updating them on
// every VFS-initiated change.
#ifndef DIRCACHE_VFS_INODE_H_
#define DIRCACHE_VFS_INODE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/storage/fs.h"
#include "src/util/epoch.h"
#include "src/util/spinlock.h"
#include "src/vfs/types.h"

namespace dircache {

class Kernel;
class SuperBlock;

class Inode {
 public:
  Inode(SuperBlock* sb, const InodeAttr& attr);
  ~Inode();
  Inode(const Inode&) = delete;
  Inode& operator=(const Inode&) = delete;

  SuperBlock* sb() const { return sb_; }
  InodeNum ino() const { return ino_; }
  FileType type() const { return type_; }
  bool IsDir() const { return type_ == FileType::kDirectory; }
  bool IsSymlink() const { return type_ == FileType::kSymlink; }
  bool IsRegularFile() const { return type_ == FileType::kRegular; }

  uint16_t mode() const { return mode_.load(std::memory_order_relaxed); }
  Uid uid() const { return uid_.load(std::memory_order_relaxed); }
  Gid gid() const { return gid_.load(std::memory_order_relaxed); }
  uint32_t nlink() const { return nlink_.load(std::memory_order_relaxed); }
  uint64_t size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t mtime() const { return mtime_.load(std::memory_order_relaxed); }
  uint64_t ctime() const { return ctime_.load(std::memory_order_relaxed); }

  void set_mode(uint16_t m) { mode_.store(m, std::memory_order_relaxed); }
  void set_uid(Uid u) { uid_.store(u, std::memory_order_relaxed); }
  void set_gid(Gid g) { gid_.store(g, std::memory_order_relaxed); }
  void set_nlink(uint32_t n) { nlink_.store(n, std::memory_order_relaxed); }
  void set_size(uint64_t s) { size_.store(s, std::memory_order_relaxed); }
  void set_mtime(uint64_t t) { mtime_.store(t, std::memory_order_relaxed); }
  void set_ctime(uint64_t t) { ctime_.store(t, std::memory_order_relaxed); }

  // LSM object label. Readers must hold an epoch read guard (the string is
  // swapped atomically and reclaimed through the epoch domain).
  const std::string& security_label() const {
    return *label_.load(std::memory_order_acquire);
  }
  void set_security_label(std::string label);

  // Serializes data-plane updates (size/content races at the FS boundary).
  SpinLock lock;
  // Serializes low-level FS calls under this directory (i_rwsem analog):
  // lookup-vs-create races resolve here without holding spinlocks across
  // simulated I/O.
  std::mutex io_mu;

  // Cached symlink target (immutable per inode: POSIX symlinks are only
  // ever replaced, never retargeted). Null until first read.
  const std::string* cached_link_target() const {
    return link_target_.load(std::memory_order_acquire);
  }
  // Idempotent publish; returns the canonical cached copy.
  const std::string* cache_link_target(std::string target);

 private:
  friend class SuperBlock;

  SuperBlock* const sb_;
  const InodeNum ino_;
  const FileType type_;
  std::atomic<uint16_t> mode_;
  std::atomic<uint32_t> uid_;
  std::atomic<uint32_t> gid_;
  std::atomic<uint32_t> nlink_;
  std::atomic<uint64_t> size_;
  std::atomic<uint64_t> mtime_;
  std::atomic<uint64_t> ctime_;
  std::atomic<const std::string*> label_;
  std::atomic<const std::string*> link_target_{nullptr};

  std::atomic<uint32_t> refs_{1};
};

// A mounted file-system instance: the low-level FS plus its inode cache.
class SuperBlock {
 public:
  SuperBlock(Kernel* kernel, std::shared_ptr<FileSystem> fs, uint64_t dev_id);
  ~SuperBlock();
  SuperBlock(const SuperBlock&) = delete;
  SuperBlock& operator=(const SuperBlock&) = delete;

  Kernel* kernel() const { return kernel_; }
  FileSystem* fs() const { return fs_.get(); }
  uint64_t dev_id() const { return dev_id_; }
  // Cached FileSystem::NeedsRevalidation() — consulted on hot paths (§4.3).
  bool needs_revalidation() const { return needs_revalidation_; }

  // Find-or-create the in-memory inode, reading attributes from the FS on
  // first reference. Returns with an extra reference.
  Result<Inode*> Iget(InodeNum ino);
  // Same, but seeded from already-known attributes (avoids a GetAttr call).
  Inode* IgetWithAttr(const InodeAttr& attr);
  // Add a reference to an already-held inode.
  void IgetHeld(Inode* inode);
  void Iput(Inode* inode);

  size_t cached_inodes() const;

 private:
  Kernel* const kernel_;
  std::shared_ptr<FileSystem> fs_;
  const uint64_t dev_id_;
  const bool needs_revalidation_;

  mutable std::mutex mu_;
  std::unordered_map<InodeNum, Inode*> map_;
};

// stat() attributes of a cached inode. Used by Task's stat calls and by the
// fastpath's reference-free stat, which copies them inside an epoch guard
// and validates the dentry afterwards.
inline Stat StatFromInode(const Inode& inode) {
  Stat st;
  st.dev = inode.sb()->dev_id();
  st.ino = inode.ino();
  st.type = inode.type();
  st.mode = inode.mode();
  st.uid = inode.uid();
  st.gid = inode.gid();
  st.nlink = inode.nlink();
  st.size = inode.size();
  st.mtime = inode.mtime();
  st.ctime = inode.ctime();
  return st;
}

}  // namespace dircache

#endif  // DIRCACHE_VFS_INODE_H_
