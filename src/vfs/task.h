// Task: a simulated process — credentials, namespace, root/cwd, file table,
// and the POSIX-ish syscall surface every experiment drives.
//
// Each syscall optionally records its latency into a per-task profiler
// (Figure 1's "time in path-based system calls") and charges simulated
// device time to the task's virtual clock (cold-cache costs).
#ifndef DIRCACHE_VFS_TASK_H_
#define DIRCACHE_VFS_TASK_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/clock.h"
#include "src/vfs/cred.h"
#include "src/vfs/path.h"
#include "src/vfs/walk.h"

namespace dircache {

namespace server {
struct SubmissionQueueEntry;
struct CompletionQueueEntry;
}  // namespace server

// Open file description.
class File {
 public:
  File(PathHandle path, int flags) : path_(std::move(path)), flags_(flags) {}

  const PathHandle& path() const { return path_; }
  int flags() const { return flags_; }
  uint64_t offset = 0;

  // readdir scan state (§5.1): a directory becomes DIR_COMPLETE only after
  // a full scan that started at offset 0, saw no lseek, and lost no child
  // to eviction meanwhile. dir_offset is the FS continuation cursor (FS
  // mode) or an index into `listing` (cached mode).
  uint64_t dir_offset = 0;
  bool scan_from_zero = true;
  bool scan_seeked = false;
  bool scan_mode_decided = false;
  bool scan_uses_cache = false;
  uint64_t scan_evict_gen = 0;
  // Cached mode: the directory's listing as this stream's first getdents
  // saw it, pinned until close or a rewind (getdents snapshot semantics).
  DirListingRef listing;

 private:
  PathHandle path_;
  int flags_;
};

// Per-syscall time accounting (Figure 1).
enum class SyscallKind {
  kStat = 0,
  kAccess,
  kOpen,
  kChmodChown,
  kUnlink,
  kRename,
  kMkdirRmdir,
  kReaddir,
  kReadWrite,
  kLinkSymlink,
  kOther,
  kCount,
};

struct SyscallProfile {
  std::array<uint64_t, static_cast<size_t>(SyscallKind::kCount)> ns{};
  std::array<uint64_t, static_cast<size_t>(SyscallKind::kCount)> calls{};

  void Record(SyscallKind kind, uint64_t nanos) {
    ns[static_cast<size_t>(kind)] += nanos;
    calls[static_cast<size_t>(kind)] += 1;
  }
  uint64_t TotalNs() const {
    uint64_t t = 0;
    for (uint64_t v : ns) {
      t += v;
    }
    return t;
  }
  void Reset() {
    ns.fill(0);
    calls.fill(0);
  }
};

class Task : public std::enable_shared_from_this<Task> {
 public:
  // Created via Kernel::CreateInitTask or Task::Fork.
  Task(Kernel* kernel, CredPtr cred, MountNamespacePtr ns, PathHandle root,
       PathHandle cwd);
  ~Task();

  Kernel& kernel() { return *kernel_; }
  const CredPtr& cred() const { return cred_; }
  const MountNamespacePtr& ns() const { return ns_; }
  const PathHandle& root() const { return root_; }
  const PathHandle& cwd() const { return cwd_; }

  VirtualClock& io_clock() { return io_clock_; }
  // Enable per-syscall profiling (null disables).
  void set_profiler(SyscallProfile* p) { profiler_ = p; }

  // --- process management ---------------------------------------------------
  std::shared_ptr<Task> Fork();
  // commit_creds: applies `cred`, keeping the current object (and its warm
  // PCC) when the identity is unchanged (§4.1).
  void SetCred(CredPtr cred);
  // Private mount namespace (unshare(CLONE_NEWNS)).
  Status UnshareMountNs();

  // --- batched submission (DESIGN.md §12) ------------------------------------
  // THE op surface: executes `n` submission entries run-to-completion, in
  // submission order, writing one completion per entry (src/server/batch.h
  // defines the versioned SQE/CQE ABI). Every single-call path syscall
  // below is a thin one-entry shim over this — one codepath, not two. A
  // batch amortizes dispatch (one call, one profiler/obs arm per entry, no
  // per-op thread handoff when driven through server::Server's rings) while
  // each entry still runs the identical walk fastpath.
  void SubmitBatch(const server::SubmissionQueueEntry* sqes, size_t n,
                   server::CompletionQueueEntry* cqes);

  // --- path syscalls ---------------------------------------------------------
  // The unified stat entry point (statx(2) shape). `flags` accepts
  // kAtSymlinkNoFollow and kAtEmptyPath (empty path + kAtEmptyPath stats
  // `dirfd` itself, or the cwd for kAtFdCwd); any other bit is EINVAL.
  // `mask` must be a subset of kStatxBasicStats (the simulated Stat always
  // carries every field; the mask is validated, not partially filled).
  Result<Stat> Statx(FdNum dirfd, std::string_view path, int flags,
                     uint32_t mask = kStatxBasicStats);
  Result<Stat> FstatAt(FdNum dirfd, std::string_view path, int flags);
  Result<Stat> Fstat(FdNum fd);
  Status Access(std::string_view path, int may_mask);
  Result<FdNum> Open(std::string_view path, int flags, uint16_t mode = 0644);
  Result<FdNum> OpenAt(FdNum dirfd, std::string_view path, int flags,
                       uint16_t mode = 0644);
  Status Close(FdNum fd);
  Status Chmod(std::string_view path, uint16_t mode);
  Status Chown(std::string_view path, Uid uid, Gid gid);
  Status Chdir(std::string_view path);
  Status Chroot(std::string_view path);
  Result<std::string> Getcwd();
  Status Mkdir(std::string_view path, uint16_t mode = 0755);
  Status MkdirAt(FdNum dirfd, std::string_view path, uint16_t mode = 0755);
  Status Rmdir(std::string_view path);
  Status Unlink(std::string_view path);
  Status UnlinkAt(FdNum dirfd, std::string_view path, bool rmdir = false);
  Status Rename(std::string_view oldpath, std::string_view newpath);
  Status RenameAt(FdNum olddirfd, std::string_view oldpath, FdNum newdirfd,
                  std::string_view newpath);
  Status Link(std::string_view oldpath, std::string_view newpath);
  Status Symlink(std::string_view target, std::string_view linkpath);
  Result<std::string> ReadLink(std::string_view path);
  Status Truncate(std::string_view path, uint64_t size);
  // Relabel an inode for the label LSM; invalidates cached prefix checks
  // for the subtree when the target is a directory.
  Status SetSecurityLabel(std::string_view path, std::string label);

  // --- fd syscalls ------------------------------------------------------------
  Result<size_t> ReadFd(FdNum fd, size_t len, std::string* out);
  Result<size_t> WriteFd(FdNum fd, std::string_view data);
  Result<size_t> Pread(FdNum fd, uint64_t offset, size_t len,
                       std::string* out);
  Result<size_t> Pwrite(FdNum fd, uint64_t offset, std::string_view data);
  Result<uint64_t> Lseek(FdNum fd, uint64_t offset);
  // getdents: up to `max_entries` entries; empty result means EOF.
  Result<std::vector<DirEntry>> ReadDirFd(FdNum fd, size_t max_entries = 256);

  // --- mount syscalls ----------------------------------------------------------
  Status Mount(std::string_view target, std::shared_ptr<FileSystem> fs,
               MountFlags flags = {});
  Status BindMount(std::string_view source, std::string_view target);
  Status Umount(std::string_view target);

  // Number of open descriptors (tests).
  size_t open_files() const;

 private:
  friend class PathWalker;

  // Syscall prologue/epilogue helper.
  class Scope;
  // A mutation's parent directory, resolved and held (task.cc).
  class LockedParent;

  // The batch execution core: decode one SQE, run it through the Do*
  // implementation (installing the per-op Scope), encode the CQE.
  void ExecuteSqe(const server::SubmissionQueueEntry& sqe,
                  server::CompletionQueueEntry* cqe);

  Result<File*> GetFile(FdNum fd);
  Result<FdNum> InstallFile(std::unique_ptr<File> f);
  // The base an *at() call walks `path` from: null for kAtFdCwd, an empty
  // or an absolute path; else the open file's path, or EBADF.
  Result<const PathHandle*> WalkBase(FdNum dirfd, std::string_view path);
  // Linux's may_delete(): may this task remove `victim` from `dir` (under
  // `mnt`) as a directory (`isdir`) or not (task.cc)?
  Status MayDelete(dircache::Mount* mnt, Dentry* dir, Dentry* victim,
                   bool isdir);
  // §5.2: cache a negative dentry for a name just removed from `dir`.
  void CacheRemovedName(Dentry* dir, std::string_view name);
  // chmod, chown and relabel (Linux's notify_change()).
  template <typename Authorize, typename Apply>
  Status ChangeAttr(std::string_view path, obs::JournalEvent event,
                    Authorize authorize, Apply apply);

  Result<FdNum> DoOpen(FdNum dirfd, std::string_view path, int flags,
                       uint16_t mode);
  Status DoUnlink(FdNum dirfd, std::string_view path, bool rmdir);
  Status DoMkdir(FdNum dirfd, std::string_view path, uint16_t mode);
  Status DoRename(FdNum olddirfd, std::string_view oldpath, FdNum newdirfd,
                  std::string_view newpath);
  Result<Stat> DoStat(const PathHandle* base, std::string_view path,
                      bool follow);
  Result<Stat> DoStatx(FdNum dirfd, std::string_view path, int flags,
                       uint32_t mask);
  Status DoAccess(std::string_view path, int may_mask);
  Status DoClose(FdNum fd);
  Result<std::vector<DirEntry>> DoReadDir(FdNum fd, size_t max_entries);

  Kernel* const kernel_;
  CredPtr cred_;
  MountNamespacePtr ns_;
  PathHandle root_;
  PathHandle cwd_;
  VirtualClock io_clock_;
  SyscallProfile* profiler_ = nullptr;

  std::vector<std::unique_ptr<File>> fds_;
  // Every descriptor below this one is open (Linux's files_struct::next_fd):
  // InstallFile scans from here, and a close lowers it.
  size_t next_fd_ = 0;
};

using TaskPtr = std::shared_ptr<Task>;

}  // namespace dircache

#endif  // DIRCACHE_VFS_TASK_H_
