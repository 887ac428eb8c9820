#include "src/vfs/task.h"

#include <cassert>
#include <optional>

#include "src/server/batch.h"
#include "src/storage/block_device.h"
#include "src/util/epoch.h"
#include "src/vfs/kernel.h"
#include "src/vfs/lsm.h"

namespace dircache {

namespace {

// Syscall kinds with a dedicated obs latency histogram (DESIGN.md §9).
bool ObsOpForSyscall(SyscallKind kind, obs::ObsOp* op) {
  switch (kind) {
    case SyscallKind::kStat:
      *op = obs::ObsOp::kStat;
      return true;
    case SyscallKind::kOpen:
      *op = obs::ObsOp::kOpen;
      return true;
    case SyscallKind::kRename:
      *op = obs::ObsOp::kRename;
      return true;
    case SyscallKind::kChmodChown:
      *op = obs::ObsOp::kChmod;
      return true;
    case SyscallKind::kReaddir:
      *op = obs::ObsOp::kReaddir;
      return true;
    default:
      return false;
  }
}

// Refresh a directory inode's cached size/nlink from the low-level FS after
// a mutation that may have grown or shrunk its entry blocks (ext4 maintains
// i_size for directories the same way).
void RefreshDirInode(Inode* dir_inode) {
  auto attr = dir_inode->sb()->fs()->GetAttr(dir_inode->ino());
  if (attr.ok()) {
    dir_inode->set_size(attr->size);
    dir_inode->set_nlink(attr->nlink);
  }
}

}  // namespace

// Task::Mount (the syscall) shadows the Mount struct inside member
// functions; refer to the type through this alias there.
using VfsMount = Mount;

// RAII syscall prologue: installs the I/O charge target and records latency
// into the task profiler and/or the kernel's obs histograms when armed.
class Task::Scope {
 public:
  Scope(Task* task, SyscallKind kind)
      : task_(task), kind_(kind), charge_(&task->io_clock_) {
    obs_armed_ = task_->kernel_->obs().enabled() &&
                 ObsOpForSyscall(kind, &obs_op_);
    if (task_->profiler_ != nullptr || obs_armed_) {
      start_ = NowNanos();
    }
  }
  ~Scope() {
    if (task_->profiler_ == nullptr && !obs_armed_) {
      return;
    }
    uint64_t elapsed = NowNanos() - start_;
    if (task_->profiler_ != nullptr) {
      task_->profiler_->Record(kind_, elapsed);
    }
    if (obs_armed_) {
      task_->kernel_->obs().RecordLatency(obs_op_, elapsed);
    }
  }

 private:
  Task* task_;
  SyscallKind kind_;
  IoChargeScope charge_;
  uint64_t start_ = 0;
  bool obs_armed_ = false;
  obs::ObsOp obs_op_ = obs::ObsOp::kStat;
};

Task::Task(Kernel* kernel, CredPtr cred, MountNamespacePtr ns,
           PathHandle root, PathHandle cwd)
    : kernel_(kernel),
      cred_(std::move(cred)),
      ns_(std::move(ns)),
      root_(std::move(root)),
      cwd_(std::move(cwd)) {
  // PCC memory accounting (DESIGN.md §15): the governor asks registered
  // creds for their (lazily created) PCC tables.
  kernel_->RegisterCred(cred_);
}

Task::~Task() = default;

std::shared_ptr<Task> Task::Fork() {
  auto child = std::make_shared<Task>(kernel_, cred_, ns_, root_, cwd_);
  return child;
}

void Task::SetCred(CredPtr cred) {
  // commit_creds dedup (§4.1): identical identity keeps the current cred
  // object, preserving its (warm) PCC.
  if (cred_ != nullptr && cred != nullptr && cred_->SameIdentity(*cred)) {
    return;
  }
  cred_ = std::move(cred);
  kernel_->RegisterCred(cred_);
}

Status Task::UnshareMountNs() {
  std::unordered_map<const VfsMount*, VfsMount*> remap;
  MountNamespacePtr clone = kernel_->CloneNamespace(ns_, &remap);
  auto translate = [&](const PathHandle& h) -> Result<PathHandle> {
    auto it = remap.find(h.mnt());
    if (it == remap.end()) {
      return Errno::kEINVAL;
    }
    return PathHandle::Acquire(it->second, h.dentry());
  };
  auto new_root = translate(root_);
  if (!new_root.ok()) {
    return new_root.error();
  }
  auto new_cwd = translate(cwd_);
  if (!new_cwd.ok()) {
    return new_cwd.error();
  }
  ns_ = std::move(clone);
  root_ = *std::move(new_root);
  cwd_ = *std::move(new_cwd);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Internal helpers

Result<File*> Task::GetFile(FdNum fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() ||
      fds_[static_cast<size_t>(fd)] == nullptr) {
    return Errno::kEBADF;
  }
  return fds_[static_cast<size_t>(fd)].get();
}

Result<const PathHandle*> Task::WalkBase(FdNum dirfd, std::string_view path) {
  if (dirfd == kAtFdCwd || path.empty() || path.front() == '/') {
    return static_cast<const PathHandle*>(nullptr);
  }
  auto file = GetFile(dirfd);
  if (!file.ok()) {
    return file.error();
  }
  return &(*file)->path();
}

Result<FdNum> Task::InstallFile(std::unique_ptr<File> f) {
  size_t fd = next_fd_;
  while (fd < fds_.size() && fds_[fd] != nullptr) {
    ++fd;
  }
  if (fd == fds_.size()) {
    if (fds_.size() >= 4096) {
      return Errno::kEMFILE;
    }
    fds_.emplace_back();
  }
  fds_[fd] = std::move(f);
  next_fd_ = fd + 1;
  return static_cast<FdNum>(fd);
}

size_t Task::open_files() const {
  size_t n = 0;
  for (const auto& f : fds_) {
    if (f != nullptr) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Steps the mutation syscalls share (shaped like Linux's fs/namei.c)

namespace {

// Kill a cached dentry together with the deep children cached under it.
void KillTree(DentryCache& dcache, Dentry* d) {
  dcache.KillCachedChildren(d);
  dcache.Kill(d);
}

// Kill whatever is cached at `name` in `dir` (a negative, once the FS holds
// a new entry there), except `keep`.
void KillCachedName(DentryCache& dcache, Dentry* dir, std::string_view name,
                    const Dentry* keep) {
  if (Dentry* neg = dcache.LookupRef(dir, name)) {
    if (neg != keep) {
      KillTree(dcache, neg);
    }
    dcache.Dput(neg);
  }
}

}  // namespace

// Linux's filename_create(): the parent of `path`, resolved with
// kWalkParent, then held under the exclusive tree lock inside an epoch read
// section, taken in that order. status() is ESTALE when a rename or rmdir
// killed the parent between the walk and the lock.
class Task::LockedParent {
 public:
  LockedParent(Task* task, const PathHandle* base, std::string_view path)
      : task_(task),
        handle_(PathWalker(task->kernel_)
                    .Resolve(*task, base, path, kWalkParent, &last_)),
        tree_(task->kernel_->tree_lock(), std::defer_lock) {
    if (handle_.ok()) {
      tree_.lock();
      guard_.emplace(EpochDomain::Global());
    }
  }

  Status status() const {
    if (!handle_.ok()) {
      return handle_.error();
    }
    return dir()->IsDead() ? Status(Errno::kESTALE) : Status::Ok();
  }
  VfsMount* mnt() const { return handle_->mnt(); }
  Dentry* dir() const { return handle_->dentry(); }
  Inode* inode() const { return handle_->inode(); }
  FileSystem* fs() const { return dir()->sb()->fs(); }
  const std::string& last() const { return last_; }
  std::unique_lock<std::shared_mutex>& tree() { return tree_; }

  // Search permission on the parent: the walk's may_lookup() before the
  // last name.
  Status MaySearch() const {
    return task_->kernel_->security().Permission(*task_->cred_, *inode(),
                                                 kMayExec, dir());
  }

  // Linux's may_create(): a writable mount (mnt_want_write(), reported
  // first), then write and search permission on the parent.
  Status MayWrite() const {
    if (mnt()->flags.read_only) {
      return Errno::kEROFS;
    }
    return task_->kernel_->security().Permission(
        *task_->cred_, *inode(), kMayWrite | kMayExec, dir());
  }

  // The rest of Linux's filename_create() for a caller that creates
  // `last`, in its order: MaySearch(), the lookup of `last` (EEXIST if it
  // is positive), then MayWrite(). Once the caller may create, the negative
  // cached at the name dies with its deep children, so Install need not
  // look the name up again: no one else can cache one under the exclusive
  // tree lock.
  Status MayCreate() {
    Kernel* k = task_->kernel_;
    DIRCACHE_RETURN_IF_ERROR(MaySearch());
    auto cached = PathWalker::LookupOrInstantiate(*task_, dir(), last_);
    if (!cached.ok()) {
      return cached.error() == Errno::kENOENT ? MayWrite() : cached.error();
    }
    Status st =
        (*cached)->IsPositive() ? Status(Errno::kEEXIST) : MayWrite();
    if (st.ok()) {
      KillTree(k->dcache(), *cached);
    }
    k->dcache().Dput(*cached);
    return st;
  }

  // Cache `inode` (the caller's reference passes to the dentry) as the new
  // entry `last`, which MayCreate() cleared; the parent's size and link
  // count follow the FS and its mtime steps.
  Result<PathHandle> Install(Inode* inode, uint32_t flags) {
    DentryCache& dcache = task_->kernel_->dcache();
    auto fresh =
        dcache.AddChild(dir(), last_, inode, flags, task_->cred_->uid());
    RefreshDirInode(this->inode());
    this->inode()->set_mtime(this->inode()->mtime() + 1);
    if (!fresh.ok()) {
      return fresh.error();
    }
    return PathHandle::Adopt(mnt(), *fresh);
  }

  // Install the inode the FS just created as `last`, labelled by the LSM.
  Result<PathHandle> InstallNew(Result<InodeNum> ino, uint32_t flags) {
    if (!ino.ok()) {
      return ino.error();
    }
    auto inode = dir()->sb()->Iget(*ino);
    if (!inode.ok()) {
      return inode.error();
    }
    task_->kernel_->security().InitSecurity(*this->inode(), **inode);
    return Install(*inode, flags);
  }

 private:
  Task* const task_;
  std::string last_;
  Result<PathHandle> handle_;
  std::unique_lock<std::shared_mutex> tree_;
  std::optional<EpochDomain::ReadGuard> guard_;
};

// Linux's may_delete(), for unlink's and rmdir's victim and for rename's
// source and replaced target, in its order: a negative victim (ENOENT,
// ENOTDIR), write and search permission on the parent, the sticky bit
// (only root, the victim's owner or the parent's owner may remove it), the
// victim's type against `isdir`, then a busy mountpoint (EBUSY, which
// vfs_unlink(), vfs_rmdir() and vfs_rename() report). The victim came from
// LookupOrInstantiate, so a positive one has its inode.
Status Task::MayDelete(VfsMount* mnt, Dentry* dir, Dentry* victim,
                       bool isdir) {
  if (victim->IsNegative()) {
    return victim->TestFlags(kDentEnotdir) ? Errno::kENOTDIR : Errno::kENOENT;
  }
  Inode* dir_inode = dir->inode();
  Inode* inode = victim->inode();
  DIRCACHE_RETURN_IF_ERROR(kernel_->security().Permission(
      *cred_, *dir_inode, kMayWrite | kMayExec, dir));
  if ((dir_inode->mode() & kModeSticky) != 0 && cred_->uid() != kRootUid &&
      cred_->uid() != inode->uid() && cred_->uid() != dir_inode->uid()) {
    return Errno::kEPERM;
  }
  if (inode->IsDir() != isdir) {
    return isdir ? Errno::kENOTDIR : Errno::kEISDIR;
  }
  if (victim->TestFlags(kDentMountpoint) &&
      ns_->MountAt(mnt, victim) != nullptr) {
    return Errno::kEBUSY;
  }
  return Status::Ok();
}

void Task::CacheRemovedName(Dentry* dir, std::string_view name) {
  if (!kernel_->config().negative_on_unlink) {
    return;
  }
  auto neg = kernel_->dcache().AddChild(dir, name, nullptr, kDentNegative,
                                        cred_->uid());
  if (neg.ok()) {
    kernel_->dcache().Dput(*neg);
  }
}

// Resolve `path`, let `authorize` refuse, then apply the change under the
// tree lock. §3.2, deferred: the coherence section opens BEFORE the change
// becomes visible (the fast path stands down, slowpath results cannot be
// memoized), and a directory's O(cached-subtree) pass runs ONCE, after the
// tree lock is released; the section's open/close counter bumps retire
// anything an overlapping walk memoized.
template <typename Authorize, typename Apply>
Status Task::ChangeAttr(std::string_view path, obs::JournalEvent event,
                        Authorize authorize, Apply apply) {
  Scope s(this, SyscallKind::kChmodChown);
  PathWalker walker(kernel_);
  auto p = walker.Resolve(*this, nullptr, path, kWalkFollow);
  if (!p.ok()) {
    return p.error();
  }
  Inode* inode = p->inode();
  DIRCACHE_RETURN_IF_ERROR(authorize(*p, *inode));
  JournalSpan span(kernel_->obs(), event);
  const bool inval = inode->IsDir() && kernel_->config().fastpath;
  CoherenceSection section(inval ? &kernel_->dcache() : nullptr);
  {
    std::unique_lock<std::shared_mutex> tree(kernel_->tree_lock());
    DIRCACHE_RETURN_IF_ERROR(apply(*inode));
  }
  if (inval) {
    section.InvalidateNow(p->dentry());
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// batched submission (DESIGN.md §12)
//
// SubmitBatch is THE op surface: every public single-call syscall below is
// a one-entry shim over it. ExecuteSqe decodes one entry, installs the same
// per-op Scope the single calls always had (so profiler and obs histograms
// see batched and single-call traffic identically), and routes to the Do*
// implementation. Entries execute run-to-completion in submission order;
// one entry's failure never disturbs its neighbors.

namespace {

// server::OpCode -> the obs-side trace taxonomy (obs cannot depend on the
// server ABI, so the map lives here at the boundary).
obs::TraceOp TraceOpFor(server::OpCode op) {
  switch (op) {
    case server::OpCode::kNop:
      return obs::TraceOp::kNop;
    case server::OpCode::kStatx:
      return obs::TraceOp::kStatx;
    case server::OpCode::kAccess:
      return obs::TraceOp::kAccess;
    case server::OpCode::kOpen:
      return obs::TraceOp::kOpen;
    case server::OpCode::kClose:
      return obs::TraceOp::kClose;
    case server::OpCode::kReaddir:
      return obs::TraceOp::kReaddir;
    case server::OpCode::kMkdir:
      return obs::TraceOp::kMkdir;
    case server::OpCode::kUnlink:
      return obs::TraceOp::kUnlink;
    case server::OpCode::kRename:
      return obs::TraceOp::kRename;
  }
  return obs::TraceOp::kOther;
}

}  // namespace

void Task::SubmitBatch(const server::SubmissionQueueEntry* sqes, size_t n,
                       server::CompletionQueueEntry* cqes) {
  Observability& obs = kernel_->obs();
  if (!obs.enabled()) {
    // The warm path: no dice, no clock reads, nothing but the execute loop.
    for (size_t i = 0; i < n; ++i) {
      ExecuteSqe(sqes[i], &cqes[i]);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const server::SubmissionQueueEntry& s = sqes[i];
    uint64_t trace_id = s.trace_id;
    if (trace_id == 0 && obs.ShouldTrace(s.trace_force != 0)) {
      // Direct submission (no ring crossed): roll the dice here so shimmed
      // single calls are sampled too.
      trace_id = obs::NextTraceId();
    }
    if (trace_id == 0) {
      ExecuteSqe(s, &cqes[i]);
      continue;
    }
    RequestTraceScope trace(obs, TraceOpFor(s.op), trace_id,
                            s.trace_force != 0, s.trace_shard, s.submit_ns,
                            s.dequeue_ns);
    ExecuteSqe(s, &cqes[i]);
    trace.set_res(cqes[i].res);
  }
}

namespace {

int32_t ResOf(const Status& st) {
  return st.ok() ? 0 : -static_cast<int32_t>(st.error());
}

}  // namespace

void Task::ExecuteSqe(const server::SubmissionQueueEntry& s,
                      server::CompletionQueueEntry* c) {
  using server::OpCode;
  c->user_data = s.user_data;
  c->res = 0;
  switch (s.op) {
    case OpCode::kNop:
      return;
    case OpCode::kStatx: {
      Scope sc(this, SyscallKind::kStat);
      auto r = DoStatx(s.fd, s.path, s.flags, s.mask);
      if (!r.ok()) {
        c->res = -static_cast<int32_t>(r.error());
      } else if (s.statbuf != nullptr) {
        *s.statbuf = *r;
      }
      return;
    }
    case OpCode::kAccess: {
      Scope sc(this, SyscallKind::kAccess);
      c->res = ResOf(DoAccess(s.path, static_cast<int>(s.mode)));
      return;
    }
    case OpCode::kOpen: {
      Scope sc(this, SyscallKind::kOpen);
      auto fd = DoOpen(s.fd, s.path, s.flags, static_cast<uint16_t>(s.mode));
      c->res = fd.ok() ? static_cast<int32_t>(*fd)
                       : -static_cast<int32_t>(fd.error());
      return;
    }
    case OpCode::kClose: {
      Scope sc(this, SyscallKind::kOther);
      c->res = ResOf(DoClose(s.fd));
      return;
    }
    case OpCode::kReaddir: {
      Scope sc(this, SyscallKind::kReaddir);
      auto r = DoReadDir(s.fd, s.max_entries);
      if (!r.ok()) {
        c->res = -static_cast<int32_t>(r.error());
      } else {
        c->res = static_cast<int32_t>(r->size());
        if (s.dirents != nullptr) {
          *s.dirents = *std::move(r);
        }
      }
      return;
    }
    case OpCode::kMkdir: {
      Scope sc(this, SyscallKind::kMkdirRmdir);
      c->res = ResOf(DoMkdir(s.fd, s.path, static_cast<uint16_t>(s.mode)));
      return;
    }
    case OpCode::kUnlink: {
      const bool rmdir = (s.flags & kAtRemoveDir) != 0;
      Scope sc(this, rmdir ? SyscallKind::kMkdirRmdir : SyscallKind::kUnlink);
      c->res = ResOf(DoUnlink(s.fd, s.path, rmdir));
      return;
    }
    case OpCode::kRename: {
      Scope sc(this, SyscallKind::kRename);
      c->res = ResOf(DoRename(s.fd, s.path, s.fd2, s.path2));
      return;
    }
  }
  c->res = -static_cast<int32_t>(Errno::kEINVAL);  // unknown opcode
}

// ---------------------------------------------------------------------------
// stat / access

Result<Stat> Task::DoStat(const PathHandle* base, std::string_view path,
                          bool follow) {
  PathWalker walker(kernel_);
  Stat st;
  auto p = walker.Resolve(*this, base, path, follow ? kWalkFollow : 0,
                          nullptr, &st);
  if (!p.ok()) {
    return p.error();
  }
  if (!*p) {
    return st;  // fastpath hit, served without a dentry reference
  }
  Inode* inode = p->inode();
  if (inode == nullptr) {
    return Errno::kENOENT;
  }
  return StatFromInode(*inode);
}

Result<Stat> Task::DoStatx(FdNum dirfd, std::string_view path, int flags,
                           uint32_t mask) {
  if ((flags & ~(kAtSymlinkNoFollow | kAtEmptyPath)) != 0) {
    return Errno::kEINVAL;
  }
  if ((mask & ~kStatxBasicStats) != 0) {
    return Errno::kEINVAL;  // reserved field request
  }
  bool follow = (flags & kAtSymlinkNoFollow) == 0;
  if (path.empty()) {
    if ((flags & kAtEmptyPath) == 0) {
      return Errno::kENOENT;
    }
    // Stat the dirfd itself (or the cwd for kAtFdCwd).
    Inode* inode;
    if (dirfd == kAtFdCwd) {
      inode = cwd_.inode();
    } else {
      auto file = GetFile(dirfd);
      if (!file.ok()) {
        return file.error();
      }
      inode = (*file)->path().inode();
    }
    if (inode == nullptr) {
      return Errno::kEBADF;
    }
    return StatFromInode(*inode);
  }
  auto base = WalkBase(dirfd, path);
  if (!base.ok()) {
    return base.error();
  }
  return DoStat(*base, path, follow);
}

Result<Stat> Task::Statx(FdNum dirfd, std::string_view path, int flags,
                         uint32_t mask) {
  Stat st;
  server::Sqe sqe = server::Sqe::Statx(dirfd, path, flags, &st, mask);
  server::Cqe cqe;
  SubmitBatch(&sqe, 1, &cqe);
  if (!cqe.ok()) {
    return cqe.error();
  }
  return st;
}

Result<Stat> Task::FstatAt(FdNum dirfd, std::string_view path, int flags) {
  return Statx(dirfd, path, flags & (kAtSymlinkNoFollow | kAtEmptyPath));
}

Result<Stat> Task::Fstat(FdNum fd) {
  return Statx(fd, {}, kAtEmptyPath);
}

Status Task::DoAccess(std::string_view path, int may_mask) {
  PathWalker walker(kernel_);
  auto p = walker.Resolve(*this, nullptr, path, kWalkFollow);
  if (!p.ok()) {
    return p.error();
  }
  if (may_mask == 0) {
    return Status::Ok();  // F_OK: existence only
  }
  EpochDomain::ReadGuard guard(EpochDomain::Global());
  return kernel_->security().Permission(*cred_, *p->inode(), may_mask,
                                        p->dentry());
}

Status Task::Access(std::string_view path, int may_mask) {
  server::Sqe sqe = server::Sqe::Access(path, may_mask);
  server::Cqe cqe;
  SubmitBatch(&sqe, 1, &cqe);
  return cqe.error();
}

// ---------------------------------------------------------------------------
// open / close

Result<FdNum> Task::Open(std::string_view path, int flags, uint16_t mode) {
  return OpenAt(kAtFdCwd, path, flags, mode);
}

Result<FdNum> Task::OpenAt(FdNum dirfd, std::string_view path, int flags,
                           uint16_t mode) {
  server::Sqe sqe = server::Sqe::Open(dirfd, path, flags, mode);
  server::Cqe cqe;
  SubmitBatch(&sqe, 1, &cqe);
  if (!cqe.ok()) {
    return cqe.error();
  }
  return static_cast<FdNum>(cqe.res);
}

Result<FdNum> Task::DoOpen(FdNum dirfd, std::string_view path, int flags,
                           uint16_t mode) {
  auto base = WalkBase(dirfd, path);
  if (!base.ok()) {
    return base.error();
  }
  PathWalker walker(kernel_);
  const bool want_write = (flags & kOWrite) != 0;
  int wf = (flags & kONoFollow) != 0 ? 0 : kWalkFollow;
  if ((flags & kODirectory) != 0) {
    wf |= kWalkDirectory;
  }

  PathHandle p;
  if ((flags & kOCreat) != 0) {
    LockedParent parent(this, *base, path);
    DIRCACHE_RETURN_IF_ERROR(parent.status());
    Status may = parent.MayCreate();
    if (may.error() == Errno::kEEXIST && (flags & kOExcl) == 0) {
      // The file exists: re-resolve without create intent (handles
      // trailing symlinks and mount crossings uniformly).
      parent.tree().unlock();
      auto full = walker.Resolve(*this, *base, path, wf);
      if (!full.ok()) {
        return full.error();
      }
      p = *std::move(full);
    } else {
      DIRCACHE_RETURN_IF_ERROR(may);
      auto ino = parent.fs()->Create(parent.inode()->ino(), parent.last(),
                                     FileType::kRegular, mode, cred_->uid(),
                                     cred_->gid());
      auto fresh = parent.InstallNew(ino, 0);
      if (!fresh.ok()) {
        return fresh.error();
      }
      p = *std::move(fresh);
    }
  } else {
    auto full = walker.Resolve(*this, *base, path, wf);
    if (!full.ok()) {
      return full.error();
    }
    p = *std::move(full);
  }

  Inode* inode = p.inode();
  if (inode == nullptr) {
    return Errno::kENOENT;
  }
  if (inode->IsSymlink()) {
    return Errno::kELOOP;  // O_NOFOLLOW hit a symlink
  }
  if (inode->IsDir() && want_write) {
    return Errno::kEISDIR;
  }
  int may = 0;
  if ((flags & kORead) != 0) {
    may |= kMayRead;
  }
  if (want_write) {
    may |= kMayWrite;
  }
  if (may != 0) {
    EpochDomain::ReadGuard guard(EpochDomain::Global());
    Status perm =
        kernel_->security().Permission(*cred_, *inode, may, p.dentry());
    if (!perm.ok()) {
      return perm.error();
    }
  }
  if (want_write && p.mnt() != nullptr && p.mnt()->flags.read_only) {
    return Errno::kEROFS;
  }
  if ((flags & kOTrunc) != 0 && want_write && inode->IsRegularFile()) {
    AttrUpdate update;
    update.size = 0;
    DIRCACHE_RETURN_IF_ERROR(
        inode->sb()->fs()->SetAttr(inode->ino(), update));
    inode->set_size(0);
  }
  auto file = std::make_unique<File>(std::move(p), flags);
  if ((flags & kOAppend) != 0) {
    file->offset = inode->size();
  }
  return InstallFile(std::move(file));
}

Status Task::DoClose(FdNum fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() ||
      fds_[static_cast<size_t>(fd)] == nullptr) {
    return Errno::kEBADF;
  }
  fds_[static_cast<size_t>(fd)] = nullptr;
  next_fd_ = std::min(next_fd_, static_cast<size_t>(fd));
  return Status::Ok();
}

Status Task::Close(FdNum fd) {
  server::Sqe sqe = server::Sqe::Close(fd);
  server::Cqe cqe;
  SubmitBatch(&sqe, 1, &cqe);
  return cqe.error();
}

// ---------------------------------------------------------------------------
// attribute changes (chmod / chown / label)

Status Task::Chmod(std::string_view path, uint16_t mode) {
  return ChangeAttr(
      path, obs::JournalEvent::kChmod,
      [&](const PathHandle& p, const Inode& inode) -> Status {
        if (p.mnt()->flags.read_only) {
          return Errno::kEROFS;  // chmod_common(): mnt_want_write() first
        }
        return cred_->uid() != kRootUid && cred_->uid() != inode.uid()
                   ? Errno::kEPERM
                   : Errno::kOk;
      },
      [&](Inode& inode) -> Status {
        AttrUpdate update;
        update.mode = mode;
        DIRCACHE_RETURN_IF_ERROR(
            inode.sb()->fs()->SetAttr(inode.ino(), update));
        inode.set_mode(mode & kModePermMask);
        inode.set_ctime(inode.ctime() + 1);
        return Status::Ok();
      });
}

Status Task::Chown(std::string_view path, Uid uid, Gid gid) {
  return ChangeAttr(
      path, obs::JournalEvent::kChown,
      [&](const PathHandle& p, const Inode& inode) -> Status {
        if (p.mnt()->flags.read_only) {
          return Errno::kEROFS;  // do_fchownat(): mnt_want_write() first
        }
        // Non-root: may only change the group, to a group it belongs to.
        if (cred_->uid() != kRootUid &&
            (uid != inode.uid() || cred_->uid() != inode.uid() ||
             !cred_->InGroup(gid))) {
          return Errno::kEPERM;
        }
        return Status::Ok();
      },
      [&](Inode& inode) -> Status {
        AttrUpdate update;
        update.uid = uid;
        update.gid = gid;
        DIRCACHE_RETURN_IF_ERROR(
            inode.sb()->fs()->SetAttr(inode.ino(), update));
        inode.set_uid(uid);
        inode.set_gid(gid);
        inode.set_ctime(inode.ctime() + 1);
        return Status::Ok();
      });
}

Status Task::SetSecurityLabel(std::string_view path, std::string label) {
  return ChangeAttr(
      path, obs::JournalEvent::kSetLabel,
      [&](const PathHandle&, const Inode&) -> Status {
        return cred_->uid() != kRootUid ? Errno::kEPERM : Errno::kOk;
      },
      [&](Inode& inode) -> Status {
        inode.set_security_label(std::move(label));
        return Status::Ok();
      });
}

// ---------------------------------------------------------------------------
// cwd / root

Status Task::Chdir(std::string_view path) {
  Scope s(this, SyscallKind::kOther);
  PathWalker walker(kernel_);
  auto p = walker.Resolve(*this, nullptr, path, kWalkFollow | kWalkDirectory);
  if (!p.ok()) {
    return p.error();
  }
  {
    EpochDomain::ReadGuard guard(EpochDomain::Global());
    Status perm = kernel_->security().Permission(*cred_, *p->inode(),
                                                 kMayExec, p->dentry());
    if (!perm.ok()) {
      return perm.error();
    }
  }
  cwd_ = *std::move(p);
  return Status::Ok();
}

Status Task::Chroot(std::string_view path) {
  Scope s(this, SyscallKind::kOther);
  if (cred_->uid() != kRootUid) {
    return Errno::kEPERM;
  }
  PathWalker walker(kernel_);
  auto p = walker.Resolve(*this, nullptr, path, kWalkFollow | kWalkDirectory);
  if (!p.ok()) {
    return p.error();
  }
  root_ = *p;
  cwd_ = *std::move(p);
  return Status::Ok();
}

Result<std::string> Task::Getcwd() {
  Scope s(this, SyscallKind::kOther);
  std::shared_lock<std::shared_mutex> tree(kernel_->tree_lock());
  EpochDomain::ReadGuard guard(EpochDomain::Global());
  VfsMount* mnt = cwd_.mnt();
  Dentry* d = cwd_.dentry();
  std::string out;
  std::vector<std::string> parts;
  while (!(d == root_.dentry() && mnt == root_.mnt())) {
    if (d == mnt->root) {
      if (mnt->parent == nullptr) {
        break;
      }
      d = mnt->mountpoint;
      mnt = mnt->parent;
      continue;
    }
    parts.push_back(d->name());
    d = d->parent();
    if (d == nullptr) {
      return Errno::kESTALE;
    }
  }
  if (parts.empty()) {
    return std::string("/");
  }
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out.push_back('/');
    out.append(*it);
  }
  return out;
}

// ---------------------------------------------------------------------------
// mkdir / rmdir / unlink

Status Task::Mkdir(std::string_view path, uint16_t mode) {
  return MkdirAt(kAtFdCwd, path, mode);
}

Status Task::MkdirAt(FdNum dirfd, std::string_view path, uint16_t mode) {
  server::Sqe sqe = server::Sqe::Mkdir(dirfd, path, mode);
  server::Cqe cqe;
  SubmitBatch(&sqe, 1, &cqe);
  return cqe.error();
}

Status Task::DoMkdir(FdNum dirfd, std::string_view path, uint16_t mode) {
  auto base = WalkBase(dirfd, path);
  if (!base.ok()) {
    return base.error();
  }
  LockedParent parent(this, *base, path);
  DIRCACHE_RETURN_IF_ERROR(parent.status());
  DIRCACHE_RETURN_IF_ERROR(parent.MayCreate());
  auto ino = parent.fs()->Create(parent.inode()->ino(), parent.last(),
                                 FileType::kDirectory, mode, cred_->uid(),
                                 cred_->gid());
  // A brand-new directory has all (zero) children cached (§5.1).
  const uint32_t flags =
      kernel_->config().dir_completeness ? kDentDirComplete : 0u;
  return parent.InstallNew(ino, flags).error();
}

Status Task::Unlink(std::string_view path) {
  return UnlinkAt(kAtFdCwd, path, /*rmdir=*/false);
}

Status Task::Rmdir(std::string_view path) {
  return UnlinkAt(kAtFdCwd, path, /*rmdir=*/true);
}

Status Task::UnlinkAt(FdNum dirfd, std::string_view path, bool rmdir) {
  server::Sqe sqe = server::Sqe::Unlink(dirfd, path, rmdir);
  server::Cqe cqe;
  SubmitBatch(&sqe, 1, &cqe);
  return cqe.error();
}

Status Task::DoUnlink(FdNum dirfd, std::string_view path, bool rmdir) {
  auto base = WalkBase(dirfd, path);
  if (!base.ok()) {
    return base.error();
  }
  LockedParent parent(this, *base, path);
  DIRCACHE_RETURN_IF_ERROR(parent.status());
  // Linux's do_unlinkat() order: search permission on the parent, the
  // read-only mount (mnt_want_write()), the lookup, then may_delete().
  DIRCACHE_RETURN_IF_ERROR(parent.MaySearch());
  if (parent.mnt()->flags.read_only) {
    return Errno::kEROFS;
  }
  Dentry* dir = parent.dir();
  Inode* dir_inode = parent.inode();
  auto child = PathWalker::LookupOrInstantiate(*this, dir, parent.last());
  if (!child.ok()) {
    return child.error();
  }
  PathHandle victim = PathHandle::Adopt(parent.mnt(), *child);
  DIRCACHE_RETURN_IF_ERROR(
      MayDelete(parent.mnt(), dir, victim.dentry(), rmdir));

  JournalSpan span(kernel_->obs(), obs::JournalEvent::kUnlink);
  span.SetArgs(rmdir ? 1 : 0);
  // §3.2: invalidate before the structure changes.
  if (kernel_->config().fastpath) {
    kernel_->dcache().InvalidateSubtree(victim.dentry());
  }
  DIRCACHE_RETURN_IF_ERROR(
      rmdir ? parent.fs()->Rmdir(dir_inode->ino(), parent.last())
            : parent.fs()->Unlink(dir_inode->ino(), parent.last()));
  Inode* victim_inode = victim.inode();
  victim_inode->set_nlink(victim_inode->nlink() > 0
                              ? victim_inode->nlink() - 1
                              : 0);
  RefreshDirInode(dir_inode);
  dir_inode->set_mtime(dir_inode->mtime() + 1);
  KillTree(kernel_->dcache(), victim.dentry());
  victim.Reset();
  CacheRemovedName(dir, parent.last());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// rename

Status Task::Rename(std::string_view oldpath, std::string_view newpath) {
  return RenameAt(kAtFdCwd, oldpath, kAtFdCwd, newpath);
}

Status Task::RenameAt(FdNum olddirfd, std::string_view oldpath,
                      FdNum newdirfd, std::string_view newpath) {
  server::Sqe sqe = server::Sqe::Rename(olddirfd, oldpath, newdirfd, newpath);
  server::Cqe cqe;
  SubmitBatch(&sqe, 1, &cqe);
  return cqe.error();
}

Status Task::DoRename(FdNum olddirfd, std::string_view oldpath,
                      FdNum newdirfd, std::string_view newpath) {
  auto oldbase = WalkBase(olddirfd, oldpath);
  if (!oldbase.ok()) {
    return oldbase.error();
  }
  auto newbase = WalkBase(newdirfd, newpath);
  if (!newbase.ok()) {
    return newbase.error();
  }
  PathWalker walker(kernel_);
  std::string old_last;
  std::string new_last;
  auto oldp = walker.Resolve(*this, *oldbase, oldpath, kWalkParent,
                             &old_last);
  if (!oldp.ok()) {
    return oldp.error();
  }
  auto newp = walker.Resolve(*this, *newbase, newpath, kWalkParent,
                             &new_last);
  if (!newp.ok()) {
    return newp.error();
  }
  // Linux's do_renameat2() and vfs_rename() order (DESIGN.md §12).
  Dentry* old_dir = oldp->dentry();
  Dentry* new_dir = newp->dentry();
  for (Dentry* dirp : {old_dir, new_dir}) {
    EpochDomain::ReadGuard guard(EpochDomain::Global());
    DIRCACHE_RETURN_IF_ERROR(kernel_->security().Permission(
        *cred_, *dirp->inode(), kMayExec, dirp));
  }
  if (old_dir->sb() != new_dir->sb() || oldp->mnt() != newp->mnt()) {
    return Errno::kEXDEV;  // across bind mounts too, like Linux
  }
  if (oldp->mnt()->flags.read_only) {
    return Errno::kEROFS;
  }

  JournalSpan rename_span(kernel_->obs(), obs::JournalEvent::kRename);
  std::unique_lock<std::shared_mutex> tree(kernel_->tree_lock());
  EpochDomain::ReadGuard guard(EpochDomain::Global());
  if (old_dir->IsDead() || new_dir->IsDead()) {
    return Errno::kESTALE;
  }
  auto moved = PathWalker::LookupOrInstantiate(*this, old_dir, old_last);
  if (!moved.ok()) {
    return moved.error();
  }
  PathHandle src = PathHandle::Adopt(oldp->mnt(), *moved);
  if (src.dentry()->IsNegative()) {
    return Errno::kENOENT;
  }
  Inode* src_inode = src.inode();
  const bool isdir = src_inode->IsDir();
  if (isdir) {
    // Moving a directory into its own subtree is forbidden.
    for (Dentry* a = new_dir; a != nullptr && a->parent() != a;
         a = a->parent()) {
      if (a == src.dentry()) {
        return Errno::kEINVAL;
      }
    }
  }
  auto existing = PathWalker::LookupOrInstantiate(*this, new_dir, new_last);
  if (!existing.ok() && existing.error() != Errno::kENOENT) {
    return existing.error();
  }
  PathHandle target;
  if (existing.ok()) {
    target = PathHandle::Adopt(newp->mnt(), *existing);
    if (target.dentry()->IsNegative()) {
      target.Reset();
    }
  }
  if (target && target.inode() == src_inode) {
    return Status::Ok();  // two names of one inode: nothing changes
  }
  DIRCACHE_RETURN_IF_ERROR(
      MayDelete(oldp->mnt(), old_dir, src.dentry(), isdir));
  DIRCACHE_RETURN_IF_ERROR(
      target ? MayDelete(newp->mnt(), new_dir, target.dentry(), isdir)
             : kernel_->security().Permission(*cred_, *new_dir->inode(),
                                              kMayWrite | kMayExec, new_dir));
  if (isdir && new_dir != old_dir) {
    // The move rewrites the directory's "..".
    DIRCACHE_RETURN_IF_ERROR(kernel_->security().Permission(
        *cred_, *src_inode, kMayWrite, src.dentry()));
  }

  // §3.2, minimal critical section: the coherence section opens BEFORE the
  // structural change (the fast path stands down globally, so no stale DLHT
  // hit can be produced), but the O(cached-subtree) descendant pass is
  // DEFERRED until after the rename_seq write section and the tree lock are
  // released. Inside the write section only O(1) work remains: the backing
  // fs op, the structural splice, and the moved dentry's own seq bump.
  const bool fastpath = kernel_->config().fastpath;
  CoherenceSection section(fastpath ? &kernel_->dcache() : nullptr);

  uint64_t lock_t0 = kernel_->obs().enabled() ? NowNanos() : 0;
  kernel_->rename_seq().WriteBegin();
  FileSystem* fs = old_dir->sb()->fs();
  Status st = fs->Rename(old_dir->inode()->ino(), old_last,
                         new_dir->inode()->ino(), new_last);
  if (st.ok()) {
    if (fastpath) {
      // Retire the moved dentry's own identity (version bump + DLHT
      // eviction) before the splice publishes its new position.
      kernel_->dcache().InvalidateDentry(src.dentry());
    }
    if (target) {
      KillTree(kernel_->dcache(), target.dentry());
    }
    // Kill any cached negative at the destination name (we may have raced
    // with LookupOrInstantiate above returning a negative we dropped).
    KillCachedName(kernel_->dcache(), new_dir, new_last, src.dentry());
    kernel_->dcache().MoveDentry(src.dentry(), new_dir, new_last);
    RefreshDirInode(old_dir->inode());
    RefreshDirInode(new_dir->inode());
    old_dir->inode()->set_mtime(old_dir->inode()->mtime() + 1);
    new_dir->inode()->set_mtime(new_dir->inode()->mtime() + 1);
  }
  kernel_->rename_seq().WriteEnd();
  if (lock_t0 != 0) {
    // The §3.2 cost renames actually pay: how long concurrent optimistic
    // walks were forced to retry (rename_seq write section). With the
    // deferred pass this no longer scales with the cached subtree size.
    uint64_t hold_ns = NowNanos() - lock_t0;
    kernel_->obs().RecordJournal(obs::JournalEvent::kRenameLock, lock_t0,
                                 hold_ns);
    rename_span.SetArgs(hold_ns);
  }
  tree.unlock();
  if (st.ok() && fastpath) {
    // The descendant pass (deferred): every cached dentry under the moved
    // subtree — and under a replaced target — carries stale prefix checks.
    // Runs outside every lock; the still-open coherence section keeps the
    // fast path honest until it completes.
    section.InvalidateNow(src.dentry());
    if (target) {
      section.InvalidateNow(target.dentry());
    }
  }
  section.Close();
  target.Reset();
  src.Reset();
  DIRCACHE_RETURN_IF_ERROR(st);
  CacheRemovedName(old_dir, old_last);  // the source name is gone now
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// link / symlink / readlink / truncate

Status Task::Link(std::string_view oldpath, std::string_view newpath) {
  Scope s(this, SyscallKind::kLinkSymlink);
  auto oldp = PathWalker(kernel_).Resolve(*this, nullptr, oldpath, 0);
  if (!oldp.ok()) {
    return oldp.error();
  }
  Inode* target_inode = oldp->inode();
  if (target_inode->IsDir()) {
    return Errno::kEPERM;
  }
  LockedParent parent(this, nullptr, newpath);
  DIRCACHE_RETURN_IF_ERROR(parent.status());
  if (oldp->dentry()->sb() != parent.dir()->sb()) {
    return Errno::kEXDEV;
  }
  DIRCACHE_RETURN_IF_ERROR(parent.MayCreate());
  DIRCACHE_RETURN_IF_ERROR(parent.fs()->Link(
      parent.inode()->ino(), parent.last(), target_inode->ino()));
  parent.dir()->sb()->IgetHeld(target_inode);
  target_inode->set_nlink(target_inode->nlink() + 1);
  (void)parent.Install(target_inode, 0);
  return Status::Ok();
}

Status Task::Symlink(std::string_view target, std::string_view linkpath) {
  Scope s(this, SyscallKind::kLinkSymlink);
  LockedParent parent(this, nullptr, linkpath);
  DIRCACHE_RETURN_IF_ERROR(parent.status());
  DIRCACHE_RETURN_IF_ERROR(parent.MayCreate());
  auto ino = parent.fs()->SymlinkCreate(parent.inode()->ino(), parent.last(),
                                        target, cred_->uid(), cred_->gid());
  return parent.InstallNew(ino, 0).error();
}

Result<std::string> Task::ReadLink(std::string_view path) {
  Scope s(this, SyscallKind::kOther);
  PathWalker walker(kernel_);
  auto p = walker.Resolve(*this, nullptr, path, 0);
  if (!p.ok()) {
    return p.error();
  }
  Inode* inode = p->inode();
  if (!inode->IsSymlink()) {
    return Errno::kEINVAL;
  }
  if (const std::string* cached = inode->cached_link_target()) {
    return *cached;
  }
  auto target = inode->sb()->fs()->ReadLink(inode->ino());
  if (!target.ok()) {
    return target.error();
  }
  return *inode->cache_link_target(*std::move(target));
}

Status Task::Truncate(std::string_view path, uint64_t size) {
  Scope s(this, SyscallKind::kOther);
  PathWalker walker(kernel_);
  auto p = walker.Resolve(*this, nullptr, path, kWalkFollow);
  if (!p.ok()) {
    return p.error();
  }
  Inode* inode = p->inode();
  if (inode->IsDir()) {
    return Errno::kEISDIR;
  }
  {
    EpochDomain::ReadGuard guard(EpochDomain::Global());
    Status perm = kernel_->security().Permission(*cred_, *inode, kMayWrite,
                                                 p->dentry());
    if (!perm.ok()) {
      return perm.error();
    }
  }
  if (p->mnt()->flags.read_only) {
    return Errno::kEROFS;
  }
  AttrUpdate update;
  update.size = size;
  DIRCACHE_RETURN_IF_ERROR(inode->sb()->fs()->SetAttr(inode->ino(), update));
  inode->set_size(size);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// fd I/O

Result<size_t> Task::ReadFd(FdNum fd, size_t len, std::string* out) {
  Scope s(this, SyscallKind::kReadWrite);
  auto file = GetFile(fd);
  if (!file.ok()) {
    return file.error();
  }
  auto r = Pread(fd, (*file)->offset, len, out);
  if (r.ok()) {
    (*file)->offset += *r;
  }
  return r;
}

Result<size_t> Task::WriteFd(FdNum fd, std::string_view data) {
  Scope s(this, SyscallKind::kReadWrite);
  auto file = GetFile(fd);
  if (!file.ok()) {
    return file.error();
  }
  uint64_t off = (*file)->offset;
  if (((*file)->flags() & kOAppend) != 0) {
    off = (*file)->path().inode()->size();
  }
  auto r = Pwrite(fd, off, data);
  if (r.ok()) {
    (*file)->offset = off + *r;
  }
  return r;
}

Result<size_t> Task::Pread(FdNum fd, uint64_t offset, size_t len,
                           std::string* out) {
  auto file = GetFile(fd);
  if (!file.ok()) {
    return file.error();
  }
  if (((*file)->flags() & kORead) == 0) {
    return Errno::kEBADF;
  }
  Inode* inode = (*file)->path().inode();
  if (inode->IsDir()) {
    return Errno::kEISDIR;
  }
  IoChargeScope charge(&io_clock_);
  return inode->sb()->fs()->Read(inode->ino(), offset, len, out);
}

Result<size_t> Task::Pwrite(FdNum fd, uint64_t offset,
                            std::string_view data) {
  auto file = GetFile(fd);
  if (!file.ok()) {
    return file.error();
  }
  if (((*file)->flags() & kOWrite) == 0) {
    return Errno::kEBADF;
  }
  Inode* inode = (*file)->path().inode();
  if (inode->IsDir()) {
    return Errno::kEISDIR;
  }
  IoChargeScope charge(&io_clock_);
  SpinGuard guard(inode->lock);
  auto r = inode->sb()->fs()->Write(inode->ino(), offset, data);
  if (r.ok()) {
    inode->set_size(std::max<uint64_t>(inode->size(), offset + *r));
    inode->set_mtime(inode->mtime() + 1);
  }
  return r;
}

Result<uint64_t> Task::Lseek(FdNum fd, uint64_t offset) {
  Scope s(this, SyscallKind::kOther);
  auto file = GetFile(fd);
  if (!file.ok()) {
    return file.error();
  }
  (*file)->offset = offset;
  if ((*file)->path().inode() != nullptr &&
      (*file)->path().inode()->IsDir()) {
    // Seeking a directory stream interrupts the completeness scan (§5.1)
    // unless it rewinds to the start.
    (*file)->dir_offset = offset;
    if (offset == 0) {
      (*file)->scan_from_zero = true;
      (*file)->scan_seeked = false;
      (*file)->scan_mode_decided = false;
      (*file)->listing.reset();
    } else {
      (*file)->scan_seeked = true;
    }
  }
  return offset;
}

// ---------------------------------------------------------------------------
// readdir (§5.1)

Result<std::vector<DirEntry>> Task::DoReadDir(FdNum fd, size_t max_entries) {
  auto filer = GetFile(fd);
  if (!filer.ok()) {
    return filer.error();
  }
  File* file = *filer;
  Dentry* dir = file->path().dentry();
  Inode* dir_inode = file->path().inode();
  if (dir_inode == nullptr || !dir_inode->IsDir()) {
    return Errno::kENOTDIR;
  }
  const CacheConfig& cfg = kernel_->config();

  // Decide the scan mode once per scan: cached (DIR_COMPLETE) or FS-backed.
  if (!file->scan_mode_decided) {
    file->scan_mode_decided = true;
    file->scan_uses_cache =
        cfg.dir_completeness && dir->TestFlags(kDentDirComplete);
    if (!file->scan_uses_cache) {
      file->scan_evict_gen =
          dir->child_evict_gen.load(std::memory_order_acquire);
      file->scan_from_zero = file->dir_offset == 0;
    }
  }

  std::vector<DirEntry> out;
  if (file->scan_uses_cache) {
    kernel_->stats().readdir_cached.Add();
    // A cache-served scan is a use of the directory: arm its second-chance
    // bit so the clock eviction keeps hot readdir targets resident.
    if (dir->MarkReferenced()) {
      kernel_->stats().shared_writes.Add();
    }
    if (!file->listing) {
      file->listing = kernel_->dcache().PinListing(dir);
    }
    file->dir_offset =
        file->listing->CopyOut(file->dir_offset, max_entries, &out);
    return out;
  }

  kernel_->stats().readdir_uncached.Add();
  FileSystem* fs = dir->sb()->fs();
  auto r = fs->ReadDir(dir_inode->ino(), file->dir_offset, max_entries);
  if (!r.ok()) {
    return r.error();
  }
  file->dir_offset = r->next_offset;

  if (cfg.dir_completeness) {
    // Instantiate inode-less stub dentries for listed children (§5.1).
    std::shared_lock<std::shared_mutex> tree(kernel_->tree_lock());
    for (const DirEntry& e : r->entries) {
      if (Dentry* existing = kernel_->dcache().LookupRef(dir, e.name)) {
        kernel_->dcache().Dput(existing);
        continue;
      }
      auto stub = kernel_->dcache().AddChild(dir, e.name, nullptr, kDentStub,
                                             cred_->uid(), e.ino, e.type);
      if (stub.ok()) {
        kernel_->dcache().Dput(*stub);
      }
    }
    if (r->eof && file->scan_from_zero && !file->scan_seeked &&
        dir->child_evict_gen.load(std::memory_order_acquire) ==
            file->scan_evict_gen) {
      dir->SetFlags(kDentDirComplete);
    }
  }
  return std::move(r->entries);
}

Result<std::vector<DirEntry>> Task::ReadDirFd(FdNum fd, size_t max_entries) {
  std::vector<DirEntry> entries;
  server::Sqe sqe = server::Sqe::Readdir(fd, &entries, max_entries);
  server::Cqe cqe;
  SubmitBatch(&sqe, 1, &cqe);
  if (!cqe.ok()) {
    return cqe.error();
  }
  return entries;
}

// ---------------------------------------------------------------------------
// mounts

Status Task::Mount(std::string_view target, std::shared_ptr<FileSystem> fs,
                   MountFlags flags) {
  Scope s(this, SyscallKind::kOther);
  if (cred_->uid() != kRootUid) {
    return Errno::kEPERM;
  }
  PathWalker walker(kernel_);
  auto p = walker.Resolve(*this, nullptr, target,
                          kWalkFollow | kWalkDirectory);
  if (!p.ok()) {
    return p.error();
  }
  SuperBlock* sb = kernel_->RegisterFs(std::move(fs));
  auto root_inode = sb->Iget(sb->fs()->RootIno());
  if (!root_inode.ok()) {
    return root_inode.error();
  }
  // §3.2: the coherence section spans the mount-table edit, and one pass
  // after it retires everything cached under the mountpoint: the covered
  // subtree's paths now lead elsewhere (§4.3).
  const bool fastpath = kernel_->config().fastpath;
  CoherenceSection section(fastpath ? &kernel_->dcache() : nullptr);
  std::unique_lock<std::shared_mutex> tree(kernel_->tree_lock());
  // Find (or create) the superblock's root dentry. Mount aliases reuse it.
  Dentry* fs_root = nullptr;
  bool fresh_root = false;
  for (VfsMount* m : ns_->AllMounts()) {
    if (m->sb == sb) {
      fs_root = m->root;
      break;
    }
  }
  if (fs_root == nullptr) {
    fs_root = kernel_->dcache().MakeRoot(sb, *root_inode);
    fresh_root = true;
  } else {
    sb->Iput(*root_inode);  // the existing root dentry already pins it
  }
  auto m = ns_->AddMount(sb, fs_root, p->mnt(), p->dentry(), flags);
  if (fresh_root) {
    // AddMount took its own reference; drop MakeRoot's so teardown
    // accounting balances (an unused fresh root just becomes evictable).
    kernel_->dcache().Dput(fs_root);
  }
  if (!m.ok()) {
    return m.error();
  }
  tree.unlock();
  if (fastpath) {
    section.InvalidateNow(p->dentry());
  }
  return Status::Ok();
}

Status Task::BindMount(std::string_view source, std::string_view target) {
  Scope s(this, SyscallKind::kOther);
  if (cred_->uid() != kRootUid) {
    return Errno::kEPERM;
  }
  PathWalker walker(kernel_);
  auto src = walker.Resolve(*this, nullptr, source,
                            kWalkFollow | kWalkDirectory);
  if (!src.ok()) {
    return src.error();
  }
  auto dst = walker.Resolve(*this, nullptr, target,
                            kWalkFollow | kWalkDirectory);
  if (!dst.ok()) {
    return dst.error();
  }
  // One section and one pass, as in Mount.
  const bool fastpath = kernel_->config().fastpath;
  CoherenceSection section(fastpath ? &kernel_->dcache() : nullptr);
  std::unique_lock<std::shared_mutex> tree(kernel_->tree_lock());
  auto m = ns_->AddMount(src->dentry()->sb(), src->dentry(), dst->mnt(),
                         dst->dentry(), src->mnt()->flags);
  if (!m.ok()) {
    return m.error();
  }
  tree.unlock();
  if (fastpath) {
    section.InvalidateNow(dst->dentry());
  }
  return Status::Ok();
}

Status Task::Umount(std::string_view target) {
  Scope s(this, SyscallKind::kOther);
  if (cred_->uid() != kRootUid) {
    return Errno::kEPERM;
  }
  PathWalker walker(kernel_);
  auto p = walker.Resolve(*this, nullptr, target, kWalkFollow);
  if (!p.ok()) {
    return p.error();
  }
  VfsMount* m = p->mnt();
  if (m->parent == nullptr || p->dentry() != m->root) {
    return Errno::kEINVAL;
  }
  // One section and one pass, as in Mount: everything resolved under this
  // mount loses its canonical path.
  const bool fastpath = kernel_->config().fastpath;
  CoherenceSection section(fastpath ? &kernel_->dcache() : nullptr);
  std::unique_lock<std::shared_mutex> tree(kernel_->tree_lock());
  DIRCACHE_RETURN_IF_ERROR(ns_->RemoveMount(m));
  tree.unlock();
  if (fastpath) {
    section.InvalidateNow(m->root);
  }
  // References held by the mount (root + mountpoint) are dropped at
  // namespace teardown; the mount object itself lives until then.
  return Status::Ok();
}

}  // namespace dircache
