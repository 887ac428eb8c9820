#include "src/vfs/walk.h"

#include <cassert>
#include <shared_mutex>
#include <vector>

#include "src/core/dlht.h"
#include "src/core/pcc.h"
#include "src/obs/observability.h"
#include "src/storage/block_device.h"
#include "src/util/clock.h"
#include "src/util/epoch.h"
#include "src/vfs/task.h"

namespace dircache {

namespace {

// Per-walk scratch for the observability tracer (DESIGN.md §9). Armed only
// while a Resolve() on a kernel with obs enabled is on this thread's stack;
// every recording helper below is a thread-local load + branch when
// disarmed, so a kernel with obs disabled pays nothing else.
struct WalkTraceScratch {
  bool armed = false;
  bool classified = false;  // an outcome site already fired
  obs::WalkOutcome outcome = obs::WalkOutcome::kSlowLocked;
  uint16_t components = 0;  // slowpath components actually walked
  uint16_t retries = 0;     // optimistic -> locked fallbacks
};
thread_local WalkTraceScratch g_walk_trace;

// First classification wins: the site nearest the decision fires first and
// later, more generic sites (e.g. the structural catch-all) are ignored.
inline void TraceOutcome(obs::WalkOutcome o) {
  if (g_walk_trace.armed && !g_walk_trace.classified) {
    g_walk_trace.outcome = o;
    g_walk_trace.classified = true;
  }
}

// Reclassification for the shortcut fallback only: a resume is classified
// as a hit *before* the resumed walk runs (so the walk's own slow-outcome
// sites stay quiet), then downgraded to "partial" if the post-walk
// validation rejects the ancestor.
inline void TraceOutcomeForce(obs::WalkOutcome o) {
  if (g_walk_trace.armed) {
    g_walk_trace.outcome = o;
    g_walk_trace.classified = true;
  }
}

inline void TraceComponent() {
  if (g_walk_trace.armed) {
    ++g_walk_trace.components;
    // Per-component child span for traced requests (instant; arg0 = the
    // component's ordinal within this walk).
    obs::TraceInstant(obs::SpanKind::kComponent, g_walk_trace.components);
  }
}

inline void TraceRetry() {
  if (g_walk_trace.armed) {
    ++g_walk_trace.retries;
    obs::TraceInstant(obs::SpanKind::kEpochRetry, g_walk_trace.retries);
  }
}

// Maps a PCC miss to its walk outcome. Misses right after an epoch
// self-flush are attributed to the epoch bump (§3.1 wraparound), not to
// eviction or invalidation.
inline obs::WalkOutcome PccMissOutcome(PccMiss miss, bool epoch_flushed) {
  if (epoch_flushed) {
    return obs::WalkOutcome::kFastMissPccEpoch;
  }
  return miss == PccMiss::kStale ? obs::WalkOutcome::kFastMissPccStale
                                 : obs::WalkOutcome::kFastMissPccCred;
}

}  // namespace

namespace {

// §3.2 "Directory References": a walk that starts below the task root (cwd
// or dirfd) only verifies permissions from that base. Its results may be
// memoized in the PCC only while the base's own prefix check is still
// current — otherwise a process retaining rights through an open directory
// reference would launder them into cacheable full-path grants.
thread_local Dentry* g_untrusted_base = nullptr;

class UntrustedBaseScope {
 public:
  explicit UntrustedBaseScope(Dentry* base) : prev_(g_untrusted_base) {
    g_untrusted_base = base;
  }
  ~UntrustedBaseScope() { g_untrusted_base = prev_; }

 private:
  Dentry* prev_;
};

}  // namespace

namespace {

constexpr int kMaxSymlinkDepth = 40;
// Deepest path (in components) the shortcut fallback probes; longer paths
// take the ordinary full walk.
constexpr size_t kShortcutMaxDepth = 32;

// Iterates '/'-separated components of a path.
class ComponentCursor {
 public:
  explicit ComponentCursor(std::string_view path) : rest_(path) {}

  // Next component, or empty view when exhausted.
  std::string_view Next() {
    SkipSlashes();
    if (rest_.empty()) {
      return {};
    }
    size_t n = rest_.find('/');
    std::string_view comp = rest_.substr(0, n);
    rest_ = (n == std::string_view::npos) ? std::string_view{}
                                          : rest_.substr(n);
    return comp;
  }

  // True if no components remain.
  bool AtEnd() const {
    for (char c : rest_) {
      if (c != '/') {
        return false;
      }
    }
    return true;
  }

  std::string_view rest() const { return rest_; }

 private:
  void SkipSlashes() {
    while (!rest_.empty() && rest_.front() == '/') {
      rest_.remove_prefix(1);
    }
  }

  std::string_view rest_;
};

// Copy a dentry's canonical hash state if it is valid for `ns`.
bool CopyStateIfValid(const Dentry* d, const MountNamespace* ns,
                      HashState* out) {
  const FastDentry& fd = d->fast;
  if (!fd.path_valid.load(std::memory_order_acquire)) {
    return false;
  }
  uint32_t s = fd.state_seq.ReadBegin();
  *out = fd.hash_state;
  Mount* m = fd.mount.load(std::memory_order_acquire);
  if (fd.state_seq.ReadRetry(s)) {
    return false;
  }
  if (!fd.path_valid.load(std::memory_order_acquire)) {
    return false;
  }
  return m != nullptr && m->ns == ns;
}

// Forward declarations of the locked-walk helpers (defined below).
Result<const std::string*> ReadLinkTarget(Task& task, Dentry* link);
Result<Dentry*> MissLookup(Task& task, Dentry* parent, std::string_view name);
Status MaterializeStub(Task& task, Dentry* stub);
Dentry* MakeAlias(Task& task, Mount* mnt, Dentry* alias_parent,
                  std::string_view name, Dentry* target,
                  uint64_t inval_snapshot);
void RecordSymlinkTarget(Task& task, Mount* link_mnt, Dentry* link,
                         Mount* final_mnt, Dentry* final_d,
                         uint64_t inval_snapshot);
Dentry* BuildDeepNegatives(Task& task, Mount* mnt, Dentry* from,
                           std::string_view first, std::string_view rest,
                           uint32_t neg_flags, uint64_t inval_snapshot);

}  // namespace

// ---------------------------------------------------------------------------
// Canonical path state maintenance (§3.1, §4.3)

// Compute (and memoize) the canonical hash state of `d` as reached through
// `mnt`. Fills ancestors on the way. Fails on over-long paths or dead
// parents, or with kESTALE if a splice / subtree invalidation overlapped the
// recomputation (`inval_snapshot` is the caller's walk-entry counter value).
// Requires: caller in epoch guard, holds a reference on d.
static Result<HashState> EnsurePathState(Kernel* kernel, Dentry* d, Mount* mnt,
                                         uint64_t inval_snapshot) {
  HashState st;
  if (CopyStateIfValid(d, mnt->ns, &st)) {
    return st;
  }
  const PathSigner& signer = kernel->signer();
  if (d == mnt->root) {  // covers bind-mount roots too, not just sb roots
    if (mnt->parent == nullptr) {
      st = signer.RootState();
    } else {
      auto base = EnsurePathState(kernel, mnt->mountpoint, mnt->parent,
                                  inval_snapshot);
      if (!base.ok()) {
        return base.error();
      }
      st = *base;
    }
  } else {
    Dentry* p = d->parent();
    if (p == nullptr) {
      return Errno::kESTALE;
    }
    auto base = EnsurePathState(kernel, p, mnt, inval_snapshot);
    if (!base.ok()) {
      return base.error();
    }
    st = *base;
    if (!signer.AppendComponent(st, d->name())) {
      return Errno::kENAMETOOLONG;
    }
  }
  // Publish (mount-alias replacement semantics, §4.3).
  SpinGuard guard(d->lock);
  HashState raced;
  if (CopyStateIfValid(d, mnt->ns, &raced)) {
    return raced;  // a racer published first
  }
  DentryCache& dc = kernel->dcache();
  if (dc.invalidation_counter() != inval_snapshot ||
      !dc.InvalidationQuiescent()) {
    // A rename splice or deferred invalidation pass overlapped the
    // recomputation above: `st` may encode a parent chain that no longer
    // exists. Publishing it would re-arm path_valid AFTER the pass swept
    // this dentry, letting Populate() insert a stale signature into the
    // DLHT where it would resolve the OLD path forever. The d->lock we
    // hold orders this check against the pass's VisitOne (same lock): if
    // the counter is clean here, no splice has happened since the walk
    // began, so `st` is current and any later pass will sweep the publish.
    return Errno::kESTALE;
  }
  bool had_other_path = d->fast.path_valid.load(std::memory_order_acquire);
  Dlht::RemoveFromCurrent(&d->fast);
  d->fast.path_valid.store(false, std::memory_order_release);
  d->fast.state_seq.WriteBegin();
  d->fast.hash_state = st;
  d->fast.signature = kernel->signer().Finalize(st);
  d->fast.mount.store(mnt, std::memory_order_release);
  d->fast.state_seq.WriteEnd();
  if (had_other_path) {
    // The dentry was cached under an aliased path; the prefix check results
    // may differ, so invalidate them (§4.3).
    d->fast.seq.store(kernel->dcache().NewVersion(),
                      std::memory_order_release);
  }
  d->fast.path_valid.store(true, std::memory_order_release);
  return st;
}

// The memo gate (§3.2). Returns the credential's PCC when a walk that read
// `inval_snapshot` before its permission checks may memoize their results,
// and null when it may not:
//   - a mutation overlapped the walk (the counter moved);
//   - a deferred subtree pass is in flight (coherence gate open): a seq read
//     now may predate a bump the pass has yet to apply, and the pass's
//     closing counter bump has not happened yet;
//   - the walk is relative and its base's own prefix check no longer hits
//     (see g_untrusted_base).
static Pcc* MemoGate(Kernel* kernel, Task& task, uint64_t inval_snapshot) {
  DentryCache& dc = kernel->dcache();
  if (dc.invalidation_counter() != inval_snapshot ||
      !dc.InvalidationQuiescent()) {
    return nullptr;
  }
  const CacheConfig& cfg = kernel->config();
  Pcc* pcc = task.cred()->GetOrCreatePcc(cfg.pcc_bytes);
  pcc->EnsureEpoch(kernel->pcc_epoch());
  if (g_untrusted_base != nullptr) {
    uint32_t base_seq =
        g_untrusted_base->fast.seq.load(std::memory_order_acquire);
    if (!pcc->Lookup(g_untrusted_base, base_seq, &kernel->stats())) {
      return nullptr;
    }
  }
  return pcc;
}

// Publish `d` (already state-valid) into `ns`'s DLHT and, through the memo
// gate, memoize its prefix check in the PCC. `inval_snapshot` was read
// before the walk's permission checks; a concurrent invalidation forces a
// skip (§3.2).
static void Populate(Kernel* kernel, Task& task, Mount* mnt, Dentry* d,
                     uint64_t inval_snapshot) {
  if (!kernel->config().fastpath) {
    return;
  }
  if (d->sb()->needs_revalidation()) {
    return;  // §4.3: no direct lookup on stateless network file systems
  }
  if (kernel->dcache().invalidation_counter() != inval_snapshot) {
    return;
  }
  auto st = EnsurePathState(kernel, d, mnt, inval_snapshot);
  if (!st.ok()) {
    return;
  }
  if (PathWalker::before_publish != nullptr) {
    PathWalker::before_publish(d);
  }
  Dlht& dlht = mnt->ns->dlht();
  uint32_t seq;
  Signature sig;
  {
    SpinGuard guard(d->lock);
    if (d->IsDead()) {
      // Killed since the walk took its reference. Kill already unhashed it
      // under this lock; re-publishing would leave it on a DLHT chain after
      // the last Dput retires it.
      return;
    }
    if (!d->fast.path_valid.load(std::memory_order_acquire)) {
      return;  // raced with an invalidation
    }
    if (d->fast.on_dlht.load(std::memory_order_acquire) != &dlht) {
      Dlht::RemoveFromCurrent(&d->fast);
      dlht.Insert(&d->fast);
    }
    seq = d->fast.seq.load(std::memory_order_acquire);
    sig = d->fast.signature;  // stable under d->lock (rewrites hold it)
  }
  Pcc* pcc = MemoGate(kernel, task, inval_snapshot);
  if (pcc == nullptr) {
    return;
  }
  pcc->Insert(d, seq);
  const CacheConfig& cfg = kernel->config();
  if (cfg.shortcut) {
    // Shortcut fallback (DESIGN.md §14): directories additionally memoize
    // their prefix check under the *signature* key, so an ancestor probe
    // can validate them even after a scan evicted the pointer entry.
    Inode* di = d->inode();
    if (di != nullptr && di->IsDir()) {
      pcc->InsertPrefix(sig, seq);
    }
  }
}

// Memoize prefix checks for the intermediate directories a successful walk
// descended through: a walk that reached directory D verified search
// permission on every ancestor of D, which is exactly D's prefix check.
// Gated by the memo gate, like Populate().
struct PrefixDirs {
  static constexpr size_t kMax = 24;
  struct Item {
    Dentry* d;
    Mount* mnt;  // mounts live until kernel teardown (see Mount)
    uint32_t seq;
  };
  std::array<Item, kMax> dirs;
  size_t count = 0;

  void Note(Dentry* d, Mount* mnt) {
    if (count < kMax) {
      dirs[count++] = {d, mnt, d->fast.seq.load(std::memory_order_acquire)};
    }
  }
};

static void PopulatePrefixDirs(Kernel* kernel, Task& task,
                               const PrefixDirs& prefixes,
                               uint64_t inval_snapshot) {
  if (!kernel->config().fastpath || prefixes.count == 0) {
    return;
  }
  Pcc* pcc = MemoGate(kernel, task, inval_snapshot);
  if (pcc == nullptr) {
    return;
  }
  for (size_t i = 0; i < prefixes.count; ++i) {
    if (kernel->config().shortcut) {
      // Shortcut fallback (DESIGN.md §14): intermediate directories get
      // full DLHT entries (plus pointer- and signature-keyed PCC memos),
      // so the next miss in this subtree finds a deeper resume point.
      Populate(kernel, task, prefixes.dirs[i].mnt, prefixes.dirs[i].d,
               inval_snapshot);
    } else {
      pcc->Insert(prefixes.dirs[i].d, prefixes.dirs[i].seq);
    }
  }
}

// ---------------------------------------------------------------------------
// Shortcut miss fallback (DESIGN.md §14)

// On a final-probe DLHT miss, search for the deepest cached ancestor of the
// missed path: finalize successively shorter prefix states (longest first)
// and probe each signature. A candidate is usable only if it is a live,
// uncovered directory in this namespace whose prefix-permission check is
// memoized for this credential (pointer- or signature-keyed) — without the
// memo, resuming would skip the credential's search checks on every
// directory above the ancestor. Aliases are rejected rather than chased: a
// prefix that crosses a symlink resolves under the slowpath anyway, and a
// stale candidate costs one wasted probe, never a wrong result.
//
// Caller must be inside an epoch read guard. On success `sc->ancestor`
// carries real references and `sc->ancestor_seq`/`sc->inval_token` the
// validation snapshot the resumed walk is judged against.
static void ProbeShortcutAncestor(Kernel* k, Task& task,
                                  const PathHandle& start,
                                  std::string_view path, MountNamespace* ns,
                                  Pcc* pcc, uint64_t inval_token,
                                  ShortcutResume* sc) {
  CacheStats& stats = k->stats();
  const PathSigner& signer = k->signer();
  HashState base_st;
  if (!CopyStateIfValid(start.dentry(), ns, &base_st)) {
    return;
  }
  PrefixStates prefixes;
  if (!signer.SnapshotPrefixes(base_st, path, &prefixes)) {
    return;  // "." / ".." or over-deep shapes: plain full walk
  }
  const size_t depth = prefixes.depth;
  if (depth < 2 || depth > kShortcutMaxDepth) {
    return;  // no proper prefix to resume from
  }
  sc->attempted = true;
  sc->total_depth = static_cast<uint16_t>(depth);
  // Longest prefix first: prefix of depth pd covers components [0, pd), so
  // its state is prefixes.state[pd - 1] and the un-walked suffix starts at
  // prefixes.suffix_off[pd - 1]. Depth == `depth` already missed above.
  for (size_t pd = depth - 1; pd >= 1; --pd) {
    Signature psig = signer.Finalize(prefixes.state[pd - 1]);
    FastDentry* fd = ns->dlht().ProbePrefix(psig, &stats);
    if (fd == nullptr) {
      continue;
    }
    Dentry* a = DentryFromFast(fd);
    uint32_t seq = fd->seq.load(std::memory_order_acquire);
    uint32_t aflags = a->flags();
    if ((aflags & (kDentNegative | kDentStub | kDentAlias)) != 0) {
      continue;
    }
    Inode* ai = a->inode();
    if (ai == nullptr || !ai->IsDir()) {
      continue;
    }
    if (a->sb()->needs_revalidation()) {
      continue;  // §4.3: never resume into a stateless network FS
    }
    Mount* m = fd->mount.load(std::memory_order_acquire);
    if (m == nullptr || m->ns != ns) {
      continue;
    }
    if ((aflags & kDentMountpoint) != 0 &&
        task.ns()->MountAt(m, a) != nullptr) {
      continue;  // covered by a mount: the suffix lives in another tree
    }
    // Prefix-permission memo (stats deliberately not passed: probe-time
    // lookups must not skew the pcc hit/stale counters the hit path
    // reports). On a signature-keyed hit, promote to a pointer entry so
    // the resumed walk's Populate base re-check hits too.
    if (!pcc->Lookup(a, seq)) {
      if (!pcc->LookupPrefix(psig, seq)) {
        continue;  // a shallower ancestor may still hold a memo
      }
      pcc->Insert(a, seq);
    }
    if (!a->DgetLive()) {
      continue;
    }
    if (fd->seq.load(std::memory_order_seq_cst) != seq ||
        !k->dcache().InvalidationTokenValid(inval_token)) {
      k->dcache().Dput(a);
      return;  // the tree moved mid-probe; take the plain full walk
    }
    sc->found = true;
    sc->ancestor = PathHandle::Adopt(m, a);
    sc->suffix_offset = prefixes.suffix_off[pd - 1];
    sc->ancestor_seq = seq;
    sc->inval_token = inval_token;
    sc->ancestor_depth = static_cast<uint16_t>(pd);
    return;
  }
}

// ---------------------------------------------------------------------------
// PathWalker

Result<PathHandle> PathWalker::Resolve(Task& task, const PathHandle* base,
                                       std::string_view path, int wflags,
                                       std::string* last_out,
                                       Stat* stat_out) {
  Observability& obs = kernel_->obs();
  if (!obs.enabled()) {
    return DoResolve(task, base, path, wflags, last_out, stat_out);
  }
  // Trace this walk. Scratch is saved/restored so a walk nested inside
  // another (task-level operations resolve several paths) records its own
  // outcome without corrupting the outer one.
  WalkTraceScratch saved = g_walk_trace;
  g_walk_trace = WalkTraceScratch{};
  g_walk_trace.armed = true;
  uint64_t t0 = NowNanos();
  Result<PathHandle> r =
      DoResolve(task, base, path, wflags, last_out, stat_out);
  const uint64_t latency_ns = NowNanos() - t0;
  const WalkTraceScratch done = g_walk_trace;
  g_walk_trace = saved;
  // Every walk that runs classifies itself. A path DoResolve rejects before
  // either walk (empty, over PATH_MAX, a kWalkParent final name of `.`/`..`
  // or over NAME_MAX) is not a walk, so it records no outcome, latency or
  // span. CacheStats::lookups still counts the two kWalkParent rejections:
  // perfbench's vfs.fast_hit_ratio divides by it.
  if (!done.classified) {
    return r;
  }
  obs.RecordWalk(done.outcome, latency_ns);
  // Child span for traced requests: one walk = one span, classified fast
  // vs slow by its outcome (arg0 = components, arg1 = the outcome code).
  if (obs::g_active_trace != nullptr) {
    const bool fast = done.outcome == obs::WalkOutcome::kFastHit ||
                      done.outcome == obs::WalkOutcome::kFastNegative;
    obs::TraceAddSpan(fast ? obs::SpanKind::kWalkFast : obs::SpanKind::kWalkSlow,
                      t0, latency_ns, done.components,
                      static_cast<uint64_t>(done.outcome));
  }
  return r;
}

Result<PathHandle> PathWalker::DoResolve(Task& task, const PathHandle* base,
                                         std::string_view path, int wflags,
                                         std::string* last_out,
                                         Stat* stat_out) {
  if (path.empty()) {
    return Errno::kENOENT;
  }
  if (path.size() > PathHashKey::kMaxPathLen) {
    return Errno::kENAMETOOLONG;
  }
  CacheStats& stats = kernel_->stats();
  stats.lookups.Add();

  std::string_view effective = path;
  if ((wflags & kWalkParent) != 0) {
    // Split off the final component; resolve the prefix as a directory.
    std::string_view p = path;
    while (!p.empty() && p.back() == '/') {
      p.remove_suffix(1);
    }
    size_t slash = p.find_last_of('/');
    std::string_view last =
        (slash == std::string_view::npos) ? p : p.substr(slash + 1);
    if (last.empty() || last == "." || last == "..") {
      return Errno::kEINVAL;
    }
    if (last.size() > kMaxNameLen) {
      return Errno::kENAMETOOLONG;
    }
    if (last_out != nullptr) {
      *last_out = std::string(last);
    }
    std::string_view prefix =
        (slash == std::string_view::npos)
            ? (path.front() == '/' ? std::string_view("/")
                                   : std::string_view("."))
            : p.substr(0, slash == 0 ? 1 : slash);
    effective = prefix;
    wflags = (wflags & ~kWalkParent) | kWalkFollow | kWalkDirectory;
  }

  const PathHandle& start =
      effective.front() == '/'
          ? task.root()
          : (base != nullptr && *base ? *base : task.cwd());
  UntrustedBaseScope base_scope(
      start.dentry() == task.root().dentry() ? nullptr : start.dentry());

  const CacheConfig& rcfg = kernel_->config();
  bool privileged_blocked =
      !rcfg.fastpath_for_privileged && task.cred()->uid() == kRootUid;
  if (rcfg.fastpath && !force_fastpath_miss && !privileged_blocked) {
    Result<PathHandle> result = Errno::kENOENT;
    ShortcutResume resume;
    if (TryFastResolve(task, start, effective, wflags, stat_out, &result,
                       &resume)) {
      stats.fastpath_hits.Add();
      TraceOutcome(result.ok() ? obs::WalkOutcome::kFastHit
                               : obs::WalkOutcome::kFastNegative);
      return result;
    }
    stats.fastpath_misses.Add();
    if (resume.found) {
      // Resume the slowpath from the cached ancestor: walk only the
      // suffix, with the ancestor as the untrusted memoization base (its
      // own prefix check must still hit before the suffix's intermediate
      // dirs are memoized — same rule as relative walks). The result is
      // trusted only if the ancestor's seq and the coherence token are
      // still valid afterwards (DESIGN.md §14); otherwise discard it and
      // restart the full walk from the real base.
      assert(!forbid_slowpath && "slowpath forbidden by test hook");
      stats.shortcut_resumes.Add();
      stats.shortcut_skipped.Add(resume.ancestor_depth);
      TraceOutcome(obs::WalkOutcome::kFastMissShortcutHit);
      obs::TraceInstant(
          obs::SpanKind::kWalkShortcut, resume.ancestor_depth,
          static_cast<uint64_t>(resume.total_depth - resume.ancestor_depth));
      Result<PathHandle> r = Errno::kENOENT;
      {
        UntrustedBaseScope resume_scope(resume.ancestor.dentry());
        r = SlowResolve(task, resume.ancestor,
                        effective.substr(resume.suffix_offset), wflags);
      }
      Dentry* a = resume.ancestor.dentry();
      if (a->fast.seq.load(std::memory_order_seq_cst) == resume.ancestor_seq &&
          kernel_->dcache().InvalidationTokenValid(resume.inval_token)) {
        return r;
      }
      // The ancestor moved while we walked under it: the suffix walk may
      // have produced an answer for a path that no longer spells this
      // name. Never return it — restart from the root (at worst a wasted
      // probe, never a wrong result).
      stats.shortcut_restarts.Add();
      TraceOutcomeForce(obs::WalkOutcome::kFastMissShortcutPartial);
      return SlowResolve(task, start, effective, wflags);
    }
    if (resume.attempted) {
      // Probe ran on an eligible shape but no usable ancestor was cached.
      TraceOutcome(obs::WalkOutcome::kFastMissShortcutNone);
    }
    // If no specific miss site classified this walk, it fell off the
    // fastpath for a structural reason (base state, lexical depth, mount
    // boundary, symlink shape, ...).
    TraceOutcome(obs::WalkOutcome::kFastMissStructural);
  }
  assert(!forbid_slowpath && "slowpath forbidden by test hook");
  return SlowResolve(task, start, effective, wflags);
}

Result<PathHandle> PathWalker::SlowResolve(Task& task,
                                           const PathHandle& start,
                                           std::string_view path,
                                           int wflags) {
  kernel_->stats().slowpath_walks.Add();
  switch (kernel_->config().locking) {
    case LockingMode::kGlobalLock: {
      std::lock_guard<std::mutex> big(kernel_->global_walk_lock());
      kernel_->stats().locks_taken.Add();
      kernel_->stats().shared_writes.Add();
      TraceOutcome(obs::WalkOutcome::kSlowLocked);
      return WalkComponents(task, start, path, wflags, WalkMode::kLocked,
                            nullptr);
    }
    case LockingMode::kFineGrained:
      TraceOutcome(obs::WalkOutcome::kSlowLocked);
      return WalkComponents(task, start, path, wflags, WalkMode::kLocked,
                            nullptr);
    case LockingMode::kOptimistic: {
      bool bailed = false;
      auto r = WalkComponents(task, start, path, wflags,
                              WalkMode::kOptimistic, &bailed);
      if (!bailed) {
        TraceOutcome(obs::WalkOutcome::kSlowOptimistic);
        return r;
      }
      kernel_->stats().slowpath_retries.Add();
      TraceRetry();
      TraceOutcome(obs::WalkOutcome::kSlowRetried);
      return WalkComponents(task, start, path, wflags, WalkMode::kLocked,
                            nullptr);
    }
  }
  return Errno::kEINVAL;
}

// ---------------------------------------------------------------------------
// The component walk (Linux's link_path_walk() and walk_component()). Both
// slow-walk modes run this one loop; `mode` decides how each step holds its
// position:
//   - kOptimistic (rcu-walk analog) traverses cached state only, takes no
//     references and no locks, and validates the global rename seqcount
//     before it returns. It bails on a dcache miss, a stub, a symlink to
//     splice, a file system that revalidates, and a deep-negative build.
//   - kLocked (ref-walk analog) holds the tree lock shared, takes a
//     reference per step, consults the low-level FS on misses, resolves
//     symlinks, and builds negative/stub/alias dentries as configured.

Result<PathHandle> PathWalker::WalkComponents(Task& task,
                                              const PathHandle& start,
                                              std::string_view path,
                                              int wflags, WalkMode mode,
                                              bool* bailed) {
  Kernel* k = kernel_;
  const CacheConfig& cfg = k->config();
  CacheStats& stats = k->stats();
  DentryCache& dc = k->dcache();
  const bool locked = mode == WalkMode::kLocked;

  std::shared_lock<std::shared_mutex> tree(k->tree_lock(), std::defer_lock);
  if (locked) {
    tree.lock();
    // Even a shared acquisition is an RMW on the mutex word — a shared-line
    // write the lock-free mode never pays.
    stats.shared_writes.Add();
  }
  EpochDomain::ReadGuard guard(EpochDomain::Global());
  const uint32_t rseq = locked ? 0 : k->rename_seq().ReadBegin();
  uint64_t inval_snapshot = dc.invalidation_counter();
  const Cred& cred = *task.cred();

  // The walk position. Only a locked walk holds a reference on `d`; `hold`
  // and `put` take and drop references in that mode alone.
  Mount* mnt = start.mnt();
  Dentry* d = start.dentry();
  auto hold = [&](Dentry* x) {
    if (locked) {
      x->DgetHeld();
    }
  };
  auto put = [&](Dentry* x) {
    if (locked) {
      dc.Dput(x);
    }
  };
  auto step = [&](Mount* m, Dentry* x) {  // takes over the reference on x
    put(d);
    mnt = m;
    d = x;
  };
  hold(d);
  PrefixDirs prefixes;

  // Pending path segments of a locked walk; symlink targets are pushed in
  // front. A segment is "literal" if its components come from the caller's
  // path (alias dentries are built only for literal components, §4.2). The
  // optimistic mode never splices, so it walks `path` in place.
  struct Segment {
    std::string text;
    bool literal;
  };
  std::vector<Segment> pending;
  if (locked) {
    pending.push_back(Segment{std::string(path), true});
  }
  size_t seg = 0;
  int link_depth = 0;
  // Active symlink alias chain (§4.2); holds a reference when non-null.
  // alias_mnt is the mount the literal (pre-symlink) path runs under.
  Dentry* alias_parent = nullptr;
  Mount* alias_mnt = nullptr;
  // Trailing symlink crossed with kWalkFollow (for target_sig memoization).
  Dentry* trailing_symlink = nullptr;
  Mount* trailing_symlink_mnt = nullptr;

  auto drop_alias_parent = [&] {
    if (alias_parent != nullptr) {
      dc.Dput(alias_parent);
      alias_parent = nullptr;
    }
  };
  auto drop_trailing = [&] {
    if (trailing_symlink != nullptr) {
      dc.Dput(trailing_symlink);
      trailing_symlink = nullptr;
      trailing_symlink_mnt = nullptr;
    }
  };
  auto bail = [&]() {
    *bailed = true;
    return Result<PathHandle>(Errno::kENOENT);  // value unused
  };
  // A locked failure is final. An optimistic one stands only if no rename
  // overlapped the walk; otherwise the locked mode decides.
  auto fail = [&](Errno e) -> Result<PathHandle> {
    if (!locked) {
      return k->rename_seq().ReadRetry(rseq) ? bail() : Result<PathHandle>(e);
    }
    drop_alias_parent();
    drop_trailing();
    put(d);
    return e;
  };

  ComponentCursor cur(locked ? std::string_view(pending[0].text) : path);
  // Whether the component just taken is the path's last. Asked only where
  // it matters, since it rescans the rest of the path.
  auto is_last = [&] { return cur.AtEnd() && seg + 1 >= pending.size(); };
  while (true) {
    std::string_view comp = cur.Next();
    while (comp.empty() && seg + 1 < pending.size()) {
      cur = ComponentCursor(pending[++seg].text);
      comp = cur.Next();
    }
    if (comp.empty()) {
      break;
    }
    TraceComponent();
    stats.slow_components.Add();
    if (comp.size() > kMaxNameLen) {
      return fail(Errno::kENAMETOOLONG);
    }
    // Only the optimistic mode descends a cached deep-negative chain; the
    // locked mode stops at the first negative dentry.
    Inode* dir_inode = d->inode();
    const bool on_negative_chain = !locked && d->IsNegative();
    if (dir_inode == nullptr && !on_negative_chain) {
      return locked ? fail(Errno::kENOENT) : bail();  // stub or dying
    }
    if (on_negative_chain) {
      if (comp == "." || comp == "..") {
        // "." or ".." under a nonexistent directory: the directory itself
        // is missing, so the walk fails here (POSIX); ENOTDIR for file
        // chains.
        return fail(d->TestFlags(kDentEnotdir) ? Errno::kENOTDIR
                                               : Errno::kENOENT);
      }
    } else {
      if (!dir_inode->IsDir()) {
        // Intermediate non-directory: cached ENOTDIR chain (§5.2), which
        // only the locked mode builds.
        if (cfg.deep_negative) {
          if (!locked) {
            return bail();
          }
          Dentry* deep = BuildDeepNegatives(task, mnt, d, comp, cur.rest(),
                                            kDentNegative | kDentEnotdir,
                                            inval_snapshot);
          if (deep != nullptr) {
            dc.Dput(deep);
          }
        }
        return fail(Errno::kENOTDIR);
      }
      Status st = k->security().Permission(cred, *dir_inode, kMayExec, d);
      if (!st.ok()) {
        return fail(st.error());
      }
      prefixes.Note(d, mnt);
    }
    if (comp == ".") {
      continue;
    }
    if (comp == "..") {
      drop_alias_parent();
      if (locked) {
        // Populate the directory we are leaving so the fastpath's
        // per-dot-dot permission probe can hit next time (§4.2). Populate
        // needs the reference only the locked mode holds.
        Populate(k, task, mnt, d, inval_snapshot);
      }
      // Walk up, respecting the task root and mount boundaries.
      while (d != task.root().dentry() || mnt != task.root().mnt()) {
        if (d == mnt->root) {
          if (mnt->parent == nullptr) {
            break;
          }
          Dentry* mp = mnt->mountpoint;
          hold(mp);
          step(mnt->parent, mp);
          continue;
        }
        Dentry* p = d->parent();
        if (p == nullptr) {
          return locked ? fail(Errno::kESTALE) : bail();
        }
        hold(p);
        step(mnt, p);
        break;
      }
      continue;
    }

    Dentry* child = locked ? dc.LookupRef(d, comp) : dc.LookupRcu(d, comp);
    if (child != nullptr && child->sb()->needs_revalidation()) {
      if (!locked) {
        return bail();  // revalidation is an FS call: take the locked path
      }
      if (child->IsPositive() && !child->IsStub()) {
        // Close-to-open consistency on a stateless protocol: one round trip
        // per cached component (§4.3).
        Inode* ci = child->inode();
        Status ok = ci != nullptr
                        ? child->sb()->fs()->Revalidate(ci->ino())
                        : Status(Errno::kESTALE);
        if (!ok.ok()) {
          // The server-side object is gone; drop the stale dentry and
          // re-resolve from the server.
          dc.KillCachedChildren(child);
          dc.Kill(child);
          dc.Dput(child);
          child = nullptr;
        }
      }
    }
    if (child != nullptr) {
      stats.dcache_hits.Add();
    } else {
      if (!locked) {
        return bail();
      }
      stats.dcache_misses.Add();
      auto miss = MissLookup(task, d, comp);
      if (!miss.ok()) {
        return fail(miss.error());
      }
      child = *miss;
    }

    if (child->IsNegative()) {
      stats.negative_hits.Add();
      const Errno e =
          child->TestFlags(kDentEnotdir) ? Errno::kENOTDIR : Errno::kENOENT;
      if (!is_last() && cfg.deep_negative) {
        if (!locked) {
          // Descend the cached deep-negative chain (§5.2): its children are
          // themselves negative dentries in the primary hash. A missing
          // link bails, and the locked mode builds it.
          step(mnt, child);
          continue;
        }
        if (e == Errno::kENOENT) {
          Dentry* deep = BuildDeepNegatives(task, mnt, child, {}, cur.rest(),
                                            kDentNegative, inval_snapshot);
          if (deep != nullptr) {
            dc.Dput(child);
            child = deep;
          }
        }
      } else if (locked && is_last()) {
        // Memoize the negative result for fast ENOENT (§5.2).
        Populate(k, task, mnt, child, inval_snapshot);
      }
      put(child);
      return fail(e);
    }
    if (on_negative_chain) {
      return bail();  // a positive child under a negative? resolve locked
    }

    if (child->IsStub()) {
      if (!locked) {
        return bail();
      }
      Status st = MaterializeStub(task, child);
      if (!st.ok()) {
        dc.Dput(child);
        return fail(st.error());
      }
    }

    // Cross mount points: the step below moves to `child` under `nmnt`.
    Mount* nmnt = mnt;
    while (child->TestFlags(kDentMountpoint)) {
      Mount* covered = task.ns()->MountAt(nmnt, child);
      if (covered == nullptr) {
        break;
      }
      nmnt = covered;
      Dentry* root = covered->root;
      hold(root);
      put(child);
      child = root;
    }

    Inode* ci = child->inode();
    if (ci == nullptr) {
      put(child);
      return locked ? fail(Errno::kENOENT) : bail();
    }

    if (ci->IsSymlink()) {
      if (is_last() && (wflags & kWalkFollow) == 0) {
        step(nmnt, child);
        break;
      }
      if (!locked) {
        return bail();  // symlink resolution runs locked
      }
      if (++link_depth > kMaxSymlinkDepth) {
        dc.Dput(child);
        return fail(Errno::kELOOP);
      }
      auto target = ReadLinkTarget(task, child);
      if (!target.ok()) {
        dc.Dput(child);
        return fail(target.error());
      }
      // Target-signature and alias memoization are sound only for
      // single-hop resolutions: a change to an INTERMEDIATE symlink in a
      // multi-link chain bumps no version counter on the final target, so
      // multi-hop chains must always re-resolve on the slowpath (§4.2).
      if (link_depth > 1) {
        drop_trailing();
        drop_alias_parent();
      } else {
        if (is_last()) {
          drop_trailing();
          child->DgetHeld();
          trailing_symlink = child;
          trailing_symlink_mnt = mnt;
        }
        if (cfg.fastpath) {
          drop_alias_parent();
          child->DgetHeld();
          alias_parent = child;
          alias_mnt = mnt;
        }
      }
      const std::string& t = **target;
      // Splice: remaining components of the current segment stay pending;
      // the target is walked first. Copy the remainder before clearing —
      // cur.rest() aliases pending[seg]'s storage.
      std::string rest_copy(cur.rest());
      bool rest_literal = pending[seg].literal;
      std::vector<Segment> tail(pending.begin() + seg + 1, pending.end());
      pending.clear();
      pending.push_back(Segment{t, false});
      pending.push_back(Segment{std::move(rest_copy), rest_literal});
      for (auto& s : tail) {
        pending.push_back(std::move(s));
      }
      seg = 0;
      cur = ComponentCursor(pending[0].text);
      if (!t.empty() && t.front() == '/') {
        Dentry* rd = task.root().dentry();
        hold(rd);
        step(task.root().mnt(), rd);
      }
      dc.Dput(child);
      continue;
    }

    // Build/extend the symlink alias chain (§4.2) — only for components
    // that come from the caller's literal path, never for spliced
    // symlink-target components.
    if (alias_parent != nullptr && pending[seg].literal && cfg.fastpath) {
      Dentry* alias = MakeAlias(task, alias_mnt, alias_parent, comp, child,
                                inval_snapshot);
      drop_alias_parent();
      alias_parent = alias;  // may be null on failure; chain just stops
    }

    step(nmnt, child);
  }

  drop_alias_parent();
  if (!locked && d->IsNegative()) {
    return fail(d->TestFlags(kDentEnotdir) ? Errno::kENOTDIR
                                           : Errno::kENOENT);
  }
  Inode* fi = d->inode();
  if (fi == nullptr) {
    return locked ? fail(Errno::kENOENT) : bail();
  }
  if ((wflags & kWalkDirectory) != 0 && !fi->IsDir()) {
    return fail(Errno::kENOTDIR);
  }
  if (!locked) {
    // Legitimize (Linux's unlazy_walk()): take the reference, then
    // re-validate the rename seqcount.
    if (!d->DgetLive()) {
      return bail();
    }
    if (k->rename_seq().ReadRetry(rseq)) {
      dc.Dput(d);
      return bail();
    }
    if (d->MarkReferenced()) {
      stats.shared_writes.Add();
    }
  }
  Populate(k, task, mnt, d, inval_snapshot);
  PopulatePrefixDirs(k, task, prefixes, inval_snapshot);
  if (trailing_symlink != nullptr) {
    RecordSymlinkTarget(task, trailing_symlink_mnt, trailing_symlink, mnt, d,
                        inval_snapshot);
    drop_trailing();
  }
  return PathHandle::Adopt(mnt, d);
}

// ---------------------------------------------------------------------------
// Locked-mode helpers

namespace {

Result<const std::string*> ReadLinkTarget(Task& task, Dentry* link) {
  Inode* inode = link->inode();
  if (const std::string* cached = inode->cached_link_target()) {
    return cached;
  }
  IoChargeScope charge(&task.io_clock());
  auto target = inode->sb()->fs()->ReadLink(inode->ino());
  if (!target.ok()) {
    return target.error();
  }
  return inode->cache_link_target(*std::move(target));
}

// Consult the low-level FS for a component miss; instantiates a positive or
// negative dentry as configured. Returns a referenced dentry, or ENOENT
// when nothing may be cached (baseline pseudo-FS behaviour, §5.2).
Result<Dentry*> MissLookup(Task& task, Dentry* parent,
                           std::string_view name) {
  Kernel* k = parent->sb()->kernel();
  const CacheConfig& cfg = k->config();
  const uint32_t tenant = task.cred()->uid();
  Inode* dir_inode = parent->inode();
  std::lock_guard<std::mutex> io(dir_inode->io_mu);
  // A racer may have instantiated the child while we waited.
  if (Dentry* again = k->dcache().LookupRef(parent, name)) {
    return again;
  }
  if (cfg.dir_completeness && parent->TestFlags(kDentDirComplete)) {
    // Everything under this directory is cached: the miss is definitive
    // without consulting the file system (§5.1).
    k->stats().dir_complete_hits.Add();
    return k->dcache().AddChild(parent, name, nullptr, kDentNegative,
                                tenant);
  }
  FileSystem* fs = parent->sb()->fs();
  IoChargeScope charge(&task.io_clock());
  auto ino = fs->Lookup(dir_inode->ino(), name);
  if (!ino.ok()) {
    if (ino.error() != Errno::kENOENT) {
      return ino.error();
    }
    if (!fs->WantsNegativeDentries() && !cfg.negative_on_pseudo_fs) {
      return Errno::kENOENT;
    }
    return k->dcache().AddChild(parent, name, nullptr, kDentNegative,
                                tenant);
  }
  auto inode = parent->sb()->Iget(*ino);
  if (!inode.ok()) {
    return inode.error();
  }
  return k->dcache().AddChild(parent, name, *inode, 0, tenant);
}

// Attach a real inode to a readdir stub dentry (§5.1).
Status MaterializeStub(Task& task, Dentry* stub) {
  if (!stub->IsStub()) {
    return Status::Ok();
  }
  IoChargeScope charge(&task.io_clock());
  auto inode = stub->sb()->Iget(stub->stub_ino);
  if (!inode.ok()) {
    return inode.error() == Errno::kESTALE ? Errno::kENOENT : inode.error();
  }
  SpinGuard guard(stub->lock);
  if (!stub->IsStub()) {
    stub->sb()->Iput(*inode);  // racer won
    return Status::Ok();
  }
  stub->set_inode(*inode);
  stub->ClearFlags(kDentStub);
  return Status::Ok();
}

// Create (or refresh) the alias child `name` of `alias_parent` redirecting
// to `target` (§4.2). Returns a referenced alias dentry or null.
Dentry* MakeAlias(Task& task, Mount* mnt, Dentry* alias_parent,
                  std::string_view name, Dentry* target,
                  uint64_t inval_snapshot) {
  Kernel* k = alias_parent->sb()->kernel();
  if (!target->DgetLive()) {
    return nullptr;
  }
  auto alias = k->dcache().AddChild(alias_parent, name, nullptr, kDentAlias,
                                    task.cred()->uid(), 0, FileType::kRegular,
                                    target);
  if (!alias.ok()) {
    return nullptr;  // AddChild dropped the target reference
  }
  Dentry* a = *alias;
  if (a->alias_target.load(std::memory_order_acquire) != target) {
    // Reused an existing alias whose target moved; retarget it.
    SpinGuard guard(a->lock);
    Dentry* old = a->alias_target.load(std::memory_order_acquire);
    if (old != target && target->DgetLive()) {
      a->alias_target.store(target, std::memory_order_release);
      a->fast.seq.store(k->dcache().NewVersion(), std::memory_order_release);
      if (old != nullptr) {
        guard.Release();
        k->dcache().Dput(old);
      }
    }
  }
  Populate(k, task, mnt, a, inval_snapshot);
  return a;
}

// Memoize a trailing symlink's resolved-target signature and publish the
// symlink itself, enabling the fastpath's one-extra-probe follow (§4.2).
void RecordSymlinkTarget(Task& task, Mount* link_mnt, Dentry* link,
                         Mount* final_mnt, Dentry* final_d,
                         uint64_t inval_snapshot) {
  Kernel* k = link->sb()->kernel();
  if (!k->config().fastpath) {
    return;
  }
  auto fst = EnsurePathState(k, final_d, final_mnt, inval_snapshot);
  if (!fst.ok()) {
    return;
  }
  Signature fsig = k->signer().Finalize(*fst);
  auto lst = EnsurePathState(k, link, link_mnt, inval_snapshot);
  if (!lst.ok()) {
    return;
  }
  {
    SpinGuard guard(link->lock);
    if (!link->fast.path_valid.load(std::memory_order_acquire)) {
      return;
    }
    link->fast.state_seq.WriteBegin();
    link->fast.target_sig = fsig;
    link->fast.state_seq.WriteEnd();
    link->fast.has_target_sig.store(true, std::memory_order_release);
  }
  Populate(k, task, link_mnt, link, inval_snapshot);
}

// Build a chain of negative dentries for the unreachable suffix of a path
// (§5.2): under a negative dentry (ENOENT chains) or under a regular file
// (ENOTDIR chains). Returns the deepest dentry created (referenced), or
// null when nothing was built. If the full suffix fit within the limit, the
// final dentry is published for direct negative lookups.
Dentry* BuildDeepNegatives(Task& task, Mount* mnt, Dentry* from,
                           std::string_view first, std::string_view rest,
                           uint32_t neg_flags, uint64_t inval_snapshot) {
  Kernel* k = from->sb()->kernel();
  Dentry* cur = from;
  bool cur_owned = false;  // `from`'s reference belongs to the caller
  size_t created = 0;
  bool complete = true;
  ComponentCursor cursor(rest);
  std::string_view comp = first.empty() ? cursor.Next() : first;
  while (!comp.empty()) {
    if (comp == "." || comp == ".." || comp.size() > kMaxNameLen) {
      complete = false;
      break;
    }
    if (created >= kDeepNegativeLimit) {
      complete = false;
      break;
    }
    auto child = k->dcache().AddChild(cur, comp, nullptr, neg_flags,
                                      task.cred()->uid());
    if (!child.ok()) {
      complete = false;
      break;
    }
    if (cur_owned) {
      k->dcache().Dput(cur);
    }
    cur = *child;
    cur_owned = true;
    ++created;
    comp = cursor.Next();
  }
  if (!cur_owned) {
    return nullptr;
  }
  if (complete) {
    Populate(k, task, mnt, cur, inval_snapshot);
  }
  return cur;
}

}  // namespace

Result<Dentry*> PathWalker::LookupOrInstantiate(Task& task, Dentry* parent,
                                                std::string_view name) {
  Kernel* k = parent->sb()->kernel();
  Dentry* d = k->dcache().LookupRef(parent, name);
  if (d == nullptr) {
    k->stats().dcache_misses.Add();
    return MissLookup(task, parent, name);
  }
  k->stats().dcache_hits.Add();
  if (Status st = MaterializeStub(task, d); !st.ok()) {
    k->dcache().Dput(d);
    return st.error();
  }
  return d;
}

// ---------------------------------------------------------------------------
// The fastpath (§3.1): sign the path (in one hash pass when it is already
// canonical, else canonicalizing while hashing name by name), one DLHT
// probe, one PCC probe. Returns true when it produced a definitive outcome
// in *result.

bool PathWalker::TryFastResolve(Task& task, const PathHandle& start,
                                std::string_view path, int wflags,
                                Stat* stat_out, Result<PathHandle>* result,
                                ShortcutResume* resume) {
  Kernel* k = kernel_;
  const CacheConfig& cfg = k->config();
  CacheStats& stats = k->stats();
  MountNamespace* ns = task.ns().get();
  const PathSigner& signer = k->signer();

  EpochDomain::ReadGuard guard(EpochDomain::Global());

  // Coherence gate (§3.2 deferred invalidation): while a mutation's subtree
  // pass is in flight, DLHT/PCC contents may be arbitrarily stale — the
  // pass has not yet reached every descendant. Take the slowpath, which
  // revalidates against the real tree. The token lets the success paths
  // below confirm no section opened mid-walk. Loads only: warm hits stay
  // shared-write-free.
  uint64_t inval_token;
  if (!k->dcache().InvalidationQuiescent(&inval_token)) {
    obs::TraceInstant(obs::SpanKind::kGate);
    return false;
  }

  Pcc* pcc = task.cred()->GetOrCreatePcc(cfg.pcc_bytes);
  const bool epoch_flushed = pcc->EnsureEpoch(k->pcc_epoch());

  Dentry* base = start.dentry();
  HashState st;
  if (!CopyStateIfValid(base, ns, &st)) {
    return false;  // base state unknown: the slowpath will fill it
  }

  bool trailing_dot = false;  // path ends in "." or "..": final must be a
                              // directory, and a preceding symlink is
                              // followed (POSIX trailing-dot semantics)
  if (PathSigner::IsCanonical(path)) {
    // The path's own bytes are its canonical form: one hash pass.
    if (!signer.AppendCanonical(st, path)) {
      return false;
    }
  } else {
    // Plan 9 lexical mode keeps a small stack of prefix states so ".."
    // truncates textually (§4.2). Fixed-size: deeper paths take the
    // slowpath.
    constexpr size_t kMaxLexicalDepth = 16;
    std::array<HashState, kMaxLexicalDepth> lexical_stack;
    size_t lexical_depth = 0;
    ComponentCursor cur(path);
    std::string_view comp;
    while (!(comp = cur.Next()).empty()) {
      trailing_dot = comp == "." || comp == "..";
      if (comp == ".") {
        continue;
      }
      if (comp == "..") {
        if (cfg.dotdot == DotDotMode::kLexical) {
          // Plan 9 semantics: textual truncation (§4.2).
          if (lexical_depth == 0) {
            return false;  // ".." above the walk base: give up
          }
          st = lexical_stack[--lexical_depth];
          continue;
        }
        // POSIX semantics: one extra fastpath permission probe on the
        // directory being exited (§4.2).
        Signature psig = signer.Finalize(st);
        FastDentry* pfd = ns->dlht().Lookup(psig, &stats);
        if (pfd == nullptr) {
          stats.dlht_misses.Add();
          TraceOutcome(obs::WalkOutcome::kFastMissDlht);
          return false;
        }
        Dentry* pd = DentryFromFast(pfd);
        uint32_t pseq = pfd->seq.load(std::memory_order_acquire);
        PccMiss pmiss = PccMiss::kNone;
        if (!pcc->Lookup(pd, pseq, &stats, &pmiss)) {
          stats.pcc_misses.Add();
          TraceOutcome(PccMissOutcome(pmiss, epoch_flushed));
          return false;
        }
        Mount* pm = pfd->mount.load(std::memory_order_acquire);
        if (pm == nullptr || pd == pm->root || pd->IsNegative()) {
          return false;  // mount boundary / nonsense: slowpath handles it
        }
        // The PCC hit covers the prefix *to* this directory; leaving it via
        // ".." additionally requires search permission *on* it, checked
        // directly (it is never part of any memoized prefix).
        Inode* pi = pd->inode();
        if (pi == nullptr || !pi->IsDir() ||
            !k->security().Permission(*task.cred(), *pi, kMayExec, pd).ok()) {
          return false;
        }
        Dentry* parent = pd->parent();
        if (parent == nullptr || !CopyStateIfValid(parent, ns, &st)) {
          return false;
        }
        continue;
      }
      if (comp.size() > kMaxNameLen) {
        return false;
      }
      if (cfg.dotdot == DotDotMode::kLexical) {
        if (lexical_depth == kMaxLexicalDepth) {
          return false;
        }
        lexical_stack[lexical_depth++] = st;
      }
      if (!signer.AppendComponent(st, comp)) {
        return false;
      }
    }
  }

  if (trailing_dot) {
    wflags |= kWalkDirectory | kWalkFollow;
  }

  Signature sig = signer.Finalize(st);
  FastDentry* fd = ns->dlht().Lookup(sig, &stats);
  if (fd == nullptr) {
    stats.dlht_misses.Add();
    if (resume != nullptr && cfg.shortcut) {
      // The exact path is not cached, but an ancestor may be (§14). The
      // probe runs inside this epoch guard so any ancestor it pins stays
      // memory-safe; DoResolve classifies the outcome (hit/none).
      ProbeShortcutAncestor(k, task, start, path, ns, pcc, inval_token,
                            resume);
      if (resume->attempted) {
        return false;
      }
    }
    TraceOutcome(obs::WalkOutcome::kFastMissDlht);
    return false;
  }
  Dentry* d = DentryFromFast(fd);
  uint32_t seq = fd->seq.load(std::memory_order_acquire);
  PccMiss pcc_miss = PccMiss::kNone;
  if (!pcc->Lookup(d, seq, &stats, &pcc_miss)) {
    // Last-hop fallback: the PCC holds one entry per dentry, so trees
    // much larger than the PCC evict file entries first (§6.3 discusses
    // exactly this updatedb sensitivity). A DLHT hit is still usable if
    // the *parent directory's* prefix check is memoized and its search
    // permission passes a direct check: DLHT membership plus a stable
    // version counter proves the path is current, and parent-prefix +
    // parent-exec covers the full prefix chain.
    Dentry* parent = d->parent();
    bool ok = false;
    if (parent != nullptr && !d->TestFlags(kDentAlias) &&
        parent != d) {
      uint32_t pseq = parent->fast.seq.load(std::memory_order_acquire);
      if (pcc->Lookup(parent, pseq, &stats)) {
        Inode* pi = parent->inode();
        ok = pi != nullptr && pi->IsDir() &&
             k->security()
                 .Permission(*task.cred(), *pi, kMayExec, parent)
                 .ok() &&
             fd->seq.load(std::memory_order_acquire) == seq;
      }
    }
    if (!ok) {
      stats.pcc_misses.Add();
      TraceOutcome(PccMissOutcome(pcc_miss, epoch_flushed));
      return false;
    }
  }

  uint32_t dflags = d->flags();
  Inode* inode = d->inode();

  // Trailing symlink with follow: one extra probe via the memoized target
  // signature (§4.2).
  if ((dflags & (kDentNegative | kDentAlias)) == 0 && inode != nullptr &&
      inode->IsSymlink() && (wflags & kWalkFollow) != 0) {
    if (!fd->has_target_sig.load(std::memory_order_acquire)) {
      return false;
    }
    Signature tsig;
    uint32_t s = fd->state_seq.ReadBegin();
    tsig = fd->target_sig;
    if (fd->state_seq.ReadRetry(s)) {
      return false;
    }
    FastDentry* tfd = ns->dlht().Lookup(tsig, &stats);
    if (tfd == nullptr) {
      return false;
    }
    Dentry* td = DentryFromFast(tfd);
    uint32_t tseq = tfd->seq.load(std::memory_order_acquire);
    if (!pcc->Lookup(td, tseq, &stats)) {
      return false;
    }
    if (fd->seq.load(std::memory_order_acquire) != seq) {
      return false;
    }
    d = td;
    fd = tfd;
    seq = tseq;
    dflags = d->flags();
    inode = d->inode();
  }

  // Symlink alias: redirect to the target, PCC-checking it separately
  // (§4.2).
  if ((dflags & kDentAlias) != 0) {
    Dentry* target = d->alias_target.load(std::memory_order_acquire);
    if (target == nullptr) {
      return false;
    }
    uint32_t tseq = target->fast.seq.load(std::memory_order_acquire);
    if (!pcc->Lookup(target, tseq, &stats)) {
      return false;
    }
    if (fd->seq.load(std::memory_order_acquire) != seq) {
      return false;
    }
    d = target;
    fd = &target->fast;
    seq = tseq;
    dflags = d->flags();
    inode = d->inode();
    if (inode != nullptr && inode->IsSymlink() &&
        (wflags & kWalkFollow) != 0) {
      return false;  // nested redirections: slowpath
    }
  }

  if ((dflags & kDentNegative) != 0) {
    if (d->sb()->needs_revalidation()) {
      return false;
    }
    Errno e =
        (dflags & kDentEnotdir) != 0 ? Errno::kENOTDIR : Errno::kENOENT;
    if (fd->seq.load(std::memory_order_seq_cst) != seq) {
      return false;
    }
    if (!k->dcache().InvalidationTokenValid(inval_token)) {
      return false;  // a coherence section opened mid-walk (§3.2)
    }
    if (d->MarkReferenced()) {
      stats.shared_writes.Add();
    }
    *result = e;  // fast negative hit (§5.2)
    return true;
  }
  if ((dflags & kDentStub) != 0 || inode == nullptr) {
    return false;
  }
  if (d->sb()->needs_revalidation()) {
    // Stateless network protocols must re-verify each component with the
    // server (§4.3): no direct lookup for them.
    return false;
  }
  if ((wflags & kWalkDirectory) != 0 && !inode->IsDir()) {
    if (fd->seq.load(std::memory_order_seq_cst) != seq) {
      return false;
    }
    if (!k->dcache().InvalidationTokenValid(inval_token)) {
      return false;  // a coherence section opened mid-walk (§3.2)
    }
    if (d->MarkReferenced()) {
      stats.shared_writes.Add();
    }
    *result = Errno::kENOTDIR;
    return true;
  }
  if (inode->IsSymlink() && (wflags & kWalkFollow) != 0) {
    return false;
  }

  Mount* m = fd->mount.load(std::memory_order_acquire);
  if (m == nullptr || m->ns != ns) {
    return false;
  }
  if ((dflags & kDentMountpoint) != 0 &&
      task.ns()->MountAt(m, d) != nullptr) {
    return false;  // something is mounted over this path: slowpath crosses
  }

  if (stat_out != nullptr) {
    // Reference-free stat: copy the attributes, then validate as a seqlock
    // reader does. The epoch guard keeps the inode allocated even if the
    // dentry dies meanwhile (Release defers its Iput to the grace period).
    *stat_out = StatFromInode(*inode);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (before_stat_validate != nullptr) {
      before_stat_validate(d);
    }
    if (d->IsDead()) {
      return false;
    }
  } else if (!d->DgetLive()) {
    return false;
  }
  // A coherence section opened mid-walk means the deferred pass may not
  // have reached this dentry yet, so a stable seq alone proves nothing
  // (§3.2).
  if (fd->seq.load(std::memory_order_seq_cst) != seq ||
      !k->dcache().InvalidationTokenValid(inval_token)) {
    if (stat_out == nullptr) {
      k->dcache().Dput(d);
    }
    return false;
  }
  // Arm the second-chance bit so the clock eviction sees this dentry as
  // recently used. Conditional: a warm hit finds the bit already set and
  // writes nothing — the fastpath hit loop stays shared-write-free.
  if (d->MarkReferenced()) {
    stats.shared_writes.Add();
  }
  *result = stat_out != nullptr ? PathHandle() : PathHandle::Adopt(m, d);
  return true;
}

}  // namespace dircache
