// Path resolution: the Linux-like slowpath (optimistic + locked) and the
// paper's direct-lookup fastpath (§3).
//
// Resolution strategy per lookup:
//   1. If the fastpath is enabled, hash the canonical path incrementally
//      (resuming from the cwd's stored state for relative paths), probe the
//      namespace DLHT, and validate the per-cred PCC (§3.1). A hit returns
//      in O(1) hash-table operations; any irregularity falls through.
//   2. Otherwise walk component-at-a-time. One component walk runs in two
//      modes, as Linux's walk_component() runs rcu-walk and ref-walk: an
//      optimistic mode (no locks, validated by the global rename seqcount,
//      memory-safe under epochs) that bails to a restart in the locked mode.
//   3. After a successful slowpath, populate the DLHT and PCC, guarded by
//      the global invalidation counter (§3.2), and build symlink alias
//      dentries / deep negative dentries as configured (§4.2, §5.2).
#ifndef DIRCACHE_VFS_WALK_H_
#define DIRCACHE_VFS_WALK_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "src/vfs/path.h"

namespace dircache {

class Task;

// Outcome of the shortcut ancestor probe (DESIGN.md §14): where a DLHT-miss
// walk may resume from, carried from the failed fastpath attempt to the
// slowpath driver. `ancestor` holds real references (mount + dentry) when
// `found`; the validation snapshot (seq + coherence token) lets the caller
// decide after the resumed walk whether the ancestor stayed trustworthy.
struct ShortcutResume {
  bool attempted = false;     // probe ran (feature on, eligible path shape)
  bool found = false;         // a validated ancestor was produced
  PathHandle ancestor;        // referenced resume point when `found`
  uint32_t suffix_offset = 0; // byte offset of the un-walked suffix
  uint32_t ancestor_seq = 0;  // fast.seq sampled when validated
  uint64_t inval_token = 0;   // PR-4 coherence-gate token from probe time
  uint16_t ancestor_depth = 0; // components from the walk base to ancestor
  uint16_t total_depth = 0;    // components in the whole path
};

// Walk flags.
inline constexpr int kWalkFollow = 1;     // follow a trailing symlink
inline constexpr int kWalkDirectory = 2;  // final must be a directory
// Resolve to the *parent* of the last component; the last component string
// is returned through `last_out` (used by create/unlink/rename/mkdir).
inline constexpr int kWalkParent = 4;

// Cap on the deep-negative chain one lookup builds (§5.2 memory guard).
inline constexpr size_t kDeepNegativeLimit = 8;

class PathWalker {
 public:
  explicit PathWalker(Kernel* kernel) : kernel_(kernel) {}

  // Resolve `path` for `task` starting from `base` (empty base = cwd for
  // relative paths; absolute paths always restart from the task root).
  // With kWalkParent, returns the parent directory and sets `last_out`.
  // With `stat_out` set, a fastpath hit fills it with the resolved inode's
  // attributes and returns an empty handle, taking no dentry reference;
  // every other outcome returns a referenced handle as without it.
  Result<PathHandle> Resolve(Task& task, const PathHandle* base,
                             std::string_view path, int wflags,
                             std::string* last_out = nullptr,
                             Stat* stat_out = nullptr);

  // Find the child in the dcache or instantiate it from the low-level FS
  // (positive or negative dentry). Used by the mutation syscalls under the
  // exclusive tree lock. Returns a referenced dentry, a readdir stub with
  // its inode attached (§5.1), or ENOENT when the component is absent and
  // may not be cached.
  static Result<Dentry*> LookupOrInstantiate(Task& task, Dentry* parent,
                                             std::string_view name);

  // Testing/experiment hook: force the fastpath to be skipped (models the
  // "fastpath miss + slowpath" worst case of Figure 6).
  static inline thread_local bool force_fastpath_miss = false;
  // Testing hook: forbid slowpath (asserts fastpath coverage in tests).
  static inline thread_local bool forbid_slowpath = false;
  // Testing hooks (see RaceHook). Populate: after EnsurePathState, before
  // the DLHT publish.
  static inline thread_local RaceHook before_publish = nullptr;
  // Reference-free fastpath stat: after the attribute copy, before its
  // validation.
  static inline thread_local RaceHook before_stat_validate = nullptr;

 private:
  // How the component walk holds its position, as Linux's LOOKUP_RCU flag
  // does: kOptimistic takes no locks or references and may bail; kLocked
  // holds the tree lock shared and a reference per step.
  enum class WalkMode { kOptimistic, kLocked };

  // Resolve() body; the public wrapper only adds walk tracing (obs).
  Result<PathHandle> DoResolve(Task& task, const PathHandle* base,
                               std::string_view path, int wflags,
                               std::string* last_out, Stat* stat_out);

  // Fastpath attempt. Returns true if it produced a definitive outcome
  // (hit or fast negative) in *result; a hit with `stat_out` set fills it
  // instead of taking a reference. On a final-probe DLHT miss with the
  // shortcut enabled, fills `resume` (never null) with the deepest cached
  // ancestor so DoResolve can restart the slowpath mid-tree.
  bool TryFastResolve(Task& task, const PathHandle& start,
                      std::string_view path, int wflags, Stat* stat_out,
                      Result<PathHandle>* result, ShortcutResume* resume);

  // Slowpath driver: picks the walk mode(s) for the configured locking.
  Result<PathHandle> SlowResolve(Task& task, const PathHandle& start,
                                 std::string_view path, int wflags);
  // The component walk. In kOptimistic mode, sets *bailed (and returns a
  // meaningless result) when the walk must restart locked.
  Result<PathHandle> WalkComponents(Task& task, const PathHandle& start,
                                    std::string_view path, int wflags,
                                    WalkMode mode, bool* bailed);

  Kernel* const kernel_;
};

}  // namespace dircache

#endif  // DIRCACHE_VFS_WALK_H_
