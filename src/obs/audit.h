// Online invariant auditor (DESIGN.md §10): a stop-light structural pass
// over the dcache / DLHT / LRU / PCC cross-structure invariants.
//
// The coherence design (§3.2) threads every dentry onto up to four
// structures — the primary hash table, its parent's children list, the LRU,
// and at most one namespace's DLHT — and the paper's correctness argument
// is exactly that mutations keep those views consistent. The auditor walks
// all of them and cross-checks; soak and concurrency tests call it as a
// post-condition, so a lifecycle bug that happens not to crash still fails
// the suite.
//
// This header is pure report types (obs depends only on util); the
// traversal itself needs VFS internals and lives in audit.cc, which is
// compiled into the vfs library. Entry point: Kernel::Audit().
#ifndef DIRCACHE_OBS_AUDIT_H_
#define DIRCACHE_OBS_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dircache {

class Kernel;
class Pcc;

namespace obs {

// The invariant families the auditor checks. Keep in sync with
// AuditCheckName().
enum class AuditCheck : uint8_t {
  // Every DLHT entry's owning dentry is alive, reachable from a mount root,
  // claims membership of exactly the table it is chained on, and carries a
  // current (path_valid, nonzero-seq) fastpath state.
  kDlhtEntry = 0,
  // The LRU's walked length matches the maintained counter and every
  // resident entry has the kDentOnLru flag.
  kLruConsistency,
  // Every primary-hash-chain dentry is alive, hashed under the key its
  // (parent, name) identity demands, in the right bucket, and present in
  // its parent's children list.
  kHashChain,
  // Parent/child sibling-list consistency: children lists are acyclic,
  // contain no dead dentries, and every child's parent back-pointer names
  // the list owner.
  kTreeStructure,
  // At quiescence, a live unreferenced reachable dentry must be parked on
  // the LRU (otherwise it can never be evicted — a leak).
  kLruResidency,
  // No PCC entry memoizes a version counter the global source has not
  // issued yet (checked pre-wraparound only).
  kPccSeq,
  // A directory's cached readdir listing (§5.1), when present, names
  // exactly its live positive and stub children, with their inode numbers
  // and types: every children-list edit dropped the listing it outdated.
  kDirListing,
  kCount,
};

inline const char* AuditCheckName(AuditCheck c) {
  switch (c) {
    case AuditCheck::kDlhtEntry:
      return "dlht_entry";
    case AuditCheck::kLruConsistency:
      return "lru_consistency";
    case AuditCheck::kHashChain:
      return "hash_chain";
    case AuditCheck::kTreeStructure:
      return "tree_structure";
    case AuditCheck::kLruResidency:
      return "lru_residency";
    case AuditCheck::kPccSeq:
      return "pcc_seq";
    case AuditCheck::kDirListing:
      return "dir_listing";
    case AuditCheck::kCount:
      break;
  }
  return "unknown";
}

struct AuditViolation {
  AuditCheck check = AuditCheck::kCount;
  std::string detail;  // human-readable: what object broke which invariant
};

struct AuditReport {
  std::vector<AuditViolation> violations;

  // Coverage counts, so "zero violations" is distinguishable from "checked
  // nothing".
  uint64_t dentries_visited = 0;  // reachable via children-list traversal
  uint64_t dlht_entries = 0;
  uint64_t lru_entries = 0;
  uint64_t hash_chain_entries = 0;
  uint64_t pcc_entries = 0;
  uint64_t pccs_checked = 0;
  uint64_t listings = 0;  // directories' cached readdir listings

  bool clean() const { return violations.empty(); }

  // One line: "audit: clean (...)" or "audit: N violations (...)".
  std::string Summary() const;

  // Full report: the summary plus one line per violation.
  std::string ToText() const;
};

// Implementation of Kernel::Audit() — see the class comment for the
// invariant list. Expects quiescence (no concurrent mutators or walkers)
// for exact results; holds the kernel's tree lock exclusive for the pass.
// `pccs` optionally supplies per-credential prefix-check caches to include
// in the kPccSeq check (the kernel does not track creds itself).
AuditReport RunAudit(Kernel& kernel, const std::vector<const Pcc*>& pccs);

}  // namespace obs
}  // namespace dircache

#endif  // DIRCACHE_OBS_AUDIT_H_
