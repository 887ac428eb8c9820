// Credentials (struct cred), §4.1.
//
// A Cred is immutable once created (the COW convention: code that would
// change credentials builds a new Cred). That immutability is exactly what
// lets the paper hang the Prefix Check Cache off the cred: the memoized
// prefix checks are valid for as long as the identity they were computed
// under exists, and are shared by every process holding the same cred.
//
// Task::SetCred() reproduces the commit_creds() dedup: applying a cred whose
// identity equals the current one keeps the old object (and its warm PCC).
#ifndef DIRCACHE_VFS_CRED_H_
#define DIRCACHE_VFS_CRED_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/util/spinlock.h"
#include "src/vfs/types.h"

namespace dircache {

class Pcc;  // core/pcc.h; creds only carry the attachment

class Cred {
 public:
  Cred(Uid uid, Gid gid, std::vector<Gid> groups = {},
       std::string security_label = "")
      : uid_(uid),
        gid_(gid),
        groups_(std::move(groups)),
        security_label_(std::move(security_label)) {
    std::sort(groups_.begin(), groups_.end());
  }

  Uid uid() const { return uid_; }
  Gid gid() const { return gid_; }
  const std::vector<Gid>& groups() const { return groups_; }
  const std::string& security_label() const { return security_label_; }

  bool InGroup(Gid g) const {
    return g == gid_ ||
           std::binary_search(groups_.begin(), groups_.end(), g);
  }

  // True when two creds carry the same permission-relevant identity
  // (commit_creds dedup and PCC sharing, §4.1).
  bool SameIdentity(const Cred& o) const {
    return uid_ == o.uid_ && gid_ == o.gid_ && groups_ == o.groups_ &&
           security_label_ == o.security_label_;
  }

  // The PCC attached to this cred, creating it on first use (`bytes` sizes
  // a new table). Thread-safe; the common case is one relaxed load.
  Pcc* GetOrCreatePcc(size_t bytes) const {
    Pcc* cached = pcc_cache_.load(std::memory_order_acquire);
    return cached != nullptr ? cached : CreatePccSlow(bytes);
  }
  // The PCC if one exists (may be null).
  Pcc* pcc() const { return pcc_cache_.load(std::memory_order_acquire); }
  // Shared ownership of the PCC, for the kernel's registry (the governor
  // accounts PCC bytes across creds; DESIGN.md §15). May be null.
  std::shared_ptr<Pcc> pcc_shared() const {
    SpinGuard guard(pcc_lock_);
    return pcc_;
  }

 private:
  Pcc* CreatePccSlow(size_t bytes) const;

  const Uid uid_;
  const Gid gid_;
  std::vector<Gid> groups_;  // sorted
  const std::string security_label_;

  mutable SpinLock pcc_lock_;
  mutable std::shared_ptr<Pcc> pcc_;
  mutable std::atomic<Pcc*> pcc_cache_{nullptr};
};

using CredPtr = std::shared_ptr<const Cred>;

inline CredPtr MakeCred(Uid uid, Gid gid, std::vector<Gid> groups = {},
                        std::string label = "") {
  return std::make_shared<const Cred>(uid, gid, std::move(groups),
                                      std::move(label));
}

}  // namespace dircache

#endif  // DIRCACHE_VFS_CRED_H_
