// MemFs: an in-memory pseudo file system in the style of proc/sys/dev.
//
// No block device, no I/O charges, and — matching Linux behaviour the paper
// discusses in §5.2 — it reports WantsNegativeDentries() == false, so the
// baseline VFS does not create negative dentries for missing paths here.
// The paper's aggressive-negative-caching optimization overrides that.
#ifndef DIRCACHE_STORAGE_MEMFS_H_
#define DIRCACHE_STORAGE_MEMFS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/storage/fs.h"

namespace dircache {

class MemFs final : public FileSystem {
 public:
  struct Options {
    // Pseudo file systems do not produce negative dentries by default.
    bool wants_negative_dentries = false;
    std::string type_name = "memfs";
  };

  MemFs();
  explicit MemFs(Options options);

  std::string_view TypeName() const override { return options_.type_name; }
  InodeNum RootIno() const override { return kRootIno; }
  bool WantsNegativeDentries() const override {
    return options_.wants_negative_dentries;
  }

  Result<InodeAttr> GetAttr(InodeNum ino) override;
  Status SetAttr(InodeNum ino, const AttrUpdate& update) override;
  Result<InodeNum> Lookup(InodeNum dir, std::string_view name) override;
  Result<InodeNum> Create(InodeNum dir, std::string_view name, FileType type,
                          uint16_t mode, uint32_t uid, uint32_t gid) override;
  Result<InodeNum> SymlinkCreate(InodeNum dir, std::string_view name,
                                 std::string_view target, uint32_t uid,
                                 uint32_t gid) override;
  Status Link(InodeNum dir, std::string_view name, InodeNum target) override;
  Status Unlink(InodeNum dir, std::string_view name) override;
  Status Rmdir(InodeNum dir, std::string_view name) override;
  Status Rename(InodeNum old_dir, std::string_view old_name, InodeNum new_dir,
                std::string_view new_name) override;
  Result<std::string> ReadLink(InodeNum ino) override;
  Result<ReadDirResult> ReadDir(InodeNum dir, uint64_t offset,
                                size_t max_entries) override;
  Result<size_t> Read(InodeNum ino, uint64_t offset, size_t len,
                      std::string* out) override;
  Result<size_t> Write(InodeNum ino, uint64_t offset,
                       std::string_view data) override;

  static constexpr InodeNum kRootIno = 1;

 private:
  using Children = std::map<std::string, InodeNum, std::less<>>;
  struct Node {
    InodeAttr attr;
    Children children;  // dirs only
    std::string data;   // file contents or symlink target
  };

  Result<Node*> Find(InodeNum ino);
  Result<Node*> FindDir(InodeNum ino);
  Status RemoveName(InodeNum dir, std::string_view name, bool dir_expected);
  // Drop the entry `it` of `dir` for unlink, rmdir and rename's replaced
  // target: EISDIR or ENOTDIR unless it names a directory exactly when
  // `want_dir`, ENOTEMPTY for a directory with children; then the parent's
  // link for a directory, the node's own link, and the name (caller holds
  // mu_).
  Status RemoveEntry(Node* dir, Children::iterator it, bool want_dir);

  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<InodeNum, std::unique_ptr<Node>> nodes_;
  InodeNum next_ino_ = kRootIno + 1;
  uint64_t time_tick_ = 0;
};

}  // namespace dircache

#endif  // DIRCACHE_STORAGE_MEMFS_H_
