// DiskFs: an ext2-like block-backed file system.
//
// Metadata lives in real serialized on-disk structures (superblock, inode
// bitmap, block bitmap, fixed inode table, ext2-style variable-length dirent
// records in directory data blocks), all accessed through the buffer cache.
// A directory-cache miss therefore costs exactly what the paper describes:
// at best a reparse of buffered metadata, at worst simulated device I/O.
//
// Intentional simplifications (documented in DESIGN.md): no journal, no
// htree directory index (small ext4 directories are linear scans too), "."
// and ".." are not materialized as dirents (the VFS resolves them from the
// dentry tree, as Linux effectively does for the dcache hot path), and block
// mapping is 10 direct pointers + 1 single-indirect block (caps files and
// directories at ~2 MiB of blocks, ample for every experiment).
#ifndef DIRCACHE_STORAGE_DISKFS_H_
#define DIRCACHE_STORAGE_DISKFS_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/storage/block_device.h"
#include "src/storage/buffer_cache.h"
#include "src/storage/fs.h"

namespace dircache {

struct FsckReport;

struct DiskFsOptions {
  uint64_t num_blocks = 1 << 19;      // 2 GiB device
  uint64_t max_inodes = 1 << 18;      // 262144 inodes
  size_t buffer_cache_blocks = 8192;  // 32 MiB buffer cache
  DiskModel disk_model;
};

class DiskFs final : public FileSystem {
 public:
  // Creates (formats) a fresh file system on an internally-owned device.
  explicit DiskFs(const DiskFsOptions& options = DiskFsOptions{});
  ~DiskFs() override;

  std::string_view TypeName() const override { return "diskfs"; }
  InodeNum RootIno() const override { return kRootIno; }

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
  void DropCaches() override;

  // Full on-disk consistency check (see fsck.h). The file system must be
  // quiescent for the duration.
  void Fsck(FsckReport* out);

  // Introspection for tests and experiments.
  BlockDevice& device() { return *device_; }
  BufferCache& buffer_cache() { return *cache_; }
  uint64_t allocated_inodes() const;

  static constexpr InodeNum kRootIno = 1;
  static constexpr size_t kMaxNameLen = 255;

 private:
  struct Layout {
    uint64_t inode_bitmap_start;
    uint64_t inode_bitmap_blocks;
    uint64_t block_bitmap_start;
    uint64_t block_bitmap_blocks;
    uint64_t inode_table_start;
    uint64_t inode_table_blocks;
    uint64_t data_start;
  };

  struct RawInode;  // 128-byte on-disk inode (defined in the .cc)

  void Format();

  // Inode table access (caller holds mu_).
  Result<RawInode> ReadInode(InodeNum ino);
  Status WriteInode(InodeNum ino, const RawInode& node);
  Result<InodeNum> AllocInode();
  Status FreeInode(InodeNum ino);

  // Data block allocation (caller holds mu_).
  Result<uint64_t> AllocBlock();
  Status FreeBlock(uint64_t block_no);

  // Map file block index -> device block. Returns 0 if a hole.
  Result<uint64_t> Bmap(const RawInode& node, uint64_t file_block);
  // Map with allocation; may update `node` (caller re-writes the inode).
  Result<uint64_t> BmapAlloc(RawInode& node, uint64_t file_block);
  Status FreeAllBlocks(RawInode& node);

  // The one walk over a directory's dirent records (caller holds mu_).
  // The block step maps and reads each block from file block
  // offset / kBlockSize on and, when `verify`, checks its checksum tail;
  // the record step hands each of its records (the first block's from byte
  // offset % kBlockSize) to `record(fb, buf, pos, rec)`; then
  // `block_done(fb, buf)` runs. Either ends the walk by returning true.
  // Returns the first map, read or checksum (EIO) error.
  struct NoBlockDone {
    bool operator()(uint64_t, BufferRef&) const { return false; }
  };
  template <typename RecordStep, typename BlockDone = NoBlockDone>
  Status WalkDirents(const RawInode& dir_node, uint64_t offset, bool verify,
                     RecordStep record, BlockDone block_done = {});

  // Directory entry manipulation (caller holds mu_).
  Result<InodeNum> DirFind(const RawInode& dir_node, std::string_view name);
  Status DirInsert(InodeNum dir_ino, RawInode& dir_node,
                   std::string_view name, InodeNum ino, FileType type);
  Status DirRemove(InodeNum dir_ino, RawInode& dir_node,
                   std::string_view name);
  Result<bool> DirIsEmpty(const RawInode& dir_node);

  Status DoUnlink(InodeNum dir, std::string_view name, bool rmdir);
  // Remove the entry `name` of `dir` (read into `dnode`), which names
  // `ino`, for unlink, rmdir and rename's replaced target: EISDIR or
  // ENOTDIR unless `ino` is a directory exactly when `want_dir`, ENOTEMPTY
  // for a directory with entries; then the dirent, a directory's link in
  // its parent (a second inode write), and the inode's own link.
  Status RemoveEntry(InodeNum dir, RawInode& dnode, std::string_view name,
                     InodeNum ino, bool want_dir);
  Status DropInodeRef(InodeNum ino, RawInode& node);
  // Touch every metadata block DropInodeRef(ino) will need, so the free
  // path after the point of no return (the dirent removal) only hits
  // buffered blocks and cannot fail on a transient read error.
  Status PrefetchFreePath(InodeNum ino, const RawInode& node);

  const DiskFsOptions options_;
  Layout layout_;
  std::unique_ptr<BlockDevice> device_;
  std::unique_ptr<BufferCache> cache_;

  mutable std::mutex mu_;
  uint64_t inode_cursor_ = 0;  // allocation search hints
  uint64_t block_cursor_ = 0;
  uint64_t allocated_inodes_ = 0;
  uint64_t time_tick_ = 0;  // logical mtime/ctime source
};

}  // namespace dircache

#endif  // DIRCACHE_STORAGE_DISKFS_H_
