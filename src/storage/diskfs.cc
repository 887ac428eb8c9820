#include "src/storage/diskfs.h"

#include "src/util/crc32.h"
#include "src/util/hash.h"
#include "src/storage/fsck.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

namespace dircache {
namespace {

constexpr uint64_t kMagic = 0xD15CF5'2015'5050ULL;  // "DISCFS 2015 SOSP"
constexpr size_t kInodeSize = 128;
constexpr size_t kInodesPerBlock = kBlockSize / kInodeSize;  // 32
constexpr size_t kPtrsPerBlock = kBlockSize / sizeof(uint64_t);  // 512
constexpr uint64_t kMaxFileBlocks = 10 + kPtrsPerBlock;  // direct + indirect
constexpr size_t kDirentHeaderLen = 12;
constexpr size_t kBitsPerBlock = kBlockSize * 8;
// Directory blocks end with an ext4_dir_entry_tail-style checksum trailer
// (metadata_csum): 4 bytes of CRC32C over the block body + a magic word.
// It is recomputed on every modification and verified on every scan.
constexpr size_t kDirTailLen = 8;
constexpr size_t kDirDataLen = kBlockSize - kDirTailLen;
constexpr uint32_t kDirTailMagic = 0xde200de2u;

void WriteDirTail(uint8_t* block) {
  uint32_t crc = Crc32c(0, block, kDirDataLen);
  std::memcpy(block + kDirDataLen, &crc, 4);
  std::memcpy(block + kDirDataLen + 4, &kDirTailMagic, 4);
}

bool VerifyDirTail(const uint8_t* block) {
  uint32_t magic;
  std::memcpy(&magic, block + kDirDataLen + 4, 4);
  if (magic != kDirTailMagic) {
    return false;
  }
  uint32_t stored;
  std::memcpy(&stored, block + kDirDataLen, 4);
  return stored == Crc32c(0, block, kDirDataLen);
}

// On-disk dirent record header (ext2 style): a u64 inode number (0 = free
// slot), the total record length, the name length, and the file type. The
// name bytes follow; records are 8-byte aligned.
struct RawDirent {
  uint64_t ino;
  uint16_t rec_len;
  uint8_t name_len;
  uint8_t type;
};
static_assert(sizeof(RawDirent) == 16);  // padded; we serialize 12 bytes

size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

size_t DirentSpace(size_t name_len) {
  return Align8(kDirentHeaderLen + name_len);
}

void LoadDirent(const uint8_t* p, RawDirent* out) {
  std::memcpy(&out->ino, p, 8);
  std::memcpy(&out->rec_len, p + 8, 2);
  out->name_len = p[10];
  out->type = p[11];
}

void StoreDirent(uint8_t* p, const RawDirent& d, std::string_view name) {
  std::memcpy(p, &d.ino, 8);
  std::memcpy(p + 8, &d.rec_len, 2);
  p[10] = d.name_len;
  p[11] = d.type;
  if (!name.empty()) {
    std::memcpy(p + kDirentHeaderLen, name.data(), name.size());
  }
}

// The record step of the dirent walk: each record of one directory block
// from byte `pos` on, up to the first rec_len 0 (the never-written rest of
// a block). `step(pos, record)` returns true to stop there, and so does
// this.
template <typename Step>
bool ForEachRecord(const uint8_t* block, size_t pos, Step step) {
  while (pos + kDirentHeaderLen <= kDirDataLen) {
    RawDirent d;
    LoadDirent(block + pos, &d);
    if (d.rec_len == 0) {
      break;
    }
    if (step(pos, d)) {
      return true;
    }
    pos += d.rec_len;
  }
  return false;
}

// Whether the record at `rec` is live and named `name`.
bool LiveRecordNamed(const uint8_t* rec, const RawDirent& d,
                     std::string_view name) {
  return d.ino != 0 && d.name_len == name.size() &&
         std::memcmp(rec + kDirentHeaderLen, name.data(), name.size()) == 0;
}

uint64_t DivCeil(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// Decode a linux_dirent64-style packed buffer back into DirEntry records —
// the VFS-side half of the getdents copy that real kernels always pay.
void FillFromPacked(const std::vector<uint8_t>& packed,
                    std::vector<DirEntry>* out) {
  size_t pos = 0;
  while (pos + 19 < packed.size()) {
    const uint8_t* p = packed.data() + pos;
    uint64_t ino;
    uint16_t reclen;
    std::memcpy(&ino, p, 8);
    std::memcpy(&reclen, p + 16, 2);
    if (reclen == 0) {
      break;
    }
    DirEntry e;
    e.ino = ino;
    e.type = static_cast<FileType>(p[18]);
    e.name.assign(reinterpret_cast<const char*>(p + 19));
    out->push_back(std::move(e));
    pos += reclen;
  }
}

bool ValidName(std::string_view name) {
  return !name.empty() && name.size() <= DiskFs::kMaxNameLen &&
         name.find('/') == std::string_view::npos && name != "." &&
         name != "..";
}

}  // namespace

// 128-byte on-disk inode. Field order gives natural alignment; serialized
// with memcpy, so the in-memory layout is the on-disk layout.
struct DiskFs::RawInode {
  uint8_t type;  // FileType, 0 = free slot
  uint8_t flags;
  uint16_t mode;
  uint32_t uid;
  uint32_t gid;
  uint32_t nlink;
  uint64_t size;
  uint64_t mtime;
  uint64_t ctime;
  uint64_t direct[10];
  uint64_t indirect;
};

DiskFs::DiskFs(const DiskFsOptions& options) : options_(options) {
  static_assert(sizeof(RawInode) == kInodeSize);
  layout_.inode_bitmap_start = 1;
  layout_.inode_bitmap_blocks = DivCeil(options_.max_inodes, kBitsPerBlock);
  layout_.block_bitmap_start =
      layout_.inode_bitmap_start + layout_.inode_bitmap_blocks;
  layout_.block_bitmap_blocks = DivCeil(options_.num_blocks, kBitsPerBlock);
  layout_.inode_table_start =
      layout_.block_bitmap_start + layout_.block_bitmap_blocks;
  layout_.inode_table_blocks = DivCeil(options_.max_inodes, kInodesPerBlock);
  layout_.data_start = layout_.inode_table_start + layout_.inode_table_blocks;
  assert(layout_.data_start < options_.num_blocks);

  device_ = std::make_unique<BlockDevice>(options_.num_blocks,
                                          options_.disk_model);
  cache_ = std::make_unique<BufferCache>(device_.get(),
                                         options_.buffer_cache_blocks);
  block_cursor_ = layout_.data_start;
  inode_cursor_ = kRootIno + 1;
  Format();
}

DiskFs::~DiskFs() { (void)cache_->Sync(); }

void DiskFs::Format() {
  std::lock_guard<std::mutex> lock(mu_);
  // Superblock.
  {
    auto sb = cache_->GetForOverwrite(0);
    assert(sb.ok());
    uint8_t* p = sb->data();
    std::memset(p, 0, kBlockSize);
    std::memcpy(p, &kMagic, 8);
    std::memcpy(p + 8, &options_.num_blocks, 8);
    std::memcpy(p + 16, &options_.max_inodes, 8);
    std::memcpy(p + 24, &layout_.data_start, 8);
  }
  // Mark metadata blocks allocated in the block bitmap. (Bitmap blocks start
  // zeroed; we only need to set the used bits.)
  for (uint64_t b = 0; b < layout_.data_start; ++b) {
    uint64_t bm_block = layout_.block_bitmap_start + b / kBitsPerBlock;
    auto buf = cache_->Get(bm_block);
    assert(buf.ok());
    buf->data()[(b / 8) % kBlockSize] |=
        static_cast<uint8_t>(1u << (b % 8));
    buf->MarkDirty();
  }
  // Reserve inode 0 (invalid) and create the root inode.
  {
    auto buf = cache_->Get(layout_.inode_bitmap_start);
    assert(buf.ok());
    buf->data()[0] |= 0x3;  // inodes 0 and 1
    buf->MarkDirty();
  }
  RawInode root{};
  root.type = static_cast<uint8_t>(FileType::kDirectory);
  root.mode = 0755;
  root.nlink = 2;
  root.mtime = root.ctime = ++time_tick_;
  Status st = WriteInode(kRootIno, root);
  (void)st;  // formatting a fresh device cannot fail
  assert(st.ok());
  allocated_inodes_ = 2;
}

// ---------------------------------------------------------------------------
// Inode table

Result<DiskFs::RawInode> DiskFs::ReadInode(InodeNum ino) {
  if (ino == 0 || ino >= options_.max_inodes) {
    return Errno::kESTALE;
  }
  uint64_t block = layout_.inode_table_start + ino / kInodesPerBlock;
  auto buf = cache_->Get(block);
  if (!buf.ok()) {
    return buf.error();
  }
  RawInode node;
  std::memcpy(&node, buf->data() + (ino % kInodesPerBlock) * kInodeSize,
              kInodeSize);
  if (node.type == 0) {
    return Errno::kESTALE;
  }
  return node;
}

Status DiskFs::WriteInode(InodeNum ino, const RawInode& node) {
  if (ino == 0 || ino >= options_.max_inodes) {
    return Errno::kESTALE;
  }
  uint64_t block = layout_.inode_table_start + ino / kInodesPerBlock;
  auto buf = cache_->Get(block);
  if (!buf.ok()) {
    return buf.error();
  }
  std::memcpy(buf->data() + (ino % kInodesPerBlock) * kInodeSize, &node,
              kInodeSize);
  buf->MarkDirty();
  return Status::Ok();
}

Result<InodeNum> DiskFs::AllocInode() {
  for (uint64_t scanned = 0; scanned < options_.max_inodes; ++scanned) {
    uint64_t ino = inode_cursor_;
    inode_cursor_ = inode_cursor_ + 1 == options_.max_inodes
                        ? 1
                        : inode_cursor_ + 1;
    uint64_t bm_block = layout_.inode_bitmap_start + ino / kBitsPerBlock;
    auto buf = cache_->Get(bm_block);
    if (!buf.ok()) {
      return buf.error();
    }
    uint8_t& byte = buf->data()[(ino / 8) % kBlockSize];
    uint8_t mask = static_cast<uint8_t>(1u << (ino % 8));
    if ((byte & mask) == 0) {
      byte |= mask;
      buf->MarkDirty();
      ++allocated_inodes_;
      return ino;
    }
  }
  return Errno::kENOSPC;
}

Status DiskFs::FreeInode(InodeNum ino) {
  uint64_t bm_block = layout_.inode_bitmap_start + ino / kBitsPerBlock;
  auto buf = cache_->Get(bm_block);
  if (!buf.ok()) {
    return buf.error();
  }
  buf->data()[(ino / 8) % kBlockSize] &=
      static_cast<uint8_t>(~(1u << (ino % 8)));
  buf->MarkDirty();
  // Clear the table slot so stale inode numbers read back as ESTALE.
  RawInode zero{};
  DIRCACHE_RETURN_IF_ERROR(WriteInode(ino, zero));
  --allocated_inodes_;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Block allocation and file block mapping

Result<uint64_t> DiskFs::AllocBlock() {
  for (uint64_t scanned = layout_.data_start; scanned < options_.num_blocks;
       ++scanned) {
    uint64_t b = block_cursor_;
    block_cursor_ = block_cursor_ + 1 == options_.num_blocks
                        ? layout_.data_start
                        : block_cursor_ + 1;
    uint64_t bm_block = layout_.block_bitmap_start + b / kBitsPerBlock;
    auto buf = cache_->Get(bm_block);
    if (!buf.ok()) {
      return buf.error();
    }
    uint8_t& byte = buf->data()[(b / 8) % kBlockSize];
    uint8_t mask = static_cast<uint8_t>(1u << (b % 8));
    if ((byte & mask) == 0) {
      byte |= mask;
      buf->MarkDirty();
      // Fresh blocks must read as zero (dirent scanning relies on it).
      auto zbuf = cache_->GetForOverwrite(b);
      if (!zbuf.ok()) {
        return zbuf.error();
      }
      std::memset(zbuf->data(), 0, kBlockSize);
      return b;
    }
  }
  return Errno::kENOSPC;
}

Status DiskFs::FreeBlock(uint64_t block_no) {
  uint64_t bm_block = layout_.block_bitmap_start + block_no / kBitsPerBlock;
  auto buf = cache_->Get(bm_block);
  if (!buf.ok()) {
    return buf.error();
  }
  buf->data()[(block_no / 8) % kBlockSize] &=
      static_cast<uint8_t>(~(1u << (block_no % 8)));
  buf->MarkDirty();
  return Status::Ok();
}

Result<uint64_t> DiskFs::Bmap(const RawInode& node, uint64_t file_block) {
  if (file_block >= kMaxFileBlocks) {
    return Errno::kEOVERFLOW;
  }
  if (file_block < 10) {
    return node.direct[file_block];
  }
  if (node.indirect == 0) {
    return uint64_t{0};
  }
  auto buf = cache_->Get(node.indirect);
  if (!buf.ok()) {
    return buf.error();
  }
  uint64_t entry;
  std::memcpy(&entry, buf->data() + (file_block - 10) * 8, 8);
  return entry;
}

Result<uint64_t> DiskFs::BmapAlloc(RawInode& node, uint64_t file_block) {
  auto existing = Bmap(node, file_block);
  if (!existing.ok()) {
    return existing.error();
  }
  if (*existing != 0) {
    return *existing;
  }
  auto fresh = AllocBlock();
  if (!fresh.ok()) {
    return fresh.error();
  }
  if (file_block < 10) {
    node.direct[file_block] = *fresh;
    return *fresh;
  }
  if (node.indirect == 0) {
    auto ind = AllocBlock();
    if (!ind.ok()) {
      return ind.error();
    }
    node.indirect = *ind;
  }
  auto buf = cache_->Get(node.indirect);
  if (!buf.ok()) {
    return buf.error();
  }
  std::memcpy(buf->data() + (file_block - 10) * 8, &*fresh, 8);
  buf->MarkDirty();
  return *fresh;
}

Status DiskFs::FreeAllBlocks(RawInode& node) {
  uint64_t blocks = DivCeil(node.size, kBlockSize);
  for (uint64_t fb = 0; fb < blocks && fb < kMaxFileBlocks; ++fb) {
    auto b = Bmap(node, fb);
    if (b.ok() && *b != 0) {
      DIRCACHE_RETURN_IF_ERROR(FreeBlock(*b));
    }
  }
  if (node.indirect != 0) {
    DIRCACHE_RETURN_IF_ERROR(FreeBlock(node.indirect));
    node.indirect = 0;
  }
  std::memset(node.direct, 0, sizeof(node.direct));
  node.size = 0;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Directory entries

template <typename RecordStep, typename BlockDone>
Status DiskFs::WalkDirents(const RawInode& dir_node, uint64_t offset,
                           bool verify, RecordStep record,
                           BlockDone block_done) {
  const uint64_t first = offset / kBlockSize;
  const uint64_t blocks = DivCeil(dir_node.size, kBlockSize);
  for (uint64_t fb = first; fb < blocks; ++fb) {
    auto bno = Bmap(dir_node, fb);
    if (!bno.ok()) {
      return bno.error();
    }
    if (*bno == 0) {
      continue;
    }
    auto buf = cache_->Get(*bno);
    if (!buf.ok()) {
      return buf.error();
    }
    if (verify && !VerifyDirTail(buf->data())) {
      return Errno::kEIO;
    }
    const bool stop = ForEachRecord(
        buf->data(), fb == first ? offset % kBlockSize : 0,
        [&](size_t pos, const RawDirent& d) {
          return record(fb, *buf, pos, d);
        });
    if (stop || block_done(fb, *buf)) {
      break;
    }
  }
  return Status::Ok();
}

Result<InodeNum> DiskFs::DirFind(const RawInode& dir_node,
                                 std::string_view name) {
  InodeNum found = 0;
  DIRCACHE_RETURN_IF_ERROR(WalkDirents(
      dir_node, 0, /*verify=*/true,
      [&](uint64_t, BufferRef& buf, size_t pos, const RawDirent& d) {
        if (!LiveRecordNamed(buf.data() + pos, d, name)) {
          return false;
        }
        found = d.ino;
        return true;
      }));
  if (found == 0) {
    return Errno::kENOENT;
  }
  return found;
}

// DirInsert and DirRemove do not verify checksums: each runs after a
// DirFind in the same mu_ section, which verified every block they scan,
// and verifying again would add a CRC per directory block to every create.
Status DiskFs::DirInsert(InodeNum dir_ino, RawInode& dir_node,
                         std::string_view name, InodeNum ino, FileType type) {
  const size_t need = DirentSpace(name.size());
  RawDirent fresh{ino, 0, static_cast<uint8_t>(name.size()),
                  static_cast<uint8_t>(type)};
  bool inserted = false;
  DIRCACHE_RETURN_IF_ERROR(WalkDirents(
      dir_node, 0, /*verify=*/false,
      [&](uint64_t, BufferRef& buf, size_t pos, RawDirent d) {
        size_t used = (d.ino == 0) ? 0 : DirentSpace(d.name_len);
        size_t slack = d.rec_len - used;
        if (slack < need) {
          return false;
        }
        uint8_t* p = buf.data();
        if (used > 0) {
          // Shrink the live record, appending the new one in its slack.
          d.rec_len = static_cast<uint16_t>(used);
          StoreDirent(p + pos, d, {});
        }
        fresh.rec_len = static_cast<uint16_t>(slack);
        StoreDirent(p + pos + used, fresh, name);
        WriteDirTail(p);
        buf.MarkDirty();
        inserted = true;
        return true;
      }));
  if (!inserted) {
    // No room: append a new directory block holding one spanning record.
    auto bno = BmapAlloc(dir_node, DivCeil(dir_node.size, kBlockSize));
    if (!bno.ok()) {
      return bno.error();
    }
    auto buf = cache_->Get(*bno);
    if (!buf.ok()) {
      return buf.error();
    }
    fresh.rec_len = static_cast<uint16_t>(kDirDataLen);
    StoreDirent(buf->data(), fresh, name);
    WriteDirTail(buf->data());
    buf->MarkDirty();
    dir_node.size += kBlockSize;
  }
  dir_node.mtime = dir_node.ctime = ++time_tick_;
  return WriteInode(dir_ino, dir_node);
}

Status DiskFs::DirRemove(InodeNum dir_ino, RawInode& dir_node,
                         std::string_view name) {
  bool removed = false;
  DIRCACHE_RETURN_IF_ERROR(WalkDirents(
      dir_node, 0, /*verify=*/false,
      [&](uint64_t, BufferRef& buf, size_t pos, RawDirent d) {
        uint8_t* p = buf.data();
        if (!LiveRecordNamed(p + pos, d, name)) {
          return false;
        }
        d.ino = 0;
        // Absorb a following free record to limit fragmentation.
        size_t next = pos + d.rec_len;
        if (next + kDirentHeaderLen <= kBlockSize) {
          RawDirent nd;
          LoadDirent(p + next, &nd);
          if (nd.rec_len != 0 && nd.ino == 0) {
            d.rec_len = static_cast<uint16_t>(d.rec_len + nd.rec_len);
          }
        }
        StoreDirent(p + pos, d, {});
        WriteDirTail(p);
        buf.MarkDirty();
        removed = true;
        return true;
      }));
  if (!removed) {
    return Errno::kENOENT;
  }
  dir_node.mtime = dir_node.ctime = ++time_tick_;
  return WriteInode(dir_ino, dir_node);
}

Result<bool> DiskFs::DirIsEmpty(const RawInode& dir_node) {
  bool empty = true;
  DIRCACHE_RETURN_IF_ERROR(WalkDirents(
      dir_node, 0, /*verify=*/true,
      [&](uint64_t, BufferRef&, size_t, const RawDirent& d) {
        empty = d.ino == 0;
        return !empty;
      }));
  return empty;
}

// ---------------------------------------------------------------------------
// FileSystem interface

Result<InodeAttr> DiskFs::GetAttr(InodeNum ino) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = ReadInode(ino);
  if (!node.ok()) {
    return node.error();
  }
  InodeAttr attr;
  attr.ino = ino;
  attr.type = static_cast<FileType>(node->type);
  attr.mode = node->mode;
  attr.uid = node->uid;
  attr.gid = node->gid;
  attr.nlink = node->nlink;
  attr.size = node->size;
  attr.mtime = node->mtime;
  attr.ctime = node->ctime;
  return attr;
}

Status DiskFs::SetAttr(InodeNum ino, const AttrUpdate& update) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = ReadInode(ino);
  if (!node.ok()) {
    return node.error();
  }
  if (update.mode) {
    node->mode = *update.mode & kModePermMask;
  }
  if (update.uid) {
    node->uid = *update.uid;
  }
  if (update.gid) {
    node->gid = *update.gid;
  }
  if (update.size) {
    if (static_cast<FileType>(node->type) == FileType::kDirectory) {
      return Errno::kEISDIR;
    }
    if (*update.size == 0) {
      DIRCACHE_RETURN_IF_ERROR(FreeAllBlocks(*node));
    } else {
      node->size = *update.size;  // sparse extension; blocks appear on write
    }
  }
  node->ctime = ++time_tick_;
  return WriteInode(ino, *node);
}

Result<InodeNum> DiskFs::Lookup(InodeNum dir, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = ReadInode(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  if (static_cast<FileType>(dnode->type) != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return DirFind(*dnode, name);
}

Result<InodeNum> DiskFs::Create(InodeNum dir, std::string_view name,
                                FileType type, uint16_t mode, uint32_t uid,
                                uint32_t gid) {
  if (!ValidName(name)) {
    return Errno::kEINVAL;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = ReadInode(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  if (static_cast<FileType>(dnode->type) != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  if (auto found = DirFind(*dnode, name); found.error() != Errno::kENOENT) {
    return found.ok() ? Errno::kEEXIST : found.error();
  }
  auto ino = AllocInode();
  if (!ino.ok()) {
    return ino.error();
  }
  RawInode node{};
  node.type = static_cast<uint8_t>(type);
  node.mode = mode & kModePermMask;
  node.uid = uid;
  node.gid = gid;
  node.nlink = type == FileType::kDirectory ? 2 : 1;
  node.mtime = node.ctime = ++time_tick_;
  Status st = WriteInode(*ino, node);
  if (st.ok()) {
    st = DirInsert(dir, *dnode, name, *ino, type);
  }
  if (st.ok() && type == FileType::kDirectory) {
    ++dnode->nlink;
    st = WriteInode(dir, *dnode);
  }
  if (!st.ok()) {
    // Roll back the allocation so a transient I/O error cannot leak the
    // inode. The bitmap block is already buffered, so this cannot fail
    // again. (A failed nlink update after a successful DirInsert still
    // rolls back: DirRemove only touches buffered blocks at that point.)
    if (type == FileType::kDirectory) {
      (void)DirRemove(dir, *dnode, name);
    }
    (void)FreeInode(*ino);
    return st.error();
  }
  return *ino;
}

Result<InodeNum> DiskFs::SymlinkCreate(InodeNum dir, std::string_view name,
                                       std::string_view target, uint32_t uid,
                                       uint32_t gid) {
  if (target.empty() || target.size() >= kBlockSize) {
    return Errno::kEINVAL;
  }
  auto ino = Create(dir, name, FileType::kSymlink, 0777, uid, gid);
  if (!ino.ok()) {
    return ino.error();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto node = ReadInode(*ino);
  if (!node.ok()) {
    return node.error();
  }
  auto bno = BmapAlloc(*node, 0);
  if (!bno.ok()) {
    return bno.error();
  }
  auto buf = cache_->Get(*bno);
  if (!buf.ok()) {
    return buf.error();
  }
  std::memcpy(buf->data(), target.data(), target.size());
  buf->MarkDirty();
  node->size = target.size();
  DIRCACHE_RETURN_IF_ERROR(WriteInode(*ino, *node));
  return *ino;
}

Status DiskFs::Link(InodeNum dir, std::string_view name, InodeNum target) {
  if (!ValidName(name)) {
    return Errno::kEINVAL;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = ReadInode(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  if (static_cast<FileType>(dnode->type) != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  auto tnode = ReadInode(target);
  if (!tnode.ok()) {
    return tnode.error();
  }
  if (static_cast<FileType>(tnode->type) == FileType::kDirectory) {
    return Errno::kEPERM;  // no hard links to directories
  }
  if (auto found = DirFind(*dnode, name); found.error() != Errno::kENOENT) {
    return found.ok() ? Errno::kEEXIST : found.error();
  }
  DIRCACHE_RETURN_IF_ERROR(DirInsert(dir, *dnode, name, target,
                                     static_cast<FileType>(tnode->type)));
  ++tnode->nlink;
  tnode->ctime = ++time_tick_;
  return WriteInode(target, *tnode);
}

Status DiskFs::PrefetchFreePath(InodeNum ino, const RawInode& node) {
  // Inode bitmap + inode table slot.
  DIRCACHE_RETURN_IF_ERROR(
      cache_->Get(layout_.inode_bitmap_start + ino / kBitsPerBlock));
  DIRCACHE_RETURN_IF_ERROR(
      cache_->Get(layout_.inode_table_start + ino / kInodesPerBlock));
  if (node.nlink > 1 &&
      static_cast<FileType>(node.type) != FileType::kDirectory) {
    return Status::Ok();  // the drop will not free anything
  }
  // (Directories arrive with nlink 2 but rmdir/rename force it to 0, so
  // their blocks are always about to be freed.)
  // Block bitmaps for every mapped block (Bmap itself buffers the indirect
  // block). The touched buffers stay resident: the free path runs under the
  // same mu_ critical section and touches far fewer blocks than the cache
  // holds.
  uint64_t blocks = DivCeil(node.size, kBlockSize);
  for (uint64_t fb = 0; fb < blocks && fb < kMaxFileBlocks; ++fb) {
    auto b = Bmap(node, fb);
    if (!b.ok()) {
      return b.error();
    }
    if (*b != 0) {
      DIRCACHE_RETURN_IF_ERROR(
          cache_->Get(layout_.block_bitmap_start + *b / kBitsPerBlock));
    }
  }
  if (node.indirect != 0) {
    DIRCACHE_RETURN_IF_ERROR(cache_->Get(
        layout_.block_bitmap_start + node.indirect / kBitsPerBlock));
  }
  return Status::Ok();
}

Status DiskFs::DropInodeRef(InodeNum ino, RawInode& node) {
  // Directories arrive with nlink already forced to 0 by rmdir/rename.
  if (node.nlink > 0) {
    --node.nlink;
  }
  if (node.nlink == 0) {
    DIRCACHE_RETURN_IF_ERROR(FreeAllBlocks(node));
    return FreeInode(ino);
  }
  node.ctime = ++time_tick_;
  return WriteInode(ino, node);
}

Status DiskFs::RemoveEntry(InodeNum dir, RawInode& dnode,
                           std::string_view name, InodeNum ino,
                           bool want_dir) {
  auto node = ReadInode(ino);
  if (!node.ok()) {
    return node.error();
  }
  const bool is_dir = static_cast<FileType>(node->type) == FileType::kDirectory;
  if (is_dir != want_dir) {
    return is_dir ? Errno::kEISDIR : Errno::kENOTDIR;
  }
  if (is_dir) {
    auto empty = DirIsEmpty(*node);
    if (!empty.ok()) {
      return empty.error();
    }
    if (!*empty) {
      return Errno::kENOTEMPTY;
    }
  }
  // Buffer everything the free path needs BEFORE removing the entry: past
  // that point a transient read error would orphan the inode.
  DIRCACHE_RETURN_IF_ERROR(PrefetchFreePath(ino, *node));
  DIRCACHE_RETURN_IF_ERROR(DirRemove(dir, dnode, name));
  if (is_dir) {
    node->nlink = 0;  // a removed directory dies
    --dnode.nlink;
    DIRCACHE_RETURN_IF_ERROR(WriteInode(dir, dnode));
  }
  return DropInodeRef(ino, *node);
}

Status DiskFs::DoUnlink(InodeNum dir, std::string_view name, bool rmdir) {
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = ReadInode(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  if (static_cast<FileType>(dnode->type) != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  auto target = DirFind(*dnode, name);
  if (!target.ok()) {
    return target.error();
  }
  return RemoveEntry(dir, *dnode, name, *target, rmdir);
}

Status DiskFs::Unlink(InodeNum dir, std::string_view name) {
  return DoUnlink(dir, name, /*rmdir=*/false);
}

Status DiskFs::Rmdir(InodeNum dir, std::string_view name) {
  return DoUnlink(dir, name, /*rmdir=*/true);
}

Status DiskFs::Rename(InodeNum old_dir, std::string_view old_name,
                      InodeNum new_dir, std::string_view new_name) {
  if (!ValidName(new_name)) {
    return Errno::kEINVAL;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto odnode = ReadInode(old_dir);
  if (!odnode.ok()) {
    return odnode.error();
  }
  auto moved = DirFind(*odnode, old_name);
  if (!moved.ok()) {
    return moved.error();
  }
  auto mnode = ReadInode(*moved);
  if (!mnode.ok()) {
    return mnode.error();
  }
  bool moved_is_dir =
      static_cast<FileType>(mnode->type) == FileType::kDirectory;

  auto ndnode = (new_dir == old_dir) ? odnode : ReadInode(new_dir);
  if (!ndnode.ok()) {
    return ndnode.error();
  }
  if (static_cast<FileType>(ndnode->type) != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }

  auto existing = DirFind(*ndnode, new_name);
  if (existing.ok()) {
    if (*existing == *moved) {
      return Status::Ok();  // hard links to the same inode: no-op
    }
    DIRCACHE_RETURN_IF_ERROR(
        RemoveEntry(new_dir, *ndnode, new_name, *existing, moved_is_dir));
    // Re-read directory inodes: the removal updated them.
    ndnode = ReadInode(new_dir);
    if (!ndnode.ok()) {
      return ndnode.error();
    }
    if (new_dir == old_dir) {
      odnode = ndnode;
    }
  } else if (existing.error() != Errno::kENOENT) {
    return existing.error();
  }

  // Like journalless ext2, a device failure between the remove below and
  // the insert that follows orphans the moved inode; fsck reports it. A
  // journal (out of scope) is the real fix — the prefetches above close
  // the windows a transient *read* error can hit.
  DIRCACHE_RETURN_IF_ERROR(DirRemove(old_dir, *odnode, old_name));
  if (new_dir == old_dir) {
    ndnode = ReadInode(new_dir);
    if (!ndnode.ok()) {
      return ndnode.error();
    }
  }
  DIRCACHE_RETURN_IF_ERROR(DirInsert(new_dir, *ndnode, new_name, *moved,
                                     static_cast<FileType>(mnode->type)));
  if (moved_is_dir && new_dir != old_dir) {
    odnode = ReadInode(old_dir);
    if (!odnode.ok()) {
      return odnode.error();
    }
    --odnode->nlink;
    DIRCACHE_RETURN_IF_ERROR(WriteInode(old_dir, *odnode));
    ndnode = ReadInode(new_dir);
    if (!ndnode.ok()) {
      return ndnode.error();
    }
    ++ndnode->nlink;
    DIRCACHE_RETURN_IF_ERROR(WriteInode(new_dir, *ndnode));
  }
  return Status::Ok();
}

Result<std::string> DiskFs::ReadLink(InodeNum ino) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = ReadInode(ino);
  if (!node.ok()) {
    return node.error();
  }
  if (static_cast<FileType>(node->type) != FileType::kSymlink) {
    return Errno::kEINVAL;
  }
  auto bno = Bmap(*node, 0);
  if (!bno.ok()) {
    return bno.error();
  }
  if (*bno == 0) {
    return Errno::kEIO;
  }
  auto buf = cache_->Get(*bno);
  if (!buf.ok()) {
    return buf.error();
  }
  return std::string(reinterpret_cast<const char*>(buf->data()),
                     node->size);
}

Result<ReadDirResult> DiskFs::ReadDir(InodeNum dir, uint64_t offset,
                                      size_t max_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  auto dnode = ReadInode(dir);
  if (!dnode.ok()) {
    return dnode.error();
  }
  if (static_cast<FileType>(dnode->type) != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  // Multi-block directories are emitted ext4-htree style: per leaf block,
  // entries go through an order-statistic tree keyed by a name hash and
  // come out in hash order (this is what ext4_readdir really does, and a
  // real component of its cost). Single-block directories are linear, as
  // in non-indexed ext4. In both modes, `offset` encodes
  // (block number * kBlockSize + within-block cursor): a byte position for
  // linear mode, an emitted-entry index for htree mode.
  ReadDirResult result;
  std::vector<uint8_t> packed;  // linux_dirent64-style staging buffer
  size_t result_count = 0;
  result.eof = true;
  const bool htree = dnode->size > kBlockSize;
  result.next_offset = dnode->size;

  // Pack one live record (`rec`, its header `d`) into the page, or end the
  // walk at it once the page is full: `at` resumes the scan at this record,
  // `after` past it.
  auto emit = [&](const RawDirent& d, const uint8_t* rec, uint64_t at,
                  uint64_t after) {
    if (result_count >= max_entries) {
      result.eof = false;
      result.next_offset = at;
      return true;
    }
    size_t len = Align8(19 + d.name_len + 1);
    size_t base = packed.size();
    packed.resize(base + len);
    uint8_t* out = packed.data() + base;
    std::memcpy(out, &d.ino, 8);     // d_ino
    std::memcpy(out + 8, &after, 8);  // d_off
    uint16_t reclen16 = static_cast<uint16_t>(len);
    std::memcpy(out + 16, &reclen16, 2);
    out[18] = d.type;  // d_type
    std::memcpy(out + 19, rec + kDirentHeaderLen, d.name_len);
    out[19 + d.name_len] = '\0';
    ++result_count;
    return false;
  };
  std::multimap<uint64_t, size_t> ordered;  // htree leaf: name hash -> pos
  DIRCACHE_RETURN_IF_ERROR(WalkDirents(
      *dnode, htree ? offset - offset % kBlockSize : offset,
      /*verify=*/true,
      [&](uint64_t fb, BufferRef& buf, size_t pos, const RawDirent& d) {
        const uint8_t* rec = buf.data() + pos;
        if (d.ino == 0) {
          return false;
        }
        if (!htree) {
          const uint64_t at = fb * kBlockSize + pos;
          return emit(d, rec, at, at + d.rec_len);
        }
        ordered.emplace(
            HashBytes64(0x5d1e, std::string_view(reinterpret_cast<const char*>(
                                                     rec + kDirentHeaderLen),
                                                 d.name_len)),
            pos);
        return false;
      },
      [&](uint64_t fb, BufferRef& buf) {
        // An htree leaf comes out in hash order, the offset's block from
        // the offset's entry index on.
        const uint64_t cursor =
            fb == offset / kBlockSize ? offset % kBlockSize : 0;
        uint64_t index = 0;
        for (const auto& [h, pos] : ordered) {
          const uint64_t at = fb * kBlockSize + index;
          if (index++ < cursor) {
            continue;
          }
          RawDirent d;
          LoadDirent(buf.data() + pos, &d);
          if (emit(d, buf.data() + pos, at, at + 1)) {
            return true;
          }
        }
        ordered.clear();
        return false;
      }));
  FillFromPacked(packed, &result.entries);
  return result;
}


Result<size_t> DiskFs::Read(InodeNum ino, uint64_t offset, size_t len,
                            std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = ReadInode(ino);
  if (!node.ok()) {
    return node.error();
  }
  if (static_cast<FileType>(node->type) == FileType::kDirectory) {
    return Errno::kEISDIR;
  }
  if (offset >= node->size) {
    out->clear();
    return size_t{0};
  }
  len = std::min<uint64_t>(len, node->size - offset);
  out->clear();
  out->reserve(len);
  while (len > 0) {
    uint64_t fb = offset / kBlockSize;
    size_t in_block = offset % kBlockSize;
    size_t chunk = std::min(len, kBlockSize - in_block);
    auto bno = Bmap(*node, fb);
    if (!bno.ok()) {
      return bno.error();
    }
    if (*bno == 0) {
      out->append(chunk, '\0');  // hole
    } else {
      auto buf = cache_->Get(*bno);
      if (!buf.ok()) {
        return buf.error();
      }
      out->append(reinterpret_cast<const char*>(buf->data()) + in_block,
                  chunk);
    }
    offset += chunk;
    len -= chunk;
  }
  return out->size();
}

Result<size_t> DiskFs::Write(InodeNum ino, uint64_t offset,
                             std::string_view data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto node = ReadInode(ino);
  if (!node.ok()) {
    return node.error();
  }
  if (static_cast<FileType>(node->type) == FileType::kDirectory) {
    return Errno::kEISDIR;
  }
  size_t written = 0;
  while (written < data.size()) {
    uint64_t pos = offset + written;
    uint64_t fb = pos / kBlockSize;
    size_t in_block = pos % kBlockSize;
    size_t chunk = std::min(data.size() - written, kBlockSize - in_block);
    auto bno = BmapAlloc(*node, fb);
    if (!bno.ok()) {
      return bno.error();
    }
    bool whole = in_block == 0 && chunk == kBlockSize;
    auto buf = whole ? cache_->GetForOverwrite(*bno) : cache_->Get(*bno);
    if (!buf.ok()) {
      return buf.error();
    }
    std::memcpy(buf->data() + in_block, data.data() + written, chunk);
    buf->MarkDirty();
    written += chunk;
  }
  node->size = std::max<uint64_t>(node->size, offset + data.size());
  node->mtime = node->ctime = ++time_tick_;
  DIRCACHE_RETURN_IF_ERROR(WriteInode(ino, *node));
  return written;
}

void DiskFs::DropCaches() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_->Drop();
}


// ---------------------------------------------------------------------------
// fsck

void DiskFs::Fsck(FsckReport* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto fail = [&](std::string message) {
    out->errors.push_back(std::move(message));
  };
  auto inode_bit = [&](InodeNum ino) -> bool {
    auto buf = cache_->Get(layout_.inode_bitmap_start + ino / kBitsPerBlock);
    return buf.ok() &&
           (buf->data()[(ino / 8) % kBlockSize] & (1u << (ino % 8))) != 0;
  };
  auto block_bit = [&](uint64_t b) -> bool {
    auto buf = cache_->Get(layout_.block_bitmap_start + b / kBitsPerBlock);
    return buf.ok() &&
           (buf->data()[(b / 8) % kBlockSize] & (1u << (b % 8))) != 0;
  };

  std::map<InodeNum, uint32_t> name_refs;    // dirent references per inode
  std::map<InodeNum, uint32_t> subdirs;      // child directories per dir
  std::map<uint64_t, uint32_t> block_refs;   // references per data block
  auto account_blocks = [&](const RawInode& node, InodeNum ino) {
    uint64_t blocks = DivCeil(node.size, kBlockSize);
    for (uint64_t fb = 0; fb < blocks && fb < kMaxFileBlocks; ++fb) {
      auto bno = Bmap(node, fb);
      if (bno.ok() && *bno != 0) {
        block_refs[*bno] += 1;
        ++out->blocks_referenced;
      }
    }
    if (node.indirect != 0) {
      block_refs[node.indirect] += 1;
      ++out->blocks_referenced;
    }
    (void)ino;
  };

  // Pass 1: walk the directory tree from the root.
  std::vector<InodeNum> queue{kRootIno};
  std::map<InodeNum, bool> visited;
  name_refs[kRootIno] = 1;  // the implicit mount reference
  while (!queue.empty()) {
    InodeNum dir = queue.back();
    queue.pop_back();
    if (visited[dir]) {
      fail("directory " + std::to_string(dir) +
           " reachable via multiple parents (cycle or hard-linked dir)");
      continue;
    }
    visited[dir] = true;
    auto node = ReadInode(dir);
    if (!node.ok()) {
      fail("unreadable directory inode " + std::to_string(dir));
      continue;
    }
    ++out->directories_checked;
    account_blocks(*node, dir);
    std::map<std::string, bool> names;
    uint64_t blocks = DivCeil(node->size, kBlockSize);
    for (uint64_t fb = 0; fb < blocks; ++fb) {
      auto bno = Bmap(*node, fb);
      if (!bno.ok() || *bno == 0) {
        continue;
      }
      auto buf = cache_->Get(*bno);
      if (!buf.ok()) {
        fail("unreadable dirent block of dir " + std::to_string(dir));
        continue;
      }
      const uint8_t* p = buf->data();
      if (!VerifyDirTail(p)) {
        fail("checksum mismatch in dirent block " + std::to_string(*bno) +
             " of dir " + std::to_string(dir));
        continue;
      }
      ForEachRecord(p, 0, [&](size_t pos, const RawDirent& d) {
        if ((d.rec_len & 7) != 0 || pos + d.rec_len > kDirDataLen) {
          fail("malformed dirent record in dir " + std::to_string(dir));
          return true;
        }
        if (d.ino == 0) {
          return false;
        }
        std::string name(
            reinterpret_cast<const char*>(p + pos + kDirentHeaderLen),
            d.name_len);
        if (names[name]) {
          fail("duplicate name '" + name + "' in dir " + std::to_string(dir));
        }
        names[name] = true;
        if (d.ino >= options_.max_inodes || !inode_bit(d.ino)) {
          fail("entry '" + name + "' references unallocated inode " +
               std::to_string(d.ino));
          return false;
        }
        auto child = ReadInode(d.ino);
        if (!child.ok()) {
          fail("entry '" + name + "' references dead inode " +
               std::to_string(d.ino));
          return false;
        }
        if (child->type != d.type) {
          fail("entry '" + name + "' type mismatch with inode " +
               std::to_string(d.ino));
        }
        name_refs[d.ino] += 1;
        if (static_cast<FileType>(child->type) == FileType::kDirectory) {
          subdirs[dir] += 1;
          queue.push_back(d.ino);
        }
        return false;
      });
    }
  }

  // Account blocks of non-directory inodes (once per inode, hard links
  // notwithstanding).
  for (const auto& [ino, refs] : name_refs) {
    auto node = ReadInode(ino);
    if (node.ok() &&
        static_cast<FileType>(node->type) != FileType::kDirectory) {
      account_blocks(*node, ino);
    }
  }

  // Pass 2: inode bitmap vs reachability, link counts.
  for (InodeNum ino = 1; ino < options_.max_inodes; ++ino) {
    bool allocated = inode_bit(ino);
    auto it = name_refs.find(ino);
    if (!allocated) {
      if (it != name_refs.end()) {
        fail("reachable inode " + std::to_string(ino) +
             " not marked allocated");
      }
      continue;
    }
    ++out->inodes_checked;
    if (it == name_refs.end()) {
      fail("allocated inode " + std::to_string(ino) + " is unreachable");
      continue;
    }
    auto node = ReadInode(ino);
    if (!node.ok()) {
      fail("allocated inode " + std::to_string(ino) + " unreadable");
      continue;
    }
    bool is_dir = static_cast<FileType>(node->type) == FileType::kDirectory;
    uint32_t expected =
        is_dir ? 2 + subdirs[ino] : it->second;
    if (node->nlink != expected) {
      fail("inode " + std::to_string(ino) + " nlink " +
           std::to_string(node->nlink) + " != expected " +
           std::to_string(expected));
    }
    if (is_dir && it->second > 1) {
      fail("directory inode " + std::to_string(ino) + " hard-linked");
    }
  }

  // Pass 3: block bitmap vs references.
  for (uint64_t b = layout_.data_start; b < options_.num_blocks; ++b) {
    bool allocated = block_bit(b);
    auto it = block_refs.find(b);
    if (allocated && it == block_refs.end()) {
      fail("allocated block " + std::to_string(b) + " is leaked");
    } else if (!allocated && it != block_refs.end()) {
      fail("referenced block " + std::to_string(b) + " not allocated");
    } else if (it != block_refs.end() && it->second > 1) {
      fail("block " + std::to_string(b) + " referenced " +
           std::to_string(it->second) + " times");
    }
  }
}

uint64_t DiskFs::allocated_inodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocated_inodes_;
}

}  // namespace dircache
