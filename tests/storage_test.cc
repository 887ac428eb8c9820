// Storage substrate tests: block device cost model, buffer cache behaviour,
// DiskFs on-disk structures, MemFs semantics.
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/block_device.h"
#include "src/storage/buffer_cache.h"
#include "src/storage/diskfs.h"
#include "src/storage/fsck.h"
#include "src/storage/memfs.h"
#include "src/util/hash.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

TEST(BlockDeviceTest, ChargesSeekAndSequentialCosts) {
  DiskModel model;
  model.seek_ns = 1000;
  model.sequential_ns = 10;
  model.transfer_ns = 1;
  BlockDevice dev(128, model);
  Block block{};
  VirtualClock clock;
  {
    IoChargeScope scope(&clock);
    ASSERT_OK(dev.Read(10, &block));   // seek
    ASSERT_OK(dev.Read(11, &block));   // sequential
    ASSERT_OK(dev.Read(50, &block));   // seek again
  }
  EXPECT_EQ(clock.nanos(), (1000 + 1) + (10 + 1) + (1000 + 1) * 1ull);
  EXPECT_EQ(dev.reads(), 3u);
  // Out-of-range access fails.
  EXPECT_ERR(dev.Read(1000, &block), Errno::kEIO);
}

TEST(BlockDeviceTest, DataRoundTrips) {
  BlockDevice dev(16);
  Block w{};
  w[0] = 0xAB;
  w[4095] = 0xCD;
  ASSERT_OK(dev.Write(3, w));
  Block r{};
  ASSERT_OK(dev.Read(3, &r));
  EXPECT_EQ(r[0], 0xAB);
  EXPECT_EQ(r[4095], 0xCD);
}

TEST(BufferCacheTest, HitAvoidsDevice) {
  BlockDevice dev(64);
  BufferCache cache(&dev, 8);
  {
    auto b = cache.Get(5);
    ASSERT_OK(b);
  }
  uint64_t reads_after_first = dev.reads();
  {
    auto b = cache.Get(5);
    ASSERT_OK(b);
  }
  EXPECT_EQ(dev.reads(), reads_after_first);  // served from cache
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BufferCacheTest, WritebackOnEvictionAndSync) {
  BlockDevice dev(64);
  BufferCache cache(&dev, 4);
  {
    auto b = cache.Get(1);
    ASSERT_OK(b);
    b->data()[0] = 42;
    b->MarkDirty();
  }
  ASSERT_OK(cache.Sync());
  Block raw{};
  ASSERT_OK(dev.Read(1, &raw));
  EXPECT_EQ(raw[0], 42);
  // Fill beyond capacity; dirty blocks must be written back when evicted.
  {
    auto b = cache.Get(2);
    ASSERT_OK(b);
    b->data()[7] = 7;
    b->MarkDirty();
  }
  for (uint64_t i = 10; i < 20; ++i) {
    auto b = cache.Get(i);
    ASSERT_OK(b);
  }
  EXPECT_LE(cache.cached_blocks(), 4u);
  ASSERT_OK(dev.Read(2, &raw));
  EXPECT_EQ(raw[7], 7);
}

TEST(BufferCacheTest, PinnedBlocksSurviveEviction) {
  BlockDevice dev(64);
  BufferCache cache(&dev, 2);
  auto pinned = cache.Get(1);
  ASSERT_OK(pinned);
  pinned->data()[0] = 9;
  for (uint64_t i = 10; i < 20; ++i) {
    auto b = cache.Get(i);
    ASSERT_OK(b);
  }
  // The pinned buffer is still valid and intact.
  EXPECT_EQ(pinned->data()[0], 9);
}

TEST(BufferCacheTest, DropEvictsClean) {
  BlockDevice dev(64);
  BufferCache cache(&dev, 16);
  for (uint64_t i = 0; i < 8; ++i) {
    auto b = cache.Get(i);
    ASSERT_OK(b);
  }
  cache.Drop();
  EXPECT_EQ(cache.cached_blocks(), 0u);
}

class DiskFsTest : public ::testing::Test {
 protected:
  DiskFsTest() {
    DiskFsOptions opt;
    opt.num_blocks = 1 << 14;
    opt.max_inodes = 1 << 12;
    fs_ = std::make_unique<DiskFs>(opt);
  }
  std::unique_ptr<DiskFs> fs_;
};

TEST_F(DiskFsTest, RootExists) {
  auto attr = fs_->GetAttr(DiskFs::kRootIno);
  ASSERT_OK(attr);
  EXPECT_EQ(attr->type, FileType::kDirectory);
  EXPECT_EQ(attr->mode, 0755);
}

TEST_F(DiskFsTest, CreateLookupRemove) {
  auto ino = fs_->Create(DiskFs::kRootIno, "file.txt", FileType::kRegular,
                         0644, 1000, 1000);
  ASSERT_OK(ino);
  auto found = fs_->Lookup(DiskFs::kRootIno, "file.txt");
  ASSERT_OK(found);
  EXPECT_EQ(*found, *ino);
  EXPECT_ERR(fs_->Lookup(DiskFs::kRootIno, "other"), Errno::kENOENT);
  EXPECT_ERR(fs_->Create(DiskFs::kRootIno, "file.txt", FileType::kRegular,
                         0644, 0, 0),
             Errno::kEEXIST);
  ASSERT_OK(fs_->Unlink(DiskFs::kRootIno, "file.txt"));
  EXPECT_ERR(fs_->Lookup(DiskFs::kRootIno, "file.txt"), Errno::kENOENT);
  // The inode is freed; reading it reports staleness.
  EXPECT_ERR(fs_->GetAttr(*ino), Errno::kESTALE);
}

TEST_F(DiskFsTest, LargeDirectorySpansBlocksAndSurvivesCacheDrop) {
  std::set<std::string> names;
  for (int i = 0; i < 1200; ++i) {
    std::string name = "entry_number_" + std::to_string(i);
    ASSERT_OK(fs_->Create(DiskFs::kRootIno, name, FileType::kRegular, 0644,
                          0, 0));
    names.insert(name);
  }
  fs_->DropCaches();  // force re-reads from the device
  // Every entry resolvable after the drop (on-disk format is the truth).
  ASSERT_OK(fs_->Lookup(DiskFs::kRootIno, "entry_number_0"));
  ASSERT_OK(fs_->Lookup(DiskFs::kRootIno, "entry_number_1199"));
  // Full readdir via cookies returns exactly the created set.
  std::set<std::string> listed;
  uint64_t cookie = 0;
  while (true) {
    auto r = fs_->ReadDir(DiskFs::kRootIno, cookie, 100);
    ASSERT_OK(r);
    for (auto& e : r->entries) {
      EXPECT_TRUE(listed.insert(e.name).second) << "dup " << e.name;
    }
    if (r->eof) {
      break;
    }
    cookie = r->next_offset;
  }
  EXPECT_EQ(listed, names);
}

TEST_F(DiskFsTest, RenameReplacesAndMoves) {
  ASSERT_OK(fs_->Create(DiskFs::kRootIno, "dir", FileType::kDirectory, 0755,
                        0, 0));
  auto dir = fs_->Lookup(DiskFs::kRootIno, "dir");
  ASSERT_OK(dir);
  auto a = fs_->Create(DiskFs::kRootIno, "a", FileType::kRegular, 0644, 0, 0);
  ASSERT_OK(a);
  auto b = fs_->Create(*dir, "b", FileType::kRegular, 0644, 0, 0);
  ASSERT_OK(b);
  // Move a into dir replacing b.
  ASSERT_OK(fs_->Rename(DiskFs::kRootIno, "a", *dir, "b"));
  auto moved = fs_->Lookup(*dir, "b");
  ASSERT_OK(moved);
  EXPECT_EQ(*moved, *a);
  EXPECT_ERR(fs_->GetAttr(*b), Errno::kESTALE);  // replaced target freed
  EXPECT_ERR(fs_->Lookup(DiskFs::kRootIno, "a"), Errno::kENOENT);
  // Directory rename with non-empty target fails.
  ASSERT_OK(fs_->Create(DiskFs::kRootIno, "d2", FileType::kDirectory, 0755,
                        0, 0));
  EXPECT_ERR(fs_->Rename(DiskFs::kRootIno, "d2", DiskFs::kRootIno, "dir"),
             Errno::kENOTEMPTY);
}

TEST_F(DiskFsTest, HardLinksAndNlink) {
  auto ino = fs_->Create(DiskFs::kRootIno, "orig", FileType::kRegular, 0644,
                         0, 0);
  ASSERT_OK(ino);
  ASSERT_OK(fs_->Link(DiskFs::kRootIno, "alias", *ino));
  auto attr = fs_->GetAttr(*ino);
  ASSERT_OK(attr);
  EXPECT_EQ(attr->nlink, 2u);
  ASSERT_OK(fs_->Unlink(DiskFs::kRootIno, "orig"));
  attr = fs_->GetAttr(*ino);
  ASSERT_OK(attr);  // still alive via alias
  EXPECT_EQ(attr->nlink, 1u);
  ASSERT_OK(fs_->Unlink(DiskFs::kRootIno, "alias"));
  EXPECT_ERR(fs_->GetAttr(*ino), Errno::kESTALE);
}

TEST_F(DiskFsTest, SymlinkStoresTarget) {
  auto ino = fs_->SymlinkCreate(DiskFs::kRootIno, "link", "/some/target",
                                0, 0);
  ASSERT_OK(ino);
  auto target = fs_->ReadLink(*ino);
  ASSERT_OK(target);
  EXPECT_EQ(*target, "/some/target");
  auto attr = fs_->GetAttr(*ino);
  ASSERT_OK(attr);
  EXPECT_EQ(attr->type, FileType::kSymlink);
}

TEST_F(DiskFsTest, FileDataIndirectBlocks) {
  auto ino = fs_->Create(DiskFs::kRootIno, "big", FileType::kRegular, 0644,
                         0, 0);
  ASSERT_OK(ino);
  // Write past the 10 direct blocks (40 KiB) into the indirect range.
  std::string chunk(kBlockSize, 'z');
  for (int blk = 0; blk < 14; ++blk) {
    auto w = fs_->Write(*ino, static_cast<uint64_t>(blk) * kBlockSize,
                        chunk);
    ASSERT_OK(w);
  }
  fs_->DropCaches();
  std::string out;
  auto r = fs_->Read(*ino, 12 * kBlockSize + 100, 64, &out);
  ASSERT_OK(r);
  EXPECT_EQ(out, std::string(64, 'z'));
  auto attr = fs_->GetAttr(*ino);
  ASSERT_OK(attr);
  EXPECT_EQ(attr->size, 14u * kBlockSize);
}

TEST_F(DiskFsTest, SetAttrTruncate) {
  auto ino = fs_->Create(DiskFs::kRootIno, "t", FileType::kRegular, 0666, 0,
                         0);
  ASSERT_OK(ino);
  ASSERT_OK(fs_->Write(*ino, 0, "0123456789"));
  AttrUpdate update;
  update.mode = 0600;
  update.uid = 7;
  ASSERT_OK(fs_->SetAttr(*ino, update));
  auto attr = fs_->GetAttr(*ino);
  ASSERT_OK(attr);
  EXPECT_EQ(attr->mode, 0600);
  EXPECT_EQ(attr->uid, 7u);
}

TEST_F(DiskFsTest, InodeExhaustionReportsEnospc) {
  DiskFsOptions tiny;
  tiny.num_blocks = 1 << 12;
  tiny.max_inodes = 16;
  DiskFs small(tiny);
  Status last = Status::Ok();
  for (int i = 0; i < 32; ++i) {
    auto r = small.Create(DiskFs::kRootIno, "f" + std::to_string(i),
                          FileType::kRegular, 0644, 0, 0);
    if (!r.ok()) {
      last = r.error();
      break;
    }
  }
  EXPECT_EQ(last.error(), Errno::kENOSPC);
}

// Every ReadDir page of `dir` at page sizes 1, 7 and 256, serialized: each
// entry's name, inode number and type, then the page's next_offset and eof.
std::string ReadDirPages(DiskFs& fs, InodeNum dir) {
  std::string out;
  auto put = [&](uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (size_t page : {1, 7, 256}) {
    uint64_t offset = 0;
    for (int calls = 0; calls < 10000; ++calls) {
      auto r = fs.ReadDir(dir, offset, page);
      EXPECT_OK(r);
      if (!r.ok()) {
        break;
      }
      for (const DirEntry& e : r->entries) {
        out += e.name;
        out.push_back('\0');
        put(e.ino);
        put(static_cast<uint64_t>(e.type));
      }
      put(r->next_offset);
      put(r->eof ? 1 : 0);
      if (r->eof) {
        break;
      }
      offset = r->next_offset;
    }
  }
  return out;
}

// A fixed script pins what DiskFs writes: the device image (every block,
// after DropCaches writes the buffer cache back) and every readdir page,
// so the inode and block allocation order, the dirent layout, readdir's
// order and its offsets all stay as they are.
TEST_F(DiskFsTest, FixedScriptPinsImageAndReadDirPages) {
  const InodeNum root = DiskFs::kRootIno;
  auto make = [&](InodeNum dir, const std::string& name,
                  FileType type) -> InodeNum {
    auto ino = fs_->Create(dir, name, type,
                           type == FileType::kDirectory ? 0755 : 0644, 0, 0);
    EXPECT_OK(ino);
    return ino.ok() ? *ino : 0;
  };
  const InodeNum big = make(root, "big", FileType::kDirectory);
  const InodeNum small = make(root, "small", FileType::kDirectory);
  // Five rounds of every name length from 1 to 80: a multi-block (htree)
  // directory.
  std::vector<std::string> names;
  for (int i = 0; i < 400; ++i) {
    names.push_back(std::string(1 + i % 80, static_cast<char>('a' + i / 80)));
    make(big, names.back(), FileType::kRegular);
  }
  // Free every third record, then re-create into part of the slack.
  for (size_t i = 0; i < names.size(); i += 3) {
    ASSERT_OK(fs_->Unlink(big, names[i]));
  }
  for (int i = 0; i < 60; ++i) {
    make(big, "re" + std::string(1 + (i * 7) % 50, 'q') + std::to_string(i),
         FileType::kRegular);
  }
  // Renames: within a directory, across, onto a file (within and across),
  // onto an empty directory (within and across), and a directory to
  // another parent.
  ASSERT_OK(fs_->Rename(big, names[1], big, "renamed_within"));
  ASSERT_OK(fs_->Rename(big, names[2], small, "moved_in"));
  make(small, "t1", FileType::kRegular);
  make(small, "t2", FileType::kRegular);
  ASSERT_OK(fs_->Rename(small, "t1", small, "t2"));
  ASSERT_OK(fs_->Rename(big, names[4], small, "moved_in"));
  make(small, "e1", FileType::kDirectory);
  make(small, "e2", FileType::kDirectory);
  ASSERT_OK(fs_->Rename(small, "e1", small, "e2"));
  make(big, "e3", FileType::kDirectory);
  ASSERT_OK(fs_->Rename(small, "e2", big, "e3"));
  const InodeNum sub = make(small, "sub", FileType::kDirectory);
  make(sub, "inner", FileType::kRegular);
  ASSERT_OK(fs_->Rename(small, "sub", big, "sub"));
  // mkdir and rmdir, link and unlink of one of two links.
  make(big, "gone_dir", FileType::kDirectory);
  ASSERT_OK(fs_->Rmdir(big, "gone_dir"));
  auto linked = fs_->Lookup(big, names[5]);
  ASSERT_OK(linked);
  ASSERT_OK(fs_->Link(small, "hard", *linked));
  ASSERT_OK(fs_->Unlink(big, names[5]));

  std::string pages;
  for (InodeNum dir : {root, big, small, sub}) {
    pages += ReadDirPages(*fs_, dir);
  }
  EXPECT_EQ(HashBytes64(0x5eed, pages), 0x3061405acba48d4dull);

  fs_->DropCaches();
  uint64_t image = 0x5eed;
  Block block{};
  for (uint64_t b = 0; b < fs_->device().num_blocks(); ++b) {
    ASSERT_OK(fs_->device().Read(b, &block));
    image = HashBytes64(
        image, std::string_view(reinterpret_cast<const char*>(block.data()),
                                block.size()));
  }
  EXPECT_EQ(image, 0x536942854142f82bull);
}

// A directory block whose checksum fails is never taken for one without
// the name: Create, Link and Rename into it answer EIO and leave it as it
// is, so fsck still finds the damage. Two rows: one name byte flipped, and
// one byte of a record's rec_len (which would let the insert overwrite the
// next record). The directory's one entry was unlinked, so its block holds
// no live record and fsck's only finding is the checksum.
TEST_F(DiskFsTest, CorruptDirectoryBlockFailsInsertsWithEio) {
  constexpr size_t kRecLenByte = 8;  // the first record's rec_len, low byte
  constexpr size_t kNameByte = 12;   // the first record's first name byte
  for (size_t flip : {kNameByte, kRecLenByte}) {
    SCOPED_TRACE(flip == kNameByte ? "name byte" : "rec_len byte");
    DiskFsOptions opt;
    opt.num_blocks = 1 << 12;
    opt.max_inodes = 1 << 10;
    DiskFs fs(opt);
    const InodeNum root = DiskFs::kRootIno;
    auto dir = fs.Create(root, "dir", FileType::kDirectory, 0755, 0, 0);
    ASSERT_OK(dir);
    auto file = fs.Create(root, "file", FileType::kRegular, 0644, 0, 0);
    ASSERT_OK(file);
    ASSERT_OK(fs.Create(*dir, "victim_entry", FileType::kRegular, 0644, 0, 0));
    ASSERT_OK(fs.Unlink(*dir, "victim_entry"));
    ASSERT_TRUE(RunFsck(fs).clean());

    // Find the directory's block by its tail magic and the stale name.
    bool corrupted = false;
    for (uint64_t b = 0; b < fs.device().num_blocks() && !corrupted; ++b) {
      auto buf = fs.buffer_cache().Get(b);
      ASSERT_OK(buf);
      uint32_t magic;
      std::memcpy(&magic, buf->data() + kBlockSize - 4, 4);
      if (magic == 0xde200de2u &&
          std::memcmp(buf->data() + kNameByte, "victim_entry", 12) == 0) {
        buf->data()[flip] ^= 0xff;
        buf->MarkDirty();
        corrupted = true;
      }
    }
    ASSERT_TRUE(corrupted);

    EXPECT_ERR(fs.Create(*dir, "new", FileType::kRegular, 0644, 0, 0),
               Errno::kEIO);
    EXPECT_ERR(fs.Link(*dir, "linked", *file), Errno::kEIO);
    EXPECT_ERR(fs.Rename(root, "file", *dir, "moved"), Errno::kEIO);
    EXPECT_OK(fs.Lookup(root, "file"));
    FsckReport report = RunFsck(fs);
    ASSERT_EQ(report.errors.size(), 1u) << report.Summary();
    EXPECT_NE(report.errors[0].find("checksum mismatch"), std::string::npos)
        << report.Summary();
  }
}

TEST(MemFsTest, BasicTreeOperations) {
  MemFs fs;
  auto dir = fs.Create(MemFs::kRootIno, "sub", FileType::kDirectory, 0755, 0,
                       0);
  ASSERT_OK(dir);
  auto file = fs.Create(*dir, "f", FileType::kRegular, 0644, 0, 0);
  ASSERT_OK(file);
  ASSERT_OK(fs.Write(*file, 0, "data"));
  std::string out;
  ASSERT_OK(fs.Read(*file, 0, 10, &out));
  EXPECT_EQ(out, "data");
  EXPECT_FALSE(fs.WantsNegativeDentries());  // pseudo-FS behaviour (§5.2)
  EXPECT_ERR(fs.Rmdir(MemFs::kRootIno, "sub"), Errno::kENOTEMPTY);
  ASSERT_OK(fs.Unlink(*dir, "f"));
  ASSERT_OK(fs.Rmdir(MemFs::kRootIno, "sub"));
}

TEST(MemFsTest, ReadDirPagination) {
  MemFs fs;
  for (int i = 0; i < 25; ++i) {
    ASSERT_OK(fs.Create(MemFs::kRootIno, "e" + std::to_string(i),
                        FileType::kRegular, 0644, 0, 0));
  }
  std::set<std::string> seen;
  uint64_t cookie = 0;
  while (true) {
    auto r = fs.ReadDir(MemFs::kRootIno, cookie, 7);
    ASSERT_OK(r);
    for (auto& e : r->entries) {
      seen.insert(e.name);
    }
    if (r->eof) {
      break;
    }
    cookie = r->next_offset;
  }
  EXPECT_EQ(seen.size(), 25u);
}

}  // namespace
}  // namespace dircache
