// POSIX-surface tests, parameterized across cache configurations: every
// behaviour here must be identical with and without the paper's
// optimizations (transparency is the paper's core compatibility claim).
#include <algorithm>
#include <set>

#include "src/server/batch.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

enum class Variant {
  kBaseline,
  kOptimized,
  kFastpathOnly,
  kDirCompleteOnly,
  kNegativeOnly,
  kLexical,
  kGlobalLockEra,
  kFineGrainedEra,
  kBaselineMemfs,   // POSIX surface over the pseudo FS as the root
  kOptimizedMemfs,
};

bool UsesMemfsRoot(Variant v) {
  return v == Variant::kBaselineMemfs || v == Variant::kOptimizedMemfs;
}

CacheConfig ConfigFor(Variant v) {
  switch (v) {
    case Variant::kBaseline:
    case Variant::kBaselineMemfs:
      return CacheConfig::Baseline();
    case Variant::kOptimized:
    case Variant::kOptimizedMemfs:
      return CacheConfig::Optimized();
    case Variant::kFastpathOnly: {
      CacheConfig c;
      c.fastpath = true;
      return c;
    }
    case Variant::kDirCompleteOnly: {
      CacheConfig c;
      c.dir_completeness = true;
      return c;
    }
    case Variant::kNegativeOnly: {
      CacheConfig c;
      c.negative_on_unlink = true;
      c.negative_on_pseudo_fs = true;
      c.deep_negative = true;
      return c;
    }
    case Variant::kLexical: {
      CacheConfig c = CacheConfig::Optimized();
      c.dotdot = DotDotMode::kLexical;
      return c;
    }
    case Variant::kGlobalLockEra: {
      CacheConfig c;
      c.locking = LockingMode::kGlobalLock;
      return c;
    }
    case Variant::kFineGrainedEra: {
      CacheConfig c;
      c.locking = LockingMode::kFineGrained;
      return c;
    }
  }
  return CacheConfig::Baseline();
}

class SyscallTest : public ::testing::TestWithParam<Variant> {
 protected:
  SyscallTest()
      : world_(ConfigFor(GetParam()),
               UsesMemfsRoot(GetParam())
                   ? std::make_shared<MemFs>(
                         MemFs::Options{/*wants_negative_dentries=*/false,
                                        "memroot"})
                   : nullptr) {}

  Task& T() { return *world_.root; }
  TestWorld world_;
};

TEST_P(SyscallTest, MkdirStatRoundTrip) {
  ASSERT_OK(T().Mkdir("/a"));
  ASSERT_OK(T().Mkdir("/a/b", 0700));
  auto st = T().Statx(kAtFdCwd, "/a/b", 0);
  ASSERT_OK(st);
  EXPECT_TRUE(st->IsDir());
  EXPECT_EQ(st->mode, 0700);
  EXPECT_EQ(st->uid, 0u);
}

TEST_P(SyscallTest, CreateWriteReadFile) {
  ASSERT_OK(T().Mkdir("/d"));
  auto fd = T().Open("/d/file.txt", kOCreat | kORdWr, 0644);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "hello world"));
  ASSERT_OK(T().Lseek(*fd, 0));
  std::string buf;
  auto n = T().ReadFd(*fd, 64, &buf);
  ASSERT_OK(n);
  EXPECT_EQ(buf, "hello world");
  ASSERT_OK(T().Close(*fd));
  auto st = T().Statx(kAtFdCwd, "/d/file.txt", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 11u);
  EXPECT_TRUE(st->IsRegular());
}

TEST_P(SyscallTest, RepeatedStatsHitCache) {
  ASSERT_OK(T().Mkdir("/x"));
  ASSERT_OK(T().Mkdir("/x/y"));
  auto fd = T().Open("/x/y/z", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(T().Statx(kAtFdCwd, "/x/y/z", 0));
  }
  if (world_.kernel->config().fastpath) {
    // After warmup, almost all of those resolve on the fastpath.
    EXPECT_GT(world_.kernel->stats().fastpath_hits.value(), 90u);
  }
}

TEST_P(SyscallTest, EnoentOnMissing) {
  ASSERT_OK(T().Mkdir("/p"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/p/missing", 0), Errno::kENOENT);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/p/missing", 0), Errno::kENOENT);  // cached negative
  EXPECT_ERR(T().Statx(kAtFdCwd, "/nope/deep/path", 0), Errno::kENOENT);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/nope/deep/path", 0), Errno::kENOENT);
}

TEST_P(SyscallTest, EnotdirOnFileComponent) {
  auto fd = T().Open("/plain", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/plain/sub", 0), Errno::kENOTDIR);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/plain/sub", 0), Errno::kENOTDIR);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/plain/sub/deeper", 0), Errno::kENOTDIR);
}

TEST_P(SyscallTest, UnlinkRemovesAndNegativeCaches) {
  auto fd = T().Open("/victim", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Unlink("/victim"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/victim", 0), Errno::kENOENT);
  EXPECT_ERR(T().Unlink("/victim"), Errno::kENOENT);
  // Re-create over the (possibly cached-negative) name.
  auto fd2 = T().Open("/victim", kOCreat | kOWrite);
  ASSERT_OK(fd2);
  ASSERT_OK(T().Close(*fd2));
  EXPECT_OK(T().Statx(kAtFdCwd, "/victim", 0));
}

TEST_P(SyscallTest, RmdirSemantics) {
  ASSERT_OK(T().Mkdir("/dir"));
  ASSERT_OK(T().Mkdir("/dir/sub"));
  EXPECT_ERR(T().Rmdir("/dir"), Errno::kENOTEMPTY);
  ASSERT_OK(T().Rmdir("/dir/sub"));
  ASSERT_OK(T().Rmdir("/dir"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/dir", 0), Errno::kENOENT);
  auto fd = T().Open("/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_ERR(T().Rmdir("/f"), Errno::kENOTDIR);
  EXPECT_ERR(T().Unlink("/"), Errno::kEINVAL);
}

TEST_P(SyscallTest, RenameFileBasic) {
  ASSERT_OK(T().Mkdir("/a"));
  ASSERT_OK(T().Mkdir("/b"));
  auto fd = T().Open("/a/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "data"));
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Rename("/a/f", "/b/g"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/a/f", 0), Errno::kENOENT);
  auto st = T().Statx(kAtFdCwd, "/b/g", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 4u);
}

TEST_P(SyscallTest, RenameDirectoryMovesSubtree) {
  ASSERT_OK(T().Mkdir("/src"));
  ASSERT_OK(T().Mkdir("/src/kid"));
  auto fd = T().Open("/src/kid/leaf", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  // Warm the caches on the old paths.
  ASSERT_OK(T().Statx(kAtFdCwd, "/src/kid/leaf", 0));
  ASSERT_OK(T().Statx(kAtFdCwd, "/src/kid/leaf", 0));
  ASSERT_OK(T().Rename("/src", "/dst"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/src/kid/leaf", 0), Errno::kENOENT);
  EXPECT_OK(T().Statx(kAtFdCwd, "/dst/kid/leaf", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/dst/kid/leaf", 0));
}

TEST_P(SyscallTest, RenameOntoExistingFileReplaces) {
  auto mk = [&](std::string_view p, std::string_view data) {
    auto fd = T().Open(p, kOCreat | kOWrite | kOTrunc);
    ASSERT_OK(fd);
    ASSERT_OK(T().WriteFd(*fd, data));
    ASSERT_OK(T().Close(*fd));
  };
  mk("/one", "111");
  mk("/two", "22222");
  ASSERT_OK(T().Rename("/one", "/two"));
  auto st = T().Statx(kAtFdCwd, "/two", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 3u);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/one", 0), Errno::kENOENT);
}

TEST_P(SyscallTest, RenameDirIntoOwnSubtreeFails) {
  ASSERT_OK(T().Mkdir("/top"));
  ASSERT_OK(T().Mkdir("/top/mid"));
  EXPECT_ERR(T().Rename("/top", "/top/mid/inner"), Errno::kEINVAL);
}

TEST_P(SyscallTest, HardLinksShareInode) {
  auto fd = T().Open("/orig", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "shared"));
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Link("/orig", "/alias"));
  auto st1 = T().Statx(kAtFdCwd, "/orig", 0);
  auto st2 = T().Statx(kAtFdCwd, "/alias", 0);
  ASSERT_OK(st1);
  ASSERT_OK(st2);
  EXPECT_EQ(st1->ino, st2->ino);
  EXPECT_EQ(st2->nlink, 2u);
  ASSERT_OK(T().Unlink("/orig"));
  auto st3 = T().Statx(kAtFdCwd, "/alias", 0);
  ASSERT_OK(st3);
  EXPECT_EQ(st3->nlink, 1u);
}

TEST_P(SyscallTest, SymlinkResolution) {
  ASSERT_OK(T().Mkdir("/real"));
  auto fd = T().Open("/real/file", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Symlink("/real", "/link"));
  // stat follows; lstat does not.
  auto st = T().Statx(kAtFdCwd, "/link", 0);
  ASSERT_OK(st);
  EXPECT_TRUE(st->IsDir());
  auto lst = T().Statx(kAtFdCwd, "/link", kAtSymlinkNoFollow);
  ASSERT_OK(lst);
  EXPECT_TRUE(lst->IsSymlink());
  // Resolution through the link (repeatedly — exercises alias caching).
  for (int i = 0; i < 5; ++i) {
    EXPECT_OK(T().Statx(kAtFdCwd, "/link/file", 0));
  }
  auto target = T().ReadLink("/link");
  ASSERT_OK(target);
  EXPECT_EQ(*target, "/real");
}

TEST_P(SyscallTest, RelativeSymlink) {
  ASSERT_OK(T().Mkdir("/dir"));
  ASSERT_OK(T().Mkdir("/dir/sub"));
  auto fd = T().Open("/dir/sub/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Symlink("sub", "/dir/rel"));
  EXPECT_OK(T().Statx(kAtFdCwd, "/dir/rel/f", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/dir/rel/f", 0));
}

TEST_P(SyscallTest, SymlinkLoopsReturnEloop) {
  ASSERT_OK(T().Symlink("/self", "/self"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/self/x", 0), Errno::kELOOP);
  ASSERT_OK(T().Symlink("/ping", "/pong"));
  ASSERT_OK(T().Symlink("/pong", "/ping"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/ping/x", 0), Errno::kELOOP);
}

TEST_P(SyscallTest, DotAndDotDot) {
  ASSERT_OK(T().Mkdir("/w"));
  ASSERT_OK(T().Mkdir("/w/in"));
  auto fd = T().Open("/w/file", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_OK(T().Statx(kAtFdCwd, "/w/./file", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/w/in/../file", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/w/in/../file", 0));  // repeat: fastpath dot-dot
  EXPECT_OK(T().Statx(kAtFdCwd, "/w/in/../../w/file", 0));
  // ".." above root stays at root.
  EXPECT_OK(T().Statx(kAtFdCwd, "/../../w/file", 0));
}

TEST_P(SyscallTest, ChdirAndRelativePaths) {
  ASSERT_OK(T().Mkdir("/home"));
  ASSERT_OK(T().Mkdir("/home/alice"));
  auto fd = T().Open("/home/alice/doc", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Chdir("/home/alice"));
  auto cwd = T().Getcwd();
  ASSERT_OK(cwd);
  EXPECT_EQ(*cwd, "/home/alice");
  EXPECT_OK(T().Statx(kAtFdCwd, "doc", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "doc", 0));  // relative fastpath (resumed hash state)
  EXPECT_OK(T().Statx(kAtFdCwd, "./doc", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "../alice/doc", 0));
  ASSERT_OK(T().Chdir("/"));
}

TEST_P(SyscallTest, OpenAtAndFstatAt) {
  ASSERT_OK(T().Mkdir("/base"));
  auto dfd = T().Open("/base", kORead | kODirectory);
  ASSERT_OK(dfd);
  auto fd = T().OpenAt(*dfd, "child", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  auto st = T().FstatAt(*dfd, "child", 0);
  ASSERT_OK(st);
  EXPECT_TRUE(st->IsRegular());
  ASSERT_OK(T().UnlinkAt(*dfd, "child"));
  EXPECT_ERR(T().FstatAt(*dfd, "child", 0), Errno::kENOENT);
  ASSERT_OK(T().Close(*dfd));
}

TEST_P(SyscallTest, StatxUnifiedEntryPoint) {
  ASSERT_OK(T().Mkdir("/sx"));
  auto fd = T().Open("/sx/file", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "abc"));
  ASSERT_OK(T().Symlink("/sx/file", "/sx/link"));

  // Plain path stat follows symlinks; NOFOLLOW stats the link itself.
  auto st = T().Statx(kAtFdCwd, "/sx/link", 0);
  ASSERT_OK(st);
  EXPECT_TRUE(st->IsRegular());
  EXPECT_EQ(st->size, 3u);
  auto lst = T().Statx(kAtFdCwd, "/sx/link", kAtSymlinkNoFollow);
  ASSERT_OK(lst);
  EXPECT_TRUE(lst->IsSymlink());
  auto via_lstat = T().Statx(kAtFdCwd, "/sx/link", kAtSymlinkNoFollow);
  ASSERT_OK(via_lstat);
  EXPECT_EQ(lst->ino, via_lstat->ino);

  // Empty path + kAtEmptyPath stats the fd itself (fstat shape)...
  auto self = T().Statx(*fd, "", kAtEmptyPath);
  ASSERT_OK(self);
  EXPECT_EQ(self->ino, st->ino);
  // ...and kAtFdCwd resolves to the working directory.
  ASSERT_OK(T().Chdir("/sx"));
  auto cwd = T().Statx(kAtFdCwd, "", kAtEmptyPath);
  ASSERT_OK(cwd);
  EXPECT_TRUE(cwd->IsDir());
  ASSERT_OK(T().Chdir("/"));

  // Validation: unknown flag bits and unknown mask bits are EINVAL; an
  // empty path without kAtEmptyPath stays ENOENT (FstatAt compatibility).
  EXPECT_ERR(T().Statx(kAtFdCwd, "/sx/file", 0x8000), Errno::kEINVAL);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/sx/file", 0, 0x40000u), Errno::kEINVAL);
  EXPECT_ERR(T().Statx(kAtFdCwd, "", 0), Errno::kENOENT);
  EXPECT_ERR(T().Statx(999, "", kAtEmptyPath), Errno::kEBADF);

  // A reduced mask validates but still fills every field (documented
  // simulation behaviour: the mask gates nothing, it is checked only).
  auto masked = T().Statx(kAtFdCwd, "/sx/file", 0, kStatxIno | kStatxSize);
  ASSERT_OK(masked);
  EXPECT_EQ(masked->ino, st->ino);
  EXPECT_EQ(masked->size, 3u);
  ASSERT_OK(T().Close(*fd));
}

TEST_P(SyscallTest, ReaddirListsEntries) {
  ASSERT_OK(T().Mkdir("/ls"));
  std::set<std::string> expect;
  for (int i = 0; i < 25; ++i) {
    std::string name = "entry" + std::to_string(i);
    auto fd = T().Open("/ls/" + name, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
    expect.insert(name);
  }
  ASSERT_OK(T().Mkdir("/ls/subdir"));
  expect.insert("subdir");

  for (int round = 0; round < 3; ++round) {  // round 2+ may serve cached
    auto dfd = T().Open("/ls", kORead | kODirectory);
    ASSERT_OK(dfd);
    std::set<std::string> seen;
    while (true) {
      auto batch = T().ReadDirFd(*dfd, 7);
      ASSERT_OK(batch);
      if (batch->empty()) {
        break;
      }
      for (auto& e : *batch) {
        EXPECT_TRUE(seen.insert(e.name).second) << "duplicate " << e.name;
        if (e.name == "subdir") {
          EXPECT_EQ(e.type, FileType::kDirectory);
        }
      }
    }
    EXPECT_EQ(seen, expect) << "round " << round;
    ASSERT_OK(T().Close(*dfd));
  }
}

TEST_P(SyscallTest, ReaddirSeesConcurrentCreateAndUnlink) {
  ASSERT_OK(T().Mkdir("/mix"));
  for (int i = 0; i < 10; ++i) {
    auto fd = T().Open("/mix/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  }
  // Full listing to (possibly) set DIR_COMPLETE.
  auto dfd = T().Open("/mix", kORead | kODirectory);
  ASSERT_OK(dfd);
  while (true) {
    auto b = T().ReadDirFd(*dfd, 64);
    ASSERT_OK(b);
    if (b->empty()) {
      break;
    }
  }
  ASSERT_OK(T().Close(*dfd));
  // Mutate, then list again; results must reflect the changes.
  ASSERT_OK(T().Unlink("/mix/f3"));
  auto fd = T().Open("/mix/fresh", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  dfd = T().Open("/mix", kORead | kODirectory);
  ASSERT_OK(dfd);
  std::set<std::string> seen;
  while (true) {
    auto b = T().ReadDirFd(*dfd, 64);
    ASSERT_OK(b);
    if (b->empty()) {
      break;
    }
    for (auto& e : *b) {
      seen.insert(e.name);
    }
  }
  ASSERT_OK(T().Close(*dfd));
  EXPECT_EQ(seen.count("f3"), 0u);
  EXPECT_EQ(seen.count("fresh"), 1u);
  EXPECT_EQ(seen.size(), 10u);
}

TEST_P(SyscallTest, TruncateAndAppend) {
  auto fd = T().Open("/t", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "0123456789"));
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Truncate("/t", 4));
  auto st = T().Statx(kAtFdCwd, "/t", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 4u);
  auto afd = T().Open("/t", kOWrite | kOAppend);
  ASSERT_OK(afd);
  ASSERT_OK(T().WriteFd(*afd, "xy"));
  ASSERT_OK(T().Close(*afd));
  st = T().Statx(kAtFdCwd, "/t", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 6u);
}

TEST_P(SyscallTest, OpenFlagsSemantics) {
  EXPECT_ERR(T().Open("/nothere", kORead), Errno::kENOENT);
  auto fd = T().Open("/excl", kOCreat | kOExcl | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_ERR(T().Open("/excl", kOCreat | kOExcl | kOWrite), Errno::kEEXIST);
  ASSERT_OK(T().Mkdir("/adir"));
  EXPECT_ERR(T().Open("/adir", kOWrite), Errno::kEISDIR);
  EXPECT_ERR(T().Open("/excl", kORead | kODirectory), Errno::kENOTDIR);
  ASSERT_OK(T().Symlink("/excl", "/lnk"));
  EXPECT_ERR(T().Open("/lnk", kORead | kONoFollow), Errno::kELOOP);
  EXPECT_OK(T().Open("/lnk", kORead));
}

TEST_P(SyscallTest, UnlinkedButOpenFileStillUsable) {
  auto fd = T().Open("/ghost", kOCreat | kORdWr);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "spooky"));
  ASSERT_OK(T().Unlink("/ghost"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/ghost", 0), Errno::kENOENT);
  auto st = T().Fstat(*fd);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 6u);
  ASSERT_OK(T().Close(*fd));
}

TEST_P(SyscallTest, DeepPathsWork) {
  std::string path;
  for (int i = 0; i < 12; ++i) {
    path += "/level" + std::to_string(i);
    ASSERT_OK(T().Mkdir(path));
  }
  auto fd = T().Open(path + "/leaf", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  for (int i = 0; i < 3; ++i) {
    EXPECT_OK(T().Statx(kAtFdCwd, path + "/leaf", 0));
  }
}

TEST_P(SyscallTest, TrailingSlashRequiresDirectory) {
  ASSERT_OK(T().Mkdir("/sd"));
  auto fd = T().Open("/sd/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_OK(T().Statx(kAtFdCwd, "/sd/", 0));
}

// A name the dcache knows only from a readdir (a stub, on the DIR_COMPLETE
// variants) is renamed and removed like any other name: the lookup under
// the tree lock hands the mutation a materialized dentry, so the sticky,
// type and same-inode checks all see its inode.
TEST_P(SyscallTest, RenameAndRemoveReadDirStubs) {
  auto touch = [&](const std::string& p) {
    auto fd = T().Open(p, kOCreat | kOWrite, 0644);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  };
  ASSERT_OK(T().Mkdir("/d"));
  touch("/d/a");
  touch("/d/b");
  touch("/d/c");
  ASSERT_OK(T().Mkdir("/d/sub"));
  ASSERT_OK(T().Mkdir("/st", 01777));
  touch("/st/r");
  world_.kernel->DropCaches();
  for (const char* dir : {"/d", "/st"}) {
    auto fd = T().Open(dir, kORead | kODirectory);
    ASSERT_OK(fd);
    while (true) {
      auto page = T().ReadDirFd(*fd);
      ASSERT_OK(page);
      if (page->empty()) {
        break;
      }
    }
    ASSERT_OK(T().Close(*fd));
  }

  TaskPtr user = world_.UserTask(1000, 1000);
  EXPECT_ERR(user->Rename("/st/r", "/st/r2"), Errno::kEPERM);
  EXPECT_OK(T().Rename("/d/a", "/d/a2"));
  EXPECT_ERR(T().Rename("/d/a", "/d/a2"), Errno::kENOENT);
  EXPECT_OK(T().Unlink("/d/b"));
  EXPECT_OK(T().Rmdir("/d/sub"));
  // Two links of one inode: rename(2) returns 0 and changes nothing.
  ASSERT_OK(T().Link("/d/c", "/d/c2"));
  EXPECT_OK(T().Rename("/d/c", "/d/c2"));
  for (const char* p : {"/d/c", "/d/c2"}) {
    auto st = T().Statx(kAtFdCwd, p, 0);
    ASSERT_OK(st);
    EXPECT_EQ(st->nlink, 2u) << p;
  }
  EXPECT_OK(T().Statx(kAtFdCwd, "/d/a2", 0));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/d/b", 0), Errno::kENOENT);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/d/sub", 0), Errno::kENOENT);
  obs::AuditReport report = world_.kernel->Audit();
  EXPECT_TRUE(report.clean()) << report.ToText();
}

// --- mutation syscalls: errno precedence and side effects -------------------
// One row per (syscall, case). Each row runs in a fresh sandbox `/tN`,
// written `@` in the table; `/ro` is a read-only mount that every row shares.
// A row that expects success also checks what the call left behind: the new
// name's type, the parent's nlink and size as its file system reports them,
// and the parent's mtime step.
//
// Creating a name answers in the order of Linux's filename_create(): search
// permission on the parent, then EEXIST for an existing name, then the
// read-only mount and write permission. Removing a name answers in the order
// of do_unlinkat(): search permission on the parent, the read-only mount,
// the lookup (ENOENT), then write permission. Renaming answers in the order
// of do_renameat2() and vfs_rename(): search permission on each parent,
// EXDEV, the read-only mount, the source lookup (ENOENT), EINVAL for a move
// into its own subtree, the target lookup; then 0 with nothing changed when
// both names are one inode; may_delete() on the source (write permission on
// its parent, the sticky bit); may_delete() on an existing target, or else
// write permission on the new parent; and write permission on a directory
// that changes parents (its `..` is rewritten). Chmod and chown report the
// read-only mount first. Rows whose answer differs from Linux's say so.

enum class MutOp {
  kCreat,       // open(path, O_CREAT | O_RDONLY)
  kCreatExcl,   // open(path, O_CREAT | O_EXCL | O_RDONLY)
  kMkdir,       // mkdir(path)
  kSymlink,     // symlink(path2, path)
  kLink,        // link(path, path2)
  kUnlink,      // unlink(path)
  kRmdir,       // rmdir(path)
  kRename,      // rename(path, path2)
  kChmod,       // chmod(path, 0600)
  kChown,       // chown(path, 1000, 1000)
  kChownGroup,  // chown(path, 1000, 4242): a group uid 1000 is not in
  kLabel,       // SetSecurityLabel(path, "relabeled")
};

// The dirfd an *At call gets: AT_FDCWD, an fd on the sandbox directory, a
// descriptor number nothing has open, or an fd on the regular file `@/f`.
enum class MutFd { kCwd, kDir, kBad, kFile };

struct MutRow {
  const char* what;
  MutOp op;
  const char* path;
  const char* path2;
  Errno want;
  bool as_user = false;  // run as uid 1000, gid 1000 instead of root
  MutFd fd = MutFd::kCwd;
  MutFd fd2 = MutFd::kCwd;
};

constexpr Uid kUser = 1000;
constexpr FdNum kUnusedFd = 999;

// The sandbox a row runs in (`@`):
//   f, g   regular files, root, 0644
//   d      empty directory, root, 0755
//   full   directory holding the file `x`
//   gone   a name that was just unlinked
//   nw     directory, root, 0755 (uid 1000 cannot write it), holding the
//          file `f` and the directory `d`
//   st     sticky directory, root, 01777, holding `rootf` (owned by root)
//   u      directory owned by uid 1000, holding `mine` (owned by uid 1000)
//          and `rd` (a directory, root, 0755)
//   ns     directory, root, 0700 (uid 1000 cannot search it), holding the
//          file `f` and the directory `d`
void MakeSandbox(Task& t, const std::string& at) {
  auto touch = [&](const std::string& p) {
    auto fd = t.Open(p, kOCreat | kOWrite, 0644);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  };
  ASSERT_OK(t.Mkdir(at));
  touch(at + "/f");
  touch(at + "/g");
  ASSERT_OK(t.Mkdir(at + "/d"));
  ASSERT_OK(t.Mkdir(at + "/full"));
  touch(at + "/full/x");
  touch(at + "/gone");
  ASSERT_OK(t.Statx(kAtFdCwd, at + "/gone", 0));
  ASSERT_OK(t.Unlink(at + "/gone"));
  ASSERT_OK(t.Mkdir(at + "/nw"));
  touch(at + "/nw/f");
  ASSERT_OK(t.Mkdir(at + "/nw/d"));
  ASSERT_OK(t.Mkdir(at + "/st", 01777));
  touch(at + "/st/rootf");
  ASSERT_OK(t.Mkdir(at + "/u"));
  touch(at + "/u/mine");
  ASSERT_OK(t.Mkdir(at + "/u/rd"));
  ASSERT_OK(t.Chown(at + "/u", kUser, kUser));
  ASSERT_OK(t.Chown(at + "/u/mine", kUser, kUser));
  ASSERT_OK(t.Mkdir(at + "/ns", 0700));
  touch(at + "/ns/f");
  ASSERT_OK(t.Mkdir(at + "/ns/d"));
}

std::string Expand(const std::string& at, const char* p) {
  std::string s(p);
  if (!s.empty() && s.front() == '@') {
    s.replace(0, 1, at);
  }
  return s;
}

// The absolute path a row's (dirfd, path) names, for checking side effects.
std::string AbsPath(const std::string& at, MutFd fd, const std::string& p) {
  if (p.empty() || p.front() == '/' || fd == MutFd::kCwd) {
    return p;
  }
  return at + "/" + p;
}

std::string DirName(const std::string& p) {
  return p.substr(0, p.find_last_of('/'));
}

const MutRow kMutRows[] = {
    // open(O_CREAT)
    {"creat new", MutOp::kCreat, "@/new", "", Errno::kOk},
    {"creat existing", MutOp::kCreat, "@/f", "", Errno::kOk},
    {"creat just unlinked", MutOp::kCreat, "@/gone", "", Errno::kOk},
    {"creat missing parent", MutOp::kCreat, "@/nope/new", "", Errno::kENOENT},
    {"creat file parent", MutOp::kCreat, "@/f/new", "", Errno::kENOTDIR},
    {"creat unwritable parent", MutOp::kCreat, "@/nw/new", "", Errno::kEACCES,
     true},
    {"creat read-only mount", MutOp::kCreat, "/ro/new", "", Errno::kEROFS},
    {"creat read-only mount, unwritable parent", MutOp::kCreat, "/ro/new", "",
     Errno::kEROFS, true},
    {"creat existing, unwritable parent", MutOp::kCreat, "@/nw/f", "",
     Errno::kOk, true},
    {"creat existing, read-only mount", MutOp::kCreat, "/ro/f", "",
     Errno::kOk},
    {"creat new, unsearchable parent", MutOp::kCreat, "@/ns/new", "",
     Errno::kEACCES, true},
    {"creat existing, unsearchable parent", MutOp::kCreat, "@/ns/f", "",
     Errno::kEACCES, true},
    // open(O_CREAT | O_EXCL), and OpenAt four ways
    {"excl new", MutOp::kCreatExcl, "@/new", "", Errno::kOk},
    {"excl existing", MutOp::kCreatExcl, "@/f", "", Errno::kEEXIST},
    {"excl just unlinked", MutOp::kCreatExcl, "@/gone", "", Errno::kOk},
    {"excl missing parent", MutOp::kCreatExcl, "@/nope/new", "",
     Errno::kENOENT},
    {"excl file parent", MutOp::kCreatExcl, "@/f/new", "", Errno::kENOTDIR},
    {"excl unwritable parent", MutOp::kCreatExcl, "@/nw/new", "",
     Errno::kEACCES, true},
    {"excl read-only mount", MutOp::kCreatExcl, "/ro/new", "", Errno::kEROFS},
    {"excl existing, unwritable parent", MutOp::kCreatExcl, "@/nw/f", "",
     Errno::kEEXIST, true},
    {"excl existing, read-only mount", MutOp::kCreatExcl, "/ro/f", "",
     Errno::kEEXIST},
    {"excl new, unsearchable parent", MutOp::kCreatExcl, "@/ns/new", "",
     Errno::kEACCES, true},
    {"excl existing, unsearchable parent", MutOp::kCreatExcl, "@/ns/f", "",
     Errno::kEACCES, true},
    {"openat dir fd", MutOp::kCreatExcl, "new", "", Errno::kOk, false,
     MutFd::kDir},
    {"openat bad fd, relative", MutOp::kCreatExcl, "new", "", Errno::kEBADF,
     false, MutFd::kBad},
    {"openat bad fd, absolute", MutOp::kCreatExcl, "@/new", "", Errno::kOk,
     false, MutFd::kBad},
    {"openat file fd", MutOp::kCreatExcl, "new", "", Errno::kENOTDIR, false,
     MutFd::kFile},
    {"openat dir fd, existing", MutOp::kCreatExcl, "f", "", Errno::kEEXIST,
     false, MutFd::kDir},
    // mkdir, and MkdirAt four ways
    {"mkdir new", MutOp::kMkdir, "@/new", "", Errno::kOk},
    {"mkdir existing", MutOp::kMkdir, "@/d", "", Errno::kEEXIST},
    {"mkdir existing file", MutOp::kMkdir, "@/f", "", Errno::kEEXIST},
    {"mkdir just unlinked", MutOp::kMkdir, "@/gone", "", Errno::kOk},
    {"mkdir missing parent", MutOp::kMkdir, "@/nope/new", "", Errno::kENOENT},
    {"mkdir file parent", MutOp::kMkdir, "@/f/new", "", Errno::kENOTDIR},
    {"mkdir unwritable parent", MutOp::kMkdir, "@/nw/new", "", Errno::kEACCES,
     true},
    {"mkdir read-only mount", MutOp::kMkdir, "/ro/new", "", Errno::kEROFS},
    {"mkdir existing, unwritable parent", MutOp::kMkdir, "@/nw/d", "",
     Errno::kEEXIST, true},
    {"mkdir existing, read-only mount", MutOp::kMkdir, "/ro/d", "",
     Errno::kEEXIST},
    {"mkdir new, unsearchable parent", MutOp::kMkdir, "@/ns/new", "",
     Errno::kEACCES, true},
    {"mkdir existing, unsearchable parent", MutOp::kMkdir, "@/ns/d", "",
     Errno::kEACCES, true},
    {"mkdirat dir fd", MutOp::kMkdir, "new", "", Errno::kOk, false,
     MutFd::kDir},
    {"mkdirat bad fd, relative", MutOp::kMkdir, "new", "", Errno::kEBADF,
     false, MutFd::kBad},
    {"mkdirat bad fd, absolute", MutOp::kMkdir, "@/new", "", Errno::kOk, false,
     MutFd::kBad},
    {"mkdirat file fd", MutOp::kMkdir, "new", "", Errno::kENOTDIR, false,
     MutFd::kFile},
    // symlink(path2, path)
    {"symlink new", MutOp::kSymlink, "@/new", "f", Errno::kOk},
    {"symlink existing", MutOp::kSymlink, "@/f", "g", Errno::kEEXIST},
    {"symlink just unlinked", MutOp::kSymlink, "@/gone", "f", Errno::kOk},
    {"symlink missing parent", MutOp::kSymlink, "@/nope/new", "f",
     Errno::kENOENT},
    {"symlink file parent", MutOp::kSymlink, "@/f/new", "f", Errno::kENOTDIR},
    {"symlink unwritable parent", MutOp::kSymlink, "@/nw/new", "f",
     Errno::kEACCES, true},
    {"symlink read-only mount", MutOp::kSymlink, "/ro/new", "f",
     Errno::kEROFS},
    {"symlink existing, unwritable parent", MutOp::kSymlink, "@/nw/f", "g",
     Errno::kEEXIST, true},
    {"symlink existing, read-only mount", MutOp::kSymlink, "/ro/f", "g",
     Errno::kEEXIST},
    {"symlink new, unsearchable parent", MutOp::kSymlink, "@/ns/new", "f",
     Errno::kEACCES, true},
    {"symlink existing, unsearchable parent", MutOp::kSymlink, "@/ns/f", "g",
     Errno::kEACCES, true},
    // link(path, path2)
    {"link new", MutOp::kLink, "@/f", "@/new", Errno::kOk},
    {"link existing", MutOp::kLink, "@/f", "@/g", Errno::kEEXIST},
    {"link just unlinked", MutOp::kLink, "@/f", "@/gone", Errno::kOk},
    {"link missing source", MutOp::kLink, "@/nope", "@/new", Errno::kENOENT},
    {"link directory source", MutOp::kLink, "@/d", "@/new", Errno::kEPERM},
    {"link missing parent", MutOp::kLink, "@/f", "@/nope/new", Errno::kENOENT},
    {"link file parent", MutOp::kLink, "@/f", "@/g/new", Errno::kENOTDIR},
    {"link unwritable parent", MutOp::kLink, "@/u/mine", "@/nw/new",
     Errno::kEACCES, true},
    {"link read-only mount", MutOp::kLink, "/ro/f", "/ro/new", Errno::kEROFS},
    {"link across file systems", MutOp::kLink, "@/f", "/ro/new",
     Errno::kEXDEV},  // Linux: EROFS, the new name's mount before EXDEV
    {"link existing, unwritable parent", MutOp::kLink, "@/u/mine", "@/nw/f",
     Errno::kEEXIST, true},
    {"link existing, read-only mount", MutOp::kLink, "/ro/f", "/ro/g",
     Errno::kEEXIST},
    {"link new, unsearchable parent", MutOp::kLink, "@/u/mine", "@/ns/new",
     Errno::kEACCES, true},
    {"link existing, unsearchable parent", MutOp::kLink, "@/u/mine", "@/ns/f",
     Errno::kEACCES, true},
    // unlink, and UnlinkAt four ways
    {"unlink existing", MutOp::kUnlink, "@/f", "", Errno::kOk},
    {"unlink just unlinked", MutOp::kUnlink, "@/gone", "", Errno::kENOENT},
    {"unlink missing parent", MutOp::kUnlink, "@/nope/f", "", Errno::kENOENT},
    {"unlink file parent", MutOp::kUnlink, "@/f/x", "", Errno::kENOTDIR},
    {"unlink directory", MutOp::kUnlink, "@/d", "", Errno::kEISDIR},
    {"unlink unwritable parent", MutOp::kUnlink, "@/nw/nope", "",
     Errno::kENOENT, true},
    {"unlink unsearchable parent", MutOp::kUnlink, "@/ns/nope", "",
     Errno::kEACCES, true},
    {"unlink read-only mount", MutOp::kUnlink, "/ro/nope", "", Errno::kEROFS},
    {"unlink read-only mount, unwritable parent", MutOp::kUnlink, "/ro/nope",
     "", Errno::kEROFS, true},
    {"unlink existing, unwritable parent", MutOp::kUnlink, "@/nw/f", "",
     Errno::kEACCES, true},
    {"unlink existing, read-only mount", MutOp::kUnlink, "/ro/f", "",
     Errno::kEROFS},
    {"unlink sticky, not owner", MutOp::kUnlink, "@/st/rootf", "",
     Errno::kEPERM, true},
    {"unlinkat dir fd", MutOp::kUnlink, "f", "", Errno::kOk, false,
     MutFd::kDir},
    {"unlinkat bad fd, relative", MutOp::kUnlink, "f", "", Errno::kEBADF,
     false, MutFd::kBad},
    {"unlinkat bad fd, absolute", MutOp::kUnlink, "@/f", "", Errno::kOk, false,
     MutFd::kBad},
    {"unlinkat file fd", MutOp::kUnlink, "f", "", Errno::kENOTDIR, false,
     MutFd::kFile},
    // rmdir
    {"rmdir existing", MutOp::kRmdir, "@/d", "", Errno::kOk},
    {"rmdir not empty", MutOp::kRmdir, "@/full", "", Errno::kENOTEMPTY},
    {"rmdir file", MutOp::kRmdir, "@/f", "", Errno::kENOTDIR},
    {"rmdir just unlinked", MutOp::kRmdir, "@/gone", "", Errno::kENOENT},
    {"rmdir missing parent", MutOp::kRmdir, "@/nope/d", "", Errno::kENOENT},
    {"rmdir file parent", MutOp::kRmdir, "@/f/d", "", Errno::kENOTDIR},
    {"rmdir unwritable parent", MutOp::kRmdir, "@/nw/nope", "",
     Errno::kENOENT, true},
    {"rmdir read-only mount", MutOp::kRmdir, "/ro/nope", "", Errno::kEROFS},
    {"rmdir existing, unwritable parent", MutOp::kRmdir, "@/nw/d", "",
     Errno::kEACCES, true},
    {"rmdir existing, read-only mount", MutOp::kRmdir, "/ro/d", "",
     Errno::kEROFS},
    {"rmdirat dir fd", MutOp::kRmdir, "d", "", Errno::kOk, false,
     MutFd::kDir},
    // rename(path, path2), and RenameAt four ways on either side
    {"rename to new name", MutOp::kRename, "@/f", "@/new", Errno::kOk},
    {"rename over existing", MutOp::kRename, "@/f", "@/g", Errno::kOk},
    {"rename across directories", MutOp::kRename, "@/f", "@/d/new",
     Errno::kOk},
    {"rename onto just-unlinked name", MutOp::kRename, "@/f", "@/gone",
     Errno::kOk},
    {"rename source just unlinked", MutOp::kRename, "@/gone", "@/new",
     Errno::kENOENT},
    {"rename source missing parent", MutOp::kRename, "@/nope/f", "@/new",
     Errno::kENOENT},
    {"rename target missing parent", MutOp::kRename, "@/f", "@/nope/new",
     Errno::kENOENT},
    {"rename source file parent", MutOp::kRename, "@/f/x", "@/new",
     Errno::kENOTDIR},
    {"rename target file parent", MutOp::kRename, "@/f", "@/g/new",
     Errno::kENOTDIR},
    {"rename source unwritable parent", MutOp::kRename, "@/nw/f", "@/u/new",
     Errno::kEACCES, true},
    {"rename target unwritable parent", MutOp::kRename, "@/u/mine",
     "@/nw/new", Errno::kEACCES, true},
    {"rename read-only mount", MutOp::kRename, "/ro/f", "/ro/new",
     Errno::kEROFS},
    {"rename across file systems", MutOp::kRename, "@/f", "/ro/new",
     Errno::kEXDEV},
    {"rename onto existing, unwritable parent", MutOp::kRename, "@/u/mine",
     "@/nw/f", Errno::kEACCES, true},
    {"rename onto existing, read-only mount", MutOp::kRename, "/ro/f",
     "/ro/g", Errno::kEROFS},
    {"rename directory into itself", MutOp::kRename, "@/d", "@/d/sub",
     Errno::kEINVAL},
    {"rename sticky, not owner", MutOp::kRename, "@/st/rootf", "@/st/moved",
     Errno::kEPERM, true},
    {"rename onto sticky, not owner of target", MutOp::kRename, "@/u/mine",
     "@/st/rootf", Errno::kEPERM, true},
    {"rename source missing, unwritable parent", MutOp::kRename, "@/nw/nope",
     "@/u/new", Errno::kENOENT, true},
    {"rename unwritable directory to another parent", MutOp::kRename,
     "@/u/rd", "@/st/rd", Errno::kEACCES, true},
    {"rename unwritable directory within its parent", MutOp::kRename,
     "@/u/rd", "@/u/rd2", Errno::kOk, true},
    {"renameat old dir fd", MutOp::kRename, "f", "@/new", Errno::kOk, false,
     MutFd::kDir},
    {"renameat old bad fd, relative", MutOp::kRename, "f", "@/new",
     Errno::kEBADF, false, MutFd::kBad},
    {"renameat old bad fd, absolute", MutOp::kRename, "@/f", "@/new",
     Errno::kOk, false, MutFd::kBad},
    {"renameat old file fd", MutOp::kRename, "f", "@/new", Errno::kENOTDIR,
     false, MutFd::kFile},
    {"renameat new dir fd", MutOp::kRename, "@/f", "new", Errno::kOk, false,
     MutFd::kCwd, MutFd::kDir},
    {"renameat new bad fd, relative", MutOp::kRename, "@/f", "new",
     Errno::kEBADF, false, MutFd::kCwd, MutFd::kBad},
    {"renameat new bad fd, absolute", MutOp::kRename, "@/f", "@/new",
     Errno::kOk, false, MutFd::kCwd, MutFd::kBad},
    {"renameat new file fd", MutOp::kRename, "@/f", "new", Errno::kENOTDIR,
     false, MutFd::kCwd, MutFd::kFile},
    {"renameat new bad fd before a missing source", MutOp::kRename,
     "@/nope/f", "new", Errno::kEBADF, false, MutFd::kCwd, MutFd::kBad},
    // chmod
    {"chmod file", MutOp::kChmod, "@/f", "", Errno::kOk},
    {"chmod directory", MutOp::kChmod, "@/d", "", Errno::kOk},
    {"chmod missing", MutOp::kChmod, "@/nope", "", Errno::kENOENT},
    {"chmod just unlinked", MutOp::kChmod, "@/gone", "", Errno::kENOENT},
    {"chmod file parent", MutOp::kChmod, "@/f/x", "", Errno::kENOTDIR},
    {"chmod not owner", MutOp::kChmod, "@/f", "", Errno::kEPERM, true},
    {"chmod owner", MutOp::kChmod, "@/u/mine", "", Errno::kOk, true},
    {"chmod read-only mount", MutOp::kChmod, "/ro/f", "", Errno::kEROFS},
    {"chmod not owner, read-only mount", MutOp::kChmod, "/ro/f", "",
     Errno::kEROFS, true},
    // chown
    {"chown file", MutOp::kChown, "@/f", "", Errno::kOk},
    {"chown directory", MutOp::kChown, "@/d", "", Errno::kOk},
    {"chown missing", MutOp::kChown, "@/nope", "", Errno::kENOENT},
    {"chown not owner", MutOp::kChown, "@/f", "", Errno::kEPERM, true},
    {"chown owner, own group", MutOp::kChown, "@/u/mine", "", Errno::kOk,
     true},
    {"chown owner, foreign group", MutOp::kChownGroup, "@/u/mine", "",
     Errno::kEPERM, true},
    {"chown read-only mount", MutOp::kChown, "/ro/f", "", Errno::kEROFS},
    {"chown not owner, read-only mount", MutOp::kChown, "/ro/f", "",
     Errno::kEROFS, true},
    // SetSecurityLabel (no read-only check)
    {"relabel file", MutOp::kLabel, "@/f", "", Errno::kOk},
    {"relabel directory", MutOp::kLabel, "@/d", "", Errno::kOk},
    {"relabel missing", MutOp::kLabel, "@/nope", "", Errno::kENOENT},
    {"relabel not root", MutOp::kLabel, "@/f", "", Errno::kEPERM, true},
    {"relabel missing, not root", MutOp::kLabel, "@/nope", "",
     Errno::kENOENT, true},
    {"relabel read-only mount", MutOp::kLabel, "/ro/f", "", Errno::kOk},
};

TEST_P(SyscallTest, MutationErrnoTable) {
  auto ro = std::make_shared<MemFs>();
  ASSERT_OK(ro->Create(ro->RootIno(), "f", FileType::kRegular, 0644, 0, 0));
  ASSERT_OK(ro->Create(ro->RootIno(), "g", FileType::kRegular, 0644, 0, 0));
  ASSERT_OK(ro->Create(ro->RootIno(), "d", FileType::kDirectory, 0755, 0, 0));
  ASSERT_OK(T().Mkdir("/ro"));
  MountFlags ro_flags;
  ro_flags.read_only = true;
  ASSERT_OK(T().Mount("/ro", ro, ro_flags));
  TaskPtr user = world_.UserTask(kUser, kUser);
  FileSystem* rootfs = T().root().dentry()->sb()->fs();

  int n = 0;
  for (const MutRow& row : kMutRows) {
    SCOPED_TRACE(row.what);
    const std::string at = "/t" + std::to_string(n++);
    MakeSandbox(T(), at);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    auto dirfd = T().Open(at, kORead | kODirectory);
    auto filefd = T().Open(at + "/f", kORead);
    ASSERT_OK(dirfd);
    ASSERT_OK(filefd);
    auto fd_of = [&](MutFd f) -> FdNum {
      switch (f) {
        case MutFd::kCwd:
          return kAtFdCwd;
        case MutFd::kDir:
          return *dirfd;
        case MutFd::kBad:
          return kUnusedFd;
        case MutFd::kFile:
          return *filefd;
      }
      return kAtFdCwd;
    };
    const std::string p1 = Expand(at, row.path);
    const std::string p2 = Expand(at, row.path2);
    const FdNum fd1 = fd_of(row.fd);
    const FdNum fd2 = fd_of(row.fd2);
    // The names whose parents a success changes: the created, removed or
    // renamed entry (for link and symlink the new name).
    const std::string a1 = AbsPath(at, row.fd, p1);
    const std::string a2 = AbsPath(at, row.fd2, p2);
    const std::string made = row.op == MutOp::kLink ? a2 : a1;
    auto lstat = [&](const std::string& p) {
      return T().Statx(kAtFdCwd, p, kAtSymlinkNoFollow);
    };
    auto before_made = lstat(made);
    auto before_parent = lstat(DirName(made));
    auto before_src = lstat(a1);
    auto before_parent2 = lstat(DirName(a2));

    Task& t = row.as_user ? *user : T();
    Status st;
    switch (row.op) {
      case MutOp::kCreat:
      case MutOp::kCreatExcl: {
        int flags = kOCreat | kORead;
        if (row.op == MutOp::kCreatExcl) {
          flags |= kOExcl;
        }
        auto fd = row.fd == MutFd::kCwd ? t.Open(p1, flags, 0644)
                                        : t.OpenAt(fd1, p1, flags, 0644);
        st = fd.ok() ? t.Close(*fd) : Status(fd.error());
        break;
      }
      case MutOp::kMkdir:
        st = row.fd == MutFd::kCwd ? t.Mkdir(p1) : t.MkdirAt(fd1, p1, 0755);
        break;
      case MutOp::kSymlink:
        st = t.Symlink(p2, p1);
        break;
      case MutOp::kLink:
        st = t.Link(p1, p2);
        break;
      case MutOp::kUnlink:
      case MutOp::kRmdir: {
        const bool rmdir = row.op == MutOp::kRmdir;
        if (row.fd != MutFd::kCwd) {
          st = t.UnlinkAt(fd1, p1, rmdir);
        } else {
          st = rmdir ? t.Rmdir(p1) : t.Unlink(p1);
        }
        break;
      }
      case MutOp::kRename:
        st = row.fd == MutFd::kCwd && row.fd2 == MutFd::kCwd
                 ? t.Rename(p1, p2)
                 : t.RenameAt(fd1, p1, fd2, p2);
        break;
      case MutOp::kChmod:
        st = t.Chmod(p1, 0600);
        break;
      case MutOp::kChown:
        st = t.Chown(p1, kUser, kUser);
        break;
      case MutOp::kChownGroup:
        st = t.Chown(p1, kUser, 4242);
        break;
      case MutOp::kLabel:
        st = t.SetSecurityLabel(p1, "relabeled");
        break;
    }
    EXPECT_EQ(st.error(), row.want)
        << "got " << st.error_name() << ", want " << ErrnoName(row.want);
    ASSERT_OK(T().Close(*dirfd));
    ASSERT_OK(T().Close(*filefd));
    if (!st.ok() || row.want != Errno::kOk) {
      continue;
    }

    // The parent as the cache serves it must agree with its file system.
    auto coherent = [&](const std::string& dir) {
      auto s = lstat(dir);
      ASSERT_OK(s);
      if (dir.rfind(at, 0) != 0) {
        return;  // only the sandbox's file system is checked
      }
      auto attr = rootfs->GetAttr(s->ino);
      ASSERT_OK(attr);
      EXPECT_EQ(s->nlink, attr->nlink) << dir;
      EXPECT_EQ(s->size, attr->size) << dir;
    };
    auto mtime_step = [&](const std::string& dir,
                          const Result<Stat>& before) -> uint64_t {
      auto s = lstat(dir);
      return s.ok() && before.ok() ? s->mtime - before->mtime : ~0ull;
    };
    switch (row.op) {
      case MutOp::kCreat:
      case MutOp::kCreatExcl:
      case MutOp::kMkdir:
      case MutOp::kSymlink:
      case MutOp::kLink: {
        const bool existed = before_made.ok();
        auto s = lstat(made);
        ASSERT_OK(s);
        const FileType want_type = row.op == MutOp::kMkdir
                                       ? FileType::kDirectory
                                   : row.op == MutOp::kSymlink
                                       ? FileType::kSymlink
                                       : FileType::kRegular;
        EXPECT_EQ(s->type, want_type);
        EXPECT_EQ(mtime_step(DirName(made), before_parent), existed ? 0u : 1u);
        auto parent = lstat(DirName(made));
        ASSERT_OK(parent);
        EXPECT_EQ(parent->nlink,
                  before_parent->nlink + (row.op == MutOp::kMkdir ? 1 : 0));
        coherent(DirName(made));
        if (row.op == MutOp::kLink) {
          EXPECT_EQ(s->ino, before_src->ino);
          EXPECT_EQ(s->nlink, before_src->nlink + 1);
        }
        break;
      }
      case MutOp::kUnlink:
      case MutOp::kRmdir: {
        EXPECT_ERR(lstat(a1), Errno::kENOENT);
        EXPECT_EQ(mtime_step(DirName(a1), before_parent), 1u);
        auto parent = lstat(DirName(a1));
        ASSERT_OK(parent);
        EXPECT_EQ(parent->nlink,
                  before_parent->nlink - (row.op == MutOp::kRmdir ? 1 : 0));
        coherent(DirName(a1));
        break;
      }
      case MutOp::kRename: {
        EXPECT_ERR(lstat(a1), Errno::kENOENT);
        auto s = lstat(a2);
        ASSERT_OK(s);
        EXPECT_EQ(s->ino, before_src->ino);
        EXPECT_EQ(s->type, before_src->type);
        if (DirName(a1) == DirName(a2)) {
          // Both the old and the new parent step it: the same inode twice.
          EXPECT_EQ(mtime_step(DirName(a1), before_parent), 2u);
        } else {
          EXPECT_EQ(mtime_step(DirName(a1), before_parent), 1u);
          EXPECT_EQ(mtime_step(DirName(a2), before_parent2), 1u);
          coherent(DirName(a2));
        }
        coherent(DirName(a1));
        break;
      }
      case MutOp::kChmod: {
        auto s = lstat(a1);
        ASSERT_OK(s);
        EXPECT_EQ(s->mode & kModePermMask, 0600);
        EXPECT_EQ(mtime_step(DirName(a1), before_parent), 0u);
        break;
      }
      case MutOp::kChown:
      case MutOp::kChownGroup: {
        auto s = lstat(a1);
        ASSERT_OK(s);
        EXPECT_EQ(s->uid, kUser);
        EXPECT_EQ(s->gid, kUser);
        break;
      }
      case MutOp::kLabel:
        EXPECT_OK(lstat(a1));
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SyscallTest,
    ::testing::Values(Variant::kBaseline, Variant::kOptimized,
                      Variant::kFastpathOnly, Variant::kDirCompleteOnly,
                      Variant::kNegativeOnly, Variant::kLexical,
                      Variant::kGlobalLockEra, Variant::kFineGrainedEra,
                      Variant::kBaselineMemfs, Variant::kOptimizedMemfs),
    [](const ::testing::TestParamInfo<Variant>& info) {
      switch (info.param) {
        case Variant::kBaseline:
          return "Baseline";
        case Variant::kOptimized:
          return "Optimized";
        case Variant::kFastpathOnly:
          return "FastpathOnly";
        case Variant::kDirCompleteOnly:
          return "DirCompleteOnly";
        case Variant::kNegativeOnly:
          return "NegativeOnly";
        case Variant::kLexical:
          return "Lexical";
        case Variant::kGlobalLockEra:
          return "GlobalLockEra";
        case Variant::kFineGrainedEra:
          return "FineGrainedEra";
        case Variant::kBaselineMemfs:
          return "BaselineMemfs";
        case Variant::kOptimizedMemfs:
          return "OptimizedMemfs";
      }
      return "Unknown";
    });

// --- errno surface ---------------------------------------------------------
// The batch ABI carries failures as negated errnos in `Cqe::res`
// (io_uring's convention). Every Errno the kernel can produce must
// round-trip through that encoding and come back out with the same
// unified `ErrnoName` spelling the Status surface uses.
TEST(ErrnoSurface, NegativeErrnoRoundTripsThroughCqe) {
  const Errno all[] = {
      Errno::kEPERM,   Errno::kENOENT, Errno::kEIO,     Errno::kEBADF,
      Errno::kEACCES,  Errno::kEBUSY,  Errno::kEEXIST,  Errno::kEXDEV,
      Errno::kENODEV,  Errno::kENOTDIR, Errno::kEISDIR, Errno::kEINVAL,
      Errno::kENFILE,  Errno::kEMFILE, Errno::kENOSPC,  Errno::kEROFS,
      Errno::kEMLINK,  Errno::kERANGE, Errno::kENAMETOOLONG,
      Errno::kENOTEMPTY, Errno::kELOOP, Errno::kEOVERFLOW, Errno::kESTALE,
  };
  for (Errno e : all) {
    server::Cqe c{};
    c.res = -static_cast<int32_t>(e);
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(c.error(), e);
    EXPECT_EQ(c.error_name(), ErrnoName(e));
    EXPECT_NE(c.error_name(), "E???") << static_cast<int>(e);
  }
  server::Cqe ok{};
  ok.res = 0;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.error(), Errno::kOk);
  server::Cqe fd{};
  fd.res = 42;  // a positive result (an fd, a readdir count) is success
  EXPECT_TRUE(fd.ok());
  EXPECT_EQ(fd.error(), Errno::kOk);
}

}  // namespace
}  // namespace dircache
