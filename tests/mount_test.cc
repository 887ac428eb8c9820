// Mount points, bind mounts (aliases), pseudo file systems, namespaces,
// and chroot (§4.3).
#include <functional>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace dircache {
namespace {

class MountTest : public ::testing::TestWithParam<bool> {
 protected:
  MountTest()
      : world_(GetParam() ? CacheConfig::Optimized()
                          : CacheConfig::Baseline()) {}
  Task& T() { return *world_.root; }
  TestWorld world_;
};

TEST_P(MountTest, MountAndCrossInto) {
  ASSERT_OK(T().Mkdir("/mnt"));
  auto fs = std::make_shared<MemFs>();
  ASSERT_OK(fs->Create(MemFs::kRootIno, "inside", FileType::kRegular, 0644,
                       0, 0));
  ASSERT_OK(T().Mount("/mnt", fs));
  auto st = T().Statx(kAtFdCwd, "/mnt/inside", 0);
  ASSERT_OK(st);
  EXPECT_OK(T().Statx(kAtFdCwd, "/mnt/inside", 0));  // repeat: fastpath crossing
  // The mount root's stat shows the mounted FS, not the covered dir.
  auto root_st = T().Statx(kAtFdCwd, "/mnt", 0);
  ASSERT_OK(root_st);
  EXPECT_EQ(root_st->ino, MemFs::kRootIno);
  EXPECT_NE(root_st->dev, 1u);  // different superblock than the root FS
}

TEST_P(MountTest, MountShadowsCoveredContents) {
  ASSERT_OK(T().Mkdir("/cover"));
  auto fd = T().Open("/cover/original", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Statx(kAtFdCwd, "/cover/original", 0));
  ASSERT_OK(T().Statx(kAtFdCwd, "/cover/original", 0));  // warm the caches
  ASSERT_OK(T().Mount("/cover", std::make_shared<MemFs>()));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/cover/original", 0), Errno::kENOENT);
  // Unmount restores visibility.
  ASSERT_OK(T().Umount("/cover"));
  EXPECT_OK(T().Statx(kAtFdCwd, "/cover/original", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/cover/original", 0));
}

TEST_P(MountTest, ReadOnlyMountRejectsWrites) {
  ASSERT_OK(T().Mkdir("/ro"));
  MountFlags flags;
  flags.read_only = true;
  auto fs = std::make_shared<MemFs>();
  ASSERT_OK(fs->Create(MemFs::kRootIno, "f", FileType::kRegular, 0644, 0,
                       0));
  ASSERT_OK(T().Mount("/ro", fs, flags));
  EXPECT_ERR(T().Open("/ro/new", kOCreat | kOWrite), Errno::kEROFS);
  EXPECT_ERR(T().Open("/ro/f", kOWrite), Errno::kEROFS);
  EXPECT_ERR(T().Unlink("/ro/f"), Errno::kEROFS);
  EXPECT_ERR(T().Mkdir("/ro/d"), Errno::kEROFS);
  EXPECT_OK(T().Open("/ro/f", kORead));
}

TEST_P(MountTest, BindMountAliasesContent) {
  ASSERT_OK(T().Mkdir("/data"));
  ASSERT_OK(T().Mkdir("/view"));
  auto fd = T().Open("/data/file", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "shared"));
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().BindMount("/data", "/view"));
  auto st1 = T().Statx(kAtFdCwd, "/data/file", 0);
  auto st2 = T().Statx(kAtFdCwd, "/view/file", 0);
  ASSERT_OK(st1);
  ASSERT_OK(st2);
  EXPECT_EQ(st1->ino, st2->ino);
  // Alternate between alias paths: the most-recent-path rule (§4.3) must
  // keep both correct.
  for (int i = 0; i < 4; ++i) {
    EXPECT_OK(T().Statx(kAtFdCwd, i % 2 != 0 ? "/data/file" : "/view/file", 0));
  }
  // A write through the alias is visible through the origin.
  fd = T().Open("/view/file", kOWrite | kOTrunc);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "updated!"));
  ASSERT_OK(T().Close(*fd));
  auto st3 = T().Statx(kAtFdCwd, "/data/file", 0);
  ASSERT_OK(st3);
  EXPECT_EQ(st3->size, 8u);
}

TEST_P(MountTest, StackedMountsShadowAndUnwind) {
  ASSERT_OK(T().Mkdir("/m1"));
  auto fs1 = std::make_shared<MemFs>();
  auto fs2 = std::make_shared<MemFs>();
  ASSERT_OK(fs1->Create(MemFs::kRootIno, "one", FileType::kRegular, 0644, 0,
                        0));
  ASSERT_OK(fs2->Create(MemFs::kRootIno, "two", FileType::kRegular, 0644, 0,
                        0));
  ASSERT_OK(T().Mount("/m1", fs1));
  // Mounting again stacks on top (Linux semantics) and shadows fs1.
  ASSERT_OK(T().Mount("/m1", fs2));
  EXPECT_OK(T().Statx(kAtFdCwd, "/m1/two", 0));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/m1/one", 0), Errno::kENOENT);
  ASSERT_OK(T().Umount("/m1"));
  EXPECT_OK(T().Statx(kAtFdCwd, "/m1/one", 0));
  EXPECT_ERR(T().Umount("/"), Errno::kEINVAL);
  ASSERT_OK(T().Umount("/m1"));
}

TEST_P(MountTest, NamespaceIsolation) {
  ASSERT_OK(T().Mkdir("/shared"));
  ASSERT_OK(T().Mkdir("/private"));
  auto fd = T().Open("/shared/base", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));

  TaskPtr isolated = T().Fork();
  ASSERT_OK(isolated->UnshareMountNs());
  auto fs = std::make_shared<MemFs>();
  ASSERT_OK(fs->Create(MemFs::kRootIno, "secret", FileType::kRegular, 0644,
                       0, 0));
  ASSERT_OK(isolated->Mount("/private", fs));
  // Visible inside the namespace...
  EXPECT_OK(isolated->Statx(kAtFdCwd, "/private/secret", 0));
  EXPECT_OK(isolated->Statx(kAtFdCwd, "/private/secret", 0));
  // ...but not outside (the host namespace has no such mount).
  EXPECT_ERR(T().Statx(kAtFdCwd, "/private/secret", 0), Errno::kENOENT);
  // Shared underlying files remain visible to both.
  EXPECT_OK(isolated->Statx(kAtFdCwd, "/shared/base", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/shared/base", 0));
}

TEST_P(MountTest, SamePathDifferentNamespacesDifferentFiles) {
  ASSERT_OK(T().Mkdir("/app"));
  TaskPtr ns1 = T().Fork();
  ASSERT_OK(ns1->UnshareMountNs());
  TaskPtr ns2 = T().Fork();
  ASSERT_OK(ns2->UnshareMountNs());
  auto fs1 = std::make_shared<MemFs>();
  auto fs2 = std::make_shared<MemFs>();
  ASSERT_OK(fs1->Create(MemFs::kRootIno, "cfg", FileType::kRegular, 0644, 0,
                        0));
  ASSERT_OK(fs2->Create(MemFs::kRootIno, "cfg", FileType::kRegular, 0644, 0,
                        0));
  ASSERT_OK(ns1->Mount("/app", fs1));
  ASSERT_OK(ns2->Mount("/app", fs2));
  auto st1 = ns1->Statx(kAtFdCwd, "/app/cfg", 0);
  auto st2 = ns2->Statx(kAtFdCwd, "/app/cfg", 0);
  ASSERT_OK(st1);
  ASSERT_OK(st2);
  EXPECT_NE(st1->dev, st2->dev);  // same path, different files (§4.3)
  // Warm both, re-check: the per-namespace DLHTs must not cross-talk.
  for (int i = 0; i < 3; ++i) {
    auto r1 = ns1->Statx(kAtFdCwd, "/app/cfg", 0);
    auto r2 = ns2->Statx(kAtFdCwd, "/app/cfg", 0);
    ASSERT_OK(r1);
    ASSERT_OK(r2);
    EXPECT_NE(r1->dev, r2->dev);
  }
}

TEST_P(MountTest, ChrootConfinesAndResolvesFromNewRoot) {
  ASSERT_OK(T().Mkdir("/jail"));
  ASSERT_OK(T().Mkdir("/jail/etc"));
  auto fd = T().Open("/jail/etc/conf", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  fd = T().Open("/outside", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));

  TaskPtr jailed = T().Fork();
  ASSERT_OK(jailed->Chroot("/jail"));
  EXPECT_OK(jailed->Statx(kAtFdCwd, "/etc/conf", 0));
  EXPECT_OK(jailed->Statx(kAtFdCwd, "/etc/conf", 0));
  EXPECT_ERR(jailed->Statx(kAtFdCwd, "/outside", 0), Errno::kENOENT);
  EXPECT_ERR(jailed->Statx(kAtFdCwd, "/../outside", 0), Errno::kENOENT);
  // The host keeps its view.
  EXPECT_OK(T().Statx(kAtFdCwd, "/outside", 0));
  // And the same literal path means different things (chroot-aware
  // signatures).
  EXPECT_ERR(jailed->Statx(kAtFdCwd, "/jail/etc/conf", 0), Errno::kENOENT);
}

TEST_P(MountTest, MountAliasSameInstanceTwice) {
  // proc-style: one FS instance mounted at two places (§4.3).
  ASSERT_OK(T().Mkdir("/proc1"));
  ASSERT_OK(T().Mkdir("/proc2"));
  auto proc = std::make_shared<MemFs>();
  ASSERT_OK(proc->Create(MemFs::kRootIno, "version", FileType::kRegular,
                         0444, 0, 0));
  ASSERT_OK(T().Mount("/proc1", proc));
  ASSERT_OK(T().Mount("/proc2", proc));
  auto st1 = T().Statx(kAtFdCwd, "/proc1/version", 0);
  auto st2 = T().Statx(kAtFdCwd, "/proc2/version", 0);
  ASSERT_OK(st1);
  ASSERT_OK(st2);
  EXPECT_EQ(st1->ino, st2->ino);
  EXPECT_EQ(st1->dev, st2->dev);  // same superblock: a true alias
  // Ping-pong between the aliases; §4.3's one-DLHT-entry rule must keep
  // every answer correct.
  for (int i = 0; i < 6; ++i) {
    auto st = T().Statx(kAtFdCwd, i % 2 != 0 ? "/proc1/version" : "/proc2/version", 0);
    ASSERT_OK(st);
    EXPECT_EQ(st->ino, st1->ino);
  }
}

TEST_P(MountTest, EachMountTableChangeRunsOnePass) {
  // One coherence section spans each mount-table edit, so a mount, a bind
  // mount and an umount each run one invalidation pass on the fastpath
  // kernel (none without it), and that pass retires the warm entries.
  ASSERT_OK(T().Mkdir("/src"));
  ASSERT_OK(T().Mkdir("/mnt"));
  auto fd = T().Open("/mnt/covered", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Statx(kAtFdCwd, "/mnt/covered", 0));
  ASSERT_OK(T().Statx(kAtFdCwd, "/mnt/covered", 0));  // warm
  const uint64_t want = GetParam() ? 1 : 0;
  auto passes = [&](const std::function<Status()>& change) {
    const uint64_t before = world_.kernel->stats().invalidation_walks.value();
    EXPECT_OK(change());
    return world_.kernel->stats().invalidation_walks.value() - before;
  };
  auto fs = std::make_shared<MemFs>();
  EXPECT_EQ(passes([&] { return T().Mount("/mnt", fs); }), want);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/mnt/covered", 0), Errno::kENOENT);
  EXPECT_EQ(passes([&] { return T().BindMount("/mnt", "/src"); }), want);
  EXPECT_EQ(passes([&] { return T().Umount("/src"); }), want);
  EXPECT_EQ(passes([&] { return T().Umount("/mnt"); }), want);
  EXPECT_OK(T().Statx(kAtFdCwd, "/mnt/covered", 0));
}

INSTANTIATE_TEST_SUITE_P(BothKernels, MountTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Optimized" : "Baseline";
                         });

}  // namespace
}  // namespace dircache
