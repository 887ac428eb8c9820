// Aggressive negative-dentry caching (§5.2): negatives after unlink and
// rename, pseudo-FS negatives, deep negative chains, ENOTDIR chains, and
// their coherence with later creations.
#include "src/vfs/walk.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

class NegativeTest : public ::testing::Test {
 protected:
  NegativeTest() : world_(CacheConfig::Optimized()) {}
  Task& T() { return *world_.root; }
  CacheStats& stats() { return world_.kernel->stats(); }
  TestWorld world_;
};

TEST_F(NegativeTest, UnlinkLeavesNegativeDentry) {
  auto fd = T().Open("/lockfile", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Unlink("/lockfile"));
  uint64_t neg_before = stats().negative_hits.value();
  uint64_t misses_before = stats().dcache_misses.value();
  EXPECT_ERR(T().Statx(kAtFdCwd, "/lockfile", 0), Errno::kENOENT);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/lockfile", 0), Errno::kENOENT);
  // Both stats were answered from cached state, no FS consultation.
  EXPECT_EQ(stats().dcache_misses.value(), misses_before);
  EXPECT_GE(stats().negative_hits.value() +
                world_.kernel->stats().fastpath_hits.value(),
            neg_before + 1);
  // The Emacs-backup pattern: recreate over the negative.
  fd = T().Open("/lockfile", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_OK(T().Statx(kAtFdCwd, "/lockfile", 0));
}

TEST_F(NegativeTest, UnlinkOfOpenFileStillCachesNegative) {
  auto fd = T().Open("/busy", kOCreat | kORdWr);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "still here"));
  ASSERT_OK(T().Unlink("/busy"));  // file is open: inode must live on
  uint64_t misses_before = stats().dcache_misses.value();
  EXPECT_ERR(T().Statx(kAtFdCwd, "/busy", 0), Errno::kENOENT);
  EXPECT_EQ(stats().dcache_misses.value(), misses_before);
  // The open handle keeps working (paper: "unlink of a file still in use").
  auto st = T().Fstat(*fd);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 10u);
  ASSERT_OK(T().Close(*fd));
}

TEST_F(NegativeTest, RenameSourceBecomesNegative) {
  auto fd = T().Open("/old", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Rename("/old", "/new"));
  uint64_t misses_before = stats().dcache_misses.value();
  EXPECT_ERR(T().Statx(kAtFdCwd, "/old", 0), Errno::kENOENT);
  EXPECT_EQ(stats().dcache_misses.value(), misses_before);
}

TEST_F(NegativeTest, PseudoFsGetsNegativesWhenEnabled) {
  ASSERT_OK(T().Mkdir("/proc"));
  ASSERT_OK(T().Mount("/proc", std::make_shared<MemFs>()));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/proc/no_such_node", 0), Errno::kENOENT);
  uint64_t misses_before = stats().dcache_misses.value();
  EXPECT_ERR(T().Statx(kAtFdCwd, "/proc/no_such_node", 0), Errno::kENOENT);
  // §5.2: with the optimization, the repeat is served from the cache even
  // though MemFs declines negative dentries by default.
  EXPECT_EQ(stats().dcache_misses.value(), misses_before);
}

TEST_F(NegativeTest, BaselinePseudoFsSkipsNegatives) {
  TestWorld baseline(CacheConfig::Baseline());
  Task& t = *baseline.root;
  ASSERT_OK(t.Mkdir("/proc"));
  ASSERT_OK(t.Mount("/proc", std::make_shared<MemFs>()));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/proc/nothing", 0), Errno::kENOENT);
  uint64_t misses_before = baseline.kernel->stats().dcache_misses.value();
  EXPECT_ERR(t.Statx(kAtFdCwd, "/proc/nothing", 0), Errno::kENOENT);
  // Baseline Linux behaviour: every miss goes back to the pseudo FS.
  EXPECT_GT(baseline.kernel->stats().dcache_misses.value(), misses_before);
}

TEST_F(NegativeTest, DeepNegativeChainsAnswerFullPaths) {
  ASSERT_OK(T().Mkdir("/lib"));
  // LD_LIBRARY_PATH-style probing of a nonexistent subtree.
  EXPECT_ERR(T().Statx(kAtFdCwd, "/lib/arch/x86/libfoo.so", 0), Errno::kENOENT);
  uint64_t misses_before = stats().dcache_misses.value();
  uint64_t fast_before = stats().fastpath_hits.value();
  EXPECT_ERR(T().Statx(kAtFdCwd, "/lib/arch/x86/libfoo.so", 0), Errno::kENOENT);
  EXPECT_EQ(stats().dcache_misses.value(), misses_before);
  EXPECT_EQ(stats().fastpath_hits.value(), fast_before + 1);
  // Intermediate prefixes are cached too.
  EXPECT_ERR(T().Statx(kAtFdCwd, "/lib/arch", 0), Errno::kENOENT);
  EXPECT_EQ(stats().dcache_misses.value(), misses_before);
}

TEST_F(NegativeTest, CreatingIntermediateInvalidatesDeepChain) {
  ASSERT_OK(T().Mkdir("/base"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/base/sub/leaf", 0), Errno::kENOENT);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/base/sub/leaf", 0), Errno::kENOENT);  // cached
  ASSERT_OK(T().Mkdir("/base/sub"));
  // The chain under "sub" referred to a nonexistent directory; now that it
  // exists (empty), the leaf is still ENOENT — but for the right reason.
  EXPECT_ERR(T().Statx(kAtFdCwd, "/base/sub/leaf", 0), Errno::kENOENT);
  auto fd = T().Open("/base/sub/leaf", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_OK(T().Statx(kAtFdCwd, "/base/sub/leaf", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/base/sub/leaf", 0));
}

TEST_F(NegativeTest, EnotdirChainsUnderRegularFiles) {
  auto fd = T().Open("/notadir", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/notadir/x/y", 0), Errno::kENOTDIR);
  uint64_t misses_before = stats().dcache_misses.value();
  EXPECT_ERR(T().Statx(kAtFdCwd, "/notadir/x/y", 0), Errno::kENOTDIR);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/notadir/x", 0), Errno::kENOTDIR);
  EXPECT_EQ(stats().dcache_misses.value(), misses_before);
  // Replacing the file with a directory flips the answers.
  ASSERT_OK(T().Unlink("/notadir"));
  ASSERT_OK(T().Mkdir("/notadir"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/notadir/x", 0), Errno::kENOENT);
}

TEST_F(NegativeTest, DeepNegativeLimitBoundsChainLength) {
  ASSERT_OK(T().Mkdir("/top"));
  std::string deep = "/top";
  for (size_t i = 0; i < 2 * kDeepNegativeLimit; ++i) {
    deep += "/n" + std::to_string(i);
  }
  size_t before = world_.kernel->dcache().dentry_count();
  EXPECT_ERR(T().Statx(kAtFdCwd, deep, 0), Errno::kENOENT);
  // Chain creation stopped at the limit: at most limit+1 new dentries.
  EXPECT_LE(world_.kernel->dcache().dentry_count(),
            before + kDeepNegativeLimit + 1);
}

TEST_F(NegativeTest, NegativesDoNotLeakAcrossPermissions) {
  // A cached ENOENT must not be revealed to a cred lacking search
  // permission on the prefix.
  ASSERT_OK(T().Mkdir("/secret", 0700));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/secret/ghost", 0), Errno::kENOENT);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/secret/ghost", 0), Errno::kENOENT);  // cached
  TaskPtr mallory = world_.UserTask(1003, 1003);
  EXPECT_ERR(mallory->Statx(kAtFdCwd, "/secret/ghost", 0), Errno::kEACCES);
}

}  // namespace
}  // namespace dircache
