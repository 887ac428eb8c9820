// Path-walk edge cases on both kernels: name/path length limits, slash
// runs, dot chains, symlink depth, *at() semantics, the forced
// fastpath-miss worst case, and the slow walk's fallback causes.
#include <ostream>
#include <utility>
#include <vector>

#include "src/storage/remotefs.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

class WalkEdgeTest : public ::testing::TestWithParam<bool> {
 protected:
  WalkEdgeTest()
      : world_(GetParam() ? CacheConfig::Optimized()
                          : CacheConfig::Baseline()) {}
  Task& T() { return *world_.root; }
  TestWorld world_;
};

TEST_P(WalkEdgeTest, SlashRunsAndDotChainsNormalize) {
  ASSERT_OK(T().Mkdir("/a"));
  ASSERT_OK(T().Mkdir("/a/b"));
  auto fd = T().Open("/a/b/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  for (const char* p :
       {"//a/b/f", "/a//b//f", "/a/./b/./f", "/././a/b/f", "/a/b/f",
        "/a/././b/f"}) {
    EXPECT_OK(T().Statx(kAtFdCwd, p, 0));
    EXPECT_OK(T().Statx(kAtFdCwd, p, 0));  // cached round
  }
  EXPECT_OK(T().Statx(kAtFdCwd, "/a/b/", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/a/b/.", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/a/b/..", 0));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/a/b/f/.", 0), Errno::kENOTDIR);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/a/b/f/.", 0), Errno::kENOTDIR);  // cached round
}

TEST_P(WalkEdgeTest, NameAndPathLengthLimits) {
  std::string long_name(255, 'n');
  ASSERT_OK(T().Mkdir("/" + long_name));
  EXPECT_OK(T().Statx(kAtFdCwd, "/" + long_name, 0));
  std::string too_long(256, 'n');
  EXPECT_ERR(T().Mkdir("/" + too_long), Errno::kENAMETOOLONG);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/" + too_long, 0), Errno::kENAMETOOLONG);
  // Whole-path limit (PATH_MAX = 4096).
  std::string deep = "/" + long_name;
  std::string path(5000, 'x');
  EXPECT_ERR(T().Statx(kAtFdCwd, "/" + path, 0), Errno::kENAMETOOLONG);
}

TEST_P(WalkEdgeTest, EmptyAndRootPaths) {
  EXPECT_ERR(T().Statx(kAtFdCwd, "", 0), Errno::kENOENT);
  EXPECT_OK(T().Statx(kAtFdCwd, "/", 0));
  auto st = T().Statx(kAtFdCwd, "/", 0);
  ASSERT_OK(st);
  EXPECT_TRUE(st->IsDir());
  EXPECT_OK(T().Statx(kAtFdCwd, "///", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/..", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/../..", 0));
}

TEST_P(WalkEdgeTest, SymlinkChainsUpToDepthLimit) {
  auto fd = T().Open("/end", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  std::string prev = "/end";
  // 30 chained links resolve; beyond 40 fails.
  for (int i = 0; i < 30; ++i) {
    std::string link = "/l" + std::to_string(i);
    ASSERT_OK(T().Symlink(prev, link));
    prev = link;
  }
  EXPECT_OK(T().Statx(kAtFdCwd, prev, 0));
  EXPECT_OK(T().Statx(kAtFdCwd, prev, 0));
  for (int i = 30; i < 45; ++i) {
    std::string link = "/l" + std::to_string(i);
    ASSERT_OK(T().Symlink(prev, link));
    prev = link;
  }
  EXPECT_ERR(T().Statx(kAtFdCwd, prev, 0), Errno::kELOOP);
}

TEST_P(WalkEdgeTest, SymlinkWithEmbeddedDotDot) {
  ASSERT_OK(T().Mkdir("/p"));
  ASSERT_OK(T().Mkdir("/p/q"));
  ASSERT_OK(T().Mkdir("/p/r"));
  auto fd = T().Open("/p/r/goal", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Symlink("../r/goal", "/p/q/jump"));
  EXPECT_OK(T().Statx(kAtFdCwd, "/p/q/jump", 0));
  EXPECT_OK(T().Statx(kAtFdCwd, "/p/q/jump", 0));
}

TEST_P(WalkEdgeTest, DanglingSymlink) {
  ASSERT_OK(T().Symlink("/nowhere/far", "/dangle"));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/dangle", 0), Errno::kENOENT);
  EXPECT_ERR(T().Statx(kAtFdCwd, "/dangle", 0), Errno::kENOENT);
  EXPECT_OK(T().Statx(kAtFdCwd, "/dangle", kAtSymlinkNoFollow));
  EXPECT_ERR(T().Open("/dangle", kORead), Errno::kENOENT);
  // Creating the target repairs resolution.
  ASSERT_OK(T().Mkdir("/nowhere"));
  auto fd = T().Open("/nowhere/far", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_OK(T().Statx(kAtFdCwd, "/dangle", 0));
}

TEST_P(WalkEdgeTest, AtSyscallsFollowDirfdSemantics) {
  ASSERT_OK(T().Mkdir("/base"));
  ASSERT_OK(T().Mkdir("/base/sub"));
  auto fd = T().Open("/base/sub/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  auto dfd = T().Open("/base", kORead | kODirectory);
  ASSERT_OK(dfd);
  EXPECT_OK(T().FstatAt(*dfd, "sub/f", 0));
  EXPECT_OK(T().FstatAt(*dfd, "sub/f", 0));
  // Absolute paths ignore the dirfd.
  EXPECT_OK(T().FstatAt(*dfd, "/base/sub/f", 0));
  // kAtFdCwd resolves relative to the cwd.
  ASSERT_OK(T().Chdir("/base"));
  EXPECT_OK(T().FstatAt(kAtFdCwd, "sub/f", 0));
  ASSERT_OK(T().Chdir("/"));
  // A non-directory dirfd fails.
  auto ffd = T().Open("/base/sub/f", kORead);
  ASSERT_OK(ffd);
  EXPECT_ERR(T().FstatAt(*ffd, "x", 0), Errno::kENOTDIR);
  EXPECT_ERR(T().FstatAt(999, "x", 0), Errno::kEBADF);
  ASSERT_OK(T().MkdirAt(*dfd, "newdir"));
  EXPECT_OK(T().Statx(kAtFdCwd, "/base/newdir", 0));
  ASSERT_OK(T().UnlinkAt(*dfd, "newdir", /*rmdir=*/true));
}

TEST_P(WalkEdgeTest, ForcedFastpathMissAlwaysCorrect) {
  ASSERT_OK(T().Mkdir("/fm"));
  auto fd = T().Open("/fm/file", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().Statx(kAtFdCwd, "/fm/file", 0));
  PathWalker::force_fastpath_miss = true;
  for (int i = 0; i < 10; ++i) {
    EXPECT_OK(T().Statx(kAtFdCwd, "/fm/file", 0));
    EXPECT_ERR(T().Statx(kAtFdCwd, "/fm/none", 0), Errno::kENOENT);
  }
  PathWalker::force_fastpath_miss = false;
}

TEST_P(WalkEdgeTest, RenameAtAndReadLinkVariants) {
  ASSERT_OK(T().Mkdir("/ra"));
  auto dfd = T().Open("/ra", kORead | kODirectory);
  ASSERT_OK(dfd);
  auto fd = T().OpenAt(*dfd, "one", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  ASSERT_OK(T().RenameAt(*dfd, "one", *dfd, "two"));
  EXPECT_OK(T().FstatAt(*dfd, "two", 0));
  EXPECT_ERR(T().FstatAt(*dfd, "one", 0), Errno::kENOENT);
  ASSERT_OK(T().Symlink("two", "/ra/ln"));
  auto target = T().ReadLink("/ra/ln");
  ASSERT_OK(target);
  EXPECT_EQ(*target, "two");
  EXPECT_ERR(T().ReadLink("/ra/two"), Errno::kEINVAL);  // not a symlink
}

TEST_P(WalkEdgeTest, GetcwdTracksMoves) {
  ASSERT_OK(T().Mkdir("/w1"));
  ASSERT_OK(T().Mkdir("/w1/w2"));
  ASSERT_OK(T().Chdir("/w1/w2"));
  auto cwd = T().Getcwd();
  ASSERT_OK(cwd);
  EXPECT_EQ(*cwd, "/w1/w2");
  // Renaming an ancestor is reflected by getcwd (the dentry moved).
  ASSERT_OK(T().Rename("/w1", "/z1"));
  cwd = T().Getcwd();
  ASSERT_OK(cwd);
  EXPECT_EQ(*cwd, "/z1/w2");
  ASSERT_OK(T().Chdir("/"));
}

INSTANTIATE_TEST_SUITE_P(BothKernels, WalkEdgeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Optimized" : "Baseline";
                         });

// Slow-walk fallback causes. Each row resolves one path shape once with the
// fastpath skipped and pins the exact counter deltas and the outcome. Under
// kOptimistic a walk the optimistic mode cannot finish is counted once more
// as a retry, and its components and hits before the bail are counted on top
// of the locked walk's; under kFineGrained every walk is locked.
struct WalkCounts {
  uint64_t walks = 0;       // slowpath_walks
  uint64_t retries = 0;     // slowpath_retries
  uint64_t components = 0;  // slow_components
  uint64_t hits = 0;        // dcache_hits
  uint64_t misses = 0;      // dcache_misses
  bool operator==(const WalkCounts&) const = default;
};

void PrintTo(const WalkCounts& c, std::ostream* os) {
  *os << "{walks " << c.walks << ", retries " << c.retries << ", components "
      << c.components << ", hits " << c.hits << ", misses " << c.misses
      << "}";
}

WalkCounts ReadCounts(const CacheStats& s) {
  return {s.slowpath_walks.value(), s.slowpath_retries.value(),
          s.slow_components.value(), s.dcache_hits.value(),
          s.dcache_misses.value()};
}

WalkCounts Delta(const WalkCounts& after, const WalkCounts& before) {
  return {after.walks - before.walks, after.retries - before.retries,
          after.components - before.components, after.hits - before.hits,
          after.misses - before.misses};
}

struct FallbackRow {
  const char* name;
  std::vector<std::pair<std::string, int>> warm;  // resolved first
  std::string path;
  int wflags;
  Errno outcome;
  WalkCounts optimistic;  // under LockingMode::kOptimistic
  WalkCounts locked;      // under LockingMode::kFineGrained
};

class WalkFallbackTest : public ::testing::TestWithParam<LockingMode> {};

TEST_P(WalkFallbackTest, EachPathShapeFallsBackExactlyAsPinned) {
  const std::string long_name = "/a/" + std::string(256, 'n');
  const std::vector<FallbackRow> rows = {
      {"all cached", {{"/a/b/f", kWalkFollow}}, "/a/b/f", kWalkFollow,
       Errno::kOk, {1, 0, 3, 3, 0}, {1, 0, 3, 3, 0}},
      {"cold last component", {{"/a/b/f", kWalkFollow}}, "/a/b/cold",
       kWalkFollow, Errno::kOk, {1, 1, 6, 4, 1}, {1, 0, 3, 2, 1}},
      {"mid-path symlink", {{"/a/b/f", kWalkFollow}, {"/a/mid", 0}},
       "/a/mid/f", kWalkFollow, Errno::kOk, {1, 1, 6, 6, 0}, {1, 0, 4, 4, 0}},
      {"trailing symlink, no follow", {{"/a/b/ln", 0}}, "/a/b/ln", 0,
       Errno::kOk, {1, 0, 3, 3, 0}, {1, 0, 3, 3, 0}},
      {"trailing symlink, follow", {{"/a/b/ln", kWalkFollow}}, "/a/b/ln",
       kWalkFollow, Errno::kOk, {1, 1, 9, 9, 0}, {1, 0, 6, 6, 0}},
      {"readdir stub", {}, "/s/x", kWalkFollow, Errno::kOk, {1, 1, 4, 4, 0},
       {1, 0, 2, 2, 0}},
      {"intermediate regular file", {{"/a/b/f", kWalkFollow}}, "/a/b/f/x",
       kWalkFollow, Errno::kENOTDIR, {1, 1, 8, 6, 0}, {1, 0, 4, 3, 0}},
      {"cached deep-negative chain", {{"/a/nx/y/z", kWalkFollow}},
       "/a/nx/y/z", kWalkFollow, Errno::kENOENT, {1, 0, 4, 4, 0},
       {1, 0, 2, 2, 0}},
      {"stateless RemoteFs", {{"/net/dir/file", kWalkFollow}},
       "/net/dir/file", kWalkFollow, Errno::kOk, {1, 1, 5, 4, 0},
       {1, 0, 3, 3, 0}},
      {".. across a mount root", {{"/a/b/f", kWalkFollow}, {"/m", 0}},
       "/m/../a/b/f", kWalkFollow, Errno::kOk, {1, 0, 5, 4, 0},
       {1, 0, 5, 4, 0}},
      {"name over 255 bytes", {{"/a/b/f", kWalkFollow}}, long_name,
       kWalkFollow, Errno::kENAMETOOLONG, {1, 0, 2, 1, 0}, {1, 0, 2, 1, 0}},
  };
  for (const FallbackRow& row : rows) {
    SCOPED_TRACE(row.name);
    CacheConfig cfg = CacheConfig::Optimized();
    cfg.locking = GetParam();
    TestWorld world(cfg);
    Task& t = *world.root;
    auto touch = [&](const char* path) {
      auto fd = t.Open(path, kOCreat | kOWrite);
      ASSERT_OK(fd);
      ASSERT_OK(t.Close(*fd));
    };
    ASSERT_OK(t.Mkdir("/a"));
    ASSERT_OK(t.Mkdir("/a/b"));
    touch("/a/b/f");
    touch("/a/b/cold");
    ASSERT_OK(t.Symlink("b", "/a/mid"));
    ASSERT_OK(t.Symlink("/a/b/f", "/a/b/ln"));
    ASSERT_OK(t.Mkdir("/s"));
    touch("/s/x");
    ASSERT_OK(t.Mkdir("/m"));
    ASSERT_OK(t.Mount("/m", std::make_shared<MemFs>()));
    RemoteFs::Options remote;
    remote.protocol = RemoteProtocol::kStateless;
    ASSERT_OK(t.Mkdir("/net"));
    ASSERT_OK(t.Mount("/net", std::make_shared<RemoteFs>(remote)));
    ASSERT_OK(t.Mkdir("/net/dir"));
    touch("/net/dir/file");
    world.kernel->DropCaches();
    // Listing /s to EOF leaves /s/x a readdir stub (§5.1).
    auto dfd = t.Open("/s", kORead | kODirectory);
    ASSERT_OK(dfd);
    ASSERT_OK(t.ReadDirFd(*dfd));
    ASSERT_OK(t.Close(*dfd));

    PathWalker walker(world.kernel.get());
    PathWalker::force_fastpath_miss = true;
    for (const auto& [path, wflags] : row.warm) {
      (void)walker.Resolve(t, nullptr, path, wflags);
    }
    const WalkCounts before = ReadCounts(world.kernel->stats());
    auto r = walker.Resolve(t, nullptr, row.path, row.wflags);
    const WalkCounts got =
        Delta(ReadCounts(world.kernel->stats()), before);
    PathWalker::force_fastpath_miss = false;
    EXPECT_EQ(r.error(), row.outcome) << "got " << r.error_name();
    EXPECT_EQ(got, GetParam() == LockingMode::kOptimistic ? row.optimistic
                                                          : row.locked);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SlowModes, WalkFallbackTest,
    ::testing::Values(LockingMode::kOptimistic, LockingMode::kFineGrained),
    [](const ::testing::TestParamInfo<LockingMode>& info) {
      return info.param == LockingMode::kOptimistic ? "Optimistic"
                                                    : "FineGrained";
    });

}  // namespace
}  // namespace dircache
