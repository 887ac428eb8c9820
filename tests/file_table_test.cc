// File-descriptor table and open-file semantics: fd reuse, per-fd offsets,
// independent descriptions, pread/pwrite, append, dirfd lifetime across
// renames, and fd exhaustion behaviour.
#include "tests/test_util.h"

namespace dircache {
namespace {

class FileTableTest : public ::testing::TestWithParam<bool> {
 protected:
  FileTableTest()
      : world_(GetParam() ? CacheConfig::Optimized()
                          : CacheConfig::Baseline()) {}
  Task& T() { return *world_.root; }
  TestWorld world_;
};

TEST_P(FileTableTest, FdNumbersAreReusedLowestFirst) {
  auto a = T().Open("/a", kOCreat | kOWrite);
  auto b = T().Open("/b", kOCreat | kOWrite);
  auto c = T().Open("/c", kOCreat | kOWrite);
  ASSERT_OK(a);
  ASSERT_OK(b);
  ASSERT_OK(c);
  EXPECT_EQ(T().open_files(), 3u);
  ASSERT_OK(T().Close(*b));
  auto d = T().Open("/d", kOCreat | kOWrite);
  ASSERT_OK(d);
  EXPECT_EQ(*d, *b);  // lowest free slot reused
  EXPECT_ERR(T().Close(999), Errno::kEBADF);
  EXPECT_ERR(T().Close(-1), Errno::kEBADF);
  ASSERT_OK(T().Close(*a));
  EXPECT_ERR(T().Close(*a), Errno::kEBADF);  // double close
}

TEST_P(FileTableTest, LowestFreeDescriptorAfterManyCloses) {
  for (FdNum i = 0; i < 200; ++i) {
    auto fd = T().Open("/many", kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_EQ(*fd, i);
  }
  ASSERT_OK(T().Close(37));
  ASSERT_OK(T().Close(5));
  for (FdNum want : {5, 37, 200}) {
    auto fd = T().Open("/many", kOWrite);
    ASSERT_OK(fd);
    EXPECT_EQ(*fd, want);
  }
  EXPECT_EQ(T().open_files(), 201u);
}

TEST_P(FileTableTest, IndependentOffsetsPerDescription) {
  auto w = T().Open("/data", kOCreat | kOWrite);
  ASSERT_OK(w);
  ASSERT_OK(T().WriteFd(*w, "abcdefghij"));
  ASSERT_OK(T().Close(*w));
  auto r1 = T().Open("/data", kORead);
  auto r2 = T().Open("/data", kORead);
  ASSERT_OK(r1);
  ASSERT_OK(r2);
  std::string buf;
  ASSERT_OK(T().ReadFd(*r1, 3, &buf));
  EXPECT_EQ(buf, "abc");
  ASSERT_OK(T().ReadFd(*r2, 5, &buf));
  EXPECT_EQ(buf, "abcde");  // r2 unaffected by r1's reads
  ASSERT_OK(T().ReadFd(*r1, 3, &buf));
  EXPECT_EQ(buf, "def");
}

TEST_P(FileTableTest, PreadPwriteIgnoreOffset) {
  auto fd = T().Open("/p", kOCreat | kORdWr);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "0000000000"));
  ASSERT_OK(T().Pwrite(*fd, 4, "XY"));
  std::string buf;
  ASSERT_OK(T().Pread(*fd, 3, 4, &buf));
  EXPECT_EQ(buf, "0XY0");
  // The fd offset is untouched by pread/pwrite.
  ASSERT_OK(T().Lseek(*fd, 0));
  ASSERT_OK(T().ReadFd(*fd, 10, &buf));
  EXPECT_EQ(buf, "0000XY0000");
}

TEST_P(FileTableTest, ReadRequiresReadWriteRequiresWrite) {
  auto ro = T().Open("/rw", kOCreat | kORead);
  ASSERT_OK(ro);
  EXPECT_ERR(T().WriteFd(*ro, "x"), Errno::kEBADF);
  auto wo = T().Open("/rw", kOWrite);
  ASSERT_OK(wo);
  std::string buf;
  EXPECT_ERR(T().ReadFd(*wo, 1, &buf), Errno::kEBADF);
}

TEST_P(FileTableTest, AppendAlwaysWritesAtEnd) {
  auto fd = T().Open("/log", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "first"));
  ASSERT_OK(T().Close(*fd));
  auto a1 = T().Open("/log", kOWrite | kOAppend);
  ASSERT_OK(a1);
  ASSERT_OK(T().Lseek(*a1, 0));            // ignored by append writes
  ASSERT_OK(T().WriteFd(*a1, "+second"));
  auto st = T().Statx(kAtFdCwd, "/log", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 12u);
  std::string buf;
  auto r = T().Open("/log", kORead);
  ASSERT_OK(r);
  ASSERT_OK(T().ReadFd(*r, 64, &buf));
  EXPECT_EQ(buf, "first+second");
}

TEST_P(FileTableTest, DirfdSurvivesRenameOfItsDirectory) {
  ASSERT_OK(T().Mkdir("/olddir"));
  auto fd = T().Open("/olddir/inside", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  auto dfd = T().Open("/olddir", kORead | kODirectory);
  ASSERT_OK(dfd);
  ASSERT_OK(T().Rename("/olddir", "/newdir"));
  // The open handle tracks the dentry, not the name (POSIX).
  EXPECT_OK(T().FstatAt(*dfd, "inside", 0));
  EXPECT_ERR(T().Statx(kAtFdCwd, "/olddir/inside", 0), Errno::kENOENT);
  EXPECT_OK(T().Statx(kAtFdCwd, "/newdir/inside", 0));
}

TEST_P(FileTableTest, ForkDoesNotShareFdTable) {
  auto fd = T().Open("/mine", kOCreat | kOWrite);
  ASSERT_OK(fd);
  TaskPtr child = T().Fork();
  // Our Fork models a fresh process image without inherited descriptors
  // (exec-like); the child's table starts empty.
  EXPECT_EQ(child->open_files(), 0u);
  EXPECT_ERR(child->Close(*fd), Errno::kEBADF);
  ASSERT_OK(T().Close(*fd));
}

TEST_P(FileTableTest, TruncateViaOpenFlagAndSyscall) {
  auto fd = T().Open("/t", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().WriteFd(*fd, "0123456789"));
  ASSERT_OK(T().Close(*fd));
  auto tr = T().Open("/t", kOWrite | kOTrunc);
  ASSERT_OK(tr);
  auto st = T().Statx(kAtFdCwd, "/t", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 0u);
  ASSERT_OK(T().Close(*tr));
  EXPECT_ERR(T().Truncate("/nonexistent", 5), Errno::kENOENT);
  ASSERT_OK(T().Mkdir("/adir"));
  EXPECT_ERR(T().Truncate("/adir", 0), Errno::kEISDIR);
}

INSTANTIATE_TEST_SUITE_P(BothKernels, FileTableTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Optimized" : "Baseline";
                         });

}  // namespace
}  // namespace dircache
