// Workload library tests: tree generation determinism, application
// emulators' invariants, maildir semantics, web server output, and the
// latency harness.
#include <set>

#include "src/workload/apps.h"
#include "src/workload/latency.h"
#include "src/workload/maildir.h"
#include "src/workload/tree_gen.h"
#include "src/workload/webserver.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

TEST(TreeGenTest, DeterministicAndWellFormed) {
  TestWorld w1;
  TestWorld w2;
  TreeSpec spec;
  spec.approx_files = 400;
  spec.seed = 99;
  auto t1 = GenerateSourceTree(*w1.root, "/src", spec);
  auto t2 = GenerateSourceTree(*w2.root, "/src", spec);
  ASSERT_OK(t1);
  ASSERT_OK(t2);
  EXPECT_EQ(t1->files, t2->files);  // same seed, same tree
  EXPECT_EQ(t1->dirs, t2->dirs);
  EXPECT_GE(t1->files.size(), 400u);
  // Every recorded path must exist.
  for (const auto& f : t1->files) {
    auto st = w1.root->Statx(kAtFdCwd, f, 0);
    ASSERT_OK(st);
    EXPECT_TRUE(st->IsRegular());
  }
  for (const auto& d : t1->dirs) {
    auto st = w1.root->Statx(kAtFdCwd, d, 0);
    ASSERT_OK(st);
    EXPECT_TRUE(st->IsDir());
  }
  for (const auto& l : t1->symlinks) {
    EXPECT_OK(w1.root->Statx(kAtFdCwd, l, kAtSymlinkNoFollow));
  }
}

TEST(AppsTest, FindCountsMatches) {
  TestWorld w;
  TreeSpec spec;
  spec.approx_files = 300;
  auto tree = GenerateSourceTree(*w.root, "/src", spec);
  ASSERT_OK(tree);
  auto r = RunFind(*w.root, "/src", "core");
  ASSERT_OK(r);
  size_t expected = 0;
  for (const auto& f : tree->files) {
    size_t slash = f.find_last_of('/');
    if (f.find("core", slash) != std::string::npos) {
      ++expected;
    }
  }
  EXPECT_GE(r->matches, expected);  // symlinks/dirs may add a few
  EXPECT_GE(r->entries_visited, tree->files.size());
}

TEST(AppsTest, DuSumsSizes) {
  TestWorld w;
  TreeSpec spec;
  spec.approx_files = 100;
  spec.file_content_bytes = 100;
  auto tree = GenerateSourceTree(*w.root, "/src", spec);
  ASSERT_OK(tree);
  auto r = RunDu(*w.root, "/src");
  ASSERT_OK(r);
  EXPECT_GE(r->bytes_processed, 100u * tree->files.size());
}

TEST(AppsTest, TarThenRmRoundTrip) {
  TestWorld w;
  TreeSpec spec;
  spec.approx_files = 150;
  auto tree = GenerateSourceTree(*w.root, "/src", spec);
  ASSERT_OK(tree);
  auto tar = RunTarExtract(*w.root, *tree, "/copy");
  ASSERT_OK(tar);
  // Every file has a copy.
  for (const auto& f : tree->files) {
    std::string copy = "/copy" + f.substr(4);  // strip "/src"
    EXPECT_OK(w.root->Statx(kAtFdCwd, copy, 0));
  }
  auto rm = RunRmRecursive(*w.root, "/copy");
  ASSERT_OK(rm);
  EXPECT_ERR(w.root->Statx(kAtFdCwd, "/copy", 0), Errno::kENOENT);
}

TEST(AppsTest, MakeCreatesObjects) {
  TestWorld w;
  TreeSpec spec;
  spec.approx_files = 200;
  auto tree = GenerateSourceTree(*w.root, "/src", spec);
  ASSERT_OK(tree);
  MakeOptions mo;
  auto r = RunMake(*w.root, *tree, mo);
  ASSERT_OK(r);
  EXPECT_GT(r->matches, 0u);  // objects built
  size_t objs = 0;
  for (const auto& f : tree->files) {
    if (f.size() > 2 && f.compare(f.size() - 2, 2, ".c") == 0) {
      if (w.root->Statx(kAtFdCwd, f.substr(0, f.size() - 2) + ".obj", 0).ok()) {
        ++objs;
      }
    }
  }
  EXPECT_EQ(objs, r->matches);
  // Incremental re-make compiles nothing.
  mo.incremental = true;
  auto r2 = RunMake(*w.root, *tree, mo);
  ASSERT_OK(r2);
  EXPECT_EQ(r2->matches, 0u);
}

TEST(AppsTest, UpdatedbWritesDatabase) {
  TestWorld w;
  TreeSpec spec;
  spec.approx_files = 120;
  auto tree = GenerateSourceTree(*w.root, "/src", spec);
  ASSERT_OK(tree);
  auto r = RunUpdatedb(*w.root, "/src", "/db");
  ASSERT_OK(r);
  auto st = w.root->Statx(kAtFdCwd, "/db", 0);
  ASSERT_OK(st);
  EXPECT_GT(st->size, 0u);
  EXPECT_GE(r->entries_visited, tree->files.size());
}

TEST(AppsTest, MkstempCreatesUniqueFiles) {
  TestWorld w;
  ASSERT_OK(w.root->Mkdir("/tmp"));
  Rng rng(1);
  std::set<std::string> names;
  for (int i = 0; i < 50; ++i) {
    auto name = RunMkstemp(*w.root, "/tmp", rng);
    ASSERT_OK(name);
    EXPECT_TRUE(names.insert(*name).second);
    EXPECT_OK(w.root->Statx(kAtFdCwd, *name, 0));
  }
}

TEST(MaildirTest, MarkTogglesSeenFlag) {
  TestWorld w(CacheConfig::Optimized());
  MaildirServer server(*w.root, "/mail");
  ASSERT_OK(server.CreateMailbox("inbox", 20));
  auto count = server.Rescan("inbox");
  ASSERT_OK(count);
  EXPECT_EQ(*count, 20u);
  Rng rng(2);
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(server.MarkRandom("inbox", rng));
  }
  count = server.Rescan("inbox");
  ASSERT_OK(count);
  EXPECT_EQ(*count, 20u);  // marking never loses mail
  ASSERT_OK(server.Deliver("inbox"));
  count = server.Rescan("inbox");
  ASSERT_OK(count);
  EXPECT_EQ(*count, 21u);
}

TEST(WebServerTest, ListingReflectsDirectory) {
  TestWorld w(CacheConfig::Optimized());
  auto files = GenerateFlatDir(*w.root, "/htdocs", 30, "page");
  ASSERT_OK(files);
  AutoIndexServer server(*w.root);
  auto page = server.HandleRequest("/htdocs");
  ASSERT_OK(page);
  for (int i = 0; i < 30; ++i) {
    EXPECT_NE(page->find("page" + std::to_string(i)), std::string::npos);
  }
  ASSERT_OK(w.root->Unlink("/htdocs/page7"));
  page = server.HandleRequest("/htdocs");
  ASSERT_OK(page);
  EXPECT_EQ(page->find("\"page7\""), std::string::npos);
  EXPECT_EQ(server.requests(), 2u);
}

TEST(LatencyHarnessTest, MeasuresMonotonicWork) {
  int counter = 0;
  auto r = MeasureLatency([&] { ++counter; }, 2'000'000, 8);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_GT(counter, 0);
  EXPECT_GE(r.p99_ns, r.p50_ns);
}

TEST(PathStatsTest, CountsBytesAndComponents) {
  PathStats stats;
  stats.Note("/usr/include/stdio.h");
  stats.Note("name");
  EXPECT_EQ(stats.paths, 2u);
  EXPECT_DOUBLE_EQ(stats.AvgComponents(), 2.0);  // (3 + 1) / 2
  EXPECT_DOUBLE_EQ(stats.AvgLen(), (20.0 + 4.0) / 2);
}

}  // namespace
}  // namespace dircache
