// Directory-completeness caching (§5.1): when DIR_COMPLETE is set, when it
// must NOT be set, miss elision, readdir-from-cache coherence, the cached
// listing's snapshot and drop rules, and stub dentry materialization.
#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "tests/test_util.h"

namespace dircache {
namespace {

class DirCompleteTest : public ::testing::Test {
 protected:
  DirCompleteTest() : world_(CacheConfig::Optimized()) {}

  Task& T() { return *world_.root; }
  DentryCache& dc() { return world_.kernel->dcache(); }

  Dentry* DirDentry(const std::string& name) {
    Dentry* d = dc().LookupRef(world_.root->root().dentry(), name);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) {
      dc().Dput(d);  // return unreferenced; tests only read flags
    }
    return d;
  }

  void ListAll(const std::string& dir, size_t batch = 7,
               std::set<std::string>* out = nullptr) {
    auto dfd = T().Open(dir, kORead | kODirectory);
    ASSERT_OK(dfd);
    while (true) {
      auto b = T().ReadDirFd(*dfd, batch);
      ASSERT_OK(b);
      if (b->empty()) {
        break;
      }
      if (out != nullptr) {
        for (auto& e : *b) {
          out->insert(e.name);
        }
      }
    }
    ASSERT_OK(T().Close(*dfd));
  }

  TestWorld world_;
};

TEST_F(DirCompleteTest, MkdirStartsComplete) {
  ASSERT_OK(T().Mkdir("/fresh"));
  EXPECT_TRUE(DirDentry("fresh")->TestFlags(kDentDirComplete));
  // A miss inside it never consults the FS (§5.1 file-creation case).
  uint64_t misses = world_.kernel->stats().dcache_misses.value();
  uint64_t elided = world_.kernel->stats().dir_complete_hits.value();
  EXPECT_ERR(T().Statx(kAtFdCwd, "/fresh/nothing", 0), Errno::kENOENT);
  EXPECT_EQ(world_.kernel->stats().dir_complete_hits.value(), elided + 1);
  (void)misses;
}

TEST_F(DirCompleteTest, FullScanSetsCompleteness) {
  // Build a directory through the FS directly so the dcache has no entries.
  ASSERT_OK(T().Mkdir("/scan"));
  for (int i = 0; i < 20; ++i) {
    auto fd = T().Open("/scan/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  }
  // Drop the cache so /scan's children are unknown; re-instantiate the
  // directory dentry itself with a stat.
  world_.kernel->DropCaches();
  ASSERT_OK(T().Statx(kAtFdCwd, "/scan", 0));
  Dentry* scan = DirDentry("scan");
  EXPECT_FALSE(scan->TestFlags(kDentDirComplete));
  ListAll("/scan");
  EXPECT_TRUE(scan->TestFlags(kDentDirComplete));
  // Second scan is served from the cache.
  uint64_t cached = world_.kernel->stats().readdir_cached.value();
  std::set<std::string> names;
  ListAll("/scan", 7, &names);
  EXPECT_GT(world_.kernel->stats().readdir_cached.value(), cached);
  EXPECT_EQ(names.size(), 20u);
}

TEST_F(DirCompleteTest, SeekInterruptsCompletenessScan) {
  ASSERT_OK(T().Mkdir("/seeky"));
  for (int i = 0; i < 10; ++i) {
    auto fd = T().Open("/seeky/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  }
  world_.kernel->DropCaches();
  ASSERT_OK(T().Statx(kAtFdCwd, "/seeky", 0));
  Dentry* dir = DirDentry("seeky");
  auto dfd = T().Open("/seeky", kORead | kODirectory);
  ASSERT_OK(dfd);
  auto b = T().ReadDirFd(*dfd, 4);
  ASSERT_OK(b);
  // A seek into the middle of the stream disqualifies this scan (§5.1).
  ASSERT_OK(T().Lseek(*dfd, b->empty() ? 1 : 5));
  while (true) {
    auto more = T().ReadDirFd(*dfd, 64);
    ASSERT_OK(more);
    if (more->empty()) {
      break;
    }
  }
  ASSERT_OK(T().Close(*dfd));
  EXPECT_FALSE(dir->TestFlags(kDentDirComplete));
}

TEST_F(DirCompleteTest, ReaddirStubsMaterializeOnStat) {
  ASSERT_OK(T().Mkdir("/stubs"));
  for (int i = 0; i < 5; ++i) {
    auto fd = T().Open("/stubs/s" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().WriteFd(*fd, "content!"));
    ASSERT_OK(T().Close(*fd));
  }
  world_.kernel->DropCaches();
  // A listing creates inode-less stub dentries (§5.1).
  ListAll("/stubs");
  Dentry* dir = DirDentry("stubs");
  Dentry* stub = dc().LookupRef(dir, "s3");
  ASSERT_NE(stub, nullptr);
  EXPECT_TRUE(stub->IsStub());
  EXPECT_EQ(stub->inode(), nullptr);
  dc().Dput(stub);
  // Stat materializes the inode from the stub's inode number.
  auto st = T().Statx(kAtFdCwd, "/stubs/s3", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 8u);
  Dentry* real = dc().LookupRef(dir, "s3");
  ASSERT_NE(real, nullptr);
  EXPECT_FALSE(real->IsStub());
  EXPECT_NE(real->inode(), nullptr);
  dc().Dput(real);
}

TEST_F(DirCompleteTest, CreateAndUnlinkKeepCompleteness) {
  ASSERT_OK(T().Mkdir("/mix"));
  Dentry* dir = DirDentry("mix");
  EXPECT_TRUE(dir->TestFlags(kDentDirComplete));
  auto fd = T().Open("/mix/a", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_TRUE(dir->TestFlags(kDentDirComplete));  // coherent insert
  ASSERT_OK(T().Unlink("/mix/a"));
  EXPECT_TRUE(dir->TestFlags(kDentDirComplete));  // coherent removal
  // And listings reflect reality throughout.
  std::set<std::string> names;
  ListAll("/mix", 7, &names);
  EXPECT_TRUE(names.empty());
}

TEST_F(DirCompleteTest, CompletenessAcceleratesCreation) {
  // mkstemp-style creation under a complete directory never asks the FS
  // whether the random name exists (§5.1).
  ASSERT_OK(T().Mkdir("/tmpd"));
  uint64_t elided_before = world_.kernel->stats().dir_complete_hits.value();
  for (int i = 0; i < 32; ++i) {
    auto fd = T().Open("/tmpd/rand" + std::to_string(i * 7919),
                       kOCreat | kOExcl | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  }
  EXPECT_GE(world_.kernel->stats().dir_complete_hits.value(),
            elided_before + 32);
}

TEST_F(DirCompleteTest, StreamKeepsItsSnapshotUntilRewound) {
  ASSERT_OK(T().Mkdir("/snap"));
  std::set<std::string> current;
  for (int i = 0; i < 12; ++i) {
    std::string name = "k" + std::to_string(i);
    auto fd = T().Open("/snap/" + name, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
    current.insert(name);
  }
  ASSERT_TRUE(DirDentry("snap")->TestFlags(kDentDirComplete));
  TaskPtr other = T().Fork();
  // Names the other task touches while the scan runs; every other name
  // exists for the whole scan.
  std::set<std::string> touched;
  const uint64_t cached = world_.kernel->stats().readdir_cached.value();
  auto dfd = T().Open("/snap", kORead | kODirectory);
  ASSERT_OK(dfd);
  std::map<std::string, int> seen;
  for (int call = 0;; ++call) {
    auto b = T().ReadDirFd(*dfd, 3);
    ASSERT_OK(b);
    if (b->empty()) {
      break;
    }
    for (const DirEntry& e : *b) {
      ++seen[e.name];
    }
    // Between calls: a create, an unlink and a rename in the directory.
    const std::string fresh = "n" + std::to_string(call);
    auto fd = other->Open("/snap/" + fresh, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(other->Close(*fd));
    current.insert(fresh);
    touched.insert(fresh);
    const std::string gone = "k" + std::to_string(call);
    ASSERT_OK(other->Unlink("/snap/" + gone));
    current.erase(gone);
    touched.insert(gone);
    const std::string from = "k" + std::to_string(11 - call);
    const std::string to = "r" + std::to_string(11 - call);
    if (current.count(from) != 0) {
      ASSERT_OK(other->Rename("/snap/" + from, "/snap/" + to));
      current.erase(from);
      current.insert(to);
      touched.insert(from);
      touched.insert(to);
    }
  }
  EXPECT_GT(world_.kernel->stats().readdir_cached.value(), cached);
  for (const auto& [name, n] : seen) {
    EXPECT_EQ(n, 1) << name << " listed " << n << " times";
  }
  for (const std::string& name : current) {
    if (touched.count(name) == 0) {
      EXPECT_EQ(seen.count(name), 1u) << name << " missing from the scan";
    }
  }
  // A rewind starts a new scan, which lists the current children.
  ASSERT_OK(T().Lseek(*dfd, 0));
  std::set<std::string> after;
  while (true) {
    auto b = T().ReadDirFd(*dfd, 3);
    ASSERT_OK(b);
    if (b->empty()) {
      break;
    }
    for (const DirEntry& e : *b) {
      EXPECT_TRUE(after.insert(e.name).second) << e.name << " twice";
    }
  }
  EXPECT_EQ(after, current);
  ASSERT_OK(T().Close(*dfd));
}

// Every edit of a directory's children list drops its cached listing
// (§5.1), so the next scan sees the edit. Each row builds /d's listing with
// a cached scan, applies one edit, and checks the accounted listing bytes,
// the auditor, and that the next scan matches the file system's own
// ReadDir. Run with and without negatives on unlink: without them, an
// unlink is Kill alone and a rename out of /d is MoveDentry alone.
using Listing = std::vector<std::tuple<std::string, InodeNum, FileType>>;

Listing Sorted(const std::vector<DirEntry>& entries) {
  Listing out;
  for (const DirEntry& e : entries) {
    out.emplace_back(e.name, e.ino, e.type);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct ListingEditRow {
  const char* name;
  std::function<void(TestWorld&, Task&)> edit;
  bool drops;   // the edit drops /d's listing
  bool cached;  // the next scan is served from the cache
};

class ListingDropTest : public ::testing::TestWithParam<bool> {
 protected:
  static CacheConfig Config(bool negative_on_unlink) {
    CacheConfig cfg = CacheConfig::Optimized();
    cfg.negative_on_unlink = negative_on_unlink;
    return cfg;
  }

  // Every entry of `dir`, read through one stream, 3 at a time.
  static std::vector<DirEntry> Scan(Task& t, const std::string& dir) {
    std::vector<DirEntry> all;
    auto dfd = t.Open(dir, kORead | kODirectory);
    EXPECT_TRUE(dfd.ok());
    while (true) {
      auto b = t.ReadDirFd(*dfd, 3);
      EXPECT_TRUE(b.ok());
      if (!b.ok() || b->empty()) {
        break;
      }
      all.insert(all.end(), b->begin(), b->end());
    }
    EXPECT_TRUE(t.Close(*dfd).ok());
    return all;
  }

  // The file system's own listing of `dir`.
  static std::vector<DirEntry> FsScan(Dentry* dir) {
    std::vector<DirEntry> all;
    FileSystem* fs = dir->sb()->fs();
    uint64_t offset = 0;
    while (true) {
      auto r = fs->ReadDir(dir->inode()->ino(), offset, 5);
      EXPECT_TRUE(r.ok());
      if (!r.ok()) {
        break;
      }
      all.insert(all.end(), r->entries.begin(), r->entries.end());
      offset = r->next_offset;
      if (r->eof) {
        break;
      }
    }
    return all;
  }

  static void Create(Task& t, const std::string& path) {
    auto fd = t.Open(path, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
};

TEST_P(ListingDropTest, EveryChildrenListEditDropsTheListing) {
  const std::vector<ListingEditRow> rows = {
      {"create", [](TestWorld&, Task& t) { Create(t, "/d/new"); }, true,
       true},
      {"mkdir", [](TestWorld&, Task& t) { ASSERT_OK(t.Mkdir("/d/newdir")); },
       true, true},
      {"unlink", [](TestWorld&, Task& t) { ASSERT_OK(t.Unlink("/d/a")); },
       true, true},
      {"rmdir", [](TestWorld&, Task& t) { ASSERT_OK(t.Rmdir("/d/sub")); },
       true, true},
      {"link",
       [](TestWorld&, Task& t) { ASSERT_OK(t.Link("/d/b", "/d/b2")); }, true,
       true},
      {"symlink",
       [](TestWorld&, Task& t) { ASSERT_OK(t.Symlink("b", "/d/sym")); },
       true, true},
      {"rename within",
       [](TestWorld&, Task& t) { ASSERT_OK(t.Rename("/d/a", "/d/a2")); },
       true, true},
      {"rename into",
       [](TestWorld&, Task& t) { ASSERT_OK(t.Rename("/src/x", "/d/x")); },
       true, true},
      {"rename out of",
       [](TestWorld&, Task& t) { ASSERT_OK(t.Rename("/d/b", "/out/b")); },
       true, true},
      // A negative is never listed, but adding one drops the listing too:
      // the rule is one drop per edit.
      {"negative lookup",
       [](TestWorld&, Task& t) {
         EXPECT_ERR(t.Statx(kAtFdCwd, "/d/missing", 0), Errno::kENOENT);
       },
       true, true},
      // Eviction clears DIR_COMPLETE, so the next scan reads the FS.
      {"eviction by Shrink",
       [](TestWorld& w, Task&) { w.kernel->dcache().Shrink(1 << 20); }, true,
       false},
      // Materializing a stub keeps its inode number and type: no drop.
      {"stub materialized by stat",
       [](TestWorld&, Task& t) { ASSERT_OK(t.Statx(kAtFdCwd, "/d/c", 0)); },
       false, true},
  };
  for (const ListingEditRow& row : rows) {
    SCOPED_TRACE(row.name);
    TestWorld world(Config(GetParam()));
    Task& t = *world.root;
    DentryCache& dc = world.kernel->dcache();
    ASSERT_OK(t.Mkdir("/d"));
    ASSERT_OK(t.Mkdir("/src"));
    ASSERT_OK(t.Mkdir("/out"));
    for (const char* f : {"/d/a", "/d/b", "/d/c", "/src/x"}) {
      Create(t, f);
    }
    ASSERT_OK(t.Mkdir("/d/sub"));
    // An FS-backed scan leaves stubs and makes /d complete again; stats
    // materialize a and b, so the listing holds stubs and positives.
    world.kernel->DropCaches();
    ASSERT_OK(t.Statx(kAtFdCwd, "/d", 0));
    Scan(t, "/d");
    ASSERT_OK(t.Statx(kAtFdCwd, "/d/a", 0));
    ASSERT_OK(t.Statx(kAtFdCwd, "/d/b", 0));
    auto dfd = t.Open("/d", kORead | kODirectory);  // keeps /d resident
    ASSERT_OK(dfd);
    Dentry* d = dc.LookupRef(t.root().dentry(), "d");
    ASSERT_NE(d, nullptr);
    dc.Dput(d);
    ASSERT_TRUE(d->TestFlags(kDentDirComplete));
    Scan(t, "/d");  // cached: builds the listing
    ASSERT_NE(d->listing, nullptr);
    EXPECT_EQ(Sorted(Scan(t, "/d")), Sorted(FsScan(d)));
    const uint64_t old_bytes = d->listing->bytes();
    const uint64_t before = dc.listing_bytes();
    EXPECT_EQ(world.kernel->Audit().listings, 1u);  // the auditor sees it

    row.edit(world, t);

    EXPECT_EQ(dc.listing_bytes(), row.drops ? before - old_bytes : before);
    EXPECT_EQ(d->listing == nullptr, row.drops);
    EXPECT_TRUE(world.kernel->Audit().clean())
        << world.kernel->Audit().ToText();
    const uint64_t cached = world.kernel->stats().readdir_cached.value();
    EXPECT_EQ(Sorted(Scan(t, "/d")), Sorted(FsScan(d)));
    EXPECT_EQ(world.kernel->stats().readdir_cached.value() > cached,
              row.cached);
    ASSERT_OK(t.Close(*dfd));
  }
}

INSTANTIATE_TEST_SUITE_P(NegativeOnUnlink, ListingDropTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "WithNegatives"
                                             : "WithoutNegatives";
                         });

TEST_F(DirCompleteTest, BaselineNeverSetsFlag) {
  TestWorld baseline(CacheConfig::Baseline());
  ASSERT_OK(baseline.root->Mkdir("/plain"));
  Dentry* d = baseline.kernel->dcache().LookupRef(
      baseline.root->root().dentry(), "plain");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->TestFlags(kDentDirComplete));
  baseline.kernel->dcache().Dput(d);
}

}  // namespace
}  // namespace dircache
