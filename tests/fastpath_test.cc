// Fastpath mechanics (§3): DLHT/PCC hits, coherence with chmod/chown/
// rename (§3.2), credential isolation, directory-reference semantics,
// symlink aliases (§4.2), and the Figure 6 test hooks.
#include <string>
#include <vector>

#include "src/core/pcc.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

class FastpathTest : public ::testing::Test {
 protected:
  FastpathTest() : world_(CacheConfig::Optimized()) {
    Task& t = *world_.root;
    EXPECT_OK(t.Mkdir("/home"));
    EXPECT_OK(t.Mkdir("/home/alice"));
    EXPECT_OK(t.Mkdir("/home/alice/docs"));
    auto fd = t.Open("/home/alice/docs/file", kOCreat | kOWrite);
    EXPECT_OK(fd);
    EXPECT_OK(t.Close(*fd));
    EXPECT_OK(t.Chmod("/home", 0755));
    EXPECT_OK(t.Chmod("/home/alice", 0755));
    EXPECT_OK(t.Chmod("/home/alice/docs", 0755));
  }

  uint64_t FastHits() { return world_.kernel->stats().fastpath_hits.value(); }

  TestWorld world_;
};

TEST_F(FastpathTest, SecondLookupHitsFastpath) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // slowpath, populates
  uint64_t before = FastHits();
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_EQ(FastHits(), before + 1);
}

TEST_F(FastpathTest, FastpathSurvivesSlowpathForbidden) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  PathWalker::forbid_slowpath = true;
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  PathWalker::forbid_slowpath = false;
}

TEST_F(FastpathTest, ChmodOfAncestorInvalidatesPrefixChecks) {
  TaskPtr alice = world_.UserTask(1000, 1000);
  ASSERT_OK(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  ASSERT_OK(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // fastpath warm
  // Root revokes search permission on an ancestor.
  ASSERT_OK(world_.root->Chmod("/home/alice", 0700));
  // Alice (uid 1000, not the owner — dirs are root-owned here) must now be
  // denied, with NO stale fastpath grant.
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
  // Restore and verify recovery.
  ASSERT_OK(world_.root->Chmod("/home/alice", 0755));
  EXPECT_OK(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_OK(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
}

TEST_F(FastpathTest, ChownOfAncestorInvalidates) {
  TaskPtr bob = world_.UserTask(1001, 1001);
  ASSERT_OK(world_.root->Chmod("/home/alice", 0750));
  ASSERT_OK(world_.root->Chown("/home/alice", 1001, 1001));
  EXPECT_OK(bob->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_OK(bob->Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // warm
  ASSERT_OK(world_.root->Chown("/home/alice", 0, 0));
  EXPECT_ERR(bob->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, RenameInvalidatesOldPath) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  ASSERT_OK(t.Rename("/home/alice/docs", "/home/alice/papers"));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kENOENT);
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/papers/file", 0));
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/papers/file", 0));
}

TEST_F(FastpathTest, CredentialsDoNotShareGrants) {
  TaskPtr alice = world_.UserTask(1000, 1000);
  TaskPtr bob = world_.UserTask(1001, 1001);
  ASSERT_OK(world_.root->Mkdir("/private"));
  ASSERT_OK(world_.root->Chown("/private", 1000, 1000));
  ASSERT_OK(world_.root->Chmod("/private", 0700));
  auto fd = alice->Open("/private/secret", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(alice->Close(*fd));
  // Alice warms her PCC on the path.
  ASSERT_OK(alice->Statx(kAtFdCwd, "/private/secret", 0));
  ASSERT_OK(alice->Statx(kAtFdCwd, "/private/secret", 0));
  // Bob must not ride Alice's memoized prefix checks.
  EXPECT_ERR(bob->Statx(kAtFdCwd, "/private/secret", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, SameCredSharesPcc) {
  TaskPtr a1 = world_.UserTask(1000, 1000);
  TaskPtr a2 = a1->Fork();  // same cred object
  ASSERT_OK(a1->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  uint64_t before = FastHits();
  ASSERT_OK(a2->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_EQ(FastHits(), before + 1);  // a2 benefits from a1's prefix check
  EXPECT_EQ(a1->cred().get(), a2->cred().get());
}

TEST_F(FastpathTest, CommitCredsDedupPreservesPcc) {
  TaskPtr alice = world_.UserTask(1000, 1000);
  const Cred* cred_before = alice->cred().get();
  // Re-applying an identical identity must keep the cred (and its PCC).
  alice->SetCred(MakeCred(1000, 1000));
  EXPECT_EQ(alice->cred().get(), cred_before);
  // A different identity replaces it.
  alice->SetCred(MakeCred(1000, 2000));
  EXPECT_NE(alice->cred().get(), cred_before);
}

TEST_F(FastpathTest, NegativeLookupsHitFastpath) {
  Task& t = *world_.root;
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/docs/nope", 0), Errno::kENOENT);
  uint64_t before = FastHits();
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/docs/nope", 0), Errno::kENOENT);
  EXPECT_EQ(FastHits(), before + 1);
  // Creating the file must kill the negative.
  auto fd = t.Open("/home/alice/docs/nope", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/nope", 0));
}

TEST_F(FastpathTest, DeepNegativesServeFullPaths) {
  Task& t = *world_.root;
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/gone/x/y/z", 0), Errno::kENOENT);
  uint64_t before = FastHits();
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/gone/x/y/z", 0), Errno::kENOENT);
  EXPECT_EQ(FastHits(), before + 1);
  // Creating the intermediate as a file flips the suffix to ENOTDIR.
  auto fd = t.Open("/home/alice/gone", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/gone/x/y/z", 0), Errno::kENOTDIR);
}

TEST_F(FastpathTest, EnotdirDeepNegatives) {
  Task& t = *world_.root;
  auto fd = t.Open("/plainfile", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/plainfile/below", 0), Errno::kENOTDIR);
  uint64_t before = FastHits();
  EXPECT_ERR(t.Statx(kAtFdCwd, "/plainfile/below", 0), Errno::kENOTDIR);
  EXPECT_EQ(FastHits(), before + 1);  // cached ENOTDIR (§5.2)
}

TEST_F(FastpathTest, TrailingSymlinkFollowUsesTargetSignature) {
  Task& t = *world_.root;
  ASSERT_OK(t.Symlink("/home/alice/docs/file", "/shortcut"));
  ASSERT_OK(t.Statx(kAtFdCwd, "/shortcut", 0));  // slowpath: memoizes target sig
  uint64_t before = FastHits();
  ASSERT_OK(t.Statx(kAtFdCwd, "/shortcut", 0));
  EXPECT_EQ(FastHits(), before + 1);
}

TEST_F(FastpathTest, MidPathSymlinkAliasHits) {
  Task& t = *world_.root;
  ASSERT_OK(t.Symlink("/home/alice", "/al"));
  ASSERT_OK(t.Statx(kAtFdCwd, "/al/docs/file", 0));  // builds alias chain
  uint64_t before = FastHits();
  ASSERT_OK(t.Statx(kAtFdCwd, "/al/docs/file", 0));
  EXPECT_EQ(FastHits(), before + 1);
  // Target-side permission changes must invalidate alias-path access too.
  TaskPtr alice = world_.UserTask(1000, 1000);
  ASSERT_OK(alice->Statx(kAtFdCwd, "/al/docs/file", 0));
  ASSERT_OK(alice->Statx(kAtFdCwd, "/al/docs/file", 0));
  ASSERT_OK(world_.root->Chmod("/home/alice/docs", 0700));
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/al/docs/file", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, SymlinkRemovalDropsAliases) {
  Task& t = *world_.root;
  ASSERT_OK(t.Symlink("/home/alice", "/al2"));
  ASSERT_OK(t.Statx(kAtFdCwd, "/al2/docs/file", 0));
  ASSERT_OK(t.Statx(kAtFdCwd, "/al2/docs/file", 0));
  ASSERT_OK(t.Unlink("/al2"));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/al2/docs/file", 0), Errno::kENOENT);
}

TEST_F(FastpathTest, DotDotPathsStayCorrect) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/home/alice/music"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/music/../docs/file", 0));
  }
  // Permission change on the dir being exited must be honored.
  TaskPtr alice = world_.UserTask(1000, 1000);
  EXPECT_OK(alice->Statx(kAtFdCwd, "/home/alice/music/../docs/file", 0));
  EXPECT_OK(alice->Statx(kAtFdCwd, "/home/alice/music/../docs/file", 0));
  ASSERT_OK(world_.root->Chmod("/home/alice/music", 0700));
  // POSIX semantics: alice needs search permission on music to pass
  // through it, even though ".." leaves immediately.
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/home/alice/music/../docs/file", 0),
             Errno::kEACCES);
}

// One warm lookup of each path shape under both dot-dot modes: its answer
// and the fastpath and DLHT counters it moves ({fastpath hits, fastpath
// misses, DLHT hits, DLHT misses}). Canonical paths (absolute, relative,
// names up to NAME_MAX) are signed in one pass; every other shape takes the
// per-name loop. Relative paths start at /home/alice.
struct ShapeCounts {
  uint64_t fast_hits, fast_misses, dlht_hits, dlht_misses;
};

struct ShapeRow {
  const char* what;
  std::string path;
  Errno want;
  ShapeCounts posix, lexical;
};

std::vector<ShapeRow> ShapeRows() {
  const std::string longest(kMaxNameLen, 'n');
  const std::string too_long(kMaxNameLen + 1, 'n');
  return {
      {"absolute", "/home/alice/docs/file", Errno::kOk, {1, 0, 1, 0},
       {1, 0, 1, 0}},
      {"relative", "docs/file", Errno::kOk, {1, 0, 1, 0}, {1, 0, 1, 0}},
      {"NAME_MAX name", "docs/" + longest, Errno::kENOENT, {1, 0, 1, 0},
       {1, 0, 1, 0}},
      {"root alone", "/", Errno::kOk, {1, 0, 1, 0}, {1, 0, 1, 0}},
      {"double slash", "docs//file", Errno::kOk, {1, 0, 1, 0}, {1, 0, 1, 0}},
      {"trailing slash", "docs/", Errno::kOk, {1, 0, 1, 0}, {1, 0, 1, 0}},
      {"leading dot", "./docs", Errno::kOk, {1, 0, 1, 0}, {1, 0, 1, 0}},
      {"trailing dot", "docs/.", Errno::kOk, {1, 0, 1, 0}, {1, 0, 1, 0}},
      // POSIX ".." probes the directory it leaves; lexical ".." truncates
      // the signed prefix, and above the walk base it gives up.
      {"inner dot-dot", "docs/../docs/file", Errno::kOk, {1, 0, 2, 0},
       {1, 0, 1, 0}},
      {"dot-dot alone", "..", Errno::kOk, {1, 0, 2, 0}, {0, 1, 0, 0}},
      // The slowpath answers a name over NAME_MAX.
      {"name over NAME_MAX", "docs/" + too_long, Errno::kENAMETOOLONG,
       {0, 1, 0, 0}, {0, 1, 0, 0}},
  };
}

TEST(FastpathShapeTest, EachShapeWarmsToItsPinnedCounts) {
  for (DotDotMode mode : {DotDotMode::kPosix, DotDotMode::kLexical}) {
    const bool lexical = mode == DotDotMode::kLexical;
    CacheConfig cfg = CacheConfig::Optimized();
    cfg.dotdot = mode;
    TestWorld world(cfg);
    Task& t = *world.root;
    ASSERT_OK(t.Mkdir("/home"));
    ASSERT_OK(t.Mkdir("/home/alice"));
    ASSERT_OK(t.Mkdir("/home/alice/docs"));
    auto fd = t.Open("/home/alice/docs/file", kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
    ASSERT_OK(t.Chdir("/home/alice"));
    CacheStats& stats = world.kernel->stats();
    for (const ShapeRow& row : ShapeRows()) {
      SCOPED_TRACE(std::string(row.what) + (lexical ? ", lexical" : ", posix"));
      for (int i = 0; i < 2; ++i) {
        (void)t.Statx(kAtFdCwd, row.path, 0);
      }
      const ShapeCounts before{
          stats.fastpath_hits.value(), stats.fastpath_misses.value(),
          stats.dlht_hits.value(), stats.dlht_misses.value()};
      auto r = t.Statx(kAtFdCwd, row.path, 0);
      EXPECT_EQ(r.error(), row.want) << "got " << r.error_name();
      const ShapeCounts want = lexical ? row.lexical : row.posix;
      const ShapeCounts got{
          stats.fastpath_hits.value() - before.fast_hits,
          stats.fastpath_misses.value() - before.fast_misses,
          stats.dlht_hits.value() - before.dlht_hits,
          stats.dlht_misses.value() - before.dlht_misses};
      EXPECT_EQ(got.fast_hits, want.fast_hits);
      EXPECT_EQ(got.fast_misses, want.fast_misses);
      EXPECT_EQ(got.dlht_hits, want.dlht_hits);
      EXPECT_EQ(got.dlht_misses, want.dlht_misses);
    }
  }
}

TEST_F(FastpathTest, DirectoryReferenceSemantics) {
  // §3.2: a process keeps using its cwd after an ancestor permission
  // revocation, but that must not leak cacheable full-path grants.
  TaskPtr alice = world_.UserTask(1000, 1000);
  ASSERT_OK(world_.root->Chmod("/home/alice", 0755));
  ASSERT_OK(alice->Chdir("/home/alice/docs"));
  EXPECT_OK(alice->Statx(kAtFdCwd, "file", 0));
  ASSERT_OK(world_.root->Chmod("/home/alice", 0700));  // revoke
  // Relative access through the retained cwd still works...
  EXPECT_OK(alice->Statx(kAtFdCwd, "file", 0));
  EXPECT_OK(alice->Statx(kAtFdCwd, "file", 0));
  // ...but absolute access is now denied — including right after the
  // relative lookups above (no PCC laundering).
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, ForcedMissFallsBackCorrectly) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  PathWalker::force_fastpath_miss = true;
  uint64_t before = FastHits();
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_EQ(FastHits(), before);  // fastpath bypassed
  PathWalker::force_fastpath_miss = false;
}

TEST_F(FastpathTest, PrivilegedBypassDisablesAcceleration) {
  // §3.3: "disallowing signature-based lookup acceleration for privileged
  // binaries" — implemented here behind a config flag.
  CacheConfig cfg = CacheConfig::Optimized();
  cfg.fastpath_for_privileged = false;
  TestWorld hardened(cfg);
  Task& root = *hardened.root;
  ASSERT_OK(root.Mkdir("/sys"));
  auto fd = root.Open("/sys/shadow", kOCreat | kOWrite, 0600);
  ASSERT_OK(fd);
  ASSERT_OK(root.Close(*fd));
  ASSERT_OK(root.Statx(kAtFdCwd, "/sys/shadow", 0));
  uint64_t fast_before = hardened.kernel->stats().fastpath_hits.value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(root.Statx(kAtFdCwd, "/sys/shadow", 0));  // root: slowpath only
  }
  EXPECT_EQ(hardened.kernel->stats().fastpath_hits.value(), fast_before);
  // Unprivileged tasks still ride the fastpath.
  ASSERT_OK(root.Chmod("/sys", 0755));
  ASSERT_OK(root.Chmod("/sys/shadow", 0644));
  TaskPtr user = hardened.UserTask(1000, 1000);
  ASSERT_OK(user->Statx(kAtFdCwd, "/sys/shadow", 0));
  ASSERT_OK(user->Statx(kAtFdCwd, "/sys/shadow", 0));
  EXPECT_GT(hardened.kernel->stats().fastpath_hits.value(), fast_before);
}

TEST_F(FastpathTest, PccEpochFlushOnWraparound) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  // Simulate the version-counter wraparound: bump the global PCC epoch.
  world_.kernel->BumpPccEpoch();
  uint64_t before = FastHits();
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // PCC self-flushed: slow
  EXPECT_EQ(FastHits(), before);
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // repopulated
  EXPECT_EQ(FastHits(), before + 1);
}

TEST_F(FastpathTest, LabelLsmDecisionsAreMemoizedAndInvalidated) {
  auto lsm = std::make_unique<LabelLsm>();
  LabelLsm* lsm_ptr = lsm.get();
  world_.kernel->security().AddModule(std::move(lsm));
  ASSERT_OK(world_.root->SetSecurityLabel("/home/alice", "alice_home"));
  TaskPtr agent = world_.UserTask(1000, 1000, {}, "agent_t");
  // No rule: (agent_t, alice_home) denied for exec.
  EXPECT_ERR(agent->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
  lsm_ptr->Allow("agent_t", "alice_home", kMayRead | kMayExec);
  // Policy changed: caller must invalidate (the LSM contract). Relabeling
  // with the same label reuses the subtree invalidation path.
  ASSERT_OK(world_.root->SetSecurityLabel("/home/alice", "alice_home"));
  EXPECT_OK(agent->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_OK(agent->Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // memoized
  lsm_ptr->ClearRule("agent_t", "alice_home");
  ASSERT_OK(world_.root->SetSecurityLabel("/home/alice", "alice_home"));
  EXPECT_ERR(agent->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
}

}  // namespace
}  // namespace dircache
