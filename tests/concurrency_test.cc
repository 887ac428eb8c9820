// Concurrency: lock-free readers racing structural mutations (§3.2).
// Readers must never crash, never see torn state, and never observe a
// result that was not true at some point during the race window.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/util/rng.h"
#include "src/vfs/walk.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

class ConcurrencyTest : public ::testing::TestWithParam<bool> {
 protected:
  ConcurrencyTest()
      : world_(GetParam() ? CacheConfig::Optimized()
                          : CacheConfig::Baseline()) {}

  // Post-condition for every race in this suite: once the threads are
  // joined, the dcache/DLHT/LRU cross-structure invariants must hold
  // (DESIGN.md §10) — a lifecycle race that didn't crash still fails here.
  void TearDown() override {
    obs::AuditReport report = world_.kernel->Audit();
    EXPECT_TRUE(report.clean()) << report.ToText();
  }

  TestWorld world_;
};

TEST_P(ConcurrencyTest, StatsRaceRenames) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/a"));
  ASSERT_OK(t.Mkdir("/a/b"));
  auto fd = t.Open("/a/b/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> oks{0};
  std::atomic<uint64_t> enoents{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      TaskPtr task = world_.root->Fork();
      while (!stop.load(std::memory_order_acquire)) {
        for (const char* p : {"/a/b/f", "/a2/b/f"}) {
          auto r = task->Statx(kAtFdCwd, p, 0);
          if (r.ok()) {
            oks.fetch_add(1);
            // Any successful stat must describe the real file.
            EXPECT_TRUE(r->IsRegular());
          } else {
            EXPECT_TRUE(r.error() == Errno::kENOENT ||
                        r.error() == Errno::kENOTDIR)
                << ErrnoName(r.error());
            enoents.fetch_add(1);
          }
        }
      }
    });
  }
  // The mutator bounces the top directory between two names, continuing
  // until the readers have observed both outcomes (a single-CPU scheduler
  // may not run them for the first few thousand renames).
  TaskPtr mut = world_.root->Fork();
  int i = 0;
  for (; i < 200000; ++i) {
    ASSERT_OK(mut->Rename((i & 1) != 0 ? "/a2" : "/a",
                          (i & 1) != 0 ? "/a" : "/a2"));
    if (i >= 600 && oks.load() > 0 && enoents.load() > 0) {
      break;
    }
    if ((i & 255) == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_GT(oks.load(), 0u);
  EXPECT_GT(enoents.load(), 0u);
}

TEST_P(ConcurrencyTest, PermissionRevocationIsNeverLeaked) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/home"));
  ASSERT_OK(t.Mkdir("/home/alice", 0755));
  auto fd = t.Open("/home/alice/secret", kOCreat | kOWrite, 0644);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));

  std::atomic<bool> stop{false};
  // Monotonic phase word (never repeats, so the reader's stable-window
  // check cannot be fooled by a full mutator cycle): low 2 bits encode the
  // state — 0 = open (0755), 1 = closed (0700), 2 = transitioning.
  std::atomic<uint64_t> phase{2};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      TaskPtr alice = world_.UserTask(1000, 1000);
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t before = phase.load(std::memory_order_acquire);
        auto r = alice->Statx(kAtFdCwd, "/home/alice/secret", 0);
        uint64_t after = phase.load(std::memory_order_acquire);
        // Only a definitive claim when the phase word was stable around
        // the op (exact equality: the word never repeats).
        if (before == after) {
          if ((before & 3) == 1 && r.ok()) {
            violations.fetch_add(1);
            ADD_FAILURE() << "stale GRANT after revocation";
          }
          if ((before & 3) == 0 && !r.ok()) {
            violations.fetch_add(1);
            ADD_FAILURE() << "stale DENIAL after restore: "
                          << ErrnoName(r.error());
          }
        }
      }
    });
  }
  for (uint64_t i = 1; i <= 200; ++i) {
    // A stable phase word of state 1 (or 0) implies the corresponding
    // chmod fully completed and no other transition overlapped the window.
    phase.store(i * 16 + 2, std::memory_order_release);
    ASSERT_OK(t.Chmod("/home/alice", 0700));
    phase.store(i * 16 + 1, std::memory_order_release);
    std::this_thread::yield();
    phase.store(i * 16 + 6, std::memory_order_release);
    ASSERT_OK(t.Chmod("/home/alice", 0755));
    phase.store(i * 16 + 4, std::memory_order_release);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(violations.load(), 0u);
}

TEST_P(ConcurrencyTest, CreateUnlinkChurnWithReaders) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/churn"));
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  // Two creator/deleter threads on disjoint names, one readdir thread, one
  // stat thread.
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      TaskPtr task = world_.root->Fork();
      for (int i = 0; i < 300; ++i) {
        std::string p = "/churn/w" + std::to_string(w) + "_" +
                        std::to_string(i % 10);
        auto fd = task->Open(p, kOCreat | kOWrite);
        if (fd.ok()) {
          (void)task->Close(*fd);
        }
        (void)task->Unlink(p);
      }
    });
  }
  workers.emplace_back([&] {
    TaskPtr task = world_.root->Fork();
    while (!stop.load(std::memory_order_acquire)) {
      auto dfd = task->Open("/churn", kORead | kODirectory);
      if (!dfd.ok()) {
        continue;
      }
      while (true) {
        auto b = task->ReadDirFd(*dfd, 16);
        if (!b.ok() || b->empty()) {
          break;
        }
        for (auto& e : *b) {
          EXPECT_TRUE(e.name.rfind("w", 0) == 0) << e.name;
        }
      }
      (void)task->Close(*dfd);
    }
  });
  workers.emplace_back([&] {
    TaskPtr task = world_.root->Fork();
    while (!stop.load(std::memory_order_acquire)) {
      (void)task->Statx(kAtFdCwd, "/churn/w0_3", 0);
      (void)task->Statx(kAtFdCwd, "/churn/w1_7", 0);
      (void)task->Statx(kAtFdCwd, "/churn/none", 0);
    }
  });
  workers[0].join();
  workers[1].join();
  stop.store(true, std::memory_order_release);
  workers[2].join();
  workers[3].join();
}

TEST_P(ConcurrencyTest, EvictionRacesLookups) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/pool"));
  for (int i = 0; i < 200; ++i) {
    auto fd = t.Open("/pool/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      TaskPtr task = world_.root->Fork();
      Rng rng(static_cast<uint64_t>(i) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        std::string p = "/pool/f" + std::to_string(rng.Below(200));
        auto r = task->Statx(kAtFdCwd, p, 0);
        EXPECT_TRUE(r.ok()) << ErrnoName(r.error()) << " for " << p;
      }
    });
  }
  for (int round = 0; round < 100; ++round) {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    world_.kernel->dcache().Shrink(64);
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  // Everything must still resolve afterwards.
  for (int i = 0; i < 200; ++i) {
    EXPECT_OK(t.Statx(kAtFdCwd, "/pool/f" + std::to_string(i), 0));
  }
}

// Regression for a use-after-free in DentryCache::Release: eviction used to
// Iput the inode eagerly while epoch-retiring only the dentry, so an
// optimistic reader that had found the dentry before it was unhashed could
// dereference a freed inode (heap corruption, flaky under ASan). The fix
// defers the Iput into the dentry's epoch deleter. This loops the repro
// body many times with short racing windows — before the fix it tripped
// ASan within a handful of iterations.
TEST_P(ConcurrencyTest, EvictionReleasesInodeAfterGrace) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/evict"));
  constexpr int kFiles = 64;
  for (int i = 0; i < kFiles; ++i) {
    auto fd = t.Open("/evict/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int i = 0; i < 2; ++i) {
      readers.emplace_back([&, i, iter] {
        TaskPtr task = world_.root->Fork();
        Rng rng(static_cast<uint64_t>(iter) * 31 + i + 1);
        while (!stop.load(std::memory_order_acquire)) {
          std::string p = "/evict/f" + std::to_string(rng.Below(kFiles));
          auto r = task->Statx(kAtFdCwd, p, 0);
          EXPECT_TRUE(r.ok()) << ErrnoName(r.error()) << " for " << p;
        }
      });
    }
    for (int round = 0; round < 8; ++round) {
      std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
      world_.kernel->dcache().Shrink(32);
    }
    stop.store(true, std::memory_order_release);
    for (auto& r : readers) {
      r.join();
    }
  }
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_OK(t.Statx(kAtFdCwd, "/evict/f" + std::to_string(i), 0));
  }
}

// Rename of a directory with a large cached subtree must be equivalent to
// an atomic move: once a rename returns (which, in the optimized kernel,
// includes its DEFERRED subtree invalidation pass completing and the
// coherence gate closing), no observer may still resolve the old path or
// fail to resolve the new one. The monotonic phase word gives readers a
// stable window in which to make that definitive claim.
TEST_P(ConcurrencyTest, RenameOfCachedSubtreeLinearizes) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/r"));
  ASSERT_OK(t.Mkdir("/r/d"));
  std::vector<std::string> files;
  for (int i = 0; i < 32; ++i) {
    std::string p = "/r/d/f" + std::to_string(i);
    auto fd = t.Open(p, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
    files.push_back(p);
  }
  // Warm the caches so the rename's invalidation pass has a real subtree.
  for (const std::string& p : files) {
    ASSERT_OK(t.Statx(kAtFdCwd, p, 0));
  }

  std::atomic<bool> stop{false};
  // Monotonic, never-repeating phase word; low 2 bits: 0 = subtree at /r,
  // 1 = at /r2, 2 = rename in flight.
  std::atomic<uint64_t> phase{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      TaskPtr task = world_.root->Fork();
      Rng rng(static_cast<uint64_t>(i) + 99);
      while (!stop.load(std::memory_order_acquire)) {
        std::string leaf = "/d/f" + std::to_string(rng.Below(32));
        uint64_t before = phase.load(std::memory_order_acquire);
        auto at_old = task->Statx(kAtFdCwd, "/r" + leaf, 0);
        auto at_new = task->Statx(kAtFdCwd, "/r2" + leaf, 0);
        uint64_t after = phase.load(std::memory_order_acquire);
        if (before != after) {
          continue;  // a rename overlapped: no definitive claim
        }
        if ((before & 3) == 0) {
          EXPECT_OK(at_old);
          EXPECT_FALSE(at_new.ok()) << "old AND new path both resolved";
        } else if ((before & 3) == 1) {
          EXPECT_FALSE(at_old.ok()) << "old path resolved after rename";
          EXPECT_OK(at_new);
        }
        if (at_old.ok()) {
          EXPECT_TRUE(at_old->IsRegular());
        }
        if (at_new.ok()) {
          EXPECT_TRUE(at_new->IsRegular());
        }
      }
    });
  }
  TaskPtr mut = world_.root->Fork();
  for (uint64_t i = 1; i <= 120; ++i) {
    phase.store(i * 8 + 2, std::memory_order_release);
    ASSERT_OK(mut->Rename("/r", "/r2"));
    phase.store(i * 8 + 1, std::memory_order_release);
    std::this_thread::yield();
    phase.store(i * 8 + 6, std::memory_order_release);
    ASSERT_OK(mut->Rename("/r2", "/r"));
    phase.store(i * 8 + 4, std::memory_order_release);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
}

// The ISSUE's mutator storm: renames of directories with large cached
// subtrees racing stat/open traffic on those same subtrees, with a full
// invariant audit after every phase (build, storm, settle).
TEST_P(ConcurrencyTest, MutatorStormOnLargeCachedSubtrees) {
  Task& t = *world_.root;
  constexpr int kDirs = 8;
  constexpr int kFiles = 24;
  for (int d = 0; d < kDirs; ++d) {
    std::string dir = "/big/d" + std::to_string(d);
    if (d == 0) {
      ASSERT_OK(t.Mkdir("/big"));
    }
    ASSERT_OK(t.Mkdir(dir));
    for (int f = 0; f < kFiles; ++f) {
      auto fd = t.Open(dir + "/f" + std::to_string(f), kOCreat | kOWrite);
      ASSERT_OK(fd);
      ASSERT_OK(t.Close(*fd));
    }
  }
  // Warm every path so the storm's invalidation passes do real work.
  for (int d = 0; d < kDirs; ++d) {
    for (int f = 0; f < kFiles; ++f) {
      ASSERT_OK(t.Statx(kAtFdCwd, "/big/d" + std::to_string(d) + "/f" +
                           std::to_string(f), 0));
    }
  }
  {
    obs::AuditReport built = world_.kernel->Audit();
    ASSERT_TRUE(built.clean()) << built.ToText();
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&, i] {
      TaskPtr task = world_.root->Fork();
      Rng rng(static_cast<uint64_t>(i) * 31 + 7);
      while (!stop.load(std::memory_order_acquire)) {
        std::string leaf = "/d" + std::to_string(rng.Below(kDirs)) + "/f" +
                           std::to_string(rng.Below(kFiles));
        const char* base = rng.Below(2) == 0 ? "/big" : "/big2";
        if (rng.Below(2) == 0) {
          auto r = task->Statx(kAtFdCwd, base + leaf, 0);
          if (r.ok()) {
            hits.fetch_add(1);
            EXPECT_TRUE(r->IsRegular());
          } else {
            misses.fetch_add(1);
            EXPECT_TRUE(r.error() == Errno::kENOENT ||
                        r.error() == Errno::kENOTDIR)
                << ErrnoName(r.error());
          }
        } else {
          auto fd = task->Open(base + leaf, kORead);
          if (fd.ok()) {
            hits.fetch_add(1);
            EXPECT_OK(task->Close(*fd));
          } else {
            misses.fetch_add(1);
          }
        }
      }
    });
  }
  TaskPtr mut = world_.root->Fork();
  int renames = 0;
  for (; renames < 100000; ++renames) {
    ASSERT_OK(mut->Rename((renames & 1) != 0 ? "/big2" : "/big",
                          (renames & 1) != 0 ? "/big" : "/big2"));
    if (renames >= 200 && hits.load() > 0 && misses.load() > 0) {
      break;
    }
    if ((renames & 63) == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  {
    obs::AuditReport stormed = world_.kernel->Audit();
    ASSERT_TRUE(stormed.clean()) << stormed.ToText();
  }
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(misses.load(), 0u);

  // Settle: everything must resolve under the final name.
  const char* base = (renames & 1) == 0 ? "/big2" : "/big";
  for (int d = 0; d < kDirs; ++d) {
    for (int f = 0; f < kFiles; ++f) {
      EXPECT_OK(t.Statx(kAtFdCwd, std::string(base) + "/d" + std::to_string(d) +
                           "/f" + std::to_string(f), 0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothKernels, ConcurrencyTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Optimized" : "Baseline";
                         });

// ---------------------------------------------------------------------------
// Invalidation engine: parallel passes, gate progress, overlapping subtrees.
// Runs on the optimized kernel with a low parallel threshold so the worker
// pool actually engages at test-sized subtrees.

class InvalEngineTest : public ::testing::Test {
 protected:
  static CacheConfig Config() {
    CacheConfig cfg = CacheConfig::Optimized();
    cfg.inval_parallel_threshold = 256;
    cfg.inval_max_workers = 4;
    return cfg;
  }

  InvalEngineTest() : world_(Config()) {}

  void TearDown() override {
    obs::AuditReport report = world_.kernel->Audit();
    EXPECT_TRUE(report.clean()) << report.ToText();
  }

  TestWorld world_;
};

// Acceptance: concurrent lookups make bounded-retry progress while a
// 10k-dentry invalidation is in flight. Deterministic on a single CPU: the
// coherence gate is held open explicitly (exactly the state every walk
// observes mid-pass), lookups are required to complete through the
// slowpath, and the pass itself then runs concurrently with more lookups.
TEST_F(InvalEngineTest, LookupsProgressDuringTenThousandDentryInvalidation) {
  Task& t = *world_.root;
  constexpr int kDirs = 50;
  constexpr int kFiles = 200;  // 50*200 files + 50 dirs + root > 10k dentries
  ASSERT_OK(t.Mkdir("/huge"));
  for (int d = 0; d < kDirs; ++d) {
    std::string dir = "/huge/d" + std::to_string(d);
    ASSERT_OK(t.Mkdir(dir));
    for (int f = 0; f < kFiles; ++f) {
      auto fd = t.Open(dir + "/f" + std::to_string(f), kOCreat | kOWrite);
      ASSERT_OK(fd);
      ASSERT_OK(t.Close(*fd));
    }
  }
  ASSERT_OK(t.Mkdir("/other"));
  auto ofd = t.Open("/other/f", kOCreat | kOWrite);
  ASSERT_OK(ofd);
  ASSERT_OK(t.Close(*ofd));
  ASSERT_OK(t.Statx(kAtFdCwd, "/other/f", 0));  // warm

  PathWalker walker(world_.kernel.get());
  auto huge = walker.Resolve(*world_.root, nullptr, "/huge", 0);
  ASSERT_OK(huge);

  TaskPtr reader = world_.root->Fork();
  {
    CoherenceSection section(&world_.kernel->dcache());
    // Gate open == a deferred pass is in flight somewhere. Every lookup
    // must still complete (falling back to the slowpath), not spin or
    // block on the gate.
    for (int i = 0; i < 200; ++i) {
      ASSERT_OK(reader->Statx(kAtFdCwd, "/other/f", 0));
      ASSERT_OK(reader->Statx(kAtFdCwd, "/huge/d0/f0", 0));
    }
    // Now run the real 10k-dentry pass while lookups keep flowing.
    std::thread inval(
        [&] { section.InvalidateNow(huge->dentry()); });
    for (int i = 0; i < 200; ++i) {
      ASSERT_OK(reader->Statx(kAtFdCwd, "/other/f", 0));
      ASSERT_OK(reader->Statx(kAtFdCwd, "/huge/d1/f1", 0));
    }
    inval.join();
    section.Close();
  }

  InvalPassStats stats = world_.kernel->dcache().last_inval_stats();
  EXPECT_GE(stats.visited, 10000u);
  EXPECT_EQ(stats.workers, 4u);  // threshold 256 << 10k: pool engaged
  EXPECT_GT(stats.dlht_batches, 0u);
  // Everything still resolves after the pass.
  ASSERT_OK(reader->Statx(kAtFdCwd, "/huge/d49/f199", 0));
  ASSERT_OK(reader->Statx(kAtFdCwd, "/other/f", 0));
}

// Overlapping subtree invalidations (chmod on nested directories from many
// threads) racing readers: no sequence number may be reused or skipped in a
// way the auditor's pcc_seq family can detect, and the structures must be
// clean afterwards (TearDown runs the audit; PCC checks included via the
// reader credentials' caches being validated lazily on their next use).
TEST_F(InvalEngineTest, OverlappingSubtreeInvalidationsKeepSeqsCoherent) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/s"));
  ASSERT_OK(t.Mkdir("/s/a"));
  ASSERT_OK(t.Mkdir("/s/a/b"));
  for (int i = 0; i < 300; ++i) {
    std::string dir = i % 3 == 0 ? "/s" : (i % 3 == 1 ? "/s/a" : "/s/a/b");
    auto fd = t.Open(dir + "/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
  for (int i = 0; i < 300; ++i) {
    std::string dir = i % 3 == 0 ? "/s" : (i % 3 == 1 ? "/s/a" : "/s/a/b");
    ASSERT_OK(t.Statx(kAtFdCwd, dir + "/f" + std::to_string(i), 0));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      TaskPtr task = world_.root->Fork();
      Rng rng(static_cast<uint64_t>(i) + 17);
      while (!stop.load(std::memory_order_acquire)) {
        int n = static_cast<int>(rng.Below(300));
        std::string dir =
            n % 3 == 0 ? "/s" : (n % 3 == 1 ? "/s/a" : "/s/a/b");
        auto r = task->Statx(kAtFdCwd, dir + "/f" + std::to_string(n), 0);
        EXPECT_OK(r);
      }
    });
  }
  // Three mutators chmodding the three nested roots: their invalidation
  // passes overlap arbitrarily (the engine serializes whole passes, but
  // the coherence sections and counter bumps interleave).
  std::vector<std::thread> mutators;
  for (int m = 0; m < 3; ++m) {
    mutators.emplace_back([&, m] {
      TaskPtr task = world_.root->Fork();
      const char* dir = m == 0 ? "/s" : (m == 1 ? "/s/a" : "/s/a/b");
      for (int i = 0; i < 25; ++i) {
        ASSERT_OK(task->Chmod(dir, (i & 1) != 0 ? 0750 : 0755));
        std::this_thread::yield();
      }
    });
  }
  for (auto& m : mutators) {
    m.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  // Every path still resolves with final modes applied.
  for (int i = 0; i < 300; ++i) {
    std::string dir = i % 3 == 0 ? "/s" : (i % 3 == 1 ? "/s/a" : "/s/a/b");
    EXPECT_OK(t.Statx(kAtFdCwd, dir + "/f" + std::to_string(i), 0));
  }
}

// ---------------------------------------------------------------------------
// Race windows replayed deterministically: PathWalker's race hooks run the
// losing side of a race at the exact point a concurrent mutator could, so
// each test fails the same way every run instead of once in many.

class RaceWindowTest : public ::testing::Test {
 protected:
  RaceWindowTest() : world_(CacheConfig::Optimized()) {
    Task& t = *world_.root;
    EXPECT_OK(t.Mkdir("/d"));
    auto fd = t.Open("/d/f", kOCreat | kOWrite);
    EXPECT_OK(fd);
    EXPECT_OK(t.Close(*fd));
    kernel_ = world_.kernel.get();
    mutator_ = world_.root->Fork();
  }

  void TearDown() override {
    PathWalker::before_publish = nullptr;
    PathWalker::before_stat_validate = nullptr;
    DentryCache::after_last_put = nullptr;
    mutator_.reset();
    obs::AuditReport report = world_.kernel->Audit();
    EXPECT_TRUE(report.clean()) << report.ToText();
  }

  // The hooks are plain function pointers; they reach the world here.
  static inline Kernel* kernel_ = nullptr;
  static inline TaskPtr mutator_;
  TestWorld world_;
};

// An unlink whose invalidation pass finished just before a slow walk took
// its counter snapshot kills the victim while that walk is in Populate,
// between computing the path state and publishing it. Publishing the dead
// dentry left it chained on the DLHT after its last Dput retired it, so a
// later probe read freed memory (the CreateUnlinkChurnWithReaders abort).
TEST_F(RaceWindowTest, PopulateNeverPublishesDentryKilledMidWalk) {
  Task& t = *world_.root;
  PathWalker::before_publish = [](Dentry* d) {
    if (d->name() == "f") {
      PathWalker::before_publish = nullptr;
      kernel_->dcache().Kill(d);  // the unlink's Kill, after its pass
    }
  };
  PathWalker walker(world_.kernel.get());
  PathWalker::force_fastpath_miss = true;  // resolve through Populate
  auto h = walker.Resolve(t, nullptr, "/d/f", 0);
  PathWalker::force_fastpath_miss = false;
  ASSERT_OK(h);
  Dentry* d = h->dentry();
  ASSERT_TRUE(d->IsDead()) << "the hook never ran";
  EXPECT_EQ(d->fast.on_dlht.load(), nullptr);
  obs::AuditReport report = world_.kernel->Audit();
  EXPECT_TRUE(report.clean()) << report.ToText();
  {
    // Unchain it anyway, so a regression fails above instead of crashing
    // in a later probe once the handle's release retires the dentry.
    SpinGuard guard(d->lock);
    Dlht::RemoveFromCurrent(&d->fast);
  }
}

// A warm Statx is served without a dentry reference: the attributes are
// copied first and validated after. Here /d/f is unlinked between the two;
// the stat must fall back and report ENOENT, never the dead dentry's Stat.
TEST_F(RaceWindowTest, ReferenceFreeStatFallsBackWhenDentryDies) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/d/f", 0));  // slow walk populates
  const uint64_t hits = world_.kernel->stats().fastpath_hits.value();
  ASSERT_OK(t.Statx(kAtFdCwd, "/d/f", 0));
  ASSERT_EQ(world_.kernel->stats().fastpath_hits.value(), hits + 1);

  PathWalker::before_stat_validate = [](Dentry* d) {
    PathWalker::before_stat_validate = nullptr;
    EXPECT_OK(mutator_->Unlink("/d/f"));
    EXPECT_TRUE(d->IsDead());
  };
  EXPECT_ERR(t.Statx(kAtFdCwd, "/d/f", 0), Errno::kENOENT);
  EXPECT_EQ(PathWalker::before_stat_validate, nullptr) << "the hook never ran";
}

// Dput drops the last reference and only then looks at the dentry again
// (to park it on the LRU). An eviction in that window retires the dentry;
// unless Dput holds the epoch across the window, the grace period can end
// and free the dentry under it (the EvictionRacesLookups heap corruption).
TEST_F(RaceWindowTest, DputKeepsDentryAllocatedAfterLastReference) {
  Task& t = *world_.root;
  PathWalker walker(world_.kernel.get());
  auto h = walker.Resolve(t, nullptr, "/d/f", 0);
  ASSERT_OK(h);
  EpochDomain::Global().Synchronize();  // no older garbage left to free
  DentryCache::after_last_put = [](Dentry* d) {
    DentryCache::after_last_put = nullptr;
    EpochDomain& epoch = EpochDomain::Global();
    const uint64_t freed = epoch.freed_count();
    {
      std::unique_lock<std::shared_mutex> tree(kernel_->tree_lock());
      kernel_->dcache().Shrink(1024);
    }
    EXPECT_TRUE(d->IsDead()) << "the eviction did not take the dentry";
    // Enough retirements to end several grace periods if nothing pins one.
    for (int i = 0; i < 256; ++i) {
      epoch.RetireObject(new int(i));
    }
    EXPECT_EQ(epoch.freed_count(), freed);
  };
  h->Reset();
  EXPECT_EQ(DentryCache::after_last_put, nullptr) << "the hook never ran";
}

}  // namespace
}  // namespace dircache
