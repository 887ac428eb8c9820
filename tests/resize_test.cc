// Elastic DLHT resize + cache governor (DESIGN.md §15): online grow/shrink
// correctness, reader safety across table retirement, tenant accounting,
// and the memory-budget policy loop.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dlht.h"
#include "src/vfs/governor.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

CacheConfig SmallTableConfig() {
  CacheConfig cfg = CacheConfig::Optimized();
  cfg.dlht_buckets = 1 << 6;  // small enough that tests exercise chains
  cfg.dlht_min_buckets = 1 << 4;
  cfg.dlht_resize_step = 8;  // several MigrateStep calls per resize
  return cfg;
}

// Drives an in-flight resize to completion in bounded steps.
size_t DrainResize(Dlht& table, CacheStats* stats, size_t step = 8) {
  size_t moved = 0;
  while (table.resize_in_flight()) {
    size_t n = table.MigrateStep(step, stats);
    EXPECT_GT(n, 0u);  // an in-flight resize always has buckets left
    moved += n;
  }
  return moved;
}

class ResizeTest : public ::testing::Test {
 protected:
  explicit ResizeTest(CacheConfig cfg = SmallTableConfig()) : world_(cfg) {}

  Dlht& Table() { return world_.kernel->root_ns()->dlht(); }
  CacheStats& Stats() { return world_.kernel->stats(); }

  // Create `n` files under `dir` (created if needed) and publish each to
  // the DLHT by statting it twice (slowpath publishes, second walk hits).
  void Populate(const std::string& dir, size_t n,
                const TaskPtr& task = nullptr) {
    const TaskPtr& t = task != nullptr ? task : world_.root;
    (void)world_.root->Mkdir(dir);
    for (size_t i = 0; i < n; ++i) {
      std::string path = dir + "/f" + std::to_string(i);
      auto fd = t->Open(path, kOCreat | kOWrite);
      ASSERT_OK(fd);
      ASSERT_OK(t->Close(*fd));
      ASSERT_OK(t->Statx(kAtFdCwd, path, 0));
      ASSERT_OK(t->Statx(kAtFdCwd, path, 0));
    }
  }

  // Every file statted warm must hit the fastpath. A scan over distinct
  // warm files pays exactly one shared write per hit — the PCC recency
  // tick (LRU upkeep, see Pcc::LookupKey) — so bounding the delta by `n`
  // proves the two-candidate resize probe adds no stores of its own. A
  // repeatedly-statted hot file must stay entirely store-free
  // (the §6.3 scalability property the resize must preserve).
  void ExpectWarmHitsSharedWriteFree(const std::string& dir, size_t n) {
    uint64_t hits_before = Stats().fastpath_hits.value();
    uint64_t shared_before = Stats().shared_writes.value();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_OK(world_.root->Statx(kAtFdCwd,
                                   dir + "/f" + std::to_string(i), 0));
    }
    EXPECT_EQ(Stats().fastpath_hits.value() - hits_before, n);
    EXPECT_LE(Stats().shared_writes.value() - shared_before, n);
    for (int i = 0; i < 4; ++i) {  // settle the hot entry's recency tick
      ASSERT_OK(world_.root->Statx(kAtFdCwd, dir + "/f0", 0));
    }
    uint64_t hot_before = Stats().shared_writes.value();
    for (int i = 0; i < 16; ++i) {
      ASSERT_OK(world_.root->Statx(kAtFdCwd, dir + "/f0", 0));
    }
    EXPECT_EQ(Stats().shared_writes.value() - hot_before, 0u);
  }

  TestWorld world_;
};

TEST_F(ResizeTest, GrowShrinkCycleKeepsEntriesFindable) {
  constexpr size_t kFiles = 200;
  Populate("/d", kFiles);
  Dlht& table = Table();
  const size_t buckets = table.bucket_count();
  const size_t entries = table.size();
  EXPECT_GE(entries, kFiles);
  EXPECT_EQ(table.SizeSlow(), entries);

  // Grow 2x: every entry stays findable at every cursor position.
  ASSERT_TRUE(table.BeginResize(buckets * 2, &Stats()));
  EXPECT_TRUE(table.resize_in_flight());
  ExpectWarmHitsSharedWriteFree("/d", kFiles);  // mid-flight, cursor parked
  size_t moved = DrainResize(table, &Stats());
  EXPECT_EQ(moved, buckets);
  EXPECT_EQ(table.bucket_count(), buckets * 2);
  EXPECT_EQ(table.size(), entries);
  EXPECT_EQ(table.SizeSlow(), entries);
  ExpectWarmHitsSharedWriteFree("/d", kFiles);
  EXPECT_TRUE(world_.kernel->Audit().clean());

  // Shrink back: chains merge, nothing is lost.
  ASSERT_TRUE(table.BeginResize(buckets, &Stats()));
  DrainResize(table, &Stats());
  EXPECT_EQ(table.bucket_count(), buckets);
  EXPECT_EQ(table.SizeSlow(), entries);
  ExpectWarmHitsSharedWriteFree("/d", kFiles);
  EXPECT_TRUE(world_.kernel->Audit().clean());

  EXPECT_EQ(Stats().dlht_resizes.value(), 2u);
  EXPECT_EQ(Stats().dlht_buckets_migrated.value(), buckets * 2 + buckets);
}

TEST_F(ResizeTest, BeginResizeRejectsBadGeometryAndOverlap) {
  Dlht& table = Table();
  const size_t buckets = table.bucket_count();
  EXPECT_FALSE(table.BeginResize(buckets, &Stats()));      // same size
  EXPECT_FALSE(table.BeginResize(buckets * 4, &Stats()));  // skips a step
  EXPECT_FALSE(table.BeginResize(buckets * 2 - 1, &Stats()));
  ASSERT_TRUE(table.BeginResize(buckets * 2, &Stats()));
  EXPECT_FALSE(table.BeginResize(buckets * 4, &Stats()));  // already going
  DrainResize(table, &Stats());
  EXPECT_EQ(Stats().dlht_resizes.value(), 1u);
}

TEST_F(ResizeTest, AuditCleanWithResizeParkedMidFlight) {
  Populate("/mid", 120);
  Dlht& table = Table();
  ASSERT_TRUE(table.BeginResize(table.bucket_count() * 2, &Stats()));
  // Park the migration at several cursor positions; the auditor's
  // resize-aware iteration must count every entry exactly once each time.
  while (table.resize_in_flight()) {
    EXPECT_TRUE(world_.kernel->Audit().clean());
    table.MigrateStep(16, &Stats());
  }
  EXPECT_TRUE(world_.kernel->Audit().clean());
}

// Readers and mutators race grow/shrink cycles. Run under TSan
// (scripts/check.sh --tsan=resize) this validates the two-candidate probe
// and validated-lock writer protocol; under ASan it validates that retired
// tables outlive every reader (epoch reclamation).
TEST_F(ResizeTest, ConcurrentStormSurvivesResizeCycles) {
  constexpr size_t kFiles = 64;
  Populate("/storm", kFiles);
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> walks{0};
    std::thread reader([&] {
      TaskPtr t = world_.root->Fork();
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::string path = "/storm/f" + std::to_string(i++ % kFiles);
        auto st = t->Statx(kAtFdCwd, path, 0);
        if (st.ok()) {
          walks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    std::thread mutator([&] {
      TaskPtr t = world_.root->Fork();
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::string a = "/storm/m" + std::to_string(i % 8);
        std::string b = "/storm/r" + std::to_string(i % 8);
        auto fd = t->Open(a, kOCreat | kOWrite);
        if (fd.ok()) {
          (void)t->Close(*fd);
        }
        (void)t->Statx(kAtFdCwd, a, 0);
        (void)t->Rename(a, b);
        (void)t->Unlink(b);
        ++i;
      }
    });
    // Wait for the reader to make progress before churning the geometry —
    // on a single-CPU host the resize rounds below can otherwise finish
    // before the spawned threads are ever scheduled, and the point of the
    // test is that the walks overlap the migration.
    while (walks.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    // Main thread churns the geometry: one full up/down cycle per loop.
    Dlht& table = Table();
    const size_t buckets = table.bucket_count();
    for (int r = 0; r < 4; ++r) {
      size_t target = r % 2 == 0 ? buckets * 2 : buckets;
      if (table.BeginResize(target, &Stats())) {
        while (table.resize_in_flight()) {
          table.MigrateStep(4, &Stats());
        }
      }
    }
    stop.store(true, std::memory_order_release);
    reader.join();
    mutator.join();
    EXPECT_GT(walks.load(), 0u);
    // Quiesced: the structural invariants must hold after every cycle.
    EXPECT_TRUE(world_.kernel->Audit().clean()) << "cycle " << cycle;
  }
}

TEST_F(ResizeTest, TenantAccountingTracksCreationAndRelease) {
  DentryCache& dc = world_.kernel->dcache();
  ASSERT_OK(world_.root->Mkdir("/ten", 0777));
  TaskPtr alice = world_.UserTask(1000, 1000);
  TaskPtr bob = world_.UserTask(2000, 2000);
  for (int i = 0; i < 20; ++i) {
    auto fd = alice->Open("/ten/a" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(alice->Close(*fd));
  }
  for (int i = 0; i < 5; ++i) {
    auto fd = bob->Open("/ten/b" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(bob->Close(*fd));
  }
  auto usage_of = [&](uint32_t tenant) -> DentryCache::TenantUsage {
    for (const auto& t : dc.TenantUsages()) {
      if (t.tenant == tenant) {
        return t;
      }
    }
    return {};
  };
  EXPECT_EQ(usage_of(1000).dentries, 20u);
  EXPECT_EQ(usage_of(2000).dentries, 5u);
  EXPECT_GT(usage_of(0).dentries, 0u);  // root's own dentries

  // Negative dentries are charged to the walker that instantiated them.
  EXPECT_FALSE(alice->Statx(kAtFdCwd, "/ten/missing", 0).ok());
  EXPECT_FALSE(alice->Statx(kAtFdCwd, "/ten/missing", 0).ok());
  EXPECT_GE(usage_of(1000).negatives, 1u);

  // Eviction refunds the charge.
  uint64_t alice_before = usage_of(1000).dentries;
  {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    dc.ShrinkTenant(1000, 10);
  }
  EXPECT_EQ(usage_of(1000).dentries, alice_before - 10);
  EXPECT_EQ(usage_of(2000).dentries, 5u);  // untouched
}

TEST_F(ResizeTest, ShrinkTenantSparesOtherTenantsReferenceBits) {
  DentryCache& dc = world_.kernel->dcache();
  ASSERT_OK(world_.root->Mkdir("/iso", 0777));
  TaskPtr quiet = world_.UserTask(1000, 1000);
  TaskPtr noisy = world_.UserTask(2000, 2000);
  for (int i = 0; i < 10; ++i) {
    auto fd = quiet->Open("/iso/q" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(quiet->Close(*fd));
  }
  for (int i = 0; i < 50; ++i) {
    auto fd = noisy->Open("/iso/n" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(noisy->Close(*fd));
  }
  // Shrinking the noisy tenant must not consume the quiet tenant's clock
  // reference bits: a later global Shrink still gives quiet entries their
  // second chance.
  size_t evicted;
  {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    evicted = dc.ShrinkTenant(2000, 50);
  }
  EXPECT_EQ(evicted, 50u);
  for (int i = 0; i < 10; ++i) {
    auto st = quiet->Statx(kAtFdCwd, "/iso/q" + std::to_string(i), 0);
    EXPECT_TRUE(st.ok()) << "quiet entry " << i << " evicted";
  }
  EXPECT_TRUE(world_.kernel->Audit().clean());
}

// --- governor policy (driven deterministically via Tick) -------------------

struct GovernorWorldConfig {
  static CacheConfig Make() {
    CacheConfig cfg = SmallTableConfig();
    cfg.governor = true;
    cfg.governor_interval_us = 0;  // no thread; tests call Tick()
    cfg.pcc_bytes = 4096;
    // Room for the tables plus ~300 dentries; the workloads below exceed
    // it so EnforceBudget has to act.
    cfg.cache_memory_budget =
        300 * DentryCache::kApproxDentryBytes + 64 * 1024;
    return cfg;
  }
};

class GovernorTest : public ResizeTest {
 protected:
  GovernorTest() : ResizeTest(GovernorWorldConfig::Make()) {}
};

TEST_F(GovernorTest, ShrinksToBudgetAndSparesQuietTenant) {
  CacheGovernor* gov = world_.kernel->governor();
  ASSERT_NE(gov, nullptr);
  ASSERT_OK(world_.root->Mkdir("/gt", 0777));
  TaskPtr noisy = world_.UserTask(2000, 2000);
  TaskPtr quiet = world_.UserTask(1000, 1000);
  for (int i = 0; i < 700; ++i) {
    auto fd = noisy->Open("/gt/n" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(noisy->Close(*fd));
  }
  for (int i = 0; i < 40; ++i) {
    auto fd = quiet->Open("/gt/q" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(quiet->Close(*fd));
    ASSERT_OK(quiet->Statx(kAtFdCwd, "/gt/q" + std::to_string(i), 0));
  }
  DentryCache& dc = world_.kernel->dcache();
  auto dentries_of = [&](uint32_t tenant) -> uint64_t {
    for (const auto& t : dc.TenantUsages()) {
      if (t.tenant == tenant) {
        return t.dentries;
      }
    }
    return 0;
  };
  const uint64_t quiet_before = dentries_of(1000);
  ASSERT_GT(gov->MeasureUsage().total(),
            world_.kernel->config().cache_memory_budget);

  EXPECT_TRUE(gov->Tick());
  EXPECT_GE(world_.kernel->stats().governor_shrinks.value(), 1u);
  // Within one dentry's worth of the budget after the pass.
  EXPECT_LE(gov->MeasureUsage().total(),
            world_.kernel->config().cache_memory_budget +
                DentryCache::kApproxDentryBytes);
  // The noisy tenant paid; the quiet tenant's hot set survived (<5% loss).
  const uint64_t quiet_after = dentries_of(1000);
  EXPECT_GE(quiet_after * 100, quiet_before * 95)
      << "quiet tenant lost " << (quiet_before - quiet_after) << " of "
      << quiet_before;
  EXPECT_TRUE(world_.kernel->Audit().clean());
}

TEST_F(GovernorTest, GrowsDlhtWhenChainsDegradeAndMergesWhenSparse) {
  CacheGovernor* gov = world_.kernel->governor();
  ASSERT_NE(gov, nullptr);
  Dlht& table = Table();
  const size_t buckets = table.bucket_count();  // 64
  // ~4.7 entries/bucket on 64 buckets: the p99 chain comfortably exceeds
  // the grow trigger of 4.
  Populate("/gd", 300);
  ASSERT_GT(table.size(), 250u);
  EXPECT_TRUE(gov->Tick());  // begins (and steps) the grow
  while (table.resize_in_flight()) {
    gov->Tick();
  }
  EXPECT_EQ(table.bucket_count(), buckets * 2);

  // Evict nearly everything: occupancy falls under kDlhtShrinkLoad and the
  // governor halves the table (possibly repeatedly, down to the floor).
  world_.kernel->DropCaches();
  ASSERT_LT(table.size(), 8u);
  for (int i = 0; i < 64 && table.bucket_count() >
                               world_.kernel->config().dlht_min_buckets;
       ++i) {
    gov->Tick();
  }
  EXPECT_EQ(table.bucket_count(), world_.kernel->config().dlht_min_buckets);
  EXPECT_TRUE(world_.kernel->Audit().clean());
}

TEST(GovernorJournal, ReportsPccPressureWhenDlhtIsHealthy) {
  CacheConfig cfg = CacheConfig::Optimized();  // a roomy, healthy DLHT
  cfg.governor = true;
  cfg.governor_interval_us = 0;  // no thread; the test calls Tick()
  cfg.pcc_bytes = 512;           // 32 entries
  TestWorld world(cfg, nullptr, ObsConfig::Enabled());
  CacheGovernor* gov = world.kernel->governor();
  ASSERT_NE(gov, nullptr);
  // Full-path stats over 200 one-file directories cycle far more memos
  // through the PCC than its 32 entries hold, so nearly every lookup
  // misses while the DLHT stays healthy: the governor must attribute the
  // pressure to the PCC.
  std::vector<std::string> files;
  for (int i = 0; i < 200; ++i) {
    const std::string dir = "/pp" + std::to_string(i);
    ASSERT_OK(world.root->Mkdir(dir));
    auto fd = world.root->Open(dir + "/f", kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(world.root->Close(*fd));
    files.push_back(dir + "/f");
  }
  const CacheStats& stats = world.kernel->stats();
  const uint64_t misses0 = stats.pcc_misses.value();
  for (int round = 0; round < 30; ++round) {
    for (const std::string& f : files) {
      ASSERT_OK(world.root->Statx(kAtFdCwd, f, 0));
    }
  }
  ASSERT_GT(stats.pcc_misses.value() - misses0, 4096u);
  gov->Tick();
  gov->Tick();  // edge-triggered: a persistent episode journals once
  size_t pressure_events = 0;
  for (const auto& ev : world.kernel->Observe().journal) {
    pressure_events += ev.type == obs::JournalEvent::kPccPressure ? 1 : 0;
  }
  EXPECT_EQ(pressure_events, 1u);
}

}  // namespace
}  // namespace dircache
