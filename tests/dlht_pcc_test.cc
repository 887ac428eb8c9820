// Direct Lookup Hash Table and Prefix Check Cache unit tests (§3.1).
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dlht.h"
#include "src/core/pcc.h"
#include "src/core/signature.h"
#include "src/util/stats.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

Signature SigOf(const PathSigner& signer, std::string_view a,
                std::string_view b = {}) {
  HashState st = signer.RootState();
  EXPECT_TRUE(signer.AppendComponent(st, a));
  if (!b.empty()) {
    EXPECT_TRUE(signer.AppendComponent(st, b));
  }
  return signer.Finalize(st);
}

TEST(DlhtTest, InsertLookupRemove) {
  PathSigner signer(1);
  Dlht table(1 << 8);
  FastDentry fd;
  fd.signature = SigOf(signer, "etc", "passwd");
  CacheStats stats;
  EXPECT_EQ(table.Lookup(fd.signature, &stats), nullptr);
  table.Insert(&fd);
  EXPECT_EQ(table.Lookup(fd.signature, &stats), &fd);
  EXPECT_EQ(table.SizeSlow(), 1u);
  // A different signature misses even when it shares the bucket.
  Signature other = SigOf(signer, "etc", "shadow");
  other.bucket = fd.signature.bucket;
  EXPECT_EQ(table.Lookup(other, &stats), nullptr);
  Dlht::RemoveFromCurrent(&fd);
  EXPECT_EQ(table.Lookup(fd.signature, &stats), nullptr);
  EXPECT_EQ(fd.on_dlht.load(), nullptr);
  Dlht::RemoveFromCurrent(&fd);  // idempotent
}

TEST(DlhtTest, OneTableAtATime) {
  PathSigner signer(2);
  Dlht t1(1 << 6);
  Dlht t2(1 << 6);
  FastDentry fd;
  fd.signature = SigOf(signer, "a");
  t1.Insert(&fd);
  EXPECT_EQ(fd.on_dlht.load(), &t1);
  // Moving to another table requires removal first (§4.3 discipline).
  Dlht::RemoveFromCurrent(&fd);
  t2.Insert(&fd);
  EXPECT_EQ(fd.on_dlht.load(), &t2);
  CacheStats stats;
  EXPECT_EQ(t1.Lookup(fd.signature, &stats), nullptr);
  EXPECT_EQ(t2.Lookup(fd.signature, &stats), &fd);
  Dlht::RemoveFromCurrent(&fd);
}

TEST(DlhtTest, RemoveBatchEvictsOnlyPresentEntries) {
  PathSigner signer(7);
  Dlht table(1 << 2);  // tiny: everything shares few buckets
  CacheStats stats;
  FastDentry a;
  FastDentry b;
  FastDentry c;
  a.signature = SigOf(signer, "a");
  b.signature = SigOf(signer, "b");
  c.signature = SigOf(signer, "c");
  // Force all three into one bucket so a single batch covers them.
  b.signature.bucket = a.signature.bucket;
  c.signature.bucket = a.signature.bucket;
  table.Insert(&a);
  table.Insert(&b);
  // `c` was never inserted: the batch must skip it (the invalidation engine
  // batches entries while holding the dentry lock, but by flush time a
  // concurrent writer may already have unhashed them).
  const size_t bucket = Dlht::BucketKeyFor(a.signature);
  FastDentry* batch[] = {&a, &c, &b};
  EXPECT_EQ(table.RemoveBatch(bucket, batch, 3), 2u);
  EXPECT_EQ(table.Lookup(a.signature, &stats), nullptr);
  EXPECT_EQ(table.Lookup(b.signature, &stats), nullptr);
  EXPECT_EQ(a.on_dlht.load(), nullptr);
  EXPECT_EQ(b.on_dlht.load(), nullptr);
  EXPECT_EQ(table.SizeSlow(), 0u);
  // Repeating the batch is a no-op.
  EXPECT_EQ(table.RemoveBatch(bucket, batch, 3), 0u);
}

TEST(DlhtTest, RemoveBatchSkipsEntriesMovedToAnotherBucket) {
  PathSigner signer(8);
  Dlht table(1 << 4);
  CacheStats stats;
  FastDentry fd;
  fd.signature = SigOf(signer, "original");
  table.Insert(&fd);
  const size_t old_bucket = Dlht::BucketKeyFor(fd.signature);
  // Simulate a concurrent re-signature + re-insert between the engine
  // batching this entry and the flush: the entry now lives in a different
  // bucket of the same table.
  Dlht::RemoveFromCurrent(&fd);
  Signature moved = SigOf(signer, "rehashed");
  moved.bucket = fd.signature.bucket + 1;  // guarantee a different bucket
  fd.signature = moved;
  table.Insert(&fd);
  // The stale-bucket batch finds no matching node and removes nothing.
  FastDentry* batch[] = {&fd};
  EXPECT_EQ(table.RemoveBatch(old_bucket, batch, 1), 0u);
  EXPECT_EQ(table.Lookup(fd.signature, &stats), &fd);
  EXPECT_EQ(fd.on_dlht.load(), &table);
  Dlht::RemoveFromCurrent(&fd);
}

TEST(DlhtTest, ChainsHoldManyEntries) {
  PathSigner signer(3);
  Dlht table(1 << 2);  // tiny: force chains
  std::vector<std::unique_ptr<FastDentry>> entries;
  CacheStats stats;
  for (int i = 0; i < 64; ++i) {
    auto fd = std::make_unique<FastDentry>();
    fd->signature = SigOf(signer, "f" + std::to_string(i));
    table.Insert(fd.get());
    entries.push_back(std::move(fd));
  }
  for (auto& fd : entries) {
    EXPECT_EQ(table.Lookup(fd->signature, &stats), fd.get());
  }
  EXPECT_GT(stats.dlht_collisions.value(), 0u);  // chains were probed
  for (auto& fd : entries) {
    Dlht::RemoveFromCurrent(fd.get());
  }
  EXPECT_EQ(table.SizeSlow(), 0u);
}

// Park a resize halfway (BeginResize, then MigrateStep over half the old
// buckets): old homes [0, old/2) sit behind the split cursor and
// [old/2, old) ahead of it. Every operation must find, count and remove
// entries on both sides; the concurrency storms reach this state only by
// chance.
void CheckParkedSplit(size_t old_buckets, size_t new_buckets) {
  PathSigner signer(9);
  Dlht table(old_buckets);
  Dlht other(old_buckets);
  CacheStats stats;
  std::vector<std::unique_ptr<FastDentry>> entries;
  auto make = [&](size_t key) {
    entries.push_back(std::make_unique<FastDentry>());
    FastDentry* fd = entries.back().get();
    fd->signature = SigOf(signer, "e" + std::to_string(entries.size()));
    fd->signature.bucket = static_cast<uint32_t>(key);
    return fd;
  };
  // Before the resize, two keys per old bucket b: b and b + old_buckets,
  // which split apart on a grow and stay together on a shrink.
  std::vector<FastDentry*> low;
  std::vector<FastDentry*> high;
  for (size_t b = 0; b < old_buckets; ++b) {
    low.push_back(make(b));
    high.push_back(make(b + old_buckets));
    table.Insert(low.back());
    table.Insert(high.back());
  }
  ASSERT_TRUE(table.BeginResize(new_buckets, &stats));
  ASSERT_EQ(table.MigrateStep(old_buckets / 2, &stats), old_buckets / 2);
  ASSERT_TRUE(table.resize_in_flight());
  const size_t behind = 1;
  const size_t ahead = old_buckets - 1;
  for (size_t key : {behind, ahead}) {
    table.Insert(make(key + 2 * old_buckets));
  }

  const uint64_t hits = stats.dlht_hits.value();
  for (const auto& fd : entries) {
    EXPECT_EQ(table.Lookup(fd->signature, &stats), fd.get());
  }
  EXPECT_EQ(stats.dlht_hits.value(), hits + entries.size());
  const uint64_t probes = stats.shortcut_probes.value();
  for (const auto& fd : entries) {
    EXPECT_EQ(table.ProbePrefix(fd->signature, &stats), fd.get());
  }
  EXPECT_EQ(stats.shortcut_probes.value(), probes + entries.size());
  EXPECT_EQ(stats.dlht_hits.value(), hits + entries.size());
  for (size_t key : {behind, ahead}) {
    Signature absent = SigOf(signer, "absent");
    absent.bucket = static_cast<uint32_t>(key);
    const uint64_t collisions = stats.dlht_collisions.value();
    EXPECT_EQ(table.Lookup(absent, &stats), nullptr);
    EXPECT_GT(stats.dlht_collisions.value(), collisions);
  }
  EXPECT_EQ(stats.dlht_hits.value(), hits + entries.size());

  EXPECT_EQ(table.SizeSlow(), entries.size());
  std::map<FastDentry*, int> seen;
  table.ForEachEntry([&](FastDentry* fd) { ++seen[fd]; });
  EXPECT_EQ(seen.size(), entries.size());
  for (const auto& [fd, times] : seen) {
    EXPECT_EQ(times, 1);
  }

  for (size_t key : {behind, ahead}) {
    EXPECT_TRUE(Dlht::RemoveFromCurrent(high[key]));
    EXPECT_FALSE(Dlht::RemoveFromCurrent(high[key]));
    EXPECT_EQ(table.Lookup(high[key]->signature, &stats), nullptr);
  }

  // One RemoveBatch per key: it removes every member on the key's home
  // (one inserted before the resize, two during it) and skips a member
  // that left for another table under another key after it was batched.
  for (size_t key : {behind, ahead}) {
    FastDentry* during1 = make(key);
    FastDentry* during2 = make(key);
    FastDentry* left = make(key);
    for (FastDentry* fd : {during1, during2, left}) {
      table.Insert(fd);
    }
    Dlht::RemoveFromCurrent(left);
    left->signature.bucket = static_cast<uint32_t>(key + 1);
    other.Insert(left);
    FastDentry* batch[] = {low[key], left, during1, during2};
    EXPECT_EQ(table.RemoveBatch(key, batch, 4), 3u);
    for (FastDentry* fd : {low[key], during1, during2}) {
      EXPECT_EQ(fd->on_dlht.load(), nullptr);
      EXPECT_EQ(table.Lookup(fd->signature, &stats), nullptr);
    }
    EXPECT_EQ(left->on_dlht.load(), &other);
    EXPECT_EQ(other.Lookup(left->signature, &stats), left);
  }
  size_t live = 0;
  for (const auto& fd : entries) {
    live += fd->on_dlht.load() == &table ? 1 : 0;
  }
  EXPECT_EQ(table.SizeSlow(), live);
  EXPECT_EQ(table.size(), live);

  // Finishing the migration keeps every entry where probes find it.
  while (table.MigrateStep(old_buckets, &stats) > 0) {
  }
  EXPECT_FALSE(table.resize_in_flight());
  EXPECT_EQ(table.bucket_count(), new_buckets);
  for (const auto& fd : entries) {
    Dlht* home = fd->on_dlht.load();
    if (home != nullptr) {
      EXPECT_EQ(home->Lookup(fd->signature, &stats), fd.get());
    }
  }
  EXPECT_EQ(table.SizeSlow(), live);
  for (const auto& fd : entries) {
    Dlht::RemoveFromCurrent(fd.get());
  }
}

TEST(DlhtTest, EveryOperationOnAParkedGrow) { CheckParkedSplit(8, 16); }

TEST(DlhtTest, EveryOperationOnAParkedShrink) { CheckParkedSplit(16, 8); }

TEST(PccTest, InsertLookupSeqMismatch) {
  // Keys are pointer>>3: like dentries, test objects must be 8-aligned.
  Pcc pcc(4096);
  alignas(8) int64_t target;
  pcc.Insert(&target, 7);
  EXPECT_TRUE(pcc.Lookup(&target, 7));
  EXPECT_FALSE(pcc.Lookup(&target, 8));  // stale sequence = invalid memo
  alignas(8) int64_t other;
  EXPECT_FALSE(pcc.Lookup(&other, 7));
  // Updating the same key replaces the sequence.
  pcc.Insert(&target, 9);
  EXPECT_FALSE(pcc.Lookup(&target, 7));
  EXPECT_TRUE(pcc.Lookup(&target, 9));
}

TEST(PccTest, FlushDropsEverything) {
  Pcc pcc(4096);
  std::vector<int64_t> keys(100);
  for (auto& k : keys) {
    pcc.Insert(&k, 1);
  }
  pcc.Flush();
  for (auto& k : keys) {
    EXPECT_FALSE(pcc.Lookup(&k, 1));
  }
}

TEST(PccTest, EpochChangeSelfFlushes) {
  Pcc pcc(4096);
  alignas(8) int64_t key;
  pcc.EnsureEpoch(1);
  pcc.Insert(&key, 5);
  EXPECT_TRUE(pcc.Lookup(&key, 5));
  pcc.EnsureEpoch(2);  // version-counter wraparound (§3.1)
  EXPECT_FALSE(pcc.Lookup(&key, 5));
  pcc.EnsureEpoch(2);  // idempotent
}

TEST(PccTest, CapacityEvictsLruNotHot) {
  Pcc pcc(1024);  // 64 entries, 16 sets
  EXPECT_EQ(pcc.capacity_entries(), 64u);
  // A hot entry touched between inserts should survive set pressure.
  std::vector<uint64_t> storage(4096);
  alignas(8) int64_t hot;
  pcc.Insert(&hot, 1);
  for (size_t i = 0; i < storage.size(); ++i) {
    pcc.Insert(&storage[i], 2);
    EXPECT_TRUE(pcc.Lookup(&hot, 1)) << "evicted after " << i;
  }
}

TEST(PccTest, WarmInterleavedHitsWriteNothing) {
  // A PCC shared by every process of a cred must not turn its hits into
  // shared-line writes once each entry has been hit: readers cycling
  // through a working set interleave hits on every way of a set.
  Pcc pcc(1);  // a single set of kWays entries
  ASSERT_EQ(pcc.sets(), 1u);
  std::array<int64_t, Pcc::kWays> keys{};
  for (int64_t& k : keys) {
    pcc.Insert(&k, 3);
  }
  CacheStats stats;
  for (int64_t& k : keys) {
    ASSERT_TRUE(pcc.Lookup(&k, 3, &stats));  // arms each entry once
  }
  const uint64_t armed = stats.shared_writes.value();
  for (int round = 0; round < 64; ++round) {
    for (int64_t& k : keys) {
      ASSERT_TRUE(pcc.Lookup(&k, 3, &stats));
    }
  }
  EXPECT_EQ(stats.shared_writes.value() - armed, 0u);
  EXPECT_EQ(stats.pcc_hits.value(), 65u * Pcc::kWays);
}

TEST(PccTest, SizesRoundToPowerOfTwoSets) {
  Pcc pcc(64 * 1024);
  EXPECT_EQ(pcc.capacity_entries(), 4096u);  // paper's default geometry
  EXPECT_EQ(pcc.bytes(), 64u * 1024u);
  Pcc tiny(1);
  EXPECT_GE(tiny.capacity_entries(), Pcc::kWays);
}

}  // namespace
}  // namespace dircache
