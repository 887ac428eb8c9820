// Observability subsystem tests (DESIGN.md §9–§10): histogram bucketing,
// the lock-free SeqRing behind the journal and span streams
// (including multi-writer wraparound and torn-read skipping), the path heat
// sketches, the background sampler's timeline and watchdogs, the versioned
// snapshot and its Chrome-trace export, the invariant auditor, and — most
// load-bearing — that a disabled kernel records nothing and keeps the warm
// hit path shared-write-free.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/obs/audit.h"
#include "src/obs/event_journal.h"
#include "src/obs/heat_sketch.h"
#include "src/obs/histogram.h"
#include "src/obs/request_trace.h"
#include "src/obs/seq_ring.h"
#include "src/obs/snapshot.h"
#include "src/obs/walk_trace.h"
#include "src/server/batch.h"
#include "src/util/clock.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

using obs::BucketFor;
using obs::BucketHigh;
using obs::BucketLow;
using obs::HistogramSummary;
using obs::JournalEvent;
using obs::JournalEventRecord;
using obs::LatencyHistogram;
using obs::ObsOp;
using obs::PathHeatSketch;
using obs::SeqRing;
using obs::SpanEvent;
using obs::WalkOutcome;

// --- histogram ------------------------------------------------------------

TEST(Histogram, BucketEdges) {
  EXPECT_EQ(BucketFor(0), 0u);
  EXPECT_EQ(BucketFor(1), 1u);
  EXPECT_EQ(BucketFor(2), 2u);
  EXPECT_EQ(BucketFor(3), 2u);
  EXPECT_EQ(BucketFor(4), 3u);
  EXPECT_EQ(BucketFor(1023), 10u);
  EXPECT_EQ(BucketFor(1024), 11u);
  EXPECT_EQ(BucketFor(1ull << 63), 63u);  // clamped into the top bucket
  EXPECT_EQ(BucketFor(~0ull), 63u);
  // Every value must fall inside [BucketLow, BucketHigh] of its bucket.
  for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 8ull, 1000ull, 1ull << 40}) {
    size_t b = BucketFor(v);
    EXPECT_GE(v, BucketLow(b)) << v;
    EXPECT_LE(v, BucketHigh(b)) << v;
  }
}

TEST(Histogram, RecordMergeQuantiles) {
  LatencyHistogram h;
  // 90 fast ops around 100ns, 10 slow ops around 100us.
  for (int i = 0; i < 90; ++i) {
    h.Record(100);
  }
  for (int i = 0; i < 10; ++i) {
    h.Record(100'000);
  }
  HistogramSummary s = h.Merge();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.max_ns, 100'000u);
  EXPECT_EQ(s.sum_ns, 90u * 100 + 10u * 100'000);
  // p50 lands in 100's bucket [64,127]; p99 in 100000's [65536,131071],
  // clamped to the exact observed max.
  EXPECT_GE(s.P50(), 64u);
  EXPECT_LE(s.P50(), 127u);
  EXPECT_GE(s.P99(), 65536u);
  EXPECT_LE(s.P99(), 100'000u);
  EXPECT_NEAR(s.MeanNs(), (90.0 * 100 + 10.0 * 100'000) / 100.0, 1e-9);

  h.Reset();
  EXPECT_EQ(h.Merge().count, 0u);
  EXPECT_EQ(h.Merge().P99(), 0u);
}

TEST(Histogram, SinceIsTheLoopDelta) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(20);
  HistogramSummary before = h.Merge();
  for (int i = 0; i < 50; ++i) {
    h.Record(1000);
  }
  HistogramSummary d = h.Merge().Since(before);
  EXPECT_EQ(d.count, 50u);
  EXPECT_EQ(d.sum_ns, 50u * 1000);
  EXPECT_GE(d.P50(), 512u);
  EXPECT_LE(d.P50(), 1023u);
}

// Regression: `cur.Since(prev)` where prev has MORE in some field than cur
// (a Reset() raced between the two snapshots) must clamp the deltas to zero
// instead of wrapping to ~2^64 — the sampler diffs snapshots continuously
// and a reset mid-window used to poison the whole timeline.
TEST(Histogram, SinceClampsUnderflowFromAReset) {
  LatencyHistogram h;
  for (int i = 0; i < 40; ++i) {
    h.Record(1000);
  }
  HistogramSummary before = h.Merge();
  h.Reset();
  h.Record(10);  // post-reset state is "smaller" than `before` everywhere
  HistogramSummary d = h.Merge().Since(before);
  // Buckets clamp per-slot, so the post-reset recording (bucket 4) survives
  // while the vanished 40 (bucket 10) clamp to 0 instead of wrapping.
  EXPECT_EQ(d.count, 1u);
  // sum_ns is one scalar: 10 < 40000 clamps the whole field to 0 — the
  // regression is that it must not wrap to ~2^64.
  EXPECT_EQ(d.sum_ns, 0u);
  EXPECT_LE(d.P99(), 15u);  // quantiles from clamped buckets stay sane
}

// --- SeqRing --------------------------------------------------------------

TEST(SeqRing, CapacityRoundsToPowerOfTwo) {
  EXPECT_EQ(SeqRing<SpanEvent>(1).capacity(), 1u);
  EXPECT_EQ(SeqRing<SpanEvent>(5).capacity(), 8u);
  EXPECT_EQ(SeqRing<SpanEvent>(128).capacity(), 128u);
}

// Every field survives the ring unchanged, including the timestamp's low
// bit.
TEST(SeqRing, RoundTripKeepsEveryFieldAndAnOddTimestamp) {
  SeqRing<SpanEvent> ring(4);
  SpanEvent ev;
  ev.kind = obs::SpanKind::kWalkSlow;
  ev.op = obs::TraceOp::kRename;
  ev.shard = 3;
  ev.trace_id = 0x123456789abcdefull;
  ev.begin_ns = 43;
  ev.duration_ns = 12345;
  ev.arg0 = 300;
  ev.arg1 = 7;
  ring.Push(ev);
  std::vector<SpanEvent> out;
  ring.Drain(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, obs::SpanKind::kWalkSlow);
  EXPECT_EQ(out[0].op, obs::TraceOp::kRename);
  EXPECT_EQ(out[0].shard, 3u);
  EXPECT_EQ(out[0].trace_id, 0x123456789abcdefull);
  EXPECT_EQ(out[0].begin_ns, 43u);
  EXPECT_EQ(out[0].duration_ns, 12345u);
  EXPECT_EQ(out[0].arg0, 300u);
  EXPECT_EQ(out[0].arg1, 7u);
}

// Self-checking records for the typed ring tests: every field derives from
// one id (the record's time field), so a record that mixes two writes fails
// Intact().
template <typename Record>
struct RecordCodec;

template <>
struct RecordCodec<JournalEventRecord> {
  static JournalEventRecord Make(uint64_t id) {
    return {static_cast<JournalEvent>(id % obs::kJournalEventCount),
            static_cast<uint32_t>(id % kStatsShardCount),
            /*begin_ns=*/id, /*duration_ns=*/id * 7, id * 3, id * 5, id * 9,
            id * 11};
  }
  static uint64_t Id(const JournalEventRecord& ev) { return ev.begin_ns; }
  static auto Fields(const JournalEventRecord& ev) {
    return std::tie(ev.type, ev.shard, ev.begin_ns, ev.duration_ns, ev.arg0,
                    ev.arg1, ev.arg2, ev.arg3);
  }
};

template <>
struct RecordCodec<SpanEvent> {
  static SpanEvent Make(uint64_t id) {
    return {static_cast<obs::SpanKind>(id % obs::kSpanKindCount),
            static_cast<obs::TraceOp>(id % obs::kTraceOpCount),
            static_cast<uint32_t>(id % kStatsShardCount),
            /*trace_id=*/id * 13, /*begin_ns=*/id, /*duration_ns=*/id * 7,
            id * 3, id * 5};
  }
  static uint64_t Id(const SpanEvent& ev) { return ev.begin_ns; }
  static auto Fields(const SpanEvent& ev) {
    return std::tie(ev.kind, ev.op, ev.shard, ev.trace_id, ev.begin_ns,
                    ev.duration_ns, ev.arg0, ev.arg1);
  }
};

template <typename Record>
bool Intact(const Record& r) {
  using Codec = RecordCodec<Record>;
  return Codec::Fields(r) == Codec::Fields(Codec::Make(Codec::Id(r)));
}

// Four writers push distinct self-checking records into `ring` while a
// reader drains it throughout. Returns how many drained records were mixed.
template <typename Record>
int MixedRecordsUnderConcurrentWriters(SeqRing<Record>& ring) {
  constexpr uint64_t kWriters = 4;
  constexpr uint64_t kRecordsPerWriter = 20000;
  std::atomic<bool> stop{false};
  int mixed = 0;
  std::thread reader([&] {
    std::vector<Record> out;
    while (!stop.load(std::memory_order_acquire)) {
      out.clear();
      ring.Drain(&out);
      for (const Record& r : out) {
        mixed += Intact(r) ? 0 : 1;
      }
    }
  });
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (uint64_t seq = 0; seq < kRecordsPerWriter; ++seq) {
        ring.Push(RecordCodec<Record>::Make(seq * kWriters + w + 1));
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  return mixed;
}

// A quiescent ring holds exactly one whole record per slot.
template <typename Record>
void ExpectFullAndIntact(const SeqRing<Record>& ring) {
  std::vector<Record> out;
  ring.Drain(&out);
  EXPECT_EQ(out.size(), ring.capacity());
  for (const Record& r : out) {
    EXPECT_TRUE(Intact(r));
  }
}

// The journal and span streams run the same ring tests.
template <typename Record>
class SeqRingTest : public ::testing::Test {};

struct RecordName {
  template <typename Record>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<Record, JournalEventRecord>) {
      return "Journal";
    } else {
      return "Span";
    }
  }
};

using RecordTypes = ::testing::Types<JournalEventRecord, SpanEvent>;
TYPED_TEST_SUITE(SeqRingTest, RecordTypes, RecordName);

TYPED_TEST(SeqRingTest, WraparoundKeepsTheNewestRecords) {
  using Codec = RecordCodec<TypeParam>;
  SeqRing<TypeParam> ring(8);
  for (uint64_t id = 1; id <= 20; ++id) {
    ring.Push(Codec::Make(id));
  }
  std::vector<TypeParam> out;
  ring.Drain(&out);
  ASSERT_EQ(out.size(), 8u);  // exactly one lap survives
  std::vector<uint64_t> ids;
  for (const TypeParam& r : out) {
    EXPECT_TRUE(Intact(r));
    ids.push_back(Codec::Id(r));
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{13, 14, 15, 16, 17, 18, 19, 20}));
}

TYPED_TEST(SeqRingTest, ConcurrentWritersNeverYieldTornRecords) {
  SeqRing<TypeParam> ring(16);
  EXPECT_EQ(MixedRecordsUnderConcurrentWriters(ring), 0);
  ExpectFullAndIntact(ring);
}

// Two slots for four writers: nearly every push wraps onto a slot another
// writer may still hold, so a ring that lets two writers share a slot hands
// the reader records that mix both writes.
TYPED_TEST(SeqRingTest, TwoSlotStressNeverYieldsMixedRecords) {
  SeqRing<TypeParam> ring(2);
  EXPECT_EQ(MixedRecordsUnderConcurrentWriters(ring), 0);
  ExpectFullAndIntact(ring);
}

// --- heat sketch ----------------------------------------------------------

TEST(HeatSketch, CountsAndLabelsHeavyHitters) {
  PathHeatSketch sketch(8);
  for (int i = 0; i < 100; ++i) {
    sketch.Record(/*key=*/1, "/hot/a");
  }
  for (int i = 0; i < 50; ++i) {
    sketch.Record(/*key=*/2, "/hot/b");
  }
  sketch.Record(/*key=*/3, "/cold");
  std::vector<obs::HeatEntry> top = sketch.Drain(/*topk=*/2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].path, "/hot/a");
  EXPECT_EQ(top[0].count, 100u);
  EXPECT_EQ(top[0].err, 0u);  // seated in an empty slot: exact
  EXPECT_EQ(top[1].path, "/hot/b");
  EXPECT_EQ(top[1].count, 50u);
}

TEST(HeatSketch, TakeoverInheritsErrorBoundAndKeepsHeavyKeys) {
  PathHeatSketch sketch(2);  // 2 slots: force Space-Saving evictions
  for (int i = 0; i < 1000; ++i) {
    sketch.Record(1, "/heavy");
  }
  // A stream of distinct one-shot keys churns the second slot.
  for (uint64_t k = 100; k < 200; ++k) {
    sketch.Record(k, "/churn");
  }
  std::vector<obs::HeatEntry> top = sketch.Drain(10);
  ASSERT_FALSE(top.empty());
  // The classic Space-Saving guarantee: the heavy key survives the churn,
  // its count is >= truth, overstating by at most err.
  EXPECT_EQ(top[0].path, "/heavy");
  EXPECT_GE(top[0].count, 1000u);
  EXPECT_LE(top[0].count - top[0].err, 1000u);
  // Churn keys carry a nonzero inherited error bound.
  if (top.size() > 1) {
    EXPECT_GT(top[1].err, 0u);
  }
  sketch.Reset();
  EXPECT_TRUE(sketch.Drain(10).empty());
}

// --- kernel integration ---------------------------------------------------

TEST(Observe, DisabledKernelRecordsNothing) {
  TestWorld w(CacheConfig::Optimized());  // obs defaults to off
  EXPECT_FALSE(w.kernel->obs().enabled());
  ASSERT_OK(w.root->Mkdir("/d"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/d", 0));
  }
  obs::ObsSnapshot snap = w.kernel->Observe();
  EXPECT_EQ(snap.schema_version, obs::kObsSchemaVersion);
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.TotalWalks(), 0u);
  EXPECT_EQ(snap.Op(ObsOp::kStat).count, 0u);
  // The flat counters are still there — Observe() supersedes
  // stats().ToString() even with recording off.
  EXPECT_FALSE(snap.counters.empty());
}

TEST(Observe, DisabledWarmHitPathStaysSharedWriteFree) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/a"));
  ASSERT_OK(w.root->Mkdir("/a/b"));
  auto fd = w.root->Open("/a/b/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  for (int i = 0; i < 4; ++i) {  // warm past the one-time writes
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/a/b/f", 0));
  }
  uint64_t writes0 = w.kernel->stats().shared_writes.value();
  for (int i = 0; i < 100; ++i) {
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/a/b/f", 0));
  }
  EXPECT_EQ(w.kernel->stats().shared_writes.value(), writes0);
}

TEST(Observe, EnabledKernelClassifiesWalks) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  EXPECT_TRUE(w.kernel->obs().enabled());
  ASSERT_OK(w.root->Mkdir("/a"));
  auto fd = w.root->Open("/a/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/a/f", 0));  // populates the fastpath
  obs::ObsSnapshot before = w.kernel->Observe();
  for (int i = 0; i < 10; ++i) {
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/a/f", 0));
  }
  EXPECT_ERR(w.root->Statx(kAtFdCwd, "/a/missing", 0), Errno::kENOENT);
  obs::ObsSnapshot after = w.kernel->Observe();

  auto hits = [](const obs::ObsSnapshot& s, WalkOutcome o) {
    return s.outcomes[static_cast<size_t>(o)];
  };
  EXPECT_EQ(hits(after, WalkOutcome::kFastHit) -
                hits(before, WalkOutcome::kFastHit),
            10u);
  EXPECT_EQ(after.TotalWalks() - before.TotalWalks(), 11u);
  // Latency flowed into both the per-walk and the per-syscall histograms.
  EXPECT_EQ(after.Op(ObsOp::kLookup).count - before.Op(ObsOp::kLookup).count,
            11u);
  EXPECT_EQ(after.Op(ObsOp::kStat).count - before.Op(ObsOp::kStat).count,
            11u);
  EXPECT_GT(after.Op(ObsOp::kStat).sum_ns, before.Op(ObsOp::kStat).sum_ns);
}

TEST(Observe, SnapshotJsonShape) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/j"));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/j", 0));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/j", 0));
  obs::ObsSnapshot snap = w.kernel->Observe();
  std::string json = snap.ToJson();
  // Versioned, fixed-field-order contract (scripts/bench_smoke.sh greps
  // for the schema_version; renames here are schema bumps).
  EXPECT_NE(json.find("\"schema_version\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  for (const char* key :
       {"\"ops\"", "\"walk_outcomes\"", "\"counters\"",
        "\"lookup\"", "\"p50_ns\"", "\"p95_ns\"", "\"p99_ns\"",
        "\"fast_hit\"", "\"timeline\"", "\"heat\"", "\"journal\"",
        "\"hot_paths\"", "\"slow_paths\"", "\"miss_dirs\"", "\"spans\"",
        "\"attribution\"", "\"memory\"", "\"budget_bytes\"",
        "\"dlht_resize_in_flight\"", "\"tenants\"", "\"flight_dumps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // v5 removed the walk-trace array and the heat entries' Count-Min
  // estimate.
  EXPECT_EQ(json.find("\"trace\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"cm_est\""), std::string::npos) << json;
  // Field order is part of the contract: version first, ops before counters,
  // every v2 section strictly after the last v1 field, every v3 section
  // strictly after the last v2 field, and the v4 memory section between
  // attribution and flight_dumps (older readers parse a prefix-compatible
  // document).
  EXPECT_LT(json.find("\"schema_version\""), json.find("\"ops\""));
  EXPECT_LT(json.find("\"ops\""), json.find("\"walk_outcomes\""));
  EXPECT_LT(json.find("\"walk_outcomes\""), json.find("\"counters\""));
  EXPECT_LT(json.find("\"counters\""), json.find("\"timeline\""));
  EXPECT_LT(json.find("\"timeline\""), json.find("\"heat\""));
  EXPECT_LT(json.find("\"heat\""), json.find("\"journal\""));
  EXPECT_LT(json.find("\"journal\""), json.find("\"spans\""));
  EXPECT_LT(json.find("\"spans\""), json.find("\"attribution\""));
  EXPECT_LT(json.find("\"attribution\""), json.find("\"memory\""));
  EXPECT_LT(json.find("\"memory\""), json.find("\"flight_dumps\""));

  std::string text = snap.ToText();
  EXPECT_NE(text.find("schema v5"), std::string::npos) << text;
  EXPECT_NE(text.find("fast_hit"), std::string::npos);
}

TEST(Observe, ResetClearsHistogramsAndOutcomes) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/r"));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/r", 0));
  ASSERT_GT(w.kernel->Observe().TotalWalks(), 0u);
  w.kernel->obs().Reset();
  obs::ObsSnapshot snap = w.kernel->Observe();
  EXPECT_EQ(snap.TotalWalks(), 0u);
  EXPECT_EQ(snap.Op(ObsOp::kStat).count, 0u);
}

TEST(Observe, SyscallHistogramsCoverTheTaxonomy) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/ops"));
  auto fd = w.root->Open("/ops/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  ASSERT_OK(w.root->Rename("/ops/f", "/ops/g"));
  ASSERT_OK(w.root->Chmod("/ops/g", 0600));
  auto dfd = w.root->Open("/ops", kORead | kODirectory);
  ASSERT_OK(dfd);
  EXPECT_OK(w.root->ReadDirFd(*dfd));
  ASSERT_OK(w.root->Close(*dfd));

  obs::ObsSnapshot snap = w.kernel->Observe();
  EXPECT_GT(snap.Op(ObsOp::kOpen).count, 0u);
  EXPECT_GT(snap.Op(ObsOp::kRename).count, 0u);
  EXPECT_GT(snap.Op(ObsOp::kChmod).count, 0u);
  EXPECT_GT(snap.Op(ObsOp::kReaddir).count, 0u);
  // Rename invalidates the renamed entry's subtree — the write-side cost
  // has its own histogram.
  EXPECT_GT(snap.Op(ObsOp::kInvalidate).count, 0u);
}

// --- heat sketches through the kernel -------------------------------------

TEST(Observe, HeatSectionAttributesHitsAndMisses) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/h"));
  auto fd = w.root->Open("/h/hot", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/h/hot", 0));  // populate the fastpath
  for (int i = 0; i < 50; ++i) {
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/h/hot", 0));
  }
  // Fresh (uncached) paths fast-miss; their parent dir is the miss source.
  for (int i = 0; i < 20; ++i) {
    EXPECT_ERR(w.root->Statx(kAtFdCwd, "/h/miss" + std::to_string(i), 0),
               Errno::kENOENT);
  }

  obs::ObsSnapshot snap = w.kernel->Observe();
  ASSERT_FALSE(snap.heat.hot_paths.empty());
  EXPECT_EQ(snap.heat.hot_paths[0].path, "/h/hot");
  EXPECT_GE(snap.heat.hot_paths[0].count, 50u);
  ASSERT_FALSE(snap.heat.miss_dirs.empty());
  EXPECT_EQ(snap.heat.miss_dirs[0].path, "/h");
  EXPECT_GE(snap.heat.miss_dirs[0].count, 20u);
  // The cold walks those misses fell back to show up as slowpath paths.
  EXPECT_FALSE(snap.heat.slow_paths.empty());
}

// --- coherence journal through the kernel ---------------------------------

TEST(Observe, JournalRecordsCoherenceEvents) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/j"));
  ASSERT_OK(w.root->Mkdir("/j/sub"));
  auto fd = w.root->Open("/j/sub/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/j/sub/f", 0));  // cache the subtree
  ASSERT_OK(w.root->Rename("/j/sub", "/j/sub2"));
  ASSERT_OK(w.root->Chmod("/j/sub2", 0700));
  ASSERT_OK(w.root->Unlink("/j/sub2/f"));

  obs::ObsSnapshot snap = w.kernel->Observe();
  auto count_of = [&](JournalEvent type) {
    size_t n = 0;
    for (const JournalEventRecord& ev : snap.journal) {
      if (ev.type == type) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_GE(count_of(JournalEvent::kRename), 1u);
  EXPECT_GE(count_of(JournalEvent::kRenameLock), 1u);
  EXPECT_GE(count_of(JournalEvent::kChmod), 1u);
  EXPECT_GE(count_of(JournalEvent::kUnlink), 1u);
  EXPECT_GE(count_of(JournalEvent::kInvalidateSubtree), 1u);
  // Journal is oldest-first, and a subtree invalidation reports its work:
  // the rename pass covered /j/sub (itself + f), so arg0 (version bumps)
  // must be at least 2. Every event came from this thread's shard.
  uint64_t prev = 0;
  uint64_t max_bumped = 0;
  for (const JournalEventRecord& ev : snap.journal) {
    EXPECT_EQ(ev.shard, internal::StatsShardId());
    EXPECT_GE(ev.begin_ns, prev);
    prev = ev.begin_ns;
    if (ev.type == JournalEvent::kInvalidateSubtree) {
      max_bumped = std::max(max_bumped, ev.arg0);
    }
  }
  EXPECT_GE(max_bumped, 2u);
  // The rename span carries its rename_lock hold time as arg0.
  for (const JournalEventRecord& ev : snap.journal) {
    if (ev.type == JournalEvent::kRename) {
      EXPECT_GT(ev.arg0, 0u);
      EXPECT_GE(ev.duration_ns, ev.arg0);  // the span contains the lock
    }
  }
}

// A parallel invalidation pass journals its shape: the kInvalidateSubtree
// span carries worker/batch payloads in arg2/arg3, and one kInvalWorker
// span per participant nests inside it.
TEST(Observe, JournalCarriesParallelInvalidationPayloads) {
  CacheConfig cfg = CacheConfig::Optimized();
  cfg.inval_parallel_threshold = 64;  // engage the pool at test size
  cfg.inval_max_workers = 3;
  TestWorld w(cfg, nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/p"));
  for (int i = 0; i < 400; ++i) {
    auto fd = w.root->Open("/p/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(w.root->Close(*fd));
  }
  for (int i = 0; i < 400; ++i) {
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/p/f" + std::to_string(i), 0));  // cache it
  }
  ASSERT_OK(w.root->Chmod("/p", 0700));

  obs::ObsSnapshot snap = w.kernel->Observe();
  const JournalEventRecord* parallel_pass = nullptr;
  size_t worker_spans = 0;
  for (const JournalEventRecord& ev : snap.journal) {
    if (ev.type == JournalEvent::kInvalidateSubtree && ev.arg2 > 0) {
      parallel_pass = &ev;
    }
    if (ev.type == JournalEvent::kInvalWorker) {
      ++worker_spans;
      EXPECT_LT(ev.arg0, 3u);  // worker index < configured pool size
    }
  }
  ASSERT_NE(parallel_pass, nullptr) << "no parallel pass journaled";
  EXPECT_EQ(parallel_pass->arg2, 3u);         // workers
  EXPECT_GT(parallel_pass->arg3, 0u);         // dlht_batches
  EXPECT_GE(parallel_pass->arg0, 400u);       // dentries bumped
  EXPECT_GE(parallel_pass->arg1, 400u);       // dlht entries evicted
  EXPECT_EQ(worker_spans, 3u);  // one span per participant
  // Worker spans nest inside the owning pass span.
  for (const JournalEventRecord& ev : snap.journal) {
    if (ev.type == JournalEvent::kInvalWorker) {
      EXPECT_GE(ev.begin_ns, parallel_pass->begin_ns);
      EXPECT_LE(ev.begin_ns + ev.duration_ns,
                parallel_pass->begin_ns + parallel_pass->duration_ns);
    }
  }

  // The JSON rendering names the extended payloads; 2-arg events must NOT
  // grow extra keys (schema v2 append-only rule).
  std::string json = snap.ToJson();
  for (const char* key : {"\"workers\"", "\"dlht_batches\"",
                          "\"inval_worker\"", "\"visited\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The Chrome trace renders the pass and its nested worker spans.
  std::string trace = snap.ToChromeTrace();
  EXPECT_NE(trace.find("\"name\":\"invalidate_subtree\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"inval_worker\""), std::string::npos);
  EXPECT_NE(trace.find("\"workers\":3"), std::string::npos);
}

// --- chrome trace export --------------------------------------------------

TEST(Observe, ChromeTraceExportsJournalAndWalks) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/t"));
  auto fd = w.root->Open("/t/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  // A force-traced stat: its walk span exports under category `walk`.
  Stat st;
  server::Sqe s = server::Sqe::Statx(kAtFdCwd, "/t/f", 0, &st);
  s.trace_force = 1;
  server::Cqe c;
  w.root->SubmitBatch(&s, 1, &c);
  ASSERT_TRUE(c.ok()) << c.error_name();
  ASSERT_OK(w.root->Rename("/t/f", "/t/g"));
  std::string trace = w.kernel->Observe().ToChromeTrace();
  // Shape: an object with a traceEvents array of complete events carrying
  // the two categories; chrome://tracing requires ph/ts/dur/pid/tid.
  EXPECT_EQ(trace.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), 0u);
  EXPECT_EQ(trace.back(), '}');
  for (const char* key :
       {"\"ph\":\"X\"", "\"cat\":\"walk\"", "\"cat\":\"coherence\"",
        "\"name\":\"rename\"", "\"ts\":", "\"dur\":", "\"pid\":1,",
        "\"tid\":"}) {
    EXPECT_NE(trace.find(key), std::string::npos) << "missing " << key;
  }
}

// --- background sampler ---------------------------------------------------

TEST(Observe, SamplerBuildsATimeline) {
  ObsConfig cfg = ObsConfig::EnabledWithSampler();
  cfg.sample_interval_ms = 2;
  TestWorld w(CacheConfig::Optimized(), nullptr, cfg);
  ASSERT_OK(w.root->Mkdir("/s"));
  auto fd = w.root->Open("/s/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  // Keep walking while the sampler ticks a few windows.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_OK(w.root->Statx(kAtFdCwd, "/s/f", 0));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  obs::ObsTimeline tl = w.kernel->Timeline();
  EXPECT_TRUE(tl.active);
  EXPECT_EQ(tl.interval_ms, 2u);
  EXPECT_GT(tl.samples_taken, 0u);
  ASSERT_FALSE(tl.samples.empty());
  uint64_t total_walks = 0;
  uint64_t total_fast = 0;
  uint64_t prev_t = 0;
  for (const obs::TimelineSample& s : tl.samples) {
    EXPECT_GT(s.t_ns, prev_t);  // strictly ordered, oldest first
    prev_t = s.t_ns;
    EXPECT_GT(s.window_ns, 0u);
    EXPECT_GE(s.walks, s.fast_hits);
    total_walks += s.walks;
    total_fast += s.fast_hits;
  }
  EXPECT_GT(total_walks, 0u);
  EXPECT_GT(total_fast, 0u);  // warm stats dominate: fast hits observed
  // A healthy warm workload must not have tripped the watchdogs.
  EXPECT_FALSE(tl.invalidation_spike);
  // The v2 snapshot embeds the same timeline.
  obs::ObsSnapshot snap = w.kernel->Observe();
  EXPECT_TRUE(snap.timeline.active);
  EXPECT_GT(snap.timeline.samples_taken, 0u);
}

// Cold stats on a fastpath kernel miss the fastpath and run the slowpath.
// Their walks are classified by the miss reason, never by a kSlow*
// outcome, and the timeline must still count them as slow walks.
TEST(Observe, SamplerCountsFastpathMissesAsSlowWalks) {
  ObsConfig cfg = ObsConfig::EnabledWithSampler();
  cfg.sample_interval_ms = 10;  // the ring then spans 1.28 s of windows
  TestWorld w(CacheConfig::Optimized(), nullptr, cfg);
  ASSERT_OK(w.root->Mkdir("/cold"));
  // Start once the sampler has closed a window, so its baseline reading
  // predates every stat.
  for (int i = 0; i < 2000 && w.kernel->Timeline().samples_taken == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(w.kernel->Timeline().samples_taken, 0u);
  constexpr uint64_t kStats = 2000;
  for (uint64_t i = 0; i < kStats; ++i) {
    EXPECT_ERR(w.root->Statx(kAtFdCwd, "/cold/f" + std::to_string(i), 0),
               Errno::kENOENT);
  }
  // Wait for a window that closes after the last stat.
  const uint64_t done_ns = NowNanos();
  obs::ObsTimeline tl;
  for (int i = 0; i < 2000; ++i) {
    tl = w.kernel->Timeline();
    if (!tl.samples.empty() && tl.samples.back().t_ns > done_ns) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(tl.samples.empty());
  ASSERT_GT(tl.samples.back().t_ns, done_ns);
  ASSERT_EQ(tl.samples_taken, tl.samples.size());  // no window dropped
  uint64_t walks = 0;
  uint64_t slow = 0;
  for (const obs::TimelineSample& s : tl.samples) {
    EXPECT_EQ(s.slow_walks, s.walks - s.fast_hits);
    walks += s.walks;
    slow += s.slow_walks;
  }
  // Every cold stat ran the slowpath, and the timeline agrees with the
  // kernel's own count (which also saw setup walks from before the
  // sampler's baseline reading).
  EXPECT_GE(walks, kStats);
  EXPECT_GE(slow, kStats);
  EXPECT_LE(slow, w.kernel->stats().slowpath_walks.value());
}

TEST(Observe, SamplerWatchdogFlagsInvalidationSpike) {
  ObsConfig cfg = ObsConfig::EnabledWithSampler();
  cfg.sample_interval_ms = 2;
  // Any invalidation traffic at all trips this threshold (≥1 pass in a
  // ~2ms window is ≥500/s).
  cfg.watchdog_max_invalidations_per_sec = 400.0;
  TestWorld w(CacheConfig::Optimized(), nullptr, cfg);
  ASSERT_OK(w.root->Mkdir("/w"));
  auto fd = w.root->Open("/w/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/w/f", 0));
  // An invalidation storm: rename the cached entry back and forth while
  // the sampler watches.
  for (int round = 0; round < 25; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(w.root->Rename("/w/f", "/w/g"));
      ASSERT_OK(w.root->Rename("/w/g", "/w/f"));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    if (w.kernel->Timeline().invalidation_spike) {
      break;  // sticky — no need to keep storming
    }
  }
  EXPECT_TRUE(w.kernel->Timeline().invalidation_spike);
}

// --- watchdog clear/re-arm (schema v3) ------------------------------------

TEST(Observe, WatchdogFlagsClearAndRearm) {
  ObsConfig cfg = ObsConfig::EnabledWithSampler();
  cfg.sample_interval_ms = 2;
  cfg.watchdog_max_invalidations_per_sec = 400.0;
  TestWorld w(CacheConfig::Optimized(), nullptr, cfg);
  ASSERT_OK(w.root->Mkdir("/w"));
  auto fd = w.root->Open("/w/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  auto storm_until_flagged = [&] {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 20; ++i) {
        ASSERT_OK(w.root->Rename("/w/f", "/w/g"));
        ASSERT_OK(w.root->Rename("/w/g", "/w/f"));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
      if (w.kernel->Timeline().invalidation_spike) {
        return;
      }
    }
  };
  storm_until_flagged();
  ASSERT_TRUE(w.kernel->Timeline().invalidation_spike);
  // Let the storm's trailing windows flush so the flag can't immediately
  // re-trip from stale traffic, then acknowledge.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.kernel->ClearWatchdogFlags();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  obs::ObsTimeline tl = w.kernel->Timeline();
  EXPECT_FALSE(tl.invalidation_spike);  // was sticky forever before v3
  EXPECT_FALSE(tl.hit_rate_collapse);
  // The watchdog still works after an acknowledgment: a new storm re-trips.
  storm_until_flagged();
  EXPECT_TRUE(w.kernel->Timeline().invalidation_spike);
}

// --- request tracing (schema v3) ------------------------------------------

TEST(Trace, ForcedStatxProducesSpanTreeAndAttribution) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/a"));
  auto fd = w.root->Open("/a/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/a/f", 0));  // warm the fastpath

  // trace_sample_every defaults to 0: nothing is traced without the force
  // flag, so the warm loop above left the attributor untouched.
  obs::ObsSnapshot before = w.kernel->Observe();
  constexpr size_t kStatxIdx = static_cast<size_t>(obs::TraceOp::kStatx);
  EXPECT_EQ(before.attribution[kStatxIdx].traced, 0u);
  EXPECT_TRUE(before.spans.empty());

  Stat st;
  server::Sqe s = server::Sqe::Statx(kAtFdCwd, "/a/f", 0, &st);
  s.trace_force = 1;
  server::Cqe c;
  w.root->SubmitBatch(&s, 1, &c);
  ASSERT_TRUE(c.ok()) << c.error_name();

  obs::ObsSnapshot after = w.kernel->Observe();
  const obs::OpAttribution& at = after.attribution[kStatxIdx];
  EXPECT_EQ(at.traced, 1u);
  EXPECT_GT(at.total_ns, 0u);
  // Direct submission: no ring, so no queue/dispatch share.
  EXPECT_EQ(at.queue_ns, 0u);
  EXPECT_EQ(at.dispatch_ns, 0u);

  // The span tree: a kRequest root plus the walk child, all sharing one
  // nonzero trace id.
  ASSERT_FALSE(after.spans.empty());
  uint64_t trace_id = 0;
  bool saw_request = false;
  bool saw_walk = false;
  for (const obs::SpanEvent& ev : after.spans) {
    EXPECT_NE(ev.trace_id, 0u);
    if (trace_id == 0) {
      trace_id = ev.trace_id;
    }
    EXPECT_EQ(ev.trace_id, trace_id);  // one traced request, one id
    EXPECT_EQ(ev.op, obs::TraceOp::kStatx);
    EXPECT_EQ(ev.shard, internal::StatsShardId());
    if (ev.kind == obs::SpanKind::kRequest) {
      saw_request = true;
      EXPECT_EQ(ev.arg0, 0u);  // res
    }
    if (ev.kind == obs::SpanKind::kWalkFast ||
        ev.kind == obs::SpanKind::kWalkSlow) {
      saw_walk = true;
    }
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_walk);

  // The flight recorder retained the request with its breakdown.
  std::string report = w.kernel->obs().FlightRecorderReport();
  EXPECT_NE(report.find("1 traced request"), std::string::npos) << report;
  EXPECT_NE(report.find("op=statx"), std::string::npos) << report;
  EXPECT_NE(report.find("forced"), std::string::npos) << report;
  EXPECT_NE(report.find("attribution:"), std::string::npos) << report;
  EXPECT_NE(report.find("span "), std::string::npos) << report;
}

TEST(Trace, SamplingIsDeterministicPerThread) {
  ObsConfig cfg = ObsConfig::Enabled();
  cfg.trace_sample_every = 4;
  TestWorld w(CacheConfig::Optimized(), nullptr, cfg);
  ASSERT_OK(w.root->Mkdir("/s"));
  auto fd = w.root->Open("/s/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  constexpr size_t kStatxIdx = static_cast<size_t>(obs::TraceOp::kStatx);
  uint64_t traced0 = w.kernel->Observe().attribution[kStatxIdx].traced;
  // 16 consecutive submissions on one thread at 1-in-4 sampling trace
  // exactly 4, whatever phase the thread's dice were left in.
  for (int i = 0; i < 16; ++i) {
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/s/f", 0));
  }
  uint64_t traced = w.kernel->Observe().attribution[kStatxIdx].traced;
  EXPECT_EQ(traced - traced0, 4u);
}

TEST(Trace, UntracedWarmHitsStaySharedWriteFree) {
  ObsConfig cfg = ObsConfig::Enabled();
  cfg.trace_sample_every = 0;  // hooks armed, dice never hit
  TestWorld w(CacheConfig::Optimized(), nullptr, cfg);
  ASSERT_OK(w.root->Mkdir("/p"));
  auto fd = w.root->Open("/p/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  for (int i = 0; i < 4; ++i) {  // settle one-time writes
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/p/f", 0));
  }
  uint64_t writes0 = w.kernel->stats().shared_writes.value();
  for (int i = 0; i < 200; ++i) {
    EXPECT_OK(w.root->Statx(kAtFdCwd, "/p/f", 0));
  }
  EXPECT_EQ(w.kernel->stats().shared_writes.value(), writes0);
}

TEST(Trace, WatchdogTripDumpsFlightRecorder) {
  ObsConfig cfg = ObsConfig::EnabledWithTracing(/*sample_every=*/1);
  cfg.sample_interval_ms = 2;
  cfg.watchdog_max_invalidations_per_sec = 400.0;
  TestWorld w(CacheConfig::Optimized(), nullptr, cfg);
  ASSERT_OK(w.root->Mkdir("/w"));
  auto fd = w.root->Open("/w/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  // Seed the flight recorder with a forced end-to-end trace, then storm
  // renames until the watchdog transition fires the automatic dump.
  Stat st;
  server::Sqe s = server::Sqe::Statx(kAtFdCwd, "/w/f", 0, &st);
  s.trace_force = 1;
  server::Cqe c;
  w.root->SubmitBatch(&s, 1, &c);
  ASSERT_TRUE(c.ok()) << c.error_name();
  EXPECT_EQ(w.kernel->obs().flight_dumps(), 0u);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(w.root->Rename("/w/f", "/w/g"));
      ASSERT_OK(w.root->Rename("/w/g", "/w/f"));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    if (w.kernel->obs().flight_dumps() > 0) {
      break;
    }
  }
  EXPECT_GT(w.kernel->obs().flight_dumps(), 0u);
  EXPECT_TRUE(w.kernel->Timeline().invalidation_spike);
  // The dumped evidence is a full span tree with a per-request breakdown.
  std::string report = w.kernel->obs().FlightRecorderReport();
  EXPECT_NE(report.find("request id="), std::string::npos) << report;
  EXPECT_NE(report.find("attribution:"), std::string::npos) << report;
  EXPECT_NE(report.find("span "), std::string::npos) << report;
  // The snapshot surfaces the dump count (schema v3).
  EXPECT_GT(w.kernel->Observe().flight_dumps, 0u);
}

TEST(Trace, ManualDumpBumpsCounterAndAuditStaysQuiet) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/d"));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/d", 0));
  // A clean audit must NOT dump the flight recorder.
  obs::AuditReport report = w.kernel->Audit();
  EXPECT_TRUE(report.clean()) << report.ToText();
  EXPECT_EQ(w.kernel->obs().flight_dumps(), 0u);
  w.kernel->obs().DumpFlightRecorder("test");
  EXPECT_EQ(w.kernel->obs().flight_dumps(), 1u);
}

TEST(Trace, ChromeTraceStaysWellFormedUnderWraparound) {
  // Trace everything and drive more records than any ring holds: every
  // stream wraps and the exported document must stay loadable and
  // time-ordered. One thread records, so everything lands in one shard's
  // rings. Per round: 20 stats are at least 40 spans (request + walk each),
  // and 2 renames journal at least 4 events (rename + rename_lock each).
  constexpr size_t kRounds = 70;
  static_assert(40 * kRounds > obs::kSpanRingEvents);
  static_assert(4 * kRounds > obs::kJournalRingEvents);
  ObsConfig cfg = ObsConfig::Enabled();
  cfg.trace_sample_every = 1;
  TestWorld w(CacheConfig::Optimized(), nullptr, cfg);
  ASSERT_OK(w.root->Mkdir("/c"));
  auto fd = w.root->Open("/c/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  for (size_t round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_OK(w.root->Statx(kAtFdCwd, "/c/f", 0));
    }
    ASSERT_OK(w.root->Rename("/c/f", "/c/g"));
    ASSERT_OK(w.root->Rename("/c/g", "/c/f"));
  }
  std::string trace = w.kernel->Observe().ToChromeTrace();
  ASSERT_EQ(trace.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), 0u);
  ASSERT_EQ(trace.back(), '}');
  // No emitted string contains braces/brackets, so raw counts must balance
  // — the cheap proxy for "json.load would succeed".
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '{'),
            std::count(trace.begin(), trace.end(), '}'));
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '['),
            std::count(trace.begin(), trace.end(), ']'));
  EXPECT_NE(trace.find("\"cat\":\"request\""), std::string::npos);
  // Events are globally sorted by ts (hence monotonic per tid, which Chrome
  // requires for containment nesting).
  double prev = -1.0;
  size_t events = 0;
  for (size_t pos = trace.find("\"ts\":"); pos != std::string::npos;
       pos = trace.find("\"ts\":", pos + 1)) {
    double ts = std::strtod(trace.c_str() + pos + 5, nullptr);
    EXPECT_GE(ts, prev);
    prev = ts;
    ++events;
  }
  EXPECT_GT(events, 8u);  // journal + walks + spans all contributed
}

// --- invariant auditor ----------------------------------------------------

TEST(Audit, CleanAfterMixedWorkload) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/a"));
  ASSERT_OK(w.root->Mkdir("/a/b"));
  ASSERT_OK(w.root->Mkdir("/a/b/c"));
  for (int i = 0; i < 32; ++i) {
    std::string p = "/a/b/c/f" + std::to_string(i);
    auto fd = w.root->Open(p, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(w.root->Close(*fd));
    EXPECT_OK(w.root->Statx(kAtFdCwd, p, 0));
  }
  ASSERT_OK(w.root->Rename("/a/b", "/a/b2"));
  ASSERT_OK(w.root->Chmod("/a/b2", 0700));
  ASSERT_OK(w.root->Unlink("/a/b2/c/f0"));
  ASSERT_OK(w.root->Symlink("/a/b2", "/link"));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/link/c/f1", 0));
  EXPECT_ERR(w.root->Statx(kAtFdCwd, "/a/b2/c/missing", 0), Errno::kENOENT);

  obs::AuditReport report = w.kernel->Audit();
  EXPECT_TRUE(report.clean()) << report.ToText();
  // Coverage: "clean" must mean "checked plenty", not "checked nothing".
  EXPECT_GT(report.dentries_visited, 30u);
  EXPECT_GT(report.hash_chain_entries, 0u);
  EXPECT_GT(report.dlht_entries, 0u);
  EXPECT_GT(report.lru_entries, 0u);
  EXPECT_NE(report.Summary().find("clean"), std::string::npos);
}

TEST(Audit, CleanAfterDropCachesAndOnBaseline) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/d"));
  auto fd = w.root->Open("/d/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/d/f", 0));
  w.kernel->DropCaches();
  obs::AuditReport report = w.kernel->Audit();
  EXPECT_TRUE(report.clean()) << report.ToText();

  TestWorld base(CacheConfig::Baseline());
  ASSERT_OK(base.root->Mkdir("/x"));
  EXPECT_OK(base.root->Statx(kAtFdCwd, "/x", 0));
  obs::AuditReport base_report = base.kernel->Audit();
  EXPECT_TRUE(base_report.clean()) << base_report.ToText();
}

}  // namespace
}  // namespace dircache
