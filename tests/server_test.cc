// Batch API + run-to-completion server tests (DESIGN.md §12): ring FIFO
// across wraparound, submission-order execution, partial-batch failure
// isolation, multi-producer submit vs drain concurrency, and the
// shim-over-batch equivalence the redesign promises.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/server/batch.h"
#include "src/server/ring.h"
#include "src/server/server.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

using server::Cqe;
using server::Sqe;

// --- MpmcRing -------------------------------------------------------------

TEST(MpmcRing, FifoAcrossManyWraparounds) {
  server::MpmcRing<uint64_t> ring(4);  // tiny: wraps every 4 pushes
  ASSERT_EQ(ring.capacity(), 4u);
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  const uint64_t kTotal = 10000;  // 2500 full laps of the ring
  while (next_pop < kTotal) {
    while (next_push < kTotal && ring.TryPush(next_push)) {
      ++next_push;
    }
    uint64_t v = 0;
    while (ring.TryPop(&v)) {
      ASSERT_EQ(v, next_pop);  // FIFO preserved across wraparound
      ++next_pop;
    }
  }
  EXPECT_EQ(ring.SizeApprox(), 0u);
  EXPECT_FALSE(ring.TryPop(&next_push));
}

TEST(MpmcRing, RejectsPushWhenFullAndPopWhenEmpty) {
  server::MpmcRing<int> ring(2);
  int v = 0;
  EXPECT_FALSE(ring.TryPop(&v));
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));  // full
  EXPECT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 1);
}

TEST(MpmcRing, MultiProducerMultiConsumerLosesNothing) {
  server::MpmcRing<uint64_t> ring(64);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPerProducer = 20000;
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<uint64_t> popped_count{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      uint64_t v = 0;
      while (!done.load(std::memory_order_acquire) || ring.SizeApprox() > 0) {
        if (ring.TryPop(&v)) {
          popped_sum.fetch_add(v, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t v = static_cast<uint64_t>(p) * kPerProducer + i + 1;
        while (!ring.TryPush(v)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped_count.load(), n);
  EXPECT_EQ(popped_sum.load(), n * (n + 1) / 2);  // every value exactly once
}

// --- batch execution through Task::SubmitBatch ----------------------------

TEST(Batch, ExecutesInSubmissionOrder) {
  TestWorld w(CacheConfig::Optimized());
  // mkdir /a, then stat it, then rmdir it, then stat again: the second stat
  // must fail — proof the entries ran in order, not reordered.
  Stat st{};
  std::vector<Sqe> sqes;
  sqes.push_back(Sqe::Mkdir(kAtFdCwd, "/ordered", 0755));
  sqes.push_back(Sqe::Statx(kAtFdCwd, "/ordered", 0, &st));
  sqes.push_back(Sqe::Unlink(kAtFdCwd, "/ordered", /*rmdir=*/true));
  sqes.push_back(Sqe::Statx(kAtFdCwd, "/ordered", 0, nullptr));
  for (size_t i = 0; i < sqes.size(); ++i) sqes[i].user_data = i;
  std::vector<Cqe> cqes(sqes.size());
  w.root->SubmitBatch(sqes.data(), sqes.size(), cqes.data());
  ASSERT_TRUE(cqes[0].ok()) << cqes[0].error_name();
  ASSERT_TRUE(cqes[1].ok()) << cqes[1].error_name();
  ASSERT_TRUE(cqes[2].ok()) << cqes[2].error_name();
  EXPECT_EQ(cqes[3].error(), Errno::kENOENT);
  for (size_t i = 0; i < cqes.size(); ++i) {
    EXPECT_EQ(cqes[i].user_data, i);  // CQE order mirrors SQE order
  }
}

TEST(Batch, PartialFailureIsIsolated) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/mix"));
  ASSERT_OK(w.root->Mkdir("/mix/good"));
  Stat a{}, b{};
  std::vector<Sqe> sqes;
  sqes.push_back(Sqe::Statx(kAtFdCwd, "/mix/good", 0, &a));       // ok
  sqes.push_back(Sqe::Statx(kAtFdCwd, "/mix/absent", 0, nullptr)); // ENOENT
  sqes.push_back(Sqe::Mkdir(kAtFdCwd, "/mix/good", 0755));         // EEXIST
  sqes.push_back(Sqe::Statx(kAtFdCwd, "/mix/good", 0, &b));       // still ok
  for (size_t i = 0; i < sqes.size(); ++i) sqes[i].user_data = 100 + i;
  std::vector<Cqe> cqes(sqes.size());
  w.root->SubmitBatch(sqes.data(), sqes.size(), cqes.data());
  EXPECT_TRUE(cqes[0].ok());
  EXPECT_EQ(cqes[1].error(), Errno::kENOENT);
  EXPECT_EQ(cqes[2].error(), Errno::kEEXIST);
  EXPECT_TRUE(cqes[3].ok()) << "a failed entry must not poison later ones";
  EXPECT_EQ(a.ino, b.ino);
}

TEST(Batch, ShimsAreEquivalentToBatchPath) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/same"));
  auto fd = w.root->Open("/same/f", kOCreat | kOWrite, 0644);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));

  auto via_shim = w.root->Statx(kAtFdCwd, "/same/f", 0);
  ASSERT_OK(via_shim);
  auto via_legacy = w.root->Statx(kAtFdCwd, "/same/f", 0);  // deprecated alias
  ASSERT_OK(via_legacy);
  Stat via_batch{};
  Sqe s = Sqe::Statx(kAtFdCwd, "/same/f", 0, &via_batch);
  Cqe c{};
  w.root->SubmitBatch(&s, 1, &c);
  ASSERT_TRUE(c.ok()) << c.error_name();
  EXPECT_EQ(via_shim->ino, via_batch.ino);
  EXPECT_EQ(via_legacy->ino, via_batch.ino);
  EXPECT_EQ(via_shim->mode, via_batch.mode);
  EXPECT_EQ(via_shim->size, via_batch.size);
}

// --- the server frontend --------------------------------------------------

TEST(Server, CompletionsArriveInSubmissionOrder) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/srv"));
  // SQE paths are views into caller memory: they must stay alive until the
  // completion is reaped, so the targets are materialized up front.
  std::vector<std::string> paths;
  for (int i = 0; i < 8; ++i) {
    paths.push_back("/srv/d" + std::to_string(i));
    ASSERT_OK(w.root->Mkdir(paths.back()));
  }
  server::ServerOptions opts;
  opts.shards = 1;
  opts.max_batch = 8;
  server::Server srv(w.kernel.get(), w.root, opts);
  srv.Start();
  constexpr uint64_t kOps = 4000;
  uint64_t submitted = 0;
  uint64_t reaped = 0;
  uint64_t expect_next = 0;
  std::vector<Cqe> cqes(64);
  while (reaped < kOps) {
    while (submitted < kOps && submitted - reaped < 32) {
      Sqe s = Sqe::Statx(kAtFdCwd, paths[submitted % 8], 0, nullptr);
      s.user_data = submitted;
      if (!srv.Submit(0, s)) break;
      ++submitted;
    }
    size_t got = srv.Reap(0, cqes.data(), cqes.size());
    for (size_t i = 0; i < got; ++i) {
      ASSERT_TRUE(cqes[i].ok());
      // Single producer, single shard: completion order == submission order.
      ASSERT_EQ(cqes[i].user_data, expect_next);
      ++expect_next;
    }
    reaped += got;
    if (got == 0) std::this_thread::yield();
  }
  srv.Stop();
  EXPECT_EQ(srv.ops_completed(), kOps);
  EXPECT_GT(srv.batches(), 0u);
}

TEST(Server, TinyRingWrapsAroundWithoutLoss) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/wrap"));
  server::ServerOptions opts;
  opts.shards = 1;
  opts.ring_depth = 4;  // forces thousands of SQ/CQ wraparounds
  opts.max_batch = 4;
  server::Server srv(w.kernel.get(), w.root, opts);
  srv.Start();
  constexpr uint64_t kOps = 5000;
  std::atomic<uint64_t> reaped{0};
  std::thread reaper([&] {
    std::vector<Cqe> cqes(8);
    while (reaped.load(std::memory_order_relaxed) < kOps) {
      size_t got = srv.Reap(0, cqes.data(), cqes.size());
      for (size_t i = 0; i < got; ++i) {
        ASSERT_TRUE(cqes[i].ok());
      }
      if (got == 0) {
        std::this_thread::yield();
      } else {
        reaped.fetch_add(got, std::memory_order_relaxed);
      }
    }
  });
  for (uint64_t i = 0; i < kOps; ++i) {
    Sqe s = Sqe::Statx(kAtFdCwd, "/wrap", 0, nullptr);
    s.user_data = i;
    srv.SubmitWait(0, s);  // blocks on the 4-deep ring until space frees
  }
  reaper.join();
  srv.Stop();
  EXPECT_EQ(srv.ops_completed(), kOps);
}

// One client thread that both submits and reaps, with more entries due at
// once than the SQ and the CQ hold together: SubmitWait would spin on a full
// SQ while the shard spins on a full CQ. SubmitOrReap reaps in between.
TEST(Server, SubmitOrReapDrainsABurstLargerThanBothRings) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/burst"));
  server::ServerOptions opts;
  opts.ring_depth = 4;
  server::Server srv(w.kernel.get(), w.root, opts);
  srv.Start();
  constexpr uint64_t kOps = 64;
  std::vector<Cqe> cqes(4);
  std::vector<bool> done(kOps, false);
  uint64_t reaped = 0;
  auto on_reap = [&](size_t got) {
    for (size_t i = 0; i < got; ++i) {
      EXPECT_TRUE(cqes[i].ok()) << cqes[i].error_name();
      done[cqes[i].user_data] = true;
    }
    reaped += got;
  };
  for (uint64_t i = 0; i < kOps; ++i) {
    Sqe s = Sqe::Statx(kAtFdCwd, "/burst", 0, nullptr);
    s.user_data = i;
    srv.SubmitOrReap(0, s, cqes.data(), cqes.size(), on_reap);
  }
  while (reaped < kOps) {
    on_reap(srv.Reap(0, cqes.data(), cqes.size()));
  }
  srv.Stop();
  EXPECT_EQ(reaped, kOps);
  EXPECT_EQ(std::count(done.begin(), done.end(), true), 64);
}

TEST(Server, StopDrainsAlreadySubmittedEntries) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/drain"));
  server::Server srv(w.kernel.get(), w.root, {});
  srv.Start();
  constexpr uint64_t kOps = 200;
  for (uint64_t i = 0; i < kOps; ++i) {
    Sqe s = Sqe::Statx(kAtFdCwd, "/drain", 0, nullptr);
    s.user_data = i;
    srv.SubmitWait(0, s);
  }
  srv.Stop();  // must execute every submitted SQE before exiting
  EXPECT_EQ(srv.ops_completed(), kOps);
  std::vector<Cqe> cqes(kOps);
  size_t got = 0;
  while (got < kOps) {
    size_t n = srv.Reap(0, cqes.data() + got, cqes.size() - got);
    ASSERT_GT(n, 0u) << "completions must survive Stop()";
    got += n;
  }
}

TEST(Server, FdsAreShardLocal) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/fds"));
  auto fd = w.root->Open("/fds/f", kOCreat | kOWrite, 0644);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  server::ServerOptions opts;
  opts.shards = 1;
  server::Server srv(w.kernel.get(), w.root, opts);
  srv.Start();
  // Open through the ring: the fd lives in the shard's forked task.
  Sqe open = Sqe::Open(kAtFdCwd, "/fds", kORead | kODirectory);
  open.user_data = 1;
  srv.SubmitWait(0, open);
  Cqe c{};
  while (srv.Reap(0, &c, 1) == 0) std::this_thread::yield();
  ASSERT_TRUE(c.ok()) << c.error_name();
  const auto shard_fd = static_cast<FdNum>(c.res);
  // A readdir on that fd must route back through the same shard...
  std::vector<DirEntry> ents;
  Sqe rd = Sqe::Readdir(shard_fd, &ents);
  rd.user_data = 2;
  srv.SubmitWait(0, rd);
  while (srv.Reap(0, &c, 1) == 0) std::this_thread::yield();
  ASSERT_TRUE(c.ok()) << c.error_name();
  EXPECT_GT(c.res, 0);
  EXPECT_EQ(static_cast<size_t>(c.res), ents.size());
  // ...and the submitting task must NOT see the fd (io_uring fixed-file
  // discipline: fd identity is per shard).
  EXPECT_FALSE(w.root->ReadDirFd(shard_fd).ok());
  Sqe cl = Sqe::Close(shard_fd);
  cl.user_data = 3;
  srv.SubmitWait(0, cl);
  while (srv.Reap(0, &c, 1) == 0) std::this_thread::yield();
  EXPECT_TRUE(c.ok()) << c.error_name();
  srv.Stop();
}

TEST(Server, MultiProducerMutationsUnderDrainKeepInvariants) {
  TestWorld w(CacheConfig::Optimized());
  ASSERT_OK(w.root->Mkdir("/mp"));
  for (int p = 0; p < 4; ++p) {
    ASSERT_OK(w.root->Mkdir("/mp/p" + std::to_string(p)));
  }
  server::ServerOptions opts;
  opts.shards = 2;
  opts.ring_depth = 64;
  opts.max_batch = 16;
  server::Server srv(w.kernel.get(), w.root, opts);
  srv.Start();
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 800;
  // SQE paths are views into caller memory and must outlive execution by
  // the shard thread, so every name is materialized before any submission
  // (and the vectors never reallocate afterwards).
  std::vector<std::string> bases(kProducers);
  std::vector<std::vector<std::string>> names(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    bases[p] = "/mp/p" + std::to_string(p);
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      names[p].push_back(bases[p] + "/d" + std::to_string(i));
    }
  }
  std::atomic<uint64_t> submitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const uint32_t shard = static_cast<uint32_t>(p) % opts.shards;
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        Sqe s;
        switch (i % 4) {
          case 0:
            s = Sqe::Mkdir(kAtFdCwd, names[p][i], 0755);
            break;
          case 1:  // stat what case 0 just made (same producer: ordered)
            s = Sqe::Statx(kAtFdCwd, names[p][i - 1], 0, nullptr);
            break;
          case 2:
            s = Sqe::Unlink(kAtFdCwd, names[p][i - 2], /*rmdir=*/true);
            break;
          default:
            s = Sqe::Statx(kAtFdCwd, bases[p], 0, nullptr);
            break;
        }
        s.user_data = static_cast<uint64_t>(p) << 32 | i;
        srv.SubmitWait(shard, s);
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::atomic<bool> stop_reaping{false};
  std::atomic<uint64_t> completions{0};
  std::vector<std::thread> reapers;
  for (uint32_t sh = 0; sh < opts.shards; ++sh) {
    reapers.emplace_back([&, sh] {
      std::vector<Cqe> cqes(32);
      while (true) {
        size_t got = srv.Reap(sh, cqes.data(), cqes.size());
        completions.fetch_add(got, std::memory_order_relaxed);
        if (got == 0) {
          if (stop_reaping.load(std::memory_order_acquire)) break;
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  srv.Stop();  // drains every submitted SQE
  // Every submission gets exactly one completion.
  while (completions.load(std::memory_order_relaxed) <
         kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  stop_reaping.store(true, std::memory_order_release);
  for (auto& t : reapers) t.join();
  EXPECT_EQ(completions.load(), kProducers * kPerProducer);
  EXPECT_EQ(srv.ops_completed(), kProducers * kPerProducer);
  // Post-condition: concurrent batch mutations left every cache invariant
  // intact.
  auto report = w.kernel->Audit();
  EXPECT_TRUE(report.clean()) << report.ToText();
}

// --- observability --------------------------------------------------------

TEST(Server, BatchCountersShowUpInSnapshot) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/obs"));
  server::ServerOptions opts;
  opts.max_batch = 8;
  server::Server srv(w.kernel.get(), w.root, opts);
  srv.Start();
  constexpr uint64_t kOps = 512;
  uint64_t reaped = 0;
  uint64_t submitted = 0;
  std::vector<Cqe> cqes(64);
  while (reaped < kOps) {
    while (submitted < kOps && submitted - reaped < 32) {
      Sqe s = Sqe::Statx(kAtFdCwd, "/obs", 0, nullptr);
      s.user_data = submitted;
      if (!srv.Submit(0, s)) break;
      ++submitted;
    }
    size_t got = srv.Reap(0, cqes.data(), cqes.size());
    reaped += got;
    if (got == 0) std::this_thread::yield();
  }
  srv.Stop();
  obs::ObsSnapshot snap = w.kernel->Observe();
  EXPECT_EQ(snap.Op(obs::ObsOp::kBatchDepth).count, srv.batches());
  EXPECT_EQ(snap.Op(obs::ObsOp::kBatchOccupancy).count, srv.batches());
  EXPECT_EQ(snap.Op(obs::ObsOp::kBatchDispatch).count, kOps);
  // Depth histogram records entry counts, so its sum is the op total.
  EXPECT_EQ(snap.Op(obs::ObsOp::kBatchDepth).sum_ns, kOps);
  EXPECT_GT(snap.Op(obs::ObsOp::kBatchDepth).max_ns, 1u)
      << "batching never kicked in: every turn drained a single SQE";
}

TEST(Server, ReapBackoffYieldsOnEmptyStreaksOnly) {
  server::ReapBackoff b(/*yield_after=*/4);
  EXPECT_EQ(b.empty_polls(), 0u);
  // Progress never builds a streak.
  for (int i = 0; i < 10; ++i) {
    b.Update(3);
    EXPECT_EQ(b.empty_polls(), 0u);
  }
  // Empty polls accumulate until yield_after, then the streak resets (the
  // yield itself is unobservable; the reset is the contract).
  b.Update(0);
  b.Update(0);
  b.Update(0);
  EXPECT_EQ(b.empty_polls(), 3u);
  b.Update(0);  // 4th empty: yields and resets
  EXPECT_EQ(b.empty_polls(), 0u);
  // Any progress mid-streak also resets.
  b.Update(0);
  b.Update(0);
  EXPECT_EQ(b.empty_polls(), 2u);
  b.Update(1);
  EXPECT_EQ(b.empty_polls(), 0u);
  // yield_after = 0 is clamped to 1: every empty poll yields, none linger.
  server::ReapBackoff always(0);
  always.Update(0);
  EXPECT_EQ(always.empty_polls(), 0u);
}

TEST(Server, ForcedTraceThroughRingsRecordsQueueWait) {
  TestWorld w(CacheConfig::Optimized(), nullptr, ObsConfig::Enabled());
  ASSERT_OK(w.root->Mkdir("/tr"));
  auto fd = w.root->Open("/tr/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(w.root->Close(*fd));
  EXPECT_OK(w.root->Statx(kAtFdCwd, "/tr/f", 0));  // warm the fastpath
  server::Server srv(w.kernel.get(), w.root, {});
  srv.Start();
  Stat st;
  Sqe s = Sqe::Statx(kAtFdCwd, "/tr/f", 0, &st);
  s.trace_force = 1;  // trace_sample_every = 0: only the flag traces
  srv.SubmitWait(0, s);
  Cqe c;
  server::ReapBackoff backoff;
  while (srv.Reap(0, &c, 1) == 0) {
    backoff.Update(0);
  }
  srv.Stop();
  ASSERT_TRUE(c.ok()) << c.error_name();

  // A ring-submitted trace carries all four timestamps, so the synthesized
  // framing spans include the queue wait (submit -> shard dequeue); the
  // attributor banks it under kStatx.
  obs::ObsSnapshot snap = w.kernel->Observe();
  const obs::OpAttribution& at =
      snap.attribution[static_cast<size_t>(obs::TraceOp::kStatx)];
  EXPECT_EQ(at.traced, 1u);
  EXPECT_GT(at.total_ns, 0u);
  EXPECT_GT(at.queue_ns, 0u);
  bool saw_request = false;
  bool saw_queue = false;
  for (const obs::SpanEvent& ev : snap.spans) {
    if (ev.kind == obs::SpanKind::kRequest) {
      saw_request = true;
    }
    if (ev.kind == obs::SpanKind::kQueue) {
      saw_queue = true;
      EXPECT_EQ(ev.op, obs::TraceOp::kStatx);
    }
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_queue);
  // The flight recorder on the shard thread retained the request.
  std::string report = w.kernel->obs().FlightRecorderReport();
  EXPECT_NE(report.find("request id="), std::string::npos) << report;
  EXPECT_NE(report.find("attribution:"), std::string::npos) << report;
}

}  // namespace
}  // namespace dircache
