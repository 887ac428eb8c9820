// Server frontend throughput: batched submission vs one-call-per-op
// (DESIGN.md §12).
//
// The claim under test: pushing operations through the per-core
// submission/completion rings in batches (depth >= 32) amortizes dispatch —
// ring crossings, thread handoffs, per-turn bookkeeping — over the whole
// batch, while a one-call-per-op loop through the same rings pays the full
// round trip per operation. On this single-CPU host the round trip is two
// context switches, which is exactly the cost io_uring batching removes on
// real hardware; the bench gates on batched/unbatched >= 2x over a warm
// maildir path set. A direct in-process loop (no rings at all) is recorded
// as the reference ceiling.
//
// The warm phase also re-proves the paper's core property end to end:
// warm-hit `shared_writes_per_op = 0` with the server loop enabled — the
// rings belong to the dispatch layer, and the walk fastpath under them
// stays shared-write-free. The purity probe stats a single hot path
// through the batched rings (see HotPathSharedWritesPerOp), with
// observability OFF (the verdict judges the undisturbed read path); a
// separate obs-ON rerun feeds the batch_* histograms into the JSON
// artifact.
//
// The mixed phase replays maildir + webserver traffic with Poisson
// arrivals — ~10% mutations (flag renames), a readdir rescan slice, the
// rest warm lookups — and reports ops/sec plus p50/p99/p99.9
// arrival-to-completion latency through the rings.
//
// Artifact: BENCH_server.json (schema validated by scripts/bench_smoke.sh).
// Exits nonzero when a verdict gate fails. SERVER_QUICK=1 shrinks the run.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/server/batch.h"
#include "src/server/server.h"
#include "src/util/rng.h"
#include "src/workload/maildir.h"

namespace dircache {
namespace bench {
namespace {

bool Quick() {
  const char* q = std::getenv("SERVER_QUICK");
  return q != nullptr && *q == '1';
}

struct Workload {
  std::vector<std::string> lookups;    // message + page paths, warm
  std::vector<std::string> rename_a;   // maildir flag-toggle pairs
  std::vector<std::string> rename_b;
  std::vector<std::string> dirs;       // mailbox cur/ dirs for rescans
};

// Maildir mailboxes (one file per message, flags in the name) plus a
// webserver docroot — the two serving trees the paper's app studies use.
Workload Build(Env& env, size_t mailboxes, size_t messages, size_t site_dirs,
               size_t pages) {
  Workload w;
  Task& t = env.T();
  MaildirServer mail(t, "/mail");
  (void)t.Mkdir("/mail");
  for (size_t m = 0; m < mailboxes; ++m) {
    std::string box = "box" + std::to_string(m);
    if (!mail.CreateMailbox(box, messages).ok()) {
      std::abort();
    }
    std::string cur = "/mail/" + box + "/cur";
    w.dirs.push_back(cur);
    auto dfd = t.Open(cur, kORead | kODirectory);
    if (!dfd.ok()) {
      std::abort();
    }
    while (true) {
      auto batch = t.ReadDirFd(*dfd, 256);
      if (!batch.ok() || batch->empty()) {
        break;
      }
      for (const DirEntry& e : *batch) {
        std::string path = cur + "/" + e.name;
        w.lookups.push_back(path);
        // Flag toggle: "name" <-> "name:2,S" (strip if already flagged).
        size_t colon = e.name.rfind(":2,");
        std::string base =
            colon == std::string::npos ? path : cur + "/" + e.name.substr(0, colon);
        w.rename_a.push_back(base);
        w.rename_b.push_back(base + ":2,S");
      }
    }
    (void)t.Close(*dfd);
  }
  for (size_t d = 0; d < site_dirs; ++d) {
    std::string dir = "/site/d" + std::to_string(d);
    (void)t.Mkdir("/site");
    (void)t.Mkdir(dir);
    for (size_t p = 0; p < pages; ++p) {
      std::string page = dir + "/page" + std::to_string(p) + ".html";
      auto fd = t.Open(page, kOCreat | kOWrite);
      if (fd.ok()) {
        (void)t.WriteFd(*fd, "<html/>");
        (void)t.Close(*fd);
      }
      w.lookups.push_back(page);
    }
  }
  return w;
}

void WarmCaches(Task& t, const Workload& w) {
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::string& p : w.lookups) {
      (void)t.Statx(kAtFdCwd, p, 0);
    }
  }
}

// Direct in-process loop: no rings, one shim call per op. The reference
// ceiling batching is measured against.
double DirectOpsPerSec(Task& t, const Workload& w, uint64_t ops) {
  uint64_t t0 = NowNanos();
  for (uint64_t i = 0; i < ops; ++i) {
    (void)t.Statx(kAtFdCwd, w.lookups[i % w.lookups.size()], 0);
  }
  uint64_t el = NowNanos() - t0;
  return el == 0 ? 0 : static_cast<double>(ops) * 1e9 / el;
}

// Warm statx-only traffic through the server rings with a bounded
// submission window. window = 1 is the one-call-per-op loop (submit, wait
// for the completion, repeat); window = depth pipelines a full batch.
double ServerOpsPerSec(Kernel* kernel, const TaskPtr& base, const Workload& w,
                       uint64_t ops, uint32_t window) {
  server::ServerOptions opts;
  opts.max_batch = window == 0 ? 1 : window;
  server::Server srv(kernel, base, opts);
  srv.Start();
  std::vector<server::Cqe> cqes(256);
  uint64_t submitted = 0;
  uint64_t reaped = 0;
  server::ReapBackoff backoff;  // single CPU: hand the shard the slice
  uint64_t t0 = NowNanos();
  while (reaped < ops) {
    while (submitted < ops && submitted - reaped < opts.max_batch) {
      server::Sqe s = server::Sqe::Statx(
          kAtFdCwd, w.lookups[submitted % w.lookups.size()], 0, nullptr);
      s.user_data = submitted;
      if (!srv.Submit(0, s)) {
        break;
      }
      ++submitted;
    }
    size_t got = srv.Reap(0, cqes.data(), cqes.size());
    reaped += got;
    backoff.Update(got);
  }
  uint64_t el = NowNanos() - t0;
  srv.Stop();
  return el == 0 ? 0 : static_cast<double>(ops) * 1e9 / el;
}

// Warm-hit shared-write purity, fig8's definition: repeated hits on an
// already-hot path must not write shared state. The probe stats ONE hot
// path through the batched rings: a warm-up window lets the one-time
// writes settle (dentry and PCC second-chance bit arming), then the
// counter delta over the measured window must be zero.
double HotPathSharedWritesPerOp(Kernel* kernel, const TaskPtr& base,
                                const std::string& hot, uint64_t ops) {
  server::ServerOptions opts;
  opts.max_batch = 32;
  server::Server srv(kernel, base, opts);
  srv.Start();
  std::vector<server::Cqe> cqes(256);
  auto run = [&](uint64_t n) {
    uint64_t submitted = 0;
    uint64_t reaped = 0;
    server::ReapBackoff backoff;
    while (reaped < n) {
      while (submitted < n && submitted - reaped < opts.max_batch) {
        server::Sqe s = server::Sqe::Statx(kAtFdCwd, hot, 0, nullptr);
        s.user_data = submitted;
        if (!srv.Submit(0, s)) {
          break;
        }
        ++submitted;
      }
      size_t got = srv.Reap(0, cqes.data(), cqes.size());
      reaped += got;
      backoff.Update(got);
    }
  };
  run(512);  // settle one-time writes before counting
  kernel->stats().shared_writes.Reset();
  run(ops);
  uint64_t writes = kernel->stats().shared_writes.value();
  srv.Stop();
  return static_cast<double>(writes) / static_cast<double>(ops);
}

struct MixedResult {
  double ops_per_sec = 0;
  double mutation_fraction = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
};

// Maildir + webserver mixed traffic with Poisson arrivals: ~10% flag-toggle
// renames, ~5% directory rescans (readdir through the ring on fds the ring
// itself opened), the rest warm lookups. Latency = arrival to reap.
MixedResult MixedPhase(Kernel* kernel, const TaskPtr& base, Workload& w,
                       uint64_t ops, double arrival_rate) {
  server::ServerOptions opts;
  opts.max_batch = 32;
  opts.ring_depth = 1024;
  server::Server srv(kernel, base, opts);
  srv.Start();

  // Open every mailbox dir through the ring so the fds live in the shard's
  // task (io_uring fixed-file discipline).
  std::vector<int32_t> dir_fds(w.dirs.size(), -1);
  {
    std::vector<server::Cqe> cqes(64);
    size_t got = 0;
    auto on_reap = [&](size_t n) {
      for (size_t i = 0; i < n; ++i) {
        if (cqes[i].ok()) {
          dir_fds[cqes[i].user_data] = cqes[i].res;
        }
      }
      got += n;
    };
    for (size_t i = 0; i < w.dirs.size(); ++i) {
      server::Sqe s = server::Sqe::Open(kAtFdCwd, w.dirs[i],
                                        kORead | kODirectory);
      s.user_data = i;
      srv.SubmitOrReap(0, s, cqes.data(), cqes.size(), on_reap);
    }
    server::ReapBackoff backoff;
    while (got < w.dirs.size()) {
      size_t n = srv.Reap(0, cqes.data(), cqes.size());
      on_reap(n);
      backoff.Update(n);
    }
  }
  // Per-op readdir sink: one shared buffer is fine — the client reaps the
  // previous rescan completion before submitting the next (readdir ops are
  // serialized by the single in-flight-rescan flag below).
  std::vector<DirEntry> rescan_buf;
  bool rescan_inflight = false;

  Rng rng(0x5eed);
  std::vector<uint64_t> arrive_ns(ops);
  std::vector<uint64_t> done_ns(ops);
  std::vector<bool> flagged(w.rename_a.size(), false);
  const uint64_t start = NowNanos();
  // Pre-draw Poisson inter-arrival gaps.
  {
    uint64_t at = start;
    for (uint64_t i = 0; i < ops; ++i) {
      double u = (static_cast<double>(rng.Below(1u << 30)) + 1.0) /
                 static_cast<double>(1u << 30);
      at += static_cast<uint64_t>(-std::log(u) / arrival_rate * 1e9);
      arrive_ns[i] = at;
    }
  }

  uint64_t submitted = 0;
  uint64_t reaped = 0;
  uint64_t mutations = 0;
  std::vector<server::Cqe> cqes(256);
  auto on_reap = [&](size_t got) {
    const uint64_t now = NowNanos();
    for (size_t k = 0; k < got; ++k) {
      done_ns[cqes[k].user_data] = now;
    }
    reaped += got;
  };
  server::ReapBackoff backoff;
  while (reaped < ops) {
    uint64_t now = NowNanos();
    while (submitted < ops && arrive_ns[submitted] <= now) {
      const uint64_t i = submitted;
      server::Sqe s;
      uint32_t draw = rng.Below(100);
      if (draw < 10 && !w.rename_a.empty()) {
        // Flag toggle: rename to the other spelling of this message.
        size_t m = rng.Below(static_cast<uint32_t>(w.rename_a.size()));
        const std::string& from = flagged[m] ? w.rename_b[m] : w.rename_a[m];
        const std::string& to = flagged[m] ? w.rename_a[m] : w.rename_b[m];
        s = server::Sqe::Rename(kAtFdCwd, from, kAtFdCwd, to);
        flagged[m] = !flagged[m];
        ++mutations;
      } else if (draw < 15 && !w.dirs.empty() && !rescan_inflight) {
        // Dovecot-style rescan step on a ring-opened fd.
        size_t d = rng.Below(static_cast<uint32_t>(w.dirs.size()));
        if (dir_fds[d] >= 0) {
          s = server::Sqe::Readdir(dir_fds[d], &rescan_buf, 64);
          rescan_inflight = true;
        } else {
          s = server::Sqe::Statx(kAtFdCwd,
                                 w.lookups[i % w.lookups.size()], 0, nullptr);
        }
      } else {
        s = server::Sqe::Statx(kAtFdCwd, w.lookups[i % w.lookups.size()], 0,
                               nullptr);
      }
      s.user_data = i;
      // A backlog larger than both rings would deadlock SubmitWait here:
      // the shard waits for CQ space that only this loop frees.
      srv.SubmitOrReap(0, s, cqes.data(), cqes.size(), on_reap);
      ++submitted;
    }
    size_t got = srv.Reap(0, cqes.data(), cqes.size());
    on_reap(got);
    backoff.Update(got);
  }
  uint64_t el = NowNanos() - start;
  srv.Stop();

  MixedResult r;
  r.ops_per_sec = el == 0 ? 0 : static_cast<double>(ops) * 1e9 / el;
  r.mutation_fraction =
      ops == 0 ? 0 : static_cast<double>(mutations) / static_cast<double>(ops);
  std::vector<uint64_t> lat(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    lat[i] = done_ns[i] > arrive_ns[i] ? done_ns[i] - arrive_ns[i] : 0;
  }
  r.p50_ns = Quantile(lat, 1, 2);
  r.p99_ns = Quantile(lat, 99, 100);
  r.p999_ns = Quantile(std::move(lat), 999, 1000);
  return r;
}

// Obs-ON rerun of the warm batched loop so the JSON artifact carries the
// batch_depth / batch_occupancy / batch_dispatch histograms (the verdict
// numbers above are measured with obs OFF; fig8 pattern).
obs::ObsSnapshot ObservedRun(uint64_t ops) {
  Env env = MakeEnv(Optimized(), 1 << 17, 1 << 16, ObsConfig::Enabled());
  Workload w = Build(env, 2, 32, 2, 16);
  WarmCaches(env.T(), w);
  (void)ServerOpsPerSec(env.kernel.get(), env.task, w, ops, 32);
  return env.kernel->Observe();
}

}  // namespace
}  // namespace bench
}  // namespace dircache

int main() {
  using namespace dircache;
  using namespace dircache::bench;
  const bool quick = Quick();
  const size_t mailboxes = quick ? 4 : 8;
  const size_t messages = quick ? 50 : 200;
  const uint64_t warm_ops = quick ? 20000 : 100000;
  const uint64_t mixed_ops = quick ? 10000 : 40000;
  const uint32_t depth = 32;

  Banner("server_throughput",
         "batched submission vs one-call-per-op through the server rings");

  Env env = MakeEnv(Optimized());
  Workload w = Build(env, mailboxes, messages, quick ? 4 : 8,
                     quick ? 32 : 64);
  WarmCaches(env.T(), w);

  // --- warm phase (obs OFF) -----------------------------------------------
  double direct = DirectOpsPerSec(env.T(), w, warm_ops);
  double unbatched =
      ServerOpsPerSec(env.kernel.get(), env.task, w, warm_ops, 1);

  env.kernel->stats().locks_taken.Reset();
  double batched =
      ServerOpsPerSec(env.kernel.get(), env.task, w, warm_ops, depth);
  double locks_per_op =
      static_cast<double>(env.kernel->stats().locks_taken.value()) /
      static_cast<double>(warm_ops);
  uint64_t purity_ops = quick ? 20000 : 100000;
  double shared_writes_per_op = HotPathSharedWritesPerOp(
      env.kernel.get(), env.task, w.lookups[0], purity_ops);
  double speedup = unbatched == 0 ? 0 : batched / unbatched;

  std::printf("warm statx ops/sec   direct=%.0f  server(depth=1)=%.0f  "
              "server(depth=%u)=%.0f\n",
              direct, unbatched, depth, batched);
  std::printf("batched speedup over one-call-per-op: %.2fx\n", speedup);
  std::printf("warm-hit purity: shared_writes/op=%.6f  batched locks/op=%.6f\n",
              shared_writes_per_op, locks_per_op);

  // --- mixed phase --------------------------------------------------------
  // Open-loop Poisson arrivals at ~30% of the warm batched service rate so
  // the queue stays stable and the tail reflects dispatch + service, not
  // saturation.
  double rate = std::max(batched * 0.3, 1000.0);
  MixedResult mixed =
      MixedPhase(env.kernel.get(), env.task, w, mixed_ops, rate);
  std::printf("mixed (poisson %.0f/s): %.0f ops/sec  mutations=%.1f%%  "
              "p50=%llu ns p99=%llu ns p99.9=%llu ns\n",
              rate, mixed.ops_per_sec, mixed.mutation_fraction * 100.0,
              static_cast<unsigned long long>(mixed.p50_ns),
              static_cast<unsigned long long>(mixed.p99_ns),
              static_cast<unsigned long long>(mixed.p999_ns));

  obs::ObsSnapshot snap = ObservedRun(quick ? 5000 : 20000);

  const bool speedup_ok = speedup >= 2.0;
  const bool write_free = shared_writes_per_op < 1e-3;

  std::ofstream out("BENCH_server.json");
  out << "{\n  \"benchmark\": \"server_throughput\",\n"
      << "  \"batch_abi_version\": " << server::kBatchAbiVersion << ",\n"
      << "  \"workload\": \"maildir+webserver\",\n"
      << "  \"warm\": {\"ops\": " << warm_ops
      << ", \"direct_ops_per_sec\": " << direct
      << ", \"unbatched_ops_per_sec\": " << unbatched
      << ", \"batched_ops_per_sec\": " << batched
      << ", \"batch_depth\": " << depth
      << ", \"batched_speedup\": " << speedup
      << ", \"shared_writes_per_op\": " << shared_writes_per_op
      << ", \"locks_per_op\": " << locks_per_op << "},\n"
      << "  \"mixed\": {\"ops\": " << mixed_ops
      << ", \"arrival_rate_per_sec\": " << rate
      << ", \"ops_per_sec\": " << mixed.ops_per_sec
      << ", \"mutation_fraction\": " << mixed.mutation_fraction
      << ", \"p50_ns\": " << mixed.p50_ns << ", \"p99_ns\": " << mixed.p99_ns
      << ", \"p999_ns\": " << mixed.p999_ns << "},\n"
      << "  \"obs\": " << snap.ToJson() << ",\n"
      << "  \"verdict\": {\"batched_speedup_ok\": "
      << (speedup_ok ? "true" : "false")
      << ", \"warm_hit_shared_write_free\": " << (write_free ? "true" : "false")
      << ", \"batched_speedup\": " << speedup << "}\n}\n";
  out.close();

  std::printf("verdict: batched speedup %s (%.2fx), warm shared-writes %s "
              "(%.6f/op)\n",
              speedup_ok ? "OK" : "FAIL", speedup,
              write_free ? "OK" : "FAIL", shared_writes_per_op);
  std::printf("wrote BENCH_server.json\n");
  return speedup_ok && write_free ? 0 : 1;
}
