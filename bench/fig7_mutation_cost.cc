// Figure 7 (write cost): what a directory mutation pays on the optimized
// kernel once the §3.2 coherence pass is (a) allocation-free, (b) batched
// against the DLHT, and (c) parallelized above a subtree-size threshold.
//
// Four measurements, one JSON artifact (BENCH_fig7.json):
//   1. Invalidation pass cost vs cached subtree size, serial engine
//      (inval_max_workers=0) vs parallel engine (8 workers). NOTE: this
//      host exposes a single CPU, so the parallel pass cannot run faster in
//      wall time; the speedup is computed from the engine's critical-path
//      CPU time (serial prefix + max worker CPU, the same substitution
//      fig8 uses for its scaling curve — see DESIGN.md §11).
//   2. Heap allocations per invalidation, counted by a global operator
//      new override. Small subtrees (<=64 dentries) must be zero: the
//      traversal is an intrusive work-list + per-dentry generation stamp.
//   3. Reader latency while the coherence gate is open (fastpath disabled,
//      walks fall to the slowpath) vs quiet, plus shared writes per warm
//      hit after the storm — the read path must stay shared-write-free.
//   4. Rename decoupling: the rename_seq write-section hold time vs the
//      deferred descendant pass span, read back from the obs journal
//      (kRenameLock vs kInvalidateSubtree). The hold must not scale with
//      the cached subtree.
#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/obs/snapshot.h"
#include "src/vfs/dcache.h"
#include "src/vfs/inval.h"
#include "src/vfs/path.h"
#include "src/vfs/walk.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Every operator-new form funnels through
// CountedAlloc so the bench can assert "zero heap allocations per
// invalidation" for small subtrees (the engine's intrusive work-list claim).
// thread_local: the serial pass runs entirely on the calling thread, which
// is exactly the claim under test.

namespace {
thread_local uint64_t g_thread_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_thread_allocs;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  ++g_thread_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dircache {
namespace bench {
namespace {

bool Quick() {
  const char* q = std::getenv("FIG7_QUICK");
  return q != nullptr && *q == '1';
}

// Subtree sizes (cached dentries, approximately: files + a few dirs). The
// largest must clear the 10k acceptance bar and the parallel threshold.
const size_t kSizes[] = {64, 1024, 10240};

CacheConfig SerialCfg() {
  CacheConfig cfg = Optimized();
  cfg.inval_max_workers = 0;  // engine runs every pass inline, serial
  return cfg;
}

CacheConfig ParallelCfg() {
  CacheConfig cfg = Optimized();
  cfg.inval_max_workers = 8;
  return cfg;
}

// Build `files` cached files under `root`, spread over enough directories
// to keep per-directory fanout reasonable; stat each so it lands in the
// DLHT. Returns the list of file paths (for re-warming between passes).
std::vector<std::string> BuildSubtree(Task& t, const std::string& root,
                                      size_t files) {
  std::vector<std::string> paths;
  paths.reserve(files);
  (void)t.Mkdir(root);
  size_t dirs = files <= 64 ? 1 : files / 256;
  for (size_t d = 0; d < dirs; ++d) {
    std::string dir = root;
    if (dirs > 1) {
      dir += "/d" + std::to_string(d);
      (void)t.Mkdir(dir);
    }
    size_t count = files / dirs + (d < files % dirs ? 1 : 0);
    for (size_t i = 0; i < count; ++i) {
      std::string f = dir + "/f" + std::to_string(i);
      auto fd = t.Open(f, kOCreat | kOWrite);
      if (fd.ok()) {
        (void)t.Close(*fd);
      }
      paths.push_back(std::move(f));
    }
  }
  for (const std::string& f : paths) {
    (void)t.Statx(kAtFdCwd, f, 0);  // publish to the DLHT
  }
  return paths;
}

struct PassResult {
  size_t dentries = 0;           // requested subtree size (files)
  uint64_t visited = 0;          // dentries the engine actually bumped
  uint32_t workers = 0;          // 0 = serial pass
  uint64_t dlht_evicted = 0;     // from the first (fully warm) pass
  uint64_t dlht_batches = 0;
  uint64_t critical_ns = 0;      // min over iters (CPU-time critical path)
  uint64_t span_ns = 0;          // min over iters (wall)
  uint64_t allocs = 0;           // max over iters, coordinator thread
};

PassResult MeasureInvalidation(const CacheConfig& cfg, size_t files,
                               int iters) {
  Env env = MakeEnv(cfg, 1 << 18, 1 << 17);
  Task& t = env.T();
  std::vector<std::string> paths = BuildSubtree(t, "/sub", files);
  PathWalker walker(env.kernel.get());
  auto h = walker.Resolve(t, nullptr, "/sub", 0);
  if (!h.ok()) {
    std::fprintf(stderr, "resolve /sub failed\n");
    std::abort();
  }
  DentryCache& dc = env.kernel->dcache();

  PassResult r;
  r.dentries = files;
  // Warm-up pass: first parallel pass lazily spawns the worker pool (which
  // allocates); it also drains the warm DLHT, so record the batched
  // eviction stats here, where every entry is present.
  dc.InvalidateSubtree(h->dentry());
  InvalPassStats warm = dc.last_inval_stats();
  r.dlht_evicted = warm.dlht_evicted;
  r.dlht_batches = warm.dlht_batches;

  for (int i = 0; i < iters; ++i) {
    for (const std::string& f : paths) {
      (void)t.Statx(kAtFdCwd, f, 0);  // re-publish so every pass evicts a warm table
    }
    uint64_t a0 = g_thread_allocs;
    dc.InvalidateSubtree(h->dentry());
    uint64_t allocs = g_thread_allocs - a0;
    InvalPassStats st = dc.last_inval_stats();
    r.visited = st.visited;
    r.workers = st.workers;
    r.allocs = std::max(r.allocs, allocs);
    r.critical_ns = i == 0 ? st.critical_path_ns
                           : std::min(r.critical_ns, st.critical_path_ns);
    r.span_ns = i == 0 ? st.span_ns : std::min(r.span_ns, st.span_ns);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Reader-side impact: warm-hit latency percentiles with the coherence gate
// quiet vs held open (every walk falls back to the slowpath), plus shared
// writes per warm op after everything settles.

struct ReaderResult {
  uint64_t quiet_p50_ns = 0;
  uint64_t quiet_p99_ns = 0;
  uint64_t gate_open_p50_ns = 0;
  uint64_t gate_open_p99_ns = 0;
  double shared_writes_per_op = 0;
};

uint64_t MonoNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

ReaderResult MeasureReader(int ops) {
  Env env = MakeEnv(ParallelCfg());
  Task& t = env.T();
  BuildSubtree(t, "/sub", 256);  // 256 files land flat under /sub
  const char* kHot = "/sub/f0";
  for (int i = 0; i < 8; ++i) {
    (void)t.Statx(kAtFdCwd, kHot, 0);
  }
  auto loop = [&](std::vector<uint64_t>* lat) {
    lat->reserve(static_cast<size_t>(ops));
    for (int i = 0; i < ops; ++i) {
      uint64_t t0 = MonoNanos();
      (void)t.Statx(kAtFdCwd, kHot, 0);
      lat->push_back(MonoNanos() - t0);
    }
  };
  ReaderResult r;
  std::vector<uint64_t> quiet;
  loop(&quiet);
  r.quiet_p50_ns = Quantile(quiet, 1, 2);
  r.quiet_p99_ns = Quantile(quiet, 99, 100);
  {
    // Hold the coherence gate open: InvalidationQuiescent() is false, so
    // every lookup must complete via the locked slowpath — the worst case a
    // reader sees while a pass is in flight.
    CoherenceSection section(&env.kernel->dcache());
    std::vector<uint64_t> open;
    loop(&open);
    r.gate_open_p50_ns = Quantile(open, 1, 2);
    r.gate_open_p99_ns = Quantile(open, 99, 100);
  }
  // Settle the caches past the post-gate repopulation writes, then assert
  // the steady state: warm hits perform no shared-cacheline writes.
  for (int i = 0; i < 8; ++i) {
    (void)t.Statx(kAtFdCwd, kHot, 0);
  }
  env.kernel->stats().shared_writes.Reset();
  for (int i = 0; i < ops; ++i) {
    (void)t.Statx(kAtFdCwd, kHot, 0);
  }
  r.shared_writes_per_op =
      static_cast<double>(env.kernel->stats().shared_writes.value()) / ops;
  return r;
}

// ---------------------------------------------------------------------------
// Rename decoupling: with the descendant pass deferred, the rename_seq
// write-section hold time must stay microscopic next to the pass itself.

struct RenameResult {
  uint64_t lock_hold_ns = 0;   // kRenameLock duration (last rename)
  uint64_t pass_span_ns = 0;   // kInvalidateSubtree duration (same rename)
  size_t subtree_files = 0;
  bool found = false;
};

RenameResult MeasureRename(size_t files) {
  Env env = MakeEnv(ParallelCfg(), 1 << 18, 1 << 17, ObsConfig::Enabled());
  Task& t = env.T();
  BuildSubtree(t, "/r", files);
  auto st = t.Rename("/r", "/r2");
  RenameResult r;
  r.subtree_files = files;
  if (!st.ok()) {
    return r;
  }
  obs::ObsSnapshot snap = env.kernel->Observe();
  for (const obs::JournalEventRecord& ev : snap.journal) {
    if (ev.type == obs::JournalEvent::kRenameLock) {
      r.lock_hold_ns = ev.duration_ns;
      r.found = true;
    } else if (ev.type == obs::JournalEvent::kInvalidateSubtree &&
               ev.arg0 >= files) {
      // The deferred descendant pass over the moved subtree.
      r.pass_span_ns = ev.duration_ns;
    }
  }
  return r;
}

void WriteJson(const std::vector<PassResult>& serial,
               const std::vector<PassResult>& parallel,
               const ReaderResult& reader, const RenameResult& rename,
               int iters, double speedup_10k, bool speedup_ok,
               bool alloc_free, bool shared_write_free, bool rename_ok) {
  std::ofstream out("BENCH_fig7.json");
  if (!out) {
    return;
  }
  auto pass = [&](const PassResult& p) {
    out << "{\"dentries\": " << p.dentries << ", \"visited\": " << p.visited
        << ", \"workers\": " << p.workers
        << ", \"dlht_evicted\": " << p.dlht_evicted
        << ", \"dlht_batches\": " << p.dlht_batches
        << ", \"critical_path_ns\": " << p.critical_ns
        << ", \"span_ns\": " << p.span_ns
        << ", \"allocs_per_invalidate\": " << p.allocs << "}";
  };
  out << "{\n  \"benchmark\": \"fig7_mutation_cost\",\n"
      << "  \"iters\": " << iters << ",\n  \"sizes\": [\n";
  for (size_t i = 0; i < serial.size(); ++i) {
    out << "    {\"dentries\": " << serial[i].dentries << ", \"serial\": ";
    pass(serial[i]);
    out << ", \"parallel\": ";
    pass(parallel[i]);
    double sp = parallel[i].critical_ns > 0
                    ? static_cast<double>(serial[i].critical_ns) /
                          static_cast<double>(parallel[i].critical_ns)
                    : 0;
    out << ", \"speedup\": " << sp << "}"
        << (i + 1 < serial.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"reader\": {\"quiet_p50_ns\": " << reader.quiet_p50_ns
      << ", \"quiet_p99_ns\": " << reader.quiet_p99_ns
      << ", \"gate_open_p50_ns\": " << reader.gate_open_p50_ns
      << ", \"gate_open_p99_ns\": " << reader.gate_open_p99_ns
      << ", \"shared_writes_per_op\": " << reader.shared_writes_per_op
      << "},\n"
      << "  \"rename\": {\"subtree_files\": " << rename.subtree_files
      << ", \"lock_hold_ns\": " << rename.lock_hold_ns
      << ", \"inval_pass_ns\": " << rename.pass_span_ns
      << ", \"journaled\": " << (rename.found ? "true" : "false") << "},\n"
      << "  \"verdict\": {\"parallel_speedup_10k\": " << speedup_10k
      << ", \"parallel_speedup_ok\": " << (speedup_ok ? "true" : "false")
      << ", \"small_subtree_alloc_free\": " << (alloc_free ? "true" : "false")
      << ", \"warm_hit_shared_write_free\": "
      << (shared_write_free ? "true" : "false")
      << ", \"rename_hold_decoupled\": " << (rename_ok ? "true" : "false")
      << "}\n}\n";
}

}  // namespace
}  // namespace bench
}  // namespace dircache

int main() {
  using namespace dircache;
  using namespace dircache::bench;
  Banner("Figure 7 (write cost)",
         "invalidation pass cost vs cached subtree size: serial vs "
         "parallel engine (single-CPU host: speedup from critical-path "
         "CPU time)");
  const int iters = Quick() ? 3 : 7;
  const int reader_ops = Quick() ? 1000 : 4000;

  std::printf("%10s | %12s %12s %8s | %10s %8s %8s\n", "dentries",
              "serial-ns", "parallel-ns", "speedup", "allocs", "workers",
              "batches");
  std::vector<PassResult> serial;
  std::vector<PassResult> parallel;
  for (size_t files : kSizes) {
    serial.push_back(MeasureInvalidation(SerialCfg(), files, iters));
    parallel.push_back(MeasureInvalidation(ParallelCfg(), files, iters));
    const PassResult& s = serial.back();
    const PassResult& p = parallel.back();
    double sp = p.critical_ns > 0 ? static_cast<double>(s.critical_ns) /
                                        static_cast<double>(p.critical_ns)
                                  : 0;
    std::printf("%10zu | %12llu %12llu %7.2fx | %4llu/%4llu %8u %8llu\n",
                files, static_cast<unsigned long long>(s.critical_ns),
                static_cast<unsigned long long>(p.critical_ns), sp,
                static_cast<unsigned long long>(s.allocs),
                static_cast<unsigned long long>(p.allocs), p.workers,
                static_cast<unsigned long long>(p.dlht_batches));
  }

  ReaderResult reader = MeasureReader(reader_ops);
  std::printf("\nreader (warm stat): quiet p50 %llu ns p99 %llu ns | "
              "gate-open p50 %llu ns p99 %llu ns | shared-writes/op %.4f\n",
              static_cast<unsigned long long>(reader.quiet_p50_ns),
              static_cast<unsigned long long>(reader.quiet_p99_ns),
              static_cast<unsigned long long>(reader.gate_open_p50_ns),
              static_cast<unsigned long long>(reader.gate_open_p99_ns),
              reader.shared_writes_per_op);

  RenameResult rename = MeasureRename(kSizes[2]);
  std::printf("rename (%zu cached files): lock hold %llu ns, deferred "
              "descendant pass %llu ns\n",
              rename.subtree_files,
              static_cast<unsigned long long>(rename.lock_hold_ns),
              static_cast<unsigned long long>(rename.pass_span_ns));

  // Verdicts (the acceptance bars of this figure):
  //  (a) >=2x critical-path speedup on the 10k subtree with 8 workers,
  //  (b) zero heap allocations per invalidation for <=64-dentry subtrees,
  //  (c) the warm hit path stays shared-write-free after the storm,
  //  (d) the rename write-section hold is decoupled from the subtree pass.
  double speedup_10k =
      parallel.back().critical_ns > 0
          ? static_cast<double>(serial.back().critical_ns) /
                static_cast<double>(parallel.back().critical_ns)
          : 0;
  bool speedup_ok = speedup_10k >= 2.0 && parallel.back().workers == 8;
  bool alloc_free = serial.front().allocs == 0 && parallel.front().allocs == 0;
  bool shared_write_free = reader.shared_writes_per_op < 1e-3;
  bool rename_ok = rename.found && rename.pass_span_ns > 0 &&
                   rename.lock_hold_ns < rename.pass_span_ns;

  WriteJson(serial, parallel, reader, rename, iters, speedup_10k, speedup_ok,
            alloc_free, shared_write_free, rename_ok);

  std::printf(
      "\nverdict: 10k speedup %.2fx (>=2x %s) | small-subtree allocs %s | "
      "warm hits shared-write-free %s | rename hold decoupled %s\n",
      speedup_10k, speedup_ok ? "OK" : "FAIL",
      alloc_free ? "OK (0)" : "FAIL (nonzero)",
      shared_write_free ? "OK" : "FAIL", rename_ok ? "OK" : "FAIL");
  return (speedup_ok && alloc_free && shared_write_free && rename_ok) ? 0 : 1;
}
