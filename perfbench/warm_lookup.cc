// warm_lookup: the paper's fastpath claim (Fig 2/6) and its scalability
// claim (Fig 8) on a source tree that fits every cache.
//
// The stream is one developer session over the tree, replayed: git status,
// du and the lookups of make (without compiling), interleaved so that all
// three advance together (tree.h: Application models). Phase 1 runs it on
// one thread and supplies the latencies. Phase 2 runs the session's lookups
// on one forked reader per processor, each starting at its own offset, and
// supplies ops_per_s; the readers share one cred and so one PCC. Set-up
// warms every path an op touches, so no op instantiates, kills or evicts a
// dentry while several threads run.
#include <atomic>
#include <thread>

#include "probes.h"
#include "tree.h"
#include "workloads.h"

namespace perfbench {
namespace {

const char kRoot[] = "/home/u/proj";
constexpr size_t kDirs = 150;
constexpr size_t kFiles = 2000;
constexpr uint32_t kFanout = 4;

// Op budget per --seconds. Every op of the session leaves the tree as it
// found it, so a replay meets the same model.
constexpr uint64_t kPhase1OpsPerSecond = 425000;
constexpr uint64_t kReaderOpsPerSecond = 300000;
constexpr int kPhase2Rounds = 9;
// Phase 1 runs in this many blocks, and each latency percentile is the
// median over the blocks of the block's own percentile.
constexpr uint64_t kPhase1Blocks = 16;
constexpr int kSetups = 21;
constexpr size_t kProbePaths = 256;

struct Inputs {
  explicit Inputs(Tree t) : w(std::move(t)) {}

  Workspace w;
  std::vector<Op> session;  // phase 1, replayed
  std::vector<Op> lookups;  // the session's lookups: the readers' cycle
  uint64_t phase1_ops = 0;
  uint64_t reader_ops = 0;  // per reader, over all rounds
};

Inputs Generate(uint64_t seed, int seconds) {
  Rng rng(SubSeed(seed, 1));
  Inputs in(GenTree(rng, kRoot, kDirs, kFiles, kFanout,
                    {".c", ".h", ".S", ".py", ".txt", ".md"}, 64 * 1024));
  // Objects would sit beside their sources; nothing is compiled, so make
  // finds none.
  std::vector<uint32_t> objects;
  for (size_t f : Sources(in.w.tree)) {
    const std::string& src = in.w.tree.files[f];
    objects.push_back(in.w.pool.Add(src.substr(0, src.size() - 2) + ".o"));
  }
  Rng g(SubSeed(seed, 2));
  Interleave({GitStatus(in.w), Du(in.w, /*dirfds_open=*/true),
              Make(&in.w, g, objects, /*build=*/false)},
             &in.session);
  for (const Op& op : in.session) {
    if (ClassOf(op.kind) == OpClass::kLookup) {
      in.lookups.push_back(op);
    }
  }
  in.phase1_ops = kPhase1OpsPerSecond * static_cast<uint64_t>(seconds);
  in.reader_ops = kReaderOpsPerSecond * static_cast<uint64_t>(seconds);
  return in;
}

struct Setup {
  std::unique_ptr<Env> env;
  std::vector<FdNum> dirfds;
  std::vector<TaskPtr> readers;
  std::vector<std::vector<FdNum>> reader_dirfds;

  ~Setup() {
    readers.clear();
    env.reset();
  }
};

std::vector<FdNum> OpenDirs(Task& t, const Inputs& in) {
  std::vector<FdNum> fds;
  for (uint32_t d : in.w.dir_abs) {
    auto fd = t.Open(in.w.pool[d], kORead | kODirectory);
    fds.push_back(fd.ok() ? *fd : -1);
  }
  return fds;
}

bool SetupOnce(const Inputs& in, uint64_t seed, bool traced, Setup* s) {
  EnvSpec spec;
  spec.config = BaseConfig(seed, Nproc());
  spec.timing_fs = traced;
  s->env = MakeEnv(spec);
  Task& t = *s->env->task;
  if (!BuildWorkspace(t, in.w)) {
    return false;
  }
  s->dirfds = OpenDirs(t, in);
  for (int fd_slot : s->dirfds) {
    if (fd_slot < 0) {
      return false;
    }
  }
  // Warm every path an op can touch: the session's reads, twice.
  std::string why;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Op& op : in.session) {
      if (ClassOf(op.kind) != OpClass::kMutate) {
        (void)RunOp(t, op, in.w.pool, s->dirfds, &why);
      }
    }
  }
  for (unsigned r = 0; r < Nproc(); ++r) {
    s->readers.push_back(t.Fork());
    s->reader_dirfds.push_back(OpenDirs(*s->readers.back(), in));
  }
  return true;
}

struct Phase2 {
  double ops_per_s = 0;  // median round of summed per-thread rates
  uint64_t ops = 0;
  uint64_t cpu_ns = 0;  // summed reader CPU time
};

Phase2 RunReaders(Setup& s, const Inputs& in, bool traced, Report* r) {
  const size_t n = s.readers.size();
  CheckThreadBudget("warm_lookup phase 2", static_cast<unsigned>(n));
  const uint64_t per_round = in.reader_ops / kPhase2Rounds;
  const std::vector<Op>& cycle = in.lookups;
  std::vector<uint64_t> next(n);  // each reader's position in the cycle
  for (size_t i = 0; i < n; ++i) {
    next[i] = i * cycle.size() / n;
  }
  std::vector<double> rates;
  Phase2 out;
  for (int round = 0; round < kPhase2Rounds; ++round) {
    std::vector<uint64_t> elapsed(n, 0);
    std::vector<uint64_t> cpu(n, 0);
    std::vector<uint64_t> failed(n, 0);
    std::vector<std::string> first_failure(n);
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        Task& t = *s.readers[i];
        std::string why;
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        const uint64_t c0 = ThreadCpuNanos();
        const uint64_t t0 = NowNanos();
        for (uint64_t k = 0; k < per_round; ++k) {
          const uint64_t pos = next[i] + k;
          const Op& op = cycle[pos % cycle.size()];
          bool sampled = traced && pos % 64 == 0;
          if (traced) {
            Tracer::BeginRequest(sampled);
          }
          const uint64_t a = traced ? NowNanos() : 0;
          if (!RunOp(t, op, in.w.pool, s.reader_dirfds[i], &why)) {
            if (failed[i]++ == 0) {
              first_failure[i] = in.w.pool[op.path] + ": " + why;
            }
          }
          if (traced) {
            Tracer::EndRequest(KindName(op.kind), a, NowNanos());
          }
        }
        elapsed[i] = NowNanos() - t0;
        cpu[i] = ThreadCpuNanos() - c0;
      });
    }
    while (ready.load() < n) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) {
      th.join();
    }
    double rate = 0;
    for (size_t i = 0; i < n; ++i) {
      rate += static_cast<double>(per_round) * 1e9 /
              static_cast<double>(elapsed[i]);
      out.cpu_ns += cpu[i];
      next[i] += per_round;
      r->Attempt(per_round);
      for (uint64_t f = 0; f < failed[i]; ++f) {
        r->Fail("reader " + std::to_string(i) + " " + first_failure[i]);
      }
    }
    rates.push_back(rate);
    out.ops += per_round * n;
  }
  out.ops_per_s = Median(rates);
  return out;
}

struct Pass {
  PhaseResult p1;
  Phase2 p2;
  double setup_s = 0;
  uint64_t cache_bytes = 0;
};

// One full pass: set-up (median of kSetups), phase 1, phase 2. When
// `traced`, also fills the per-layer metrics into `r`.
Pass RunPass(const Inputs& in, const Options& opts, bool traced, Report* r) {
  Pass pass;
  std::unique_ptr<Setup> kept = TimedSetups(kSetups, &pass.setup_s, [&] {
    auto s = std::make_unique<Setup>();
    if (!SetupOnce(in, opts.seed, traced, s.get())) {
      s.reset();
    }
    return s;
  });
  if (kept == nullptr) {
    r->Invalid("warm_lookup set-up failed");
    return pass;
  }
  Setup& s = *kept;
  Env& env = *s.env;
  Tracer::Enable(traced);
  env.kernel->stats().ResetAll();
  const StorageMark before = MarkStorage(env);
  // Phase 1 in blocks, each pinned to the next processor: no migrations
  // under the latency samples, and a processor that the host slows for a
  // while slows only its blocks.
  const uint64_t per_block = in.phase1_ops / kPhase1Blocks;
  for (uint64_t b = 0; b < kPhase1Blocks; ++b) {
    PinToProcessor(static_cast<unsigned>(b));
    RunDirectPhase(*env.task, in.session, b * per_block, per_block,
                   in.w.pool, s.dirfds, traced, r, &pass.p1);
  }
  Unpin();
  ReportMix(r, "warm_lookup phase 1", in.session, env.kernel->stats());
  AuditOrInvalidate(env, r, "after phase 1");
  pass.p2 = RunReaders(s, in, traced, r);
  Tracer::Enable(false);
  pass.cache_bytes = CacheBytes(env);
  AuditOrInvalidate(env, r, "after phase 2");
  if (!traced) {
    return pass;
  }

  TracedPhase tp;
  for (size_t i = 0; i < kProbePaths; ++i) {
    tp.sample.push_back(
        in.w.tree.files[i * in.w.tree.files.size() / kProbePaths]);
  }
  tp.before = before;
  tp.ops = pass.p1.ops + pass.p2.ops;
  tp.mutations = pass.p1.mutations;
  tp.inval_pass_ns = Median(pass.p1.inval_ns);
  tp.cpu_ns_per_op =
      static_cast<double>(pass.p2.cpu_ns) / static_cast<double>(pass.p2.ops);
  ReportTracedLayers(r, env, opts.seed, tp);
  return pass;
}

}  // namespace

void RunWarmLookup(const Options& opts, Report* r) {
  const Inputs in = Generate(opts.seed, opts.seconds);
  Digest digest;
  DigestOps(&digest, in.session, in.w.pool);
  r->Line("warm_lookup: %zu dirs, %zu files, a %zu-op session; %llu "
          "phase-1 ops, %u readers x %llu ops; stream digest %016llx",
          in.w.tree.dirs.size(), in.w.tree.files.size(), in.session.size(),
          static_cast<unsigned long long>(in.phase1_ops), Nproc(),
          static_cast<unsigned long long>(in.reader_ops),
          static_cast<unsigned long long>(digest.value()));

  const Pass plain = RunPass(in, opts, false, r);
  r->Line("cache_bytes=%llu",
          static_cast<unsigned long long>(plain.cache_bytes));
  if (!opts.trace) {
    r->Metric("ops_per_s", plain.p2.ops_per_s, "ops/s");
    ReportClass(r, "warm_lookup", "lookup", plain.p1.lookup, true,
                kPhase1Blocks);
    ReportClass(r, "warm_lookup", "readdir", plain.p1.readdir, false,
                kPhase1Blocks);
    ReportClass(r, "warm_lookup", "mutate", plain.p1.mutate, false,
                kPhase1Blocks);
    r->Metric("cache_bytes", static_cast<double>(plain.cache_bytes), "bytes");
    r->Metric("setup_s", plain.setup_s, "s");
    return;
  }
  const Pass traced = RunPass(in, opts, true, r);
  FinishTrace(opts, r, plain.p2.ops_per_s, traced.p2.ops_per_s);
}

}  // namespace perfbench
