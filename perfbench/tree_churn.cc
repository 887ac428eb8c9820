// tree_churn: a build and version-control session on a kernel-sized tree
// (§6.3) that is larger than the cache byte budget and the 4,096-entry PCC,
// so the slow path, shortcut resume, eviction and DiskFs do most of the
// work, and directory renames put the invalidation engine (Fig 7) on the
// write tail.
//
// One thread runs sessions of git status, du, a clean build with make (the
// objects go to a separate build directory) and a chmod of each top-level
// source directory and back, interleaved so that all four advance together
// (tree.h: Application models). Each session ends with make clean: `mv out
// out.old; rm -r out.old; mkdir out` over the cached objects, with rm -r
// as one op. CacheGovernor::Tick() is an op of the stream every kTickEvery
// ops; governor_interval_us is 0.
#include "probes.h"
#include "src/vfs/governor.h"
#include "tree.h"
#include "workloads.h"

namespace perfbench {
namespace {

const char kRoot[] = "/home/u/linux";
const char kOut[] = "/home/u/out";
const char kOld[] = "/home/u/out.old";
constexpr size_t kDirs = 3000;
constexpr size_t kFiles = 50000;
constexpr uint32_t kFanout = 6;
constexpr size_t kObjDirs = 32;
// About a third of the accounted footprint after one sweep of the tree.
constexpr size_t kBudgetBytes = 9 * 1024 * 1024;
constexpr uint64_t kTickEvery = 256;
constexpr size_t kEndSweepDirs = 600;
// Ops per --seconds.
constexpr uint64_t kOpsPerSecond = 180000;
constexpr int kSetups = 5;
constexpr size_t kProbePaths = 256;

struct Inputs {
  explicit Inputs(Tree t) : w(std::move(t)) {}

  Workspace w;
  std::vector<std::string> obj_dirs;  // created by set-up, under kOut
  std::vector<Op> ops;
};

// chmod of each top-level source directory and back, one step each.
AppRun Chmods(const Workspace& w) {
  AppRun run;
  for (size_t d = 1; d <= kFanout; ++d) {
    Op op;
    op.kind = OpKind::kChmod;
    op.path = w.dir_abs[d];
    op.arg = 0750;
    run.ops.push_back(op);
    op.arg = 0755;
    run.ops.push_back(op);
    run.EndStep();
  }
  return run;
}

// make clean: mv out out.old; rm -r out.old; mkdir out and its object dirs.
// rm -r is one op, as a shell runs it: its thousands of unlinks are one
// command, not thousands of mutations of the stream.
void Clean(Inputs* in, size_t objects, std::vector<Op>* out) {
  PathPool& pool = in->w.pool;
  Op op;
  op.kind = OpKind::kRename;
  op.path = pool.Add(kOut);
  op.arg = pool.Add(kOld);
  out->push_back(op);
  op = Op();
  op.kind = OpKind::kRmTree;
  op.path = pool.Add(kOld);
  op.expect = static_cast<uint32_t>(objects + in->obj_dirs.size());
  out->push_back(op);
  op = Op();
  op.kind = OpKind::kMkdir;
  op.path = pool.Add(kOut);
  out->push_back(op);
  for (const std::string& d : in->obj_dirs) {
    op.path = pool.Add(d);
    out->push_back(op);
  }
}

Inputs Generate(uint64_t seed, int seconds) {
  Rng rng(SubSeed(seed, 21));
  Inputs in(GenTree(rng, kRoot, kDirs, kFiles, kFanout,
                    {".c", ".h", ".S", ".h", "", ".txt", ".rst"}, 128 * 1024));
  for (size_t k = 0; k < kObjDirs; ++k) {
    in.obj_dirs.push_back(std::string(kOut) + "/d" + std::to_string(k));
  }
  std::vector<uint32_t> objects;
  const size_t units = Sources(in.w.tree).size();
  for (size_t u = 0; u < units; ++u) {
    objects.push_back(in.w.pool.Add(in.obj_dirs[u % kObjDirs] + "/o" +
                                    std::to_string(u) + ".o"));
  }
  Rng g(SubSeed(seed, 22));
  const AppRun status = GitStatus(in.w);
  std::vector<Op> session;
  Interleave({status, Du(in.w, /*dirfds_open=*/false),
              Make(&in.w, g, objects, /*build=*/true), Chmods(in.w)},
             &session);
  Clean(&in, objects.size(), &session);

  const uint64_t n_ops = kOpsPerSecond * static_cast<uint64_t>(seconds);
  std::vector<Op> stream;
  while (stream.size() < n_ops) {
    stream.insert(stream.end(), session.begin(), session.end());
  }
  stream.resize(n_ops);
  // End with part of a git status: whatever the stream did last (an
  // `rm -r` frees about a megabyte), the cache is refilled past the budget
  // and trimmed back by the last tick, so cache_bytes measures one state.
  stream.insert(stream.end(), status.ops.begin(),
                status.ops.begin() +
                    static_cast<ptrdiff_t>(status.step_end[kEndSweepDirs - 1]));
  Op tick;
  tick.kind = OpKind::kTick;
  for (size_t i = 0; i < stream.size(); ++i) {
    in.ops.push_back(stream[i]);
    if ((i + 1) % kTickEvery == 0) {
      in.ops.push_back(tick);
    }
  }
  in.ops.push_back(tick);
  return in;
}

std::unique_ptr<Env> SetupOnce(const Inputs& in, uint64_t seed,
                               bool traced) {
  EnvSpec spec;
  spec.config = BaseConfig(seed, Nproc());
  spec.config.cache.cache_memory_budget = kBudgetBytes;
  spec.disk_blocks = 1 << 17;
  spec.max_inodes = 1 << 17;
  spec.timing_fs = traced;
  auto env = MakeEnv(spec);
  Task& t = *env->task;
  if (!BuildWorkspace(t, in.w) || !t.Mkdir(kOut, 0755).ok()) {
    return nullptr;
  }
  for (const std::string& d : in.obj_dirs) {
    if (!t.Mkdir(d, 0755).ok()) {
      return nullptr;
    }
  }
  // One sweep warms what fits; the governor then trims to the budget.
  for (uint32_t p : in.w.file_abs) {
    (void)t.Statx(kAtFdCwd, in.w.pool[p], kAtSymlinkNoFollow);
  }
  for (int i = 0; i < 64 && env->kernel->governor()->Tick(); ++i) {
  }
  return env;
}

struct Pass {
  PhaseResult phase;
  double setup_s = 0;
  double ops_per_s = 0;
  uint64_t cache_bytes = 0;
};

Pass RunPass(const Inputs& in, const Options& opts, bool traced, Report* r) {
  Pass pass;
  std::unique_ptr<Env> env = TimedSetups(
      kSetups, &pass.setup_s, [&] { return SetupOnce(in, opts.seed, traced); });
  if (env == nullptr) {
    r->Invalid("tree_churn set-up failed");
    return pass;
  }
  // The main thread runs the stream and coordinates a parallel
  // invalidation pass, which adds inval_max_workers - 1 pool threads.
  CheckThreadBudget("tree_churn",
                    static_cast<unsigned>(env->kernel->config()
                                              .inval_max_workers));
  env->kernel->stats().ResetAll();
  const StorageMark before = MarkStorage(*env);
  Tracer::Enable(traced);
  const std::vector<FdNum> dirfds = {0};
  RunDirectPhase(*env->task, in.ops, 0, in.ops.size(), in.w.pool, dirfds,
                 traced, r, &pass.phase);
  Tracer::Enable(false);
  ReportMix(r, "tree_churn", in.ops, env->kernel->stats());
  // The median slice, so one disturbed stretch does not set the result.
  pass.ops_per_s = Median(pass.phase.chunk_rates);
  pass.cache_bytes = CacheBytes(*env);
  AuditOrInvalidate(*env, r, "after the stream");
  r->Line("cache_bytes=%llu",
          static_cast<unsigned long long>(pass.cache_bytes));
  if (!traced) {
    return pass;
  }

  TracedPhase tp;
  for (size_t i = 0; i < kProbePaths; ++i) {
    tp.sample.push_back(
        in.w.tree.files[i * in.w.tree.files.size() / kProbePaths]);
  }
  tp.before = before;
  tp.ops = pass.phase.ops;
  tp.mutations = pass.phase.mutations;
  tp.inval_pass_ns = Median(pass.phase.inval_ns);
  tp.cpu_ns_per_op = static_cast<double>(pass.phase.cpu_ns) /
                     static_cast<double>(pass.phase.ops);
  tp.governor_tick_ns = Median(pass.phase.tick_ns);
  ReportTracedLayers(r, *env, opts.seed, tp);
  return pass;
}

}  // namespace

void RunTreeChurn(const Options& opts, Report* r) {
  const Inputs in = Generate(opts.seed, opts.seconds);
  Digest digest;
  DigestOps(&digest, in.ops, in.w.pool);
  r->Line("tree_churn: %zu dirs, %zu files, budget %zu bytes, %zu ops; "
          "stream digest %016llx",
          in.w.tree.dirs.size(), in.w.tree.files.size(), kBudgetBytes,
          in.ops.size(), static_cast<unsigned long long>(digest.value()));
  const Pass plain = RunPass(in, opts, false, r);
  if (!opts.trace) {
    r->Metric("ops_per_s", plain.ops_per_s, "ops/s");
    ReportClass(r, "tree_churn", "lookup", plain.phase.lookup, true);
    ReportClass(r, "tree_churn", "readdir", plain.phase.readdir, false);
    ReportClass(r, "tree_churn", "mutate", plain.phase.mutate, false);
    r->Metric("cache_bytes", static_cast<double>(plain.cache_bytes), "bytes");
    r->Metric("setup_s", plain.setup_s, "s");
    return;
  }
  const Pass traced = RunPass(in, opts, true, r);
  FinishTrace(opts, r, plain.ops_per_s, traced.ops_per_s);
}

}  // namespace perfbench
