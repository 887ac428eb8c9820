// Replay a recorded syscall trace against the baseline and optimized
// kernels and compare wall time + cache behaviour. This is the tool you
// reach for when you want to know what the paper's dcache design would do
// for *your* workload: record the path operations an application makes
// (e.g. distilled from `strace -e trace=%file`), write them one per line,
// and replay.
//
// Trace format (one op per line, '#' starts a comment):
//   mkdir   <path>              creat   <path>
//   stat    <path>              lstat   <path>
//   open    <path>              access  <path>
//   unlink  <path>              rmdir   <path>
//   readdir <path>              chmod   <octal> <path>
//   rename  <old> <new>         symlink <target> <link>
//   readlink <path>
//
// Every op is allowed to fail (a trace may stat paths that do not exist —
// that is exactly the negative-dentry workload); the replay records
// ok/error counts and asserts both kernels agree on every outcome.
//
//   $ ./examples/trace_replay                # built-in demo trace
//   $ ./examples/trace_replay mytrace.txt    # your own
//   $ ./examples/trace_replay --trace-export replay.trace.json mytrace.txt
//       # also trace every op of the optimized replay and dump its coherence
//       # journal + request spans (walks included) as Chrome trace-event
//       # JSON (chrome://tracing, ui.perfetto.dev)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/storage/diskfs.h"
#include "src/util/clock.h"
#include "src/vfs/kernel.h"
#include "src/vfs/task.h"

using namespace dircache;

namespace {

struct TraceOp {
  std::string verb;
  std::string arg1;
  std::string arg2;  // rename/symlink/chmod only
};

std::vector<TraceOp> ParseTrace(std::istream& in, std::string* error) {
  std::vector<TraceOp> ops;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    TraceOp op;
    if (!(fields >> op.verb) || op.verb[0] == '#') {
      continue;
    }
    fields >> op.arg1 >> op.arg2;
    bool two_args = op.verb == "rename" || op.verb == "symlink" ||
                    op.verb == "chmod";
    if (op.arg1.empty() || (two_args && op.arg2.empty())) {
      *error = "line " + std::to_string(line_no) + ": " + op.verb +
               " needs " + (two_args ? "two arguments" : "an argument");
      return {};
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// The demo trace: a compile-like burst (negative-heavy header probing),
// maildir-style renames, and a scan — the three patterns the paper's
// mechanisms each target.
constexpr const char* kDemoTrace = R"(# demo: header probe + rename churn + rescan
mkdir   /src
mkdir   /src/include
creat   /src/include/config.h
creat   /src/main.c
# compiler-style probing: misses along an include search path
stat    /usr/local/include/config.h
stat    /usr/include/config.h
stat    /src/include/config.h
open    /src/include/config.h
stat    /usr/local/include/util.h
stat    /usr/include/util.h
stat    /src/include/util.h
# maildir-style state flip
mkdir   /mail
creat   /mail/msg1
creat   /mail/msg2
rename  /mail/msg1 /mail/msg1:seen
readdir /mail
rename  /mail/msg1:seen /mail/msg1
readdir /mail
# symlinks (note: a chmod/rename of a hot directory in a tight replay
# loop shows the paper's invalidation trade-off instead — see fig7)
symlink /src/include /inc
stat    /inc/config.h
readlink /inc
# rescan everything
readdir /src
readdir /src/include
stat    /src/main.c
unlink  /mail/msg2
stat    /mail/msg2
)";

struct ReplayResult {
  double seconds = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t fast_hits = 0;
  // errno (0 = ok) per op, for cross-kernel agreement checking.
  std::vector<int> outcomes;
};

int DoOp(Task& t, const TraceOp& op) {
  auto status_of = [](const Status& s) {
    return s.ok() ? 0 : static_cast<int>(s.error());
  };
  if (op.verb == "stat") {
    auto r = t.Statx(kAtFdCwd, op.arg1, 0);
    return r.ok() ? 0 : static_cast<int>(r.error());
  }
  if (op.verb == "lstat") {
    auto r = t.Statx(kAtFdCwd, op.arg1, kAtSymlinkNoFollow);
    return r.ok() ? 0 : static_cast<int>(r.error());
  }
  if (op.verb == "open") {
    auto fd = t.Open(op.arg1, kORead);
    if (fd.ok()) {
      (void)t.Close(*fd);
      return 0;
    }
    return static_cast<int>(fd.error());
  }
  if (op.verb == "creat") {
    auto fd = t.Open(op.arg1, kOCreat | kOWrite, 0644);
    if (fd.ok()) {
      (void)t.Close(*fd);
      return 0;
    }
    return static_cast<int>(fd.error());
  }
  if (op.verb == "access") {
    return status_of(t.Access(op.arg1, kMayRead));
  }
  if (op.verb == "mkdir") {
    return status_of(t.Mkdir(op.arg1));
  }
  if (op.verb == "rmdir") {
    return status_of(t.Rmdir(op.arg1));
  }
  if (op.verb == "unlink") {
    return status_of(t.Unlink(op.arg1));
  }
  if (op.verb == "rename") {
    return status_of(t.Rename(op.arg1, op.arg2));
  }
  if (op.verb == "symlink") {
    return status_of(t.Symlink(op.arg1, op.arg2));
  }
  if (op.verb == "readlink") {
    auto r = t.ReadLink(op.arg1);
    return r.ok() ? 0 : static_cast<int>(r.error());
  }
  if (op.verb == "chmod") {
    uint16_t mode = static_cast<uint16_t>(
        std::strtoul(op.arg1.c_str(), nullptr, 8));
    return status_of(t.Chmod(op.arg2, mode));
  }
  if (op.verb == "readdir") {
    auto fd = t.Open(op.arg1, kORead);
    if (!fd.ok()) {
      return static_cast<int>(fd.error());
    }
    int rc = 0;
    for (;;) {
      auto batch = t.ReadDirFd(*fd);
      if (!batch.ok()) {
        rc = static_cast<int>(batch.error());
        break;
      }
      if (batch->empty()) {
        break;
      }
    }
    (void)t.Close(*fd);
    return rc;
  }
  std::fprintf(stderr, "unknown trace verb: %s\n", op.verb.c_str());
  std::exit(1);
}

// `trace_export` (optional): enable observability with every request
// traced and, after the replay, write the Chrome trace-event JSON there.
// Recording perturbs the timing a little, so it is off unless asked for.
ReplayResult Replay(const CacheConfig& cfg,
                    const std::vector<TraceOp>& ops, int repeat,
                    const char* trace_export = nullptr) {
  KernelConfig config;
  config.cache = cfg;
  if (trace_export != nullptr) {
    config.obs = ObsConfig::Enabled();
    config.obs.trace_sample_every = 1;
  }
  Kernel kernel(config);
  DiskFsOptions opt;
  opt.num_blocks = 1 << 17;
  opt.max_inodes = 1 << 15;
  if (!kernel.MountRootFs(std::make_shared<DiskFs>(opt)).ok()) {
    std::fprintf(stderr, "root mount failed\n");
    std::exit(1);
  }
  TaskPtr task = kernel.CreateInitTask(MakeCred(0, 0));
  (void)task->Mkdir("/usr");
  (void)task->Mkdir("/usr/include");
  (void)task->Mkdir("/usr/local");
  (void)task->Mkdir("/usr/local/include");

  ReplayResult result;
  kernel.stats().ResetAll();
  Stopwatch sw;
  for (int pass = 0; pass < repeat; ++pass) {
    bool record = pass == 0;  // outcomes of later passes differ (creat/EEXIST)
    for (const TraceOp& op : ops) {
      int rc = DoOp(*task, op);
      if (record) {
        result.outcomes.push_back(rc);
      }
      if (rc == 0) {
        ++result.ok;
      } else {
        ++result.failed;
      }
    }
  }
  result.seconds = sw.ElapsedSeconds();
  result.fast_hits = kernel.stats().fastpath_hits.value();
  if (trace_export != nullptr) {
    std::ofstream out(trace_export);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_export);
      std::exit(1);
    }
    out << kernel.Observe().ToChromeTrace() << '\n';
    std::printf("wrote Chrome trace to %s\n", trace_export);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_export = nullptr;
  const char* trace_file = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-export") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace-export needs a file argument\n");
        return 1;
      }
      trace_export = argv[++i];
    } else {
      trace_file = argv[i];
    }
  }

  std::vector<TraceOp> ops;
  std::string error;
  if (trace_file != nullptr) {
    std::ifstream f(trace_file);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", trace_file);
      return 1;
    }
    ops = ParseTrace(f, &error);
  } else {
    std::printf("(no trace file given — replaying the built-in demo "
                "trace; pass a file for your own)\n\n");
    std::istringstream demo(kDemoTrace);
    ops = ParseTrace(demo, &error);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "trace parse error: %s\n", error.c_str());
    return 1;
  }
  if (ops.empty()) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }

  // Repeat the trace enough times for a stable measurement: the first pass
  // is the cold run, later passes measure warm-cache behaviour (where the
  // paper's optimizations live).
  constexpr int kRepeat = 2000;
  ReplayResult base = Replay(CacheConfig::Baseline(), ops, kRepeat);
  ReplayResult fast =
      Replay(CacheConfig::Optimized(), ops, kRepeat, trace_export);

  // Both kernels must agree on every first-pass outcome (the optimized
  // design is transparent to applications — the paper's core requirement).
  for (size_t i = 0; i < base.outcomes.size(); ++i) {
    if (base.outcomes[i] != fast.outcomes[i]) {
      std::fprintf(
          stderr,
          "MISMATCH at op %zu (%s %s): baseline %s, optimized %s\n", i,
          ops[i].verb.c_str(), ops[i].arg1.c_str(),
          std::string(ErrnoName(static_cast<Errno>(base.outcomes[i])))
              .c_str(),
          std::string(ErrnoName(static_cast<Errno>(fast.outcomes[i])))
              .c_str());
      return 1;
    }
  }

  std::printf("trace: %zu ops x %d passes (ok %llu / err %llu per kernel)\n",
              ops.size(), kRepeat,
              static_cast<unsigned long long>(base.ok),
              static_cast<unsigned long long>(base.failed));
  std::printf("  baseline   %8.1f ms\n", base.seconds * 1e3);
  std::printf("  optimized  %8.1f ms   (%+.1f%%, %llu fastpath hits)\n",
              fast.seconds * 1e3,
              (base.seconds / fast.seconds - 1.0) * 100.0,
              static_cast<unsigned long long>(fast.fast_hits));
  std::printf("\nkernels agree on all %zu per-op outcomes — the fastpath "
              "is application-transparent.\n",
              base.outcomes.size());
  return 0;
}
