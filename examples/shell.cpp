// A tiny batch shell over the simulated kernel — the fifth example and a
// handy debugging tool. Reads commands from stdin (or a script passed as
// argv[1]) and executes them against an optimized kernel.
//
//   $ echo 'mkdir /a
//   write /a/f hello-world
//   ls /
//   stat /a/f
//   cat /a/f
//   ln -s /a /link
//   stat /link/f
//   stats' | ./examples/shell
//
// Commands: mkdir ls stat lstat cat write rm rmdir mv ln ln -s cd pwd
// chmod chown mount-mem umount su batch serve stats observe observe-json
// trace-request flight-recorder trace-export audit drop help
//
// `batch <stat|lstat|mkdir|rm|rmdir> <path>...` submits every path as one
// SQE batch through `Task::SubmitBatch` (DESIGN.md §12) and prints one
// completion per entry; `serve <dir> [ops] [depth]` spins up the
// run-to-completion server frontend, replays `ops` warm stats over the
// directory's entries through the submission rings at the given batch
// depth, and reports throughput plus the batch_* histograms.
//
// `observe` prints the kernel's versioned observability snapshot (latency
// histograms + walk outcomes + timeline/heat/journal, DESIGN.md §9–§10);
// `trace-request <path>` force-traces one statx end to end (DESIGN.md §13)
// and prints its span tree from the flight recorder; `flight-recorder`
// prints the last traced requests without submitting anything;
// `observe-json` emits the stable JSON form; `trace-export [file]` writes
// the coherence journal and the request span trees, walks included, as
// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev);
// `audit` runs the online invariant auditor.
//
// Observability (including the background sampler) is on by default; set
// DIRCACHE_SHELL_OBS=0 to run with it disabled (the obs commands then fail
// with a nonzero exit status instead of printing empty documents).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "src/server/batch.h"
#include "src/server/server.h"
#include "src/storage/diskfs.h"
#include "src/storage/memfs.h"
#include "src/vfs/kernel.h"
#include "src/vfs/task.h"

using namespace dircache;

namespace {

void PrintStat(const Stat& st, const std::string& path) {
  const char* type = st.IsDir() ? "dir" : st.IsSymlink() ? "link" : "file";
  std::printf("%-5s %04o uid=%u gid=%u nlink=%u size=%llu ino=%llu  %s\n",
              type, st.mode, st.uid, st.gid, st.nlink,
              static_cast<unsigned long long>(st.size),
              static_cast<unsigned long long>(st.ino), path.c_str());
}

int Run(std::istream& in) {
  KernelConfig config;
  config.cache = CacheConfig::Optimized();
  // The shell is a debugging tool: run with full observability — sampler
  // and request tracing included — so `observe`, `trace-request`, and
  // `trace-export` have something to show. DIRCACHE_SHELL_OBS=0 opts
  // out.
  const char* obs_env = std::getenv("DIRCACHE_SHELL_OBS");
  if (obs_env == nullptr || std::string_view(obs_env) != "0") {
    config.obs = ObsConfig::EnabledWithTracing();
    config.obs.sample_interval_ms = 50;
  }
  Kernel kernel(config);
  kernel.MountRootFs(std::make_shared<DiskFs>());
  TaskPtr task = kernel.CreateInitTask(MakeCred(0, 0));

  int status = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string cmd;
    ss >> cmd;
    if (cmd.empty() || cmd[0] == '#') {
      continue;
    }
    auto report = [&](const Status& st) {
      if (!st.ok()) {
        std::printf("error: %s\n", std::string(st.error_name()).c_str());
      }
    };
    if (cmd == "help") {
      std::printf(
          "mkdir ls stat lstat cat write rm rmdir mv ln [-s] cd pwd chmod "
          "chown mount-mem umount su stats observe observe-json "
          "trace-export [file] audit drop\n"
          "batch <stat|lstat|mkdir|rm|rmdir> <path>...   one SQE per path, "
          "one SubmitBatch\n"
          "serve <dir> [ops] [depth]   run-to-completion server frontend "
          "demo\n"
          "trace-request <path>   force-trace one statx, print its span "
          "tree\n"
          "flight-recorder        print the last traced requests per shard\n"
          "observe-json/trace-export/trace-request fail (exit nonzero) when "
          "observability is disabled (DIRCACHE_SHELL_OBS=0)\n");
    } else if (cmd == "mkdir") {
      std::string p;
      ss >> p;
      report(task->Mkdir(p));
    } else if (cmd == "ls") {
      std::string p = ".";
      ss >> p;
      auto dfd = task->Open(p, kORead | kODirectory);
      if (!dfd.ok()) {
        report(Status(dfd.error()));
        continue;
      }
      while (true) {
        auto batch = task->ReadDirFd(*dfd, 64);
        if (!batch.ok() || batch->empty()) {
          break;
        }
        for (const auto& e : *batch) {
          std::printf("%s%s\n", e.name.c_str(),
                      e.type == FileType::kDirectory ? "/" : "");
        }
      }
      report(task->Close(*dfd));
    } else if (cmd == "stat" || cmd == "lstat") {
      std::string p;
      ss >> p;
      auto st = task->Statx(kAtFdCwd, p,
                            cmd == "stat" ? 0 : kAtSymlinkNoFollow);
      if (st.ok()) {
        PrintStat(*st, p);
      } else {
        report(Status(st.error()));
      }
    } else if (cmd == "cat") {
      std::string p;
      ss >> p;
      auto fd = task->Open(p, kORead);
      if (!fd.ok()) {
        report(Status(fd.error()));
        continue;
      }
      std::string buf;
      while (true) {
        auto n = task->ReadFd(*fd, 4096, &buf);
        if (!n.ok() || *n == 0) {
          break;
        }
        fwrite(buf.data(), 1, buf.size(), stdout);
      }
      std::printf("\n");
      report(task->Close(*fd));
    } else if (cmd == "write") {
      std::string p, data;
      ss >> p;
      std::getline(ss, data);
      if (!data.empty() && data.front() == ' ') {
        data.erase(0, 1);
      }
      auto fd = task->Open(p, kOCreat | kOWrite | kOTrunc);
      if (!fd.ok()) {
        report(Status(fd.error()));
        continue;
      }
      auto w = task->WriteFd(*fd, data);
      if (!w.ok()) {
        report(Status(w.error()));
      }
      report(task->Close(*fd));
    } else if (cmd == "rm") {
      std::string p;
      ss >> p;
      report(task->Unlink(p));
    } else if (cmd == "rmdir") {
      std::string p;
      ss >> p;
      report(task->Rmdir(p));
    } else if (cmd == "mv") {
      std::string a, b;
      ss >> a >> b;
      report(task->Rename(a, b));
    } else if (cmd == "ln") {
      std::string a, b;
      ss >> a >> b;
      if (a == "-s") {
        std::string target = b;
        ss >> b;
        report(task->Symlink(target, b));
      } else {
        report(task->Link(a, b));
      }
    } else if (cmd == "cd") {
      std::string p;
      ss >> p;
      report(task->Chdir(p));
    } else if (cmd == "pwd") {
      auto cwd = task->Getcwd();
      if (cwd.ok()) {
        std::printf("%s\n", cwd->c_str());
      } else {
        report(Status(cwd.error()));
      }
    } else if (cmd == "chmod") {
      std::string mode, p;
      ss >> mode >> p;
      report(task->Chmod(
          p, static_cast<uint16_t>(std::strtoul(mode.c_str(), nullptr, 8))));
    } else if (cmd == "chown") {
      unsigned uid = 0, gid = 0;
      std::string p;
      ss >> uid >> gid >> p;
      report(task->Chown(p, uid, gid));
    } else if (cmd == "mount-mem") {
      std::string p;
      ss >> p;
      report(task->Mount(p, std::make_shared<MemFs>()));
    } else if (cmd == "umount") {
      std::string p;
      ss >> p;
      report(task->Umount(p));
    } else if (cmd == "su") {
      unsigned uid = 0, gid = 0;
      ss >> uid >> gid;
      task->SetCred(MakeCred(uid, gid));
      std::printf("now uid=%u gid=%u\n", uid, gid);
    } else if (cmd == "batch") {
      // batch <stat|lstat|mkdir|rm|rmdir> <path>... — every path becomes
      // one SQE; one SubmitBatch executes them all, one CQE per entry.
      std::string sub;
      ss >> sub;
      std::vector<std::string> paths;
      std::string p;
      while (ss >> p) {
        paths.push_back(p);
      }
      if (paths.empty()) {
        std::printf("batch: usage: batch <stat|lstat|mkdir|rm|rmdir> "
                    "<path>...\n");
        continue;
      }
      std::vector<Stat> stats(paths.size());
      std::vector<server::Sqe> sqes;
      sqes.reserve(paths.size());
      bool known = true;
      for (size_t i = 0; i < paths.size(); ++i) {
        server::Sqe s;
        if (sub == "stat") {
          s = server::Sqe::Statx(kAtFdCwd, paths[i], 0, &stats[i]);
        } else if (sub == "lstat") {
          s = server::Sqe::Statx(kAtFdCwd, paths[i], kAtSymlinkNoFollow,
                                 &stats[i]);
        } else if (sub == "mkdir") {
          s = server::Sqe::Mkdir(kAtFdCwd, paths[i]);
        } else if (sub == "rm") {
          s = server::Sqe::Unlink(kAtFdCwd, paths[i]);
        } else if (sub == "rmdir") {
          s = server::Sqe::Unlink(kAtFdCwd, paths[i], /*rmdir=*/true);
        } else {
          std::printf("batch: unknown op '%s'\n", sub.c_str());
          known = false;
          break;
        }
        s.user_data = i;
        sqes.push_back(s);
      }
      if (!known) {
        continue;
      }
      std::vector<server::Cqe> cqes(sqes.size());
      task->SubmitBatch(sqes.data(), sqes.size(), cqes.data());
      for (const server::Cqe& c : cqes) {
        const std::string& path = paths[c.user_data];
        if (!c.ok()) {
          std::printf("[%llu] error: %.*s  %s\n",
                      static_cast<unsigned long long>(c.user_data),
                      static_cast<int>(c.error_name().size()),
                      c.error_name().data(), path.c_str());
        } else if (sub == "stat" || sub == "lstat") {
          PrintStat(stats[c.user_data], path);
        } else {
          std::printf("[%llu] ok  %s\n",
                      static_cast<unsigned long long>(c.user_data),
                      path.c_str());
        }
      }
    } else if (cmd == "serve") {
      // serve <dir> [ops] [depth] — drive warm stats over the directory's
      // entries through the server frontend's submission rings.
      std::string dir;
      uint64_t ops = 10000;
      uint32_t depth = 32;
      ss >> dir >> ops >> depth;
      if (dir.empty()) {
        std::printf("serve: usage: serve <dir> [ops] [depth]\n");
        continue;
      }
      auto dfd = task->Open(dir, kORead | kODirectory);
      if (!dfd.ok()) {
        report(Status(dfd.error()));
        continue;
      }
      std::vector<std::string> names;
      while (true) {
        auto batch = task->ReadDirFd(*dfd, 256);
        if (!batch.ok() || batch->empty()) {
          break;
        }
        for (const auto& e : *batch) {
          names.push_back(dir + "/" + e.name);
        }
      }
      report(task->Close(*dfd));
      if (names.empty()) {
        std::printf("serve: %s has no entries\n", dir.c_str());
        continue;
      }
      server::ServerOptions opts;
      opts.max_batch = depth == 0 ? 1 : depth;
      server::Server srv(&kernel, task, opts);
      srv.Start();
      std::vector<server::Cqe> cqes(256);
      uint64_t submitted = 0;
      uint64_t reaped = 0;
      server::ReapBackoff backoff;  // single-CPU: let the shard run
      uint64_t t0 = NowNanos();
      while (reaped < ops) {
        while (submitted < ops && submitted - reaped < opts.max_batch) {
          server::Sqe s = server::Sqe::Statx(
              kAtFdCwd, names[submitted % names.size()], 0, nullptr);
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
      uint64_t elapsed = NowNanos() - t0;
      srv.Stop();
      double secs = static_cast<double>(elapsed) / 1e9;
      std::printf("serve: %llu ops in %.3fs = %.0f ops/sec "
                  "(depth %u, %llu batches)\n",
                  static_cast<unsigned long long>(reaped), secs,
                  secs > 0 ? static_cast<double>(reaped) / secs : 0.0, depth,
                  static_cast<unsigned long long>(srv.batches()));
      if (kernel.obs().enabled()) {
        obs::ObsSnapshot snap = kernel.Observe();
        auto show = [&](obs::ObsOp op, const char* unit) {
          const auto& h = snap.Op(op);
          double mean = h.count == 0 ? 0.0
                                     : static_cast<double>(h.sum_ns) /
                                           static_cast<double>(h.count);
          std::printf("  %-15s count=%llu mean=%.1f%s p99=%llu%s\n",
                      obs::ObsOpName(op),
                      static_cast<unsigned long long>(h.count), mean, unit,
                      static_cast<unsigned long long>(h.Quantile(0.99)),
                      unit);
        };
        show(obs::ObsOp::kBatchDepth, "");
        show(obs::ObsOp::kBatchOccupancy, "");
        show(obs::ObsOp::kBatchDispatch, "ns");
      }
    } else if (cmd == "stats") {
      std::printf("%s\n", kernel.stats().ToString().c_str());
    } else if (cmd == "observe") {
      std::printf("%s", kernel.Observe().ToText().c_str());
    } else if (cmd == "observe-json") {
      if (!kernel.obs().enabled()) {
        // An empty "{}" here would be indistinguishable from a kernel with
        // nothing recorded yet; fail loudly instead.
        std::fprintf(stderr,
                     "observe-json: observability is disabled "
                     "(unset DIRCACHE_SHELL_OBS)\n");
        status = 1;
        continue;
      }
      std::printf("%s\n", kernel.Observe().ToJson().c_str());
    } else if (cmd == "trace-export") {
      std::string file;
      ss >> file;
      if (!kernel.obs().enabled()) {
        std::fprintf(stderr,
                     "trace-export: observability is disabled "
                     "(unset DIRCACHE_SHELL_OBS)\n");
        status = 1;
        continue;
      }
      std::string trace = kernel.Observe().ToChromeTrace();
      if (file.empty()) {
        std::printf("%s\n", trace.c_str());
      } else {
        std::ofstream out(file);
        if (!out) {
          std::fprintf(stderr, "trace-export: cannot write %s\n",
                       file.c_str());
          status = 1;
          continue;
        }
        out << trace << '\n';
        std::printf("trace-export: wrote %s\n", file.c_str());
      }
    } else if (cmd == "audit") {
      obs::AuditReport report = kernel.Audit();
      std::printf("%s", report.ToText().c_str());
      if (!report.clean()) {
        status = 1;
      }
    } else if (cmd == "trace-request") {
      // trace-request <path> — force-trace one statx end to end and print
      // its span tree from the flight recorder (DESIGN.md §13).
      std::string p;
      ss >> p;
      if (p.empty()) {
        std::printf("trace-request: usage: trace-request <path>\n");
        continue;
      }
      if (!kernel.obs().enabled()) {
        std::fprintf(stderr,
                     "trace-request: observability is disabled "
                     "(unset DIRCACHE_SHELL_OBS)\n");
        status = 1;
        continue;
      }
      Stat st;
      server::Sqe s = server::Sqe::Statx(kAtFdCwd, p, 0, &st);
      s.trace_force = 1;
      server::Cqe c;
      task->SubmitBatch(&s, 1, &c);
      if (c.ok()) {
        PrintStat(st, p);
      } else {
        std::printf("error: %.*s  %s\n",
                    static_cast<int>(c.error_name().size()),
                    c.error_name().data(), p.c_str());
      }
      std::printf("%s", kernel.obs().FlightRecorderReport().c_str());
    } else if (cmd == "flight-recorder") {
      if (!kernel.obs().enabled()) {
        std::fprintf(stderr,
                     "flight-recorder: observability is disabled "
                     "(unset DIRCACHE_SHELL_OBS)\n");
        status = 1;
        continue;
      }
      std::printf("%s", kernel.obs().FlightRecorderReport().c_str());
    } else if (cmd == "drop") {
      kernel.DropCaches();
      std::printf("caches dropped\n");
    } else {
      std::printf("unknown command '%s' (try help)\n", cmd.c_str());
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream script(argv[1]);
    if (!script) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    return Run(script);
  }
  return Run(std::cin);
}
