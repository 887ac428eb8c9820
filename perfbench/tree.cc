#include "tree.h"

#include <map>
#include <set>
#include <utility>

#include "src/vfs/governor.h"

namespace perfbench {

Tree GenTree(Rng& rng, const std::string& root, size_t n_dirs, size_t n_files,
             uint32_t fanout, const std::vector<std::string>& extensions,
             uint32_t max_size) {
  Tree t;
  t.dirs.push_back(root);
  t.dir_entries.push_back(0);
  std::set<std::pair<uint32_t, std::string>> taken;
  auto unique_name = [&](uint32_t dir, size_t lo, size_t hi,
                         const std::string& ext) {
    for (;;) {
      std::string name = RandomName(rng, lo, hi) + ext;
      if (taken.insert({dir, name}).second) {
        return name;
      }
    }
  };
  // Breadth-first with a fixed fanout, and files dealt round-robin: the
  // shape (depths, entries per directory) is the same for every seed; only
  // names, sizes and so hash values differ.
  for (uint32_t parent = 0; t.dirs.size() < n_dirs; ++parent) {
    for (uint32_t k = 0; k < fanout && t.dirs.size() < n_dirs; ++k) {
      std::string name = unique_name(parent, 2, 8, "");
      t.dirs.push_back(Join(t.dirs[parent], name));
      t.dir_entries.push_back(0);
      ++t.dir_entries[parent];
    }
  }
  for (size_t i = 0; i < n_files; ++i) {
    const auto dir = static_cast<uint32_t>(i % t.dirs.size());
    const std::string& ext = extensions[i % extensions.size()];
    t.files.push_back(Join(t.dirs[dir], unique_name(dir, 3, 12, ext)));
    t.file_dir.push_back(dir);
    t.file_size.push_back(static_cast<uint32_t>(rng.Below(max_size + 1)));
    ++t.dir_entries[dir];
  }
  return t;
}

bool BuildTree(Task& t, const Tree& tree) {
  for (size_t i = 0; i < tree.dirs.size(); ++i) {
    if (!t.Mkdir(tree.dirs[i], 0755).ok()) {
      return false;
    }
  }
  for (size_t i = 0; i < tree.files.size(); ++i) {
    auto fd = t.Open(tree.files[i], kOWrite | kOCreat | kOExcl, 0644);
    if (!fd.ok() || !t.Close(*fd).ok()) {
      return false;
    }
    if (tree.file_size[i] != 0 &&
        !t.Truncate(tree.files[i], tree.file_size[i]).ok()) {
      return false;
    }
  }
  return true;
}

Workspace::Workspace(Tree t) : tree(std::move(t)) {
  for (const std::string& d : tree.dirs) {
    dir_abs.push_back(pool.Add(d));
  }
  for (const std::string& f : tree.files) {
    file_abs.push_back(pool.Add(f));
    file_name.push_back(pool.Add(f.substr(f.rfind('/') + 1)));
  }
  git_dir = pool.Add(Join(tree.dirs[0], ".git"));
  index = pool.Add(pool[git_dir] + "/index");
  index_lock = pool.Add(pool[git_dir] + "/index.lock");
  ++tree.dir_entries[0];
}

bool BuildWorkspace(Task& t, const Workspace& w) {
  if (!BuildTree(t, w.tree) || !t.Mkdir(w.pool[w.git_dir], 0755).ok()) {
    return false;
  }
  auto fd = t.Open(w.pool[w.index], kOWrite | kOCreat | kOExcl, 0644);
  return fd.ok() && t.Close(*fd).ok();
}

void Interleave(const std::vector<AppRun>& apps, std::vector<Op>* out) {
  std::vector<size_t> next(apps.size(), 0);  // each app's next step
  for (;;) {
    size_t pick = apps.size();
    double least = 2;
    for (size_t a = 0; a < apps.size(); ++a) {
      const AppRun& run = apps[a];
      if (next[a] == run.step_end.size()) {
        continue;
      }
      const size_t done = next[a] == 0 ? 0 : run.step_end[next[a] - 1];
      const double frac =
          static_cast<double>(done) / static_cast<double>(run.ops.size());
      if (frac < least) {
        least = frac;
        pick = a;
      }
    }
    if (pick == apps.size()) {
      return;
    }
    const AppRun& run = apps[pick];
    const size_t begin = next[pick] == 0 ? 0 : run.step_end[next[pick] - 1];
    out->insert(out->end(), run.ops.begin() + static_cast<ptrdiff_t>(begin),
                run.ops.begin() +
                    static_cast<ptrdiff_t>(run.step_end[next[pick]]));
    ++next[pick];
  }
}

namespace {

// Files of directory `d`: files are dealt round-robin over the directories.
template <typename Fn>
void ForFilesOf(const Tree& t, size_t d, Fn&& fn) {
  for (size_t f = d; f < t.files.size(); f += t.dirs.size()) {
    fn(f);
  }
}

Op ReaddirOp(const Workspace& w, size_t d) {
  Op op;
  op.kind = OpKind::kReaddir;
  op.path = w.dir_abs[d];
  op.expect = w.tree.dir_entries[d];
  return op;
}

}  // namespace

AppRun GitStatus(const Workspace& w) {
  AppRun run;
  for (size_t d = 0; d < w.tree.dirs.size(); ++d) {
    ForFilesOf(w.tree, d, [&](size_t f) {
      run.ops.push_back(StatOp(OpKind::kLstat, w.file_abs[f], w.tree, f));
    });
    run.EndStep();
  }
  for (size_t d = 0; d < w.tree.dirs.size(); ++d) {
    run.ops.push_back(ReaddirOp(w, d));
    run.EndStep();
  }
  Op refresh;
  refresh.kind = OpKind::kReplace;
  refresh.path = w.index_lock;
  refresh.arg = w.index;
  run.ops.push_back(refresh);
  run.EndStep();
  return run;
}

AppRun Du(const Workspace& w, bool dirfds_open) {
  AppRun run;
  const size_t n = w.tree.dirs.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t d = (i + n / 2) % n;
    if (!dirfds_open) {
      Op open;
      open.kind = OpKind::kOpenDir;
      open.path = w.dir_abs[d];
      run.ops.push_back(open);  // expects descriptor 0
    }
    run.ops.push_back(ReaddirOp(w, d));
    ForFilesOf(w.tree, d, [&](size_t f) {
      Op st = StatOp(OpKind::kFstatat, w.file_name[f], w.tree, f);
      st.arg = dirfds_open ? static_cast<uint32_t>(d) : 0;
      run.ops.push_back(st);
    });
    if (!dirfds_open) {
      Op close;
      close.kind = OpKind::kCloseFd;
      close.arg = 0;
      run.ops.push_back(close);
    }
    run.EndStep();
  }
  return run;
}

std::vector<size_t> Sources(const Tree& t) {
  std::vector<size_t> out;
  for (size_t f = 0; f < t.files.size(); ++f) {
    const std::string& p = t.files[f];
    if (p.size() > 2 && p.compare(p.size() - 2, 2, ".c") == 0) {
      out.push_back(f);
    }
  }
  return out;
}

AppRun Make(Workspace* w, Rng& g, const std::vector<uint32_t>& objects,
            bool build) {
  const Tree& t = w->tree;
  // The -I path: two of the root's subdirectories (apps.cc also searches
  // real directories of the tree).
  const size_t inc0 = 1;
  const size_t inc1 = 2;
  std::set<std::string> in_first;
  std::vector<size_t> first;
  ForFilesOf(t, inc0, [&](size_t f) {
    first.push_back(f);
    in_first.insert(w->pool[w->file_name[f]]);
  });
  // Headers of the second directory whose name is not in the first, and
  // the path of the failed open in the first.
  std::vector<size_t> second;
  std::vector<uint32_t> second_miss;
  ForFilesOf(t, inc1, [&](size_t f) {
    const std::string& name = w->pool[w->file_name[f]];
    if (in_first.count(name) == 0) {
      second.push_back(f);
      second_miss.push_back(w->pool.Add(Join(t.dirs[inc0], name)));
    }
  });
  auto open = [](uint32_t path, Errno err) {
    Op op;
    op.kind = OpKind::kOpenClose;
    op.path = path;
    op.err = static_cast<uint8_t>(err);
    return op;
  };
  AppRun run;
  const std::vector<size_t> units = Sources(t);
  for (size_t u = 0; u < units.size(); ++u) {
    const size_t src = units[u];
    run.ops.push_back(StatOp(OpKind::kLstat, w->file_abs[src], t, src));
    Op obj;
    obj.kind = OpKind::kLstat;
    obj.path = objects[u];
    obj.err = static_cast<uint8_t>(Errno::kENOENT);
    run.ops.push_back(obj);
    run.ops.push_back(open(w->file_abs[src], Errno::kOk));
    for (int h = 0; h < 5; ++h) {
      run.ops.push_back(
          open(w->file_abs[first[g.Below(first.size())]], Errno::kOk));
    }
    const size_t j = g.Below(second.size());
    run.ops.push_back(open(second_miss[j], Errno::kENOENT));
    run.ops.push_back(open(w->file_abs[second[j]], Errno::kOk));
    if (build) {
      Op create;
      create.kind = OpKind::kCreate;
      create.path = objects[u];
      run.ops.push_back(create);
    }
    run.EndStep();
  }
  return run;
}

Op StatOp(OpKind kind, uint32_t path, const Tree& t, size_t file) {
  Op op;
  op.kind = kind;
  op.path = path;
  op.type = FileType::kRegular;
  op.expect = t.file_size[file];
  return op;
}

OpClass ClassOf(OpKind k) {
  switch (k) {
    case OpKind::kLstat:
    case OpKind::kFstatat:
    case OpKind::kOpenClose:
    case OpKind::kStatOpen:
      return OpClass::kLookup;
    case OpKind::kReaddir:
      return OpClass::kReaddir;
    case OpKind::kOpenDir:
    case OpKind::kCloseFd:
    case OpKind::kTick:
      return OpClass::kControl;
    default:
      return OpClass::kMutate;
  }
}

const char* KindName(OpKind k) {
  switch (k) {
    case OpKind::kLstat:
      return "lstat";
    case OpKind::kFstatat:
      return "fstatat";
    case OpKind::kOpenClose:
      return "open+close";
    case OpKind::kStatOpen:
      return "statx+open+close";
    case OpKind::kReaddir:
      return "readdir";
    case OpKind::kCreate:
      return "create";
    case OpKind::kMkdir:
      return "mkdir";
    case OpKind::kRename:
      return "rename";
    case OpKind::kUnlink:
      return "unlink";
    case OpKind::kRmdir:
      return "rmdir";
    case OpKind::kChmod:
      return "chmod";
    case OpKind::kReplace:
      return "replace";
    case OpKind::kRmTree:
      return "rm -r";
    case OpKind::kOpenDir:
      return "opendir";
    case OpKind::kCloseFd:
      return "close";
    case OpKind::kTick:
      return "tick";
  }
  return "?";
}

namespace {

int ErrOf(Errno e) { return static_cast<int>(e); }

bool CheckStatus(const Status& st, const Op& op, std::string* why) {
  const int got = st.ok() ? 0 : ErrOf(st.error());
  if (got != op.err) {
    *why = "errno " + std::to_string(got) + " want " + std::to_string(op.err);
    return false;
  }
  return true;
}

bool CheckStat(const Result<Stat>& r, const Op& op, std::string* why) {
  const int got = r.ok() ? 0 : ErrOf(r.error());
  if (got != op.err) {
    *why = "errno " + std::to_string(got) + " want " + std::to_string(op.err);
    return false;
  }
  if (r.ok() && (r->type != op.type || r->size != op.expect)) {
    *why = "type/size " + std::to_string(static_cast<int>(r->type)) + "/" +
           std::to_string(r->size) + " want " +
           std::to_string(static_cast<int>(op.type)) + "/" +
           std::to_string(op.expect);
    return false;
  }
  return true;
}

// rm -r (RunRmRecursive): read the directory, remove its files and, depth
// first, its subdirectories, then the directory itself. Returns the number
// of entries removed below `dir`.
Result<uint32_t> RemoveTree(Task& t, const std::string& dir) {
  auto fd = t.Open(dir, kORead | kODirectory);
  if (!fd.ok()) {
    return fd.error();
  }
  std::vector<DirEntry> entries;
  for (;;) {
    auto chunk = t.ReadDirFd(*fd, 1024);
    if (!chunk.ok() || chunk->empty()) {
      break;
    }
    entries.insert(entries.end(), chunk->begin(), chunk->end());
  }
  uint32_t removed = 0;
  Status st = Status::Ok();
  for (const DirEntry& e : entries) {
    const bool is_dir = e.type == FileType::kDirectory;
    if (is_dir) {
      auto below = RemoveTree(t, dir + "/" + e.name);
      if (!below.ok()) {
        st = below.error();
        break;
      }
      removed += *below;
    }
    st = t.UnlinkAt(*fd, e.name, is_dir);
    if (!st.ok()) {
      break;
    }
    ++removed;
  }
  (void)t.Close(*fd);
  if (!st.ok()) {
    return st.error();
  }
  return removed;
}

}  // namespace

bool RunOp(Task& t, const Op& op, const PathPool& pool,
           const std::vector<FdNum>& dirfds, std::string* why) {
  const std::string& path = pool[op.path];
  switch (op.kind) {
    case OpKind::kLstat:
      return CheckStat(t.Statx(kAtFdCwd, path, kAtSymlinkNoFollow), op, why);
    case OpKind::kFstatat:
      return CheckStat(t.Statx(dirfds[op.arg], path, kAtSymlinkNoFollow), op,
                       why);
    case OpKind::kOpenClose: {
      auto fd = t.Open(path, kORead);
      if (!fd.ok()) {
        return CheckStatus(fd.error(), op, why);
      }
      return CheckStatus(t.Close(*fd), op, why);
    }
    case OpKind::kStatOpen: {
      if (!CheckStat(t.Statx(kAtFdCwd, path, kAtSymlinkNoFollow), op, why)) {
        return false;
      }
      auto fd = t.Open(path, kORead);
      if (!fd.ok()) {
        return CheckStatus(fd.error(), op, why);
      }
      return CheckStatus(t.Close(*fd), op, why);
    }
    case OpKind::kReaddir: {
      auto fd = t.Open(path, kORead | kODirectory);
      if (!fd.ok()) {
        return CheckStatus(fd.error(), op, why);
      }
      size_t n = 0;
      for (;;) {
        auto chunk = t.ReadDirFd(*fd, 1024);
        if (!chunk.ok() || chunk->empty()) {
          break;
        }
        n += chunk->size();
      }
      if (!t.Close(*fd).ok() || n != op.expect) {
        *why = "readdir entries " + std::to_string(n) + " want " +
               std::to_string(op.expect);
        return false;
      }
      return true;
    }
    case OpKind::kCreate: {
      auto fd = t.Open(path, kOWrite | kOCreat | kOExcl, 0644);
      if (!fd.ok()) {
        return CheckStatus(fd.error(), op, why);
      }
      return CheckStatus(t.Close(*fd), op, why);
    }
    case OpKind::kReplace: {
      auto fd = t.Open(path, kOWrite | kOCreat | kOExcl, 0644);
      if (!fd.ok() || !t.Close(*fd).ok()) {
        *why = "create failed";
        return false;
      }
      return CheckStatus(t.Rename(path, pool[op.arg]), op, why);
    }
    case OpKind::kRmTree: {
      auto removed = RemoveTree(t, path);
      if (!removed.ok()) {
        return CheckStatus(removed.error(), op, why);
      }
      if (*removed != op.expect) {
        *why = "removed " + std::to_string(*removed) + " entries, want " +
               std::to_string(op.expect);
        return false;
      }
      return CheckStatus(t.Rmdir(path), op, why);
    }
    case OpKind::kMkdir:
      return CheckStatus(t.Mkdir(path, 0755), op, why);
    case OpKind::kRename:
      return CheckStatus(t.Rename(path, pool[op.arg]), op, why);
    case OpKind::kUnlink:
      return CheckStatus(t.Unlink(path), op, why);
    case OpKind::kRmdir:
      return CheckStatus(t.Rmdir(path), op, why);
    case OpKind::kChmod:
      return CheckStatus(t.Chmod(path, static_cast<uint16_t>(op.arg)), op,
                         why);
    case OpKind::kOpenDir: {
      auto fd = t.Open(path, kORead | kODirectory);
      if (!fd.ok() || *fd != static_cast<FdNum>(op.expect)) {
        *why = "opendir did not return fd " + std::to_string(op.expect);
        return false;
      }
      return true;
    }
    case OpKind::kCloseFd:
      return CheckStatus(t.Close(static_cast<FdNum>(op.arg)), op, why);
    case OpKind::kTick:
      t.kernel().governor()->Tick();
      return true;
  }
  return false;
}

void RunDirectPhase(Task& t, const std::vector<Op>& cycle, uint64_t begin,
                    uint64_t n_ops, const PathPool& pool,
                    const std::vector<FdNum>& dirfds, bool traced, Report* r,
                    PhaseResult* out) {
  DentryCache& dcache = t.kernel().dcache();
  std::string why;
  const uint64_t cpu0 = ThreadCpuNanos();
  const uint64_t start = NowNanos();
  const uint64_t chunk = n_ops / kPhaseChunks == 0 ? 1 : n_ops / kPhaseChunks;
  uint64_t chunk_start = start;
  for (uint64_t i = 0; i < n_ops; ++i) {
    if (i != 0 && i % chunk == 0) {
      const uint64_t now = NowNanos();
      out->chunk_rates.push_back(static_cast<double>(chunk) * 1e9 /
                                 static_cast<double>(now - chunk_start));
      chunk_start = now;
    }
    const Op& op = cycle[(begin + i) % cycle.size()];
    if (traced) {
      Tracer::BeginRequest((begin + i) % 64 == 0);
    }
    const uint64_t t0 = NowNanos();
    const bool ok = RunOp(t, op, pool, dirfds, &why);
    const uint64_t t1 = NowNanos();
    if (traced) {
      Tracer::EndRequest(KindName(op.kind), t0, t1);
      if (op.kind == OpKind::kRename || op.kind == OpKind::kReplace ||
          op.kind == OpKind::kChmod) {
        out->inval_ns.push_back(
            static_cast<double>(dcache.last_inval_stats().span_ns));
      }
    }
    r->Attempt();
    if (!ok) {
      r->Fail(std::string(KindName(op.kind)) + " " + pool[op.path] + ": " +
              why);
    }
    switch (ClassOf(op.kind)) {
      case OpClass::kLookup:
        out->lookup.Add(t1 - t0);
        break;
      case OpClass::kReaddir:
        out->readdir.Add(t1 - t0);
        break;
      case OpClass::kMutate:
        out->mutate.Add(t1 - t0);
        ++out->mutations;
        break;
      case OpClass::kControl:
        if (op.kind == OpKind::kTick) {
          out->tick_ns.push_back(static_cast<double>(t1 - t0));
        }
        break;
    }
  }
  out->elapsed_ns += NowNanos() - start;
  out->cpu_ns += ThreadCpuNanos() - cpu0;
  out->ops += n_ops;
}

void DigestOps(Digest* d, const std::vector<Op>& ops, const PathPool& pool) {
  for (const Op& op : ops) {
    d->AddValue(op);
    d->Add(pool[op.path]);
  }
}

void ReportMix(Report* r, const char* workload, const std::vector<Op>& ops,
               const CacheStats& s) {
  std::map<std::string, uint64_t> kinds;
  uint64_t lookups = 0;
  uint64_t negative = 0;
  for (const Op& op : ops) {
    ++kinds[KindName(op.kind)];
    if (ClassOf(op.kind) == OpClass::kLookup) {
      ++lookups;
      negative += op.err != 0 ? 1 : 0;
    }
  }
  std::string mix;
  for (const auto& [name, n] : kinds) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s %.1f%%", name.c_str(),
                  100.0 * static_cast<double>(n) /
                      static_cast<double>(ops.size()));
    mix += buf;
  }
  r->Line("%s op mix:%s", workload, mix.c_str());
  const uint64_t walks = s.lookups.value();
  r->Line("%s lookups: %.1f%% negative (ENOENT), kernel fast hits %.1f%% of "
          "%llu path walks",
          workload,
          lookups == 0 ? 0.0
                       : 100.0 * static_cast<double>(negative) /
                             static_cast<double>(lookups),
          walks == 0 ? 0.0
                     : 100.0 * static_cast<double>(s.fastpath_hits.value()) /
                           static_cast<double>(walks),
          static_cast<unsigned long long>(walks));
}

}  // namespace perfbench
