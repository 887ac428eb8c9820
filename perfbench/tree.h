// Generated trees, the op vocabulary every workload's stream is made of, and
// the application models the streams are built from.
//
// A generator draws a tree and an op stream from the workload seed and keeps
// a model of the tree while it does, so every op carries the result the
// program must produce. Ops are 16 bytes and refer to paths by index into a
// pool, so a multi-million-op stream stays small.
#ifndef PERFBENCH_TREE_H_
#define PERFBENCH_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// A generated tree: directories parents-first, then files.
struct Tree {
  std::vector<std::string> dirs;  // absolute; dirs[0] is the tree root
  std::vector<uint32_t> dir_entries;  // children (files + subdirectories)
  std::vector<std::string> files;     // absolute
  std::vector<uint32_t> file_dir;     // index into dirs
  std::vector<uint32_t> file_size;
};

// `n_dirs` directories (root included), `fanout` per directory breadth
// first, and `n_files` files dealt round-robin over them. Names are unique
// within a directory; file i gets extensions[i % size].
Tree GenTree(Rng& rng, const std::string& root, size_t n_dirs, size_t n_files,
             uint32_t fanout, const std::vector<std::string>& extensions,
             uint32_t max_size);

// Creates the tree through `t` (mkdir, create, truncate to size); the
// root's parent must exist. Returns false on the first unexpected error.
bool BuildTree(Task& t, const Tree& tree);

enum class OpKind : uint8_t {
  kLstat,      // statx(AT_FDCWD, path, AT_SYMLINK_NOFOLLOW)
  kFstatat,    // statx(dirfd, name, AT_SYMLINK_NOFOLLOW), find-style
  kOpenClose,  // open(path, O_RDONLY) + close
  kStatOpen,   // statx, then open + close: a web server serving a file
  kReaddir,    // open(dir) + getdents to EOF + close
  kCreate,     // open(path, O_CREAT|O_EXCL|O_WRONLY) + close
  kMkdir,
  kRename,
  kUnlink,
  kRmdir,
  kChmod,
  kReplace,  // create path, then rename it over arg (git's index.lock dance)
  kRmTree,   // rm -r path; expect = entries removed below it
  kOpenDir,  // open(dir, O_RDONLY|O_DIRECTORY); must return fd `expect`
  kCloseFd,  // close(arg)
  kTick,  // CacheGovernor::Tick(), driven by the benchmark
};

enum class OpClass : uint8_t { kLookup, kReaddir, kMutate, kControl };

OpClass ClassOf(OpKind k);
const char* KindName(OpKind k);

struct Op {
  OpKind kind = OpKind::kLstat;
  uint8_t err = 0;  // expected errno; 0 = success
  FileType type = FileType::kRegular;  // expected type of a successful stat
  uint8_t pad = 0;
  uint32_t path = 0;    // index into the path pool
  uint32_t arg = 0;     // rename destination / dirfd slot / mode / fd
  uint32_t expect = 0;  // readdir entry count, or a stat's size
};
static_assert(sizeof(Op) == 16, "ops stay compact");

// A stat of tree file `file` (through `path`), expecting its type and size.
Op StatOp(OpKind kind, uint32_t path, const Tree& t, size_t file);

// Interns path strings; ops refer to them by index.
class PathPool {
 public:
  uint32_t Add(std::string s) {
    paths_.push_back(std::move(s));
    return static_cast<uint32_t>(paths_.size() - 1);
  }
  const std::string& operator[](uint32_t i) const { return paths_[i]; }

 private:
  std::vector<std::string> paths_;
};

// A generated source tree with its paths interned, plus the git index
// (<root>/.git/index), which set-up creates beside the tree.
struct Workspace {
  explicit Workspace(Tree t);

  Tree tree;  // dir_entries[0] counts .git
  PathPool pool;
  std::vector<uint32_t> file_abs;   // pool index of each file's path
  std::vector<uint32_t> file_name;  // pool index of each file's basename
  std::vector<uint32_t> dir_abs;
  uint32_t git_dir = 0;
  uint32_t index = 0;
  uint32_t index_lock = 0;
};

// Creates the tree and the git index through `t`.
bool BuildWorkspace(Task& t, const Workspace& w);

// ---------------------------------------------------------------------------
// Application models. The direct-call streams are not drawn from chosen op
// shares: they are the ops that the paper's Table 1 applications issue, as
// src/workload/apps.cc emulates them, over the generated tree. The shares
// follow from the tree's shape (README: Where the op shares come from).

// One application's run over the tree, cut into steps that stay together in
// the stream (one directory's lstat calls, one compile unit, a directory
// read with the fstatat calls on its descriptor).
struct AppRun {
  void EndStep() { step_end.push_back(ops.size()); }

  std::vector<Op> ops;
  std::vector<size_t> step_end;  // end offset of each step in ops
};

// Appends the steps of `apps`, always taking the next step of the app that
// is least far through its run, so all of them advance at the same pace and
// every stretch of the result has the same mix.
void Interleave(const std::vector<AppRun>& apps, std::vector<Op>* out);

// git status (RunGitStatus): lstat every tracked file by its absolute
// path, one directory per step; then read every directory for untracked
// files; then refresh the index (create index.lock, rename it over index),
// which git does when it has refreshed stat data.
AppRun GitStatus(const Workspace& w);

// du / find (RunDu, RunFind): per directory, read it and fstatat each file
// relative to the directory's descriptor. With `dirfds_open` every
// directory is already open (op.arg = its index in the runner's
// descriptors); otherwise the step opens it as descriptor 0 and closes it.
// du starts halfway through the tree, so that, interleaved with git status,
// it reads each directory half a session after git status does: the two
// reads never meet the directory in a state that depends on how close
// together they happen to fall.
AppRun Du(const Workspace& w, bool dirfds_open);

// make (RunMake with MakeOptions' defaults: 4 -I directories, 6 headers per
// unit): per .c file, stat the source, stat its object (missing: a clean
// build), open the source, and open each of 6 headers the way the compiler
// searches the -I path, trying each directory until the open succeeds.
// Five headers are found in the first directory and one in the second,
// after a failed open in the first, so 2 of a unit's 10 lookups are
// negative: the 20% that apps.h gives for make after Table 1. `objects[u]`
// is the object path of the u-th .c file; with `build` the unit ends by
// creating it.
AppRun Make(Workspace* w, Rng& g, const std::vector<uint32_t>& objects,
            bool build);

// Indices of the tree's .c files: make's compile units, in tree order.
std::vector<size_t> Sources(const Tree& t);

// Runs one op through `t`. Returns true when the result matches the op's
// expectation; otherwise fills `why`.
bool RunOp(Task& t, const Op& op, const PathPool& pool,
           const std::vector<FdNum>& dirfds, std::string* why);

// Per-class latencies of one measured direct-call phase.
struct PhaseResult {
  LatencyClass lookup{"lookup"};
  LatencyClass readdir{"readdir"};
  LatencyClass mutate{"mutate"};
  std::vector<double> tick_ns;   // CacheGovernor::Tick() ops
  std::vector<double> inval_ns;  // traced: last_inval_stats().span_ns
  uint64_t ops = 0;
  uint64_t mutations = 0;
  uint64_t elapsed_ns = 0;
  uint64_t cpu_ns = 0;  // this thread's CPU time over the phase
  // Ops per second over each of kPhaseChunks equal slices of the phase.
  std::vector<double> chunk_rates;
};

inline constexpr uint64_t kPhaseChunks = 25;

// Runs ops [begin, begin + n_ops) of `cycle` (replayed from the start when
// shorter) through `t`, timing each and checking it against the model, and
// adds the results to `out`. Traced runs also record a request span for
// every 64th op and the invalidation pass behind every rename and chmod.
void RunDirectPhase(Task& t, const std::vector<Op>& cycle, uint64_t begin,
                    uint64_t n_ops, const PathPool& pool,
                    const std::vector<FdNum>& dirfds, bool traced, Report* r,
                    PhaseResult* out);

// Digest of an op stream (kinds, paths, expectations), for the identity
// check across runs with one seed.
void DigestOps(Digest* d, const std::vector<Op>& ops, const PathPool& pool);

// Prints the stream's mix (share of each kind), the share of its lookups
// that return ENOENT (the model's; every op is checked against it), and
// the kernel's fast-hit share of all path walks over the phase.
void ReportMix(Report* r, const char* workload, const std::vector<Op>& ops,
               const CacheStats& s);

}  // namespace perfbench

#endif  // PERFBENCH_TREE_H_
