// Figure 3: principal sources of path lookup latency, decomposed into the
// paper's five phases (initialization, permission check, path scanning &
// hashing, hash table lookup, finalization) for four path lengths, on the
// unmodified and optimized kernels.
//
// The walk carries no profiler. Each phase is timed from outside by
// repeating the walk's own calls on the warmed path, the way perfbench's
// warm statx decomposition does:
//   - unmodified: the component scan, plus one SecurityStack::Permission and
//     one DentryCache::LookupRcu per component;
//   - optimized: signing the path as the walk signs a canonical one (the
//     shape check and one hash pass: scan + hash), one DLHT probe and one
//     PCC probe (the permission phase).
// init+finalize is the whole statx minus those phases.
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "src/core/dlht.h"
#include "src/core/pcc.h"
#include "src/util/epoch.h"
#include "src/vfs/walk.h"

namespace dircache {
namespace bench {
namespace {

struct PathCase {
  const char* label;
  const char* path;
};

const PathCase kCases[] = {
    {"Path1 (FFF)", "/FFF"},
    {"Path2 (XXX/FFF)", "/XXX/FFF"},
    {"Path3 (XXX/YYY/ZZZ/FFF)", "/XXX/YYY/ZZZ/FFF"},
    {"Path4 (XXX/.../DDD/FFF)", "/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF"},
};

constexpr int kReps = 9;
constexpr int kIters = 100000;

void Build(Task& t) {
  std::string p;
  auto mkfile = [&](const std::string& f) {
    auto fd = t.Open(f, kOCreat | kOWrite);
    if (fd.ok()) {
      (void)t.Close(*fd);
    }
  };
  mkfile("/FFF");
  for (const char* d : {"XXX", "YYY", "ZZZ", "AAA", "BBB", "CCC", "DDD"}) {
    p += "/";
    p += d;
    (void)t.Mkdir(p);
    mkfile(p + "/FFF");
  }
  mkfile("/XXX/FFF");
  mkfile("/XXX/YYY/ZZZ/FFF");
}

// The walk's component scan: skip slashes, then cut at the next one.
size_t ScanComponents(std::string_view rest,
                      std::vector<std::string_view>* out) {
  size_t n = 0;
  while (true) {
    while (!rest.empty() && rest.front() == '/') {
      rest.remove_prefix(1);
    }
    if (rest.empty()) {
      return n;
    }
    size_t end = rest.find('/');
    if (out != nullptr) {
      out->push_back(rest.substr(0, end));
    }
    ++n;
    rest = end == std::string_view::npos ? std::string_view{}
                                         : rest.substr(end);
  }
}

// Keeps results alive so the timed calls are not optimized away.
volatile uint64_t g_sink = 0;

struct Phases {
  double perm = 0;
  double scan_hash = 0;
  double lookup = 0;
  double statx = 0;
};

// Median over kReps of the mean per-op time of `body` run kIters times.
// `samples` holds one vector per phase, filled one rep at a time so that
// every phase sees the same cache conditions.
template <typename Fn>
void TimeRep(std::vector<double>* samples, Fn&& body) {
  const uint64_t t0 = NowNanos();
  uint64_t sink = 0;
  for (int i = 0; i < kIters; ++i) {
    sink += body();
  }
  const uint64_t t1 = NowNanos();
  g_sink = g_sink + sink;
  samples->push_back(static_cast<double>(t1 - t0) / kIters);
}

Phases Probe(Env& env, const PathCase& pc, bool optimized) {
  Kernel& k = *env.kernel;
  Task& t = env.T();
  const std::string_view path = pc.path;
  std::vector<std::string_view> comps;
  ScanComponents(path, &comps);

  // Referenced handles on the directory each component is looked up in,
  // and on the file, so the probes touch live dentries.
  PathWalker walker(&k);
  auto resolve = [&](std::string_view p) {
    auto h = walker.Resolve(t, nullptr, p, kWalkFollow);
    if (!h.ok()) {
      std::fprintf(stderr, "fig3: cannot resolve %s\n", pc.path);
      std::abort();
    }
    return std::move(*h);
  };
  std::vector<PathHandle> dirs;
  for (std::string_view c : comps) {
    dirs.push_back(resolve(path.substr(0, c.data() - path.data())));
  }
  const PathHandle file = resolve(path);

  const Cred& cred = *t.cred();
  const PathSigner& signer = k.signer();
  // Every case is canonical, so the walk signs it in one pass.
  auto sign = [&] {
    HashState s = signer.RootState();
    if (PathSigner::IsCanonical(path)) {
      signer.AppendCanonical(s, path);
    }
    return signer.Finalize(s);
  };
  Dlht& dlht = t.ns()->dlht();
  Pcc* pcc = t.cred()->pcc();
  Dentry* fd = file.dentry();
  const uint32_t fseq = fd->fast.seq.load(std::memory_order_acquire);
  const Signature sig = sign();
  CacheStats scratch;

  std::vector<double> perm, scan_hash, lookup, statx;
  for (int r = 0; r < kReps; ++r) {
    if (optimized) {
      TimeRep(&scan_hash, [&] { return sign().words[0]; });
      TimeRep(&lookup, [&] {
        EpochDomain::ReadGuard guard(EpochDomain::Global());
        return reinterpret_cast<uintptr_t>(dlht.Lookup(sig, &scratch));
      });
      TimeRep(&perm, [&] {
        return static_cast<uint64_t>(pcc != nullptr && pcc->Lookup(fd, fseq));
      });
    } else {
      TimeRep(&scan_hash, [&] { return ScanComponents(path, nullptr); });
      TimeRep(&perm, [&] {
        uint64_t ok = 0;
        for (const PathHandle& dir : dirs) {
          ok += k.security()
                    .Permission(cred, *dir.dentry()->inode(), kMayExec,
                                dir.dentry())
                    .ok();
        }
        return ok;
      });
      TimeRep(&lookup, [&] {
        EpochDomain::ReadGuard guard(EpochDomain::Global());
        uintptr_t x = 0;
        for (size_t i = 0; i < comps.size(); ++i) {
          x += reinterpret_cast<uintptr_t>(
              k.dcache().LookupRcu(dirs[i].dentry(), comps[i]));
        }
        return x;
      });
    }
    TimeRep(&statx, [&] {
      return static_cast<uint64_t>(t.Statx(kAtFdCwd, path, 0).ok());
    });
  }
  return {Quantile(perm, 1, 2), Quantile(scan_hash, 1, 2),
          Quantile(lookup, 1, 2), Quantile(statx, 1, 2)};
}

void Decompose(const char* config_label, const CacheConfig& cfg) {
  Env env = MakeEnv(cfg);
  Build(env.T());
  const bool optimized = cfg.fastpath;
  std::printf("\n[%s]\n", config_label);
  std::printf("%-26s %10s %8s %10s %9s %9s\n", "path", "init+fin", "perm",
              "scan+hash", "ht-look", "total");
  for (const PathCase& pc : kCases) {
    for (int i = 0; i < 1000; ++i) {  // warm
      (void)env.T().Statx(kAtFdCwd, pc.path, 0);
    }
    const Phases p = Probe(env, pc, optimized);
    const double rest = p.statx - p.perm - p.scan_hash - p.lookup;
    std::printf("%-26s %10.0f %8.0f %10.0f %9.0f %9.0f\n", pc.label, rest,
                p.perm, p.scan_hash, p.lookup, p.statx);
  }
}

}  // namespace
}  // namespace bench
}  // namespace dircache

int main() {
  using namespace dircache;
  using namespace dircache::bench;
  Banner("Figure 3",
         "decomposition of lookup latency (ns/op; each phase timed by "
         "repeating the walk's own calls, median of 9 reps)");
  Decompose("unmodified", Unmodified());
  Decompose("optimized", Optimized());
  std::printf(
      "\nunmodified: perm = Permission x components, ht-look = LookupRcu x\n"
      "components, scan+hash = the component scan. optimized: perm = one\n"
      "PCC probe, ht-look = one DLHT probe, scan+hash = signing the path\n"
      "(the shape check and one hash pass).\n"
      "init+fin = statx minus the three.\n"
      "\nExpected shape (paper): per-component costs (permission, hash\n"
      "lookups) grow with path length on the baseline; the optimized kernel\n"
      "leaves scanning+hashing as the only length-dependent phase.\n");
  return 0;
}
