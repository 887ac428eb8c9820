// Figure 6: stat and open latency across path patterns (§6.1).
//
// Patterns (paper's labels):
//   default : /usr/include/gcc-x86_64-linux-gnu/sys/types.h
//   1..8-comp: FFF / XXX/FFF / XXX/YYY/ZZZ/FFF / XXX/.../DDD/FFF
//   link-f  : XXX/YYY/ZZZ/LLL -> FFF          (trailing symlink)
//   link-d  : LLL/YYY/ZZZ/FFF, LLL -> XXX     (mid-path symlink)
//   neg-f   : XXX/YYY/ZZZ/NNN                 (not found, last comp)
//   neg-d   : NNN/XXX/YYY/FFF                 (not found, first comp)
//   1-dotdot: XXX/../FFF
//   4-dotdot: XXX/YYY/../../AAA/BBB/../../FFF
//
// Series: unmodified Linux baseline; optimized fastpath hit; optimized with
// the fastpath forced to miss + slowpath (worst case); Plan 9 lexical
// dot-dot semantics (dot-dot patterns only, marked *).
#include <cstdlib>
#include <functional>
#include <string_view>

#include "bench/common.h"
#include "src/vfs/walk.h"

namespace dircache {
namespace bench {
namespace {

struct Pattern {
  const char* label;
  const char* path;
  Errno expect = Errno::kOk;  // expected stat errno (negatives)
  bool dotdot = false;
};

const Pattern kPatterns[] = {
    {"default", "/usr/include/gcc-x86_64-linux-gnu/sys/types.h"},
    {"1-comp", "FFF"},
    {"2-comp", "XXX/FFF"},
    {"4-comp", "XXX/YYY/ZZZ/FFF"},
    {"8-comp", "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF"},
    {"link-f", "XXX/YYY/ZZZ/LLL"},
    {"link-d", "LLL/YYY/ZZZ/FFF"},
    {"neg-f", "XXX/YYY/ZZZ/NNN", Errno::kENOENT},
    {"neg-d", "NNN/XXX/YYY/FFF", Errno::kENOENT},
    {"1-dotdot", "XXX/../FFF", Errno::kOk, true},
    {"4-dotdot", "XXX/YYY/../../AAA/BBB/../../FFF", Errno::kOk, true},
};

void BuildFixture(Task& t) {
  auto mkfile = [&](const std::string& p) {
    auto fd = t.Open(p, kOCreat | kOWrite);
    if (fd.ok()) {
      (void)t.Close(*fd);
    }
  };
  for (const char* d :
       {"/usr", "/usr/include", "/usr/include/gcc-x86_64-linux-gnu",
        "/usr/include/gcc-x86_64-linux-gnu/sys"}) {
    (void)t.Mkdir(d);
  }
  mkfile("/usr/include/gcc-x86_64-linux-gnu/sys/types.h");
  std::string p = "";
  for (const char* d : {"XXX", "YYY", "ZZZ", "AAA", "BBB", "CCC", "DDD"}) {
    p += "/";
    p += d;
    (void)t.Mkdir(p);
    mkfile(p + "/FFF");
  }
  mkfile("/FFF");
  mkfile("/XXX/YYY/ZZZ/FFF");  // ensure 4-comp target (also made above)
  (void)t.Symlink("FFF", "/XXX/YYY/ZZZ/LLL");
  (void)t.Symlink("/XXX", "/LLL");
  (void)t.Mkdir("/XXX/YYY/ZZZ/AAA/BBB");  // exists from loop
  // 4-dotdot passes through /AAA/BBB under POSIX dot-dot semantics.
  (void)t.Mkdir("/AAA");
  (void)t.Mkdir("/AAA/BBB");
}

// A series is timed only once it answers the pattern's errno: a row that
// fails where it should succeed times a different lookup than it names.
void CheckAnswer(const char* syscall, const Pattern& pat, Errno got) {
  if (got == pat.expect) {
    return;
  }
  const std::string_view g = ErrnoName(got);
  const std::string_view w = ErrnoName(pat.expect);
  std::fprintf(stderr, "%s %s (%s): got %.*s, want %.*s\n", syscall,
               pat.label, pat.path, static_cast<int>(g.size()), g.data(),
               static_cast<int>(w.size()), w.data());
  std::exit(1);
}

double MeasureStat(Task& t, const Pattern& pat) {
  CheckAnswer("stat", pat, t.Statx(kAtFdCwd, pat.path, 0).error());
  return MeasureLatency([&] {
           auto r = t.Statx(kAtFdCwd, pat.path, 0);
           (void)r;
         },
                        20'000'000)
      .p50_ns;
}

double MeasureOpen(Task& t, const Pattern& pat) {
  auto checked = t.Open(pat.path, kORead);
  CheckAnswer("open", pat, checked.error());
  if (checked.ok()) {
    (void)t.Close(*checked);
  }
  return MeasureLatency([&] {
           auto fd = t.Open(pat.path, kORead);
           if (fd.ok()) {
             (void)t.Close(*fd);
           }
         },
                        20'000'000)
      .p50_ns;
}

void RunSeries(const char* syscall,
               const std::function<double(Task&, const Pattern&)>& measure) {
  Env unmod = MakeEnv(Unmodified());
  Env opt = MakeEnv(Optimized());
  CacheConfig lex = Optimized();
  lex.dotdot = DotDotMode::kLexical;
  Env lexical = MakeEnv(lex);
  for (Env* env : {&unmod, &opt, &lexical}) {
    BuildFixture(env->T());
    (void)env->T().Chdir("/");
  }

  std::printf("%-10s %14s %14s %20s %14s\n", syscall, "unmod(ns)",
              "opt-hit(ns)", "opt-forced-miss(ns)", "lexical(ns)");
  for (const Pattern& pat : kPatterns) {
    double base = measure(unmod.T(), pat);
    double hit = measure(opt.T(), pat);
    PathWalker::force_fastpath_miss = true;
    double miss = measure(opt.T(), pat);
    PathWalker::force_fastpath_miss = false;
    double lexi = pat.dotdot ? measure(lexical.T(), pat) : 0.0;
    if (pat.dotdot) {
      std::printf("%-10s %14.0f %14.0f %20.0f %13.0f*\n", pat.label, base,
                  hit, miss, lexi);
    } else {
      std::printf("%-10s %14.0f %14.0f %20.0f %14s\n", pat.label, base, hit,
                  miss, "-");
    }
  }
  // Sanity: the optimized kernel must actually be hitting the fastpath.
  std::printf("  [opt fastpath hits=%llu misses=%llu]\n",
              static_cast<unsigned long long>(
                  opt.kernel->stats().fastpath_hits.value()),
              static_cast<unsigned long long>(
                  opt.kernel->stats().fastpath_misses.value()));
}

}  // namespace
}  // namespace bench
}  // namespace dircache

int main() {
  using namespace dircache;
  using namespace dircache::bench;
  Banner("Figure 6", "stat/open latency by path pattern (warm cache)");
  RunSeries("stat", MeasureStat);
  std::printf("\n");
  RunSeries("open", MeasureOpen);

  // §6.1's deep-negative ablation: "without them, stat of path neg-d would
  // be 113% worse and open 43% worse ... versus 38% and 16% slower with
  // deep negative dentries."
  std::printf("\n[deep-negative ablation on neg-d = NNN/XXX/YYY/FFF]\n");
  CacheConfig no_deep = Optimized();
  no_deep.deep_negative = false;
  Env with_deep = MakeEnv(Optimized());
  Env without = MakeEnv(no_deep);
  Env base = MakeEnv(Unmodified());
  for (Env* env : {&with_deep, &without, &base}) {
    BuildFixture(env->T());
    (void)env->T().Chdir("/");
  }
  Pattern negd{"neg-d", "NNN/XXX/YYY/FFF", Errno::kENOENT, false};
  double b = MeasureStat(base.T(), negd);
  double on = MeasureStat(with_deep.T(), negd);
  double off = MeasureStat(without.T(), negd);
  std::printf("  baseline %.0f ns | deep-neg ON %.0f ns (%+.0f%%) | OFF "
              "%.0f ns (%+.0f%%)\n",
              b, on, (on / b - 1) * 100, off, (off / b - 1) * 100);
  return 0;
}
