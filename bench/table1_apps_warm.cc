// Table 1: real-world application execution time, warm cache — unmodified
// vs optimized kernel, plus the paper's path statistics (average path
// length in bytes, average components, dcache hit rate, negative-dentry
// rate).
//
// Times are wall seconds of the emulated application run (cache warm, no
// simulated I/O on the hit paths). Mutating apps (tar, rm, make) get a
// fresh workspace per run with the measured phase isolated.
#include <functional>

#include "bench/common.h"
#include "src/workload/apps.h"

namespace dircache {
namespace bench {
namespace {

struct MeasureResult {
  double seconds = 0;
  AppResult app;
  double hit_pct = 0;
  double neg_pct = 0;
};

struct AppCase {
  const char* name;
  // prepare(): untimed setup before each run; run(): the timed body.
  std::function<void(Env&)> prepare;
  std::function<AppResult(Env&)> run;
};

MeasureResult RunApp(const CacheConfig& cfg, const AppCase& app,
                     const TreeSpec& spec) {
  Env env = MakeEnv(cfg, 1 << 18, 1 << 17);
  auto tree = GenerateSourceTree(env.T(), "/src", spec);
  if (!tree.ok()) {
    std::abort();
  }
  env.tree = *tree;
  // Warm run.
  app.prepare(env);
  (void)app.run(env);
  // Measured runs: take the median of three to tame single-CPU noise.
  CacheStats& stats = env.kernel->stats();
  std::vector<double> times;
  AppResult r;
  for (int i = 0; i < 3; ++i) {
    app.prepare(env);
    if (i == 0) {
      stats.ResetAll();
    }
    Stopwatch sw;
    r = app.run(env);
    times.push_back(sw.ElapsedSeconds());
  }
  MeasureResult m;
  m.seconds = Quantile(std::move(times), 1, 2);
  m.app = r;
  uint64_t hits = stats.dcache_hits.value() + stats.fastpath_hits.value();
  uint64_t misses = stats.dcache_misses.value();
  m.hit_pct = hits + misses == 0
                  ? 100.0
                  : 100.0 * static_cast<double>(hits) /
                        static_cast<double>(hits + misses);
  uint64_t lookups = stats.lookups.value();
  m.neg_pct = lookups == 0 ? 0
                           : 100.0 *
                                 static_cast<double>(
                                     stats.negative_hits.value()) /
                                 static_cast<double>(lookups);
  return m;
}

}  // namespace

// Env carries the generated tree between prepare and run.
}  // namespace bench
}  // namespace dircache

int main() {
  using namespace dircache;
  using namespace dircache::bench;
  Banner("Table 1",
         "application execution time, warm cache (seconds; lower is "
         "better)");

  TreeSpec spec;
  spec.approx_files = 6000;
  spec.seed = 17;

  int tar_round = 0;
  std::vector<AppCase> apps;
  apps.push_back({"find -name",
                  [](Env&) {},
                  [](Env& e) {
                    auto r = RunFind(e.T(), "/src", "core");
                    return r.ok() ? *r : AppResult{};
                  }});
  apps.push_back({"tar x",
                  [&](Env& e) {},
                  [&](Env& e) {
                    auto r = RunTarExtract(
                        e.T(), e.tree, "/tarx" + std::to_string(tar_round++));
                    return r.ok() ? *r : AppResult{};
                  }});
  apps.push_back({"rm -r",
                  [](Env& e) {
                    (void)RunTarExtract(e.T(), e.tree, "/victim");
                  },
                  [](Env& e) {
                    auto r = RunRmRecursive(e.T(), "/victim");
                    return r.ok() ? *r : AppResult{};
                  }});
  apps.push_back({"make",
                  [](Env& e) {
                    // Clean the objects so every run compiles everything.
                    for (const auto& f : e.tree.files) {
                      if (f.size() > 2 &&
                          f.compare(f.size() - 2, 2, ".c") == 0) {
                        (void)e.T().Unlink(f.substr(0, f.size() - 2) +
                                           ".obj");
                      }
                    }
                  },
                  [](Env& e) {
                    MakeOptions mo;
                    mo.cpu_work_per_file = 2000;
                    auto r = RunMake(e.T(), e.tree, mo);
                    return r.ok() ? *r : AppResult{};
                  }});
  apps.push_back({"make -j12",
                  [](Env& e) {
                    for (const auto& f : e.tree.files) {
                      if (f.size() > 2 &&
                          f.compare(f.size() - 2, 2, ".c") == 0) {
                        (void)e.T().Unlink(f.substr(0, f.size() - 2) +
                                           ".obj");
                      }
                    }
                  },
                  [](Env& e) {
                    MakeOptions mo;
                    mo.cpu_work_per_file = 2000;
                    auto r = RunMakeParallel(e.T(), e.tree, mo, 12);
                    return r.ok() ? *r : AppResult{};
                  }});
  apps.push_back({"du -s",
                  [](Env&) {},
                  [](Env& e) {
                    auto r = RunDu(e.T(), "/src");
                    return r.ok() ? *r : AppResult{};
                  }});
  apps.push_back({"updatedb",
                  [](Env&) {},
                  [](Env& e) {
                    auto r = RunUpdatedb(e.T(), "/src", "/locatedb");
                    return r.ok() ? *r : AppResult{};
                  }});
  apps.push_back({"git status",
                  [](Env&) {},
                  [](Env& e) {
                    auto r = RunGitStatus(e.T(), e.tree);
                    return r.ok() ? *r : AppResult{};
                  }});
  apps.push_back({"git diff",
                  [](Env&) {},
                  [](Env& e) {
                    auto r = RunGitDiff(e.T(), e.tree);
                    return r.ok() ? *r : AppResult{};
                  }});

  std::printf("%-12s %5s %4s | %10s %6s %6s | %10s %8s\n", "app", "l", "#",
              "unmod(s)", "hit%", "neg%", "opt(s)", "gain");
  for (const AppCase& app : apps) {
    MeasureResult base = RunApp(Unmodified(), app, spec);
    MeasureResult opt = RunApp(Optimized(), app, spec);
    std::printf("%-12s %5.0f %4.1f | %10.4f %5.1f%% %5.1f%% | %10.4f %+7.1f%%\n",
                app.name, base.app.paths.AvgLen(),
                base.app.paths.AvgComponents(), base.seconds, base.hit_pct,
                base.neg_pct, opt.seconds,
                GainPct(base.seconds, opt.seconds));
  }
  std::printf(
      "\nPaper (warm): find +19.2%%, tar +0.05%%, rm -2.3%%, make ~0%%, du\n"
      "+12.7%%, updatedb +29.1%%, git status +4.3%%, git diff +9.9%%.\n");
  return 0;
}
