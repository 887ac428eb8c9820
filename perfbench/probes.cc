#include "probes.h"

#include <map>
#include <string_view>

#include "src/core/pcc.h"
#include "src/server/server.h"
#include "src/util/epoch.h"
#include "src/vfs/governor.h"
#include "src/vfs/walk.h"

namespace perfbench {

namespace {

std::vector<std::string_view> Components(std::string_view path) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    size_t end = i;
    while (end < path.size() && path[end] != '/') {
      ++end;
    }
    if (end > i) {
      out.push_back(path.substr(i, end - i));
    }
    i = end;
  }
  return out;
}

// Median over `reps` of the mean per-item time of one pass of `body`.
template <typename Fn>
double TimePasses(int reps, size_t items, Fn&& body) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNanos();
    body();
    const uint64_t t1 = NowNanos();
    per.push_back(static_cast<double>(t1 - t0) / static_cast<double>(items));
  }
  return Median(per);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct LookupLayers {
  double sign_ns = 0;
  double dlht_probe_ns = 0;
  double pcc_probe_ns = 0;
  double walk_ns = 0;
  double release_ns = 0;
  double statx_ns = 0;
};

LookupLayers ProbeLookupLayers(Env& env, const std::vector<std::string>& paths,
                               int reps) {
  LookupLayers l;
  Kernel& k = *env.kernel;
  Task& t = *env.task;
  const size_t n = paths.size();
  std::vector<std::vector<std::string_view>> comps;
  for (const std::string& p : paths) {
    comps.push_back(Components(p));
  }

  std::vector<Signature> sigs(n);
  const PathSigner& signer = k.signer();
  l.sign_ns = TimePasses(reps, n, [&] {
    for (size_t i = 0; i < n; ++i) {
      HashState st = signer.RootState();
      for (std::string_view c : comps[i]) {
        signer.AppendComponent(st, c);
      }
      sigs[i] = signer.Finalize(st);
    }
  });

  Dlht& dlht = t.ns()->dlht();
  CacheStats scratch;
  std::vector<FastDentry*> found(n);
  l.dlht_probe_ns = TimePasses(reps, n, [&] {
    EpochDomain::ReadGuard guard(EpochDomain::Global());
    for (size_t i = 0; i < n; ++i) {
      found[i] = dlht.Lookup(sigs[i], &scratch);
    }
  });

  // Walk, release and the whole statx interleaved in each rep, so all
  // three see the same cache conditions. The walk keeps its handles; the
  // release pass then drops exactly those references.
  PathWalker walker(&k);
  std::vector<PathHandle> handles(n);
  std::vector<double> walk;
  std::vector<double> release;
  std::vector<double> statx;
  const double items = static_cast<double>(n);
  for (int r = 0; r < reps; ++r) {
    uint64_t t0 = NowNanos();
    for (size_t i = 0; i < n; ++i) {
      auto h = walker.Resolve(t, nullptr, paths[i], 0);
      if (h.ok()) {
        handles[i] = std::move(*h);
      }
    }
    uint64_t t1 = NowNanos();
    walk.push_back(static_cast<double>(t1 - t0) / items);
    if (r == 0) {
      // PCC entries are keyed by the resolved dentry and its version.
      Pcc* pcc = t.cred()->pcc();
      std::vector<const void*> keys(n, nullptr);
      std::vector<uint32_t> seqs(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (handles[i]) {
          keys[i] = handles[i].dentry();
          seqs[i] =
              handles[i].dentry()->fast.seq.load(std::memory_order_acquire);
        }
      }
      if (pcc != nullptr) {
        l.pcc_probe_ns = TimePasses(reps, n, [&] {
          for (size_t i = 0; i < n; ++i) {
            pcc->Lookup(keys[i], seqs[i]);
          }
        });
      }
    }
    t0 = NowNanos();
    for (size_t i = 0; i < n; ++i) {
      handles[i].Reset();
    }
    t1 = NowNanos();
    release.push_back(static_cast<double>(t1 - t0) / items);
    t0 = NowNanos();
    for (size_t i = 0; i < n; ++i) {
      (void)t.Statx(kAtFdCwd, paths[i], kAtSymlinkNoFollow);
    }
    t1 = NowNanos();
    statx.push_back(static_cast<double>(t1 - t0) / items);
  }
  l.walk_ns = Median(walk);
  l.release_ns = Median(release);
  l.statx_ns = Median(statx);
  return l;
}

void ReportDecomposition(Report* r, const LookupLayers& l, double tolerance) {
  const double core = l.sign_ns + l.dlht_probe_ns + l.pcc_probe_ns;
  const double walk_rest = l.walk_ns - core;
  const double statx_rest = l.statx_ns - l.walk_ns - l.release_ns;
  r->Line("warm statx decomposition (ns): sign %.1f + dlht %.1f + pcc %.1f "
          "+ rest of walk %.1f + release %.1f + rest of statx %.1f = "
          "statx %.1f",
          l.sign_ns, l.dlht_probe_ns, l.pcc_probe_ns, walk_rest, l.release_ns,
          statx_rest, l.statx_ns);
  const double slack = tolerance * l.statx_ns;
  const bool fits = walk_rest >= -slack && statx_rest >= -slack;
  r->Line("decomposition check: isolated parts fit inside vfs.statx_ns "
          "within %.0f%%: %s",
          tolerance * 100, fits ? "yes" : "NO");
  if (!fits) {
    r->Invalid("warm statx decomposition exceeds vfs.statx_ns");
  }
}

void ReportLookupLayers(Report* r, Env& env,
                        const std::vector<std::string>& paths) {
  const LookupLayers l = ProbeLookupLayers(env, paths, 21);
  r->Metric("core.sign_ns", l.sign_ns, "ns");
  r->Metric("core.dlht_probe_ns", l.dlht_probe_ns, "ns");
  r->Metric("core.pcc_probe_ns", l.pcc_probe_ns, "ns");
  r->Metric("vfs.statx_ns", l.statx_ns, "ns");
  r->Metric("vfs.walk_ns", l.walk_ns, "ns");
  r->Metric("vfs.release_ns", l.release_ns, "ns");
  ReportDecomposition(r, l, 0.10);
}

double ProbeObsOverhead(uint64_t seed, const std::vector<std::string>& files,
                        int reps) {
  auto build = [&](bool obs_on) {
    EnvSpec spec;
    spec.config = BaseConfig(seed, 1);
    if (obs_on) {
      spec.config.obs = ObsConfig::Enabled();
    }
    auto env = MakeEnv(spec);
    Task& t = *env->task;
    for (const std::string& f : files) {
      // mkdir -p of the parent, then the file itself.
      for (size_t i = 1; i < f.size(); ++i) {
        if (f[i] == '/') {
          (void)t.Mkdir(f.substr(0, i), 0755);
        }
      }
      auto fd = t.Open(f, kOWrite | kOCreat, 0644);
      if (fd.ok()) {
        (void)t.Close(*fd);
      }
      (void)t.Statx(kAtFdCwd, f, kAtSymlinkNoFollow);
    }
    return env;
  };
  auto on = build(true);
  auto off = build(false);
  auto pass = [&](Env& env) {
    const uint64_t t0 = NowNanos();
    for (const std::string& f : files) {
      (void)env.task->Statx(kAtFdCwd, f, kAtSymlinkNoFollow);
    }
    return static_cast<double>(NowNanos() - t0) /
           static_cast<double>(files.size());
  };
  std::vector<double> d_on;
  std::vector<double> d_off;
  for (int r = 0; r < reps; ++r) {  // interleaved, so drift hits both
    d_on.push_back(pass(*on));
    d_off.push_back(pass(*off));
  }
  return Median(d_on) - Median(d_off);
}

// Median over `reps` passes of the calling thread's CPU time per
// Task::Statx on `paths`.
double ProbeStatCpu(Env& env, const std::vector<std::string>& paths,
                    int reps) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const uint64_t c0 = ThreadCpuNanos();
    for (const std::string& p : paths) {
      (void)env.task->Statx(kAtFdCwd, p, kAtSymlinkNoFollow);
    }
    per.push_back(static_cast<double>(ThreadCpuNanos() - c0) /
                  static_cast<double>(paths.size()));
  }
  return Median(per);
}

RingProbe ProbeRing(Env& env, const std::vector<std::string>& paths,
                    size_t submissions, uint64_t spacing_ns) {
  using server::Cqe;
  using server::Sqe;
  CheckThreadBudget("ring probe", 2);
  server::ServerOptions so;
  so.shards = 1;
  so.ring_depth = 256;
  so.max_batch = 32;
  server::Server srv(env.kernel.get(), env.task, so);
  PinToProcessor(Nproc() - 1);  // the shard thread inherits this processor
  srv.Start();
  PinToProcessor(Nproc() - 2);
  std::vector<Stat> stats(paths.size());
  std::map<uint64_t, uint64_t> nop_sent;  // user_data -> submit time
  std::vector<double> rtts;
  uint64_t submit_total = 0;
  uint64_t retries = 0;
  size_t outstanding = 0;
  Cqe cqes[64];
  auto reap = [&] {
    const size_t got = srv.Reap(0, cqes, 64);
    const uint64_t now = NowNanos();
    for (size_t i = 0; i < got; ++i) {
      auto it = nop_sent.find(cqes[i].user_data);
      if (it != nop_sent.end()) {
        rtts.push_back(static_cast<double>(now - it->second));
        nop_sent.erase(it);
      }
    }
    outstanding -= got;
  };
  uint64_t due = NowNanos();
  for (size_t i = 0; i < submissions; ++i) {
    due += spacing_ns;
    while (NowNanos() < due) {
      reap();
    }
    Sqe sqe;  // kNop
    const bool nop = i % 4 == 3;
    if (!nop) {
      const size_t p = i % paths.size();
      sqe = Sqe::Statx(kAtFdCwd, paths[p], kAtSymlinkNoFollow, &stats[p]);
    }
    sqe.user_data = i + 1;
    for (;;) {
      const uint64_t t0 = NowNanos();
      const bool ok = srv.Submit(0, sqe);
      const uint64_t t1 = NowNanos();
      submit_total += t1 - t0;
      if (ok) {
        if (nop) {
          nop_sent[sqe.user_data] = t0;
        }
        break;
      }
      ++retries;
      reap();
    }
    ++outstanding;
  }
  while (outstanding > 0) {
    reap();
  }
  srv.Stop();
  Unpin();
  RingProbe out;
  out.submit_ns = static_cast<double>(submit_total) /
                  static_cast<double>(submissions + retries);
  out.nop_rtt_ns = Median(rtts);
  out.ops_per_batch = Ratio(srv.ops_completed(), srv.batches());
  out.sq_full_retries = static_cast<double>(retries);
  return out;
}

void ReportRing(Report* r, const RingProbe& ring) {
  r->Metric("server.submit_ns", ring.submit_ns, "ns");
  r->Metric("server.nop_rtt_ns", ring.nop_rtt_ns, "ns");
  r->Metric("server.ops_per_batch", ring.ops_per_batch, "ratio");
  r->Metric("server.sq_full_retries", ring.sq_full_retries, "count");
}

double ProbeGovernorTick(Env& env, int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) {
    const uint64_t t0 = NowNanos();
    env.kernel->governor()->Tick();
    v.push_back(static_cast<double>(NowNanos() - t0));
  }
  return Median(v);
}

void ReportCounterLayers(Report* r, Env& env, uint64_t mutations) {
  const CacheStats& s = env.kernel->stats();
  const uint64_t dlht_hit = s.dlht_hits.value();
  const uint64_t dlht_miss = s.dlht_misses.value();
  const uint64_t pcc_hit = s.pcc_hits.value();
  const uint64_t pcc_miss = s.pcc_misses.value();
  const uint64_t slow = s.slowpath_walks.value();
  r->Metric("core.dlht_hit_ratio", Ratio(dlht_hit, dlht_hit + dlht_miss),
            "ratio");
  r->Metric("core.dlht_skips_per_probe",
            Ratio(s.dlht_collisions.value(), dlht_hit + dlht_miss), "ratio");
  r->Metric("core.pcc_hit_ratio", Ratio(pcc_hit, pcc_hit + pcc_miss),
            "ratio");
  r->Metric("vfs.fast_hit_ratio",
            Ratio(s.fastpath_hits.value(), s.lookups.value()), "ratio");
  r->Metric("vfs.shortcut_resume_ratio",
            Ratio(s.shortcut_resumes.value(), s.fastpath_misses.value()),
            "ratio");
  r->Metric("vfs.slow_comps_per_walk", Ratio(s.slow_components.value(), slow),
            "ratio");
  r->Metric("vfs.slow_retry_ratio", Ratio(s.slowpath_retries.value(), slow),
            "ratio");
  r->Metric("vfs.dcache_hit_ratio",
            Ratio(s.dcache_hits.value(),
                  s.dcache_hits.value() + s.dcache_misses.value()),
            "ratio");
  r->Metric("vfs.readdir_cached_ratio",
            Ratio(s.readdir_cached.value(),
                  s.readdir_cached.value() + s.readdir_uncached.value()),
            "ratio");
  const obs::MemoryAccounting mem = env.kernel->Observe().memory;
  r->Metric("vfs.dentries", static_cast<double>(mem.dentry_count), "count");
  r->Metric("vfs.negative_dentries",
            static_cast<double>(mem.negative_dentries), "count");
  r->Metric("vfs.inval_dentries_per_mutation",
            Ratio(s.invalidated_dentries.value(), mutations), "ratio");
}

void ReportStorageLayers(Report* r, const StorageMark& before,
                         const StorageMark& after, uint64_t ops) {
  r->Metric("storage.calls_per_op", Ratio(after.calls - before.calls, ops),
            "ratio");
  r->Metric("storage.busy_ns_per_op",
            Ratio(after.busy_ns - before.busy_ns, ops), "ns");
  const uint64_t hits = after.buf_hits - before.buf_hits;
  const uint64_t misses = after.buf_misses - before.buf_misses;
  r->Metric("storage.buffer_hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Metric("storage.device_ios_per_op",
            Ratio(after.dev_ios - before.dev_ios, ops), "ratio");
}

}  // namespace

StorageMark MarkStorage(Env& env) {
  StorageMark m;
  if (env.timing != nullptr) {
    m.calls = env.timing->calls();
    m.busy_ns = env.timing->busy_ns();
  }
  m.buf_hits = env.disk->buffer_cache().hits();
  m.buf_misses = env.disk->buffer_cache().misses();
  m.dev_ios = env.disk->device().reads() + env.disk->device().writes();
  return m;
}

double ProbeInvalPass(Env& env, const std::string& a, const std::string& b,
                      int n) {
  std::vector<double> v;
  Task& t = *env.task;
  for (int i = 0; i < n; ++i) {
    if (!t.Rename(a, b).ok()) {
      break;
    }
    v.push_back(static_cast<double>(
        env.kernel->dcache().last_inval_stats().span_ns));
    if (!t.Rename(b, a).ok()) {
      break;
    }
    v.push_back(static_cast<double>(
        env.kernel->dcache().last_inval_stats().span_ns));
  }
  return Median(v);
}

void ReportTracedLayers(Report* r, Env& env, uint64_t seed,
                        const TracedPhase& p) {
  ReportCounterLayers(r, env, p.mutations);
  ReportStorageLayers(r, p.before, MarkStorage(env), p.ops);
  ReportLookupLayers(r, env, p.sample);
  r->Metric("vfs.cpu_ns_per_op",
            p.cpu_ns_per_op >= 0 ? p.cpu_ns_per_op
                                 : ProbeStatCpu(env, p.sample, 21),
            "ns");
  r->Metric("vfs.inval_pass_ns", p.inval_pass_ns, "ns");
  ReportRing(r, p.ring != nullptr ? *p.ring
                                  : ProbeRing(env, p.sample, 10000, 10000));
  r->Metric("obs.stat_overhead_ns", ProbeObsOverhead(seed, p.sample, 21),
            "ns");
  r->Metric("vfs.governor_tick_ns",
            p.governor_tick_ns >= 0 ? p.governor_tick_ns
                                    : ProbeGovernorTick(env, 64),
            "ns");
}

}  // namespace perfbench
