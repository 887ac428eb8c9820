// Layer probes for the traced run: each times calls into one module's
// public functions from outside, on a sample of the workload's own paths,
// after the measured phase (the kernel is quiescent; nothing in src/ is
// instrumented).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// Server ring numbers: measured on a workload's own traffic, or by a probe
// over a one-shard server forked from env.task (statx of the sample
// interleaved with kNop entries, one submission every 10 us).
struct RingProbe {
  double submit_ns = 0;   // mean Server::Submit call time
  double nop_rtt_ns = 0;  // median submit -> reap of a kNop
  double ops_per_batch = 0;
  double sq_full_retries = 0;
};

// Storage counters from the timing FileSystem and the DiskFs buffer cache
// and device; the per-layer metrics are deltas over the measured phase.
struct StorageMark {
  uint64_t calls = 0;
  uint64_t busy_ns = 0;
  uint64_t buf_hits = 0;
  uint64_t buf_misses = 0;
  uint64_t dev_ios = 0;
};
StorageMark MarkStorage(Env& env);

// Median DentryCache::last_inval_stats().span_ns over `n` round trips of
// rename(a -> b), rename(b -> a).
double ProbeInvalPass(Env& env, const std::string& a, const std::string& b,
                      int n);

// What a workload measured in its traced phase. Values left negative (or
// null) come from a probe after the phase.
struct TracedPhase {
  std::vector<std::string> sample;  // 256 of the workload's own paths
  StorageMark before;               // taken when the phase began
  uint64_t ops = 0;                 // ops of the phase
  uint64_t mutations = 0;
  double inval_pass_ns = 0;
  // < 0: thread CPU time per Task::Statx over direct passes on `sample`.
  double cpu_ns_per_op = -1;
  double governor_tick_ns = -1;     // < 0: median of 64 ticks
  const RingProbe* ring = nullptr;  // null: the ring probe on `sample`
};

// Reports every per-layer metric of a traced run:
//  - counter ratios over the phase (the caller reset the kernel's counters
//    when it began) and storage deltas per op;
//  - the warm statx on `sample` split into its steps, each timed from
//    outside as the median over 21 passes of the per-path mean:
//    core.sign_ns (PathSigner::AppendComponent + Finalize),
//    core.dlht_probe_ns (Dlht::Lookup inside an epoch ReadGuard),
//    core.pcc_probe_ns (Pcc::Lookup(dentry, seq)), vfs.walk_ns
//    (PathWalker::Resolve), vfs.release_ns (PathHandle::Reset) and
//    vfs.statx_ns (Task::Statx). The run is invalid unless the isolated
//    parts fit inside vfs.statx_ns within 10% of it;
//  - CPU per op, invalidation pass, ring, governor tick, and
//    obs.stat_overhead_ns: Task::Statx on `sample` with obs recording on
//    minus the same with it off, on two fresh kernels holding those paths.
void ReportTracedLayers(Report* r, Env& env, uint64_t seed,
                        const TracedPhase& p);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
