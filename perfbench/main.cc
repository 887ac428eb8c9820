// perfbench: the repository benchmark.
//
//   perfbench --workload <warm_lookup|serve_mail|tree_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints human-readable accounting, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, measured on a
// traced repeat of the workload.
//
// The process re-executes itself once with address-space randomization off:
// the PCC sets and the primary hash are keyed by pointers, so only a fixed
// address layout makes cache outcomes, and so the per-layer counts, repeat
// exactly across runs with one seed.
#include <sys/personality.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {

void FinishTrace(const Options& opts, Report* r, double untraced_ops_per_s,
                 double traced_ops_per_s) {
  const std::vector<Span> spans = Tracer::Collect();
  ReportSelfTimes(r, spans);
  if (!opts.spans_path.empty()) {
    if (WriteSpans(opts.spans_path, spans)) {
      r->Line("spans: %zu written to %s", spans.size(),
              opts.spans_path.c_str());
    } else {
      r->Line("spans: cannot write %s", opts.spans_path.c_str());
    }
  }
  const double overhead =
      untraced_ops_per_s > 0
          ? (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100
          : 0;
  r->Line("tracing overhead: ops_per_s %.0f untraced vs %.0f traced "
          "(%.2f%%)",
          untraced_ops_per_s, traced_ops_per_s, overhead);
  r->Metric("trace.overhead_pct", overhead, "%");
}

namespace {

// Each per-layer metric, the end-to-end metric it should move, and the
// workload where it should move it (README: Per-layer metrics).
struct LayerTarget {
  const char* metric;
  const char* moves;
  const char* on;
};
constexpr LayerTarget kLayerTargets[] = {
    {"core.sign_ns", "lookup_p50_ns", "warm_lookup"},
    {"core.dlht_probe_ns", "lookup_p50_ns", "warm_lookup"},
    {"core.pcc_probe_ns", "lookup_p50_ns", "warm_lookup"},
    {"core.dlht_hit_ratio", "lookup_p50_ns", "tree_churn"},
    {"core.dlht_skips_per_probe", "lookup_p50_ns", "warm_lookup"},
    {"core.pcc_hit_ratio", "lookup_p50_ns", "tree_churn"},
    {"vfs.statx_ns", "lookup_p50_ns", "warm_lookup"},
    {"vfs.walk_ns", "lookup_p50_ns", "warm_lookup"},
    {"vfs.release_ns", "ops_per_s", "warm_lookup"},
    {"vfs.cpu_ns_per_op", "ops_per_s", "warm_lookup"},
    {"vfs.fast_hit_ratio", "lookup_p50_ns", "tree_churn"},
    {"vfs.shortcut_resume_ratio", "lookup_p50_ns", "tree_churn"},
    {"vfs.slow_comps_per_walk", "lookup_p95_ns", "tree_churn"},
    {"vfs.slow_retry_ratio", "lookup_p95_ns", "tree_churn"},
    {"vfs.dcache_hit_ratio", "lookup_p50_ns", "tree_churn"},
    {"vfs.readdir_cached_ratio", "readdir_p50_ns", "serve_mail"},
    {"vfs.dentries", "cache_bytes", "tree_churn"},
    {"vfs.negative_dentries", "cache_bytes", "tree_churn"},
    {"vfs.inval_dentries_per_mutation", "mutate p95 (printed)", "tree_churn"},
    {"vfs.inval_pass_ns", "mutate p95 (printed)", "tree_churn"},
    {"vfs.governor_tick_ns", "lookup_p95_ns", "tree_churn"},
    {"storage.calls_per_op", "mutate_p50_ns", "serve_mail"},
    {"storage.busy_ns_per_op", "lookup_p50_ns", "tree_churn"},
    {"storage.buffer_hit_ratio", "lookup_p95_ns", "tree_churn"},
    {"storage.device_ios_per_op", "(simulated disk cost)", "tree_churn"},
    {"server.submit_ns", "lookup_p50_ns", "serve_mail"},
    {"server.nop_rtt_ns", "lookup_p50_ns", "serve_mail"},
    {"server.ops_per_batch", "ops_per_s", "serve_mail"},
    {"server.sq_full_retries", "lookup_p95_ns", "serve_mail"},
    {"obs.stat_overhead_ns", "lookup_p50_ns", "serve_mail"},
    {"trace.overhead_pct", "(measurement cost)", "all"},
};

const LayerTarget* TargetOf(const std::string& metric) {
  for (const LayerTarget& t : kLayerTargets) {
    if (metric == t.metric) {
      return &t;
    }
  }
  return nullptr;
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<warm_lookup|serve_mail|tree_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n",
               msg);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + a).c_str());
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--spans") {
      o.spans_path = v;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || o.seconds < 1 || o.seconds > 600) {
    Usage("need --workload and --seconds in [1, 600]");
  }
  return o;
}

// Re-executes this binary with ADDR_NO_RANDOMIZE set, once. Where the
// personality cannot be changed, runs on with randomization (and says so).
void FixAddressLayout(char** argv) {
  const int cur = personality(0xffffffff);
  if (cur != -1 && (cur & ADDR_NO_RANDOMIZE) != 0) {
    return;
  }
  if (cur == -1 || personality(static_cast<unsigned long>(cur) |
                               ADDR_NO_RANDOMIZE) == -1) {
    std::fprintf(stderr, "perfbench: address randomization stays on\n");
    return;
  }
  execv("/proc/self/exe", argv);
  std::fprintf(stderr, "perfbench: re-exec failed; randomization stays on\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opts = Parse(argc, argv);
  FixAddressLayout(argv);
  Report r;
  r.Line("perfbench %s seed=%llu seconds=%d trace=%d nproc=%u",
         opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
         opts.seconds, opts.trace ? 1 : 0, Nproc());
  if (opts.workload == "warm_lookup") {
    RunWarmLookup(opts, &r);
  } else if (opts.workload == "serve_mail") {
    RunServeMail(opts, &r);
  } else if (opts.workload == "tree_churn") {
    RunTreeChurn(opts, &r);
  } else {
    Usage(("unknown workload " + opts.workload).c_str());
  }
  for (const auto& [name, vu] : r.metrics()) {
    const LayerTarget* t = opts.trace ? TargetOf(name) : nullptr;
    if (t == nullptr) {
      r.Line("metric %-32s %16.4f %s", name.c_str(), vu.first,
             vu.second.c_str());
    } else {
      r.Line("metric %-32s %16.4f %-6s moves %s on %s", name.c_str(),
             vu.first, vu.second.c_str(), t->moves, t->on);
    }
  }
  r.PrintResult();
  return 0;
}
