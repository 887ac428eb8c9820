// The three workloads. Each generates its inputs from opts.seed, runs its
// measured phases, and fills `r`: with the end-to-end metrics, or — when
// opts.trace is set — with the per-layer metrics of a traced repeat.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunWarmLookup(const Options& opts, Report* r);
void RunServeMail(const Options& opts, Report* r);
void RunTreeChurn(const Options& opts, Report* r);

// Shared tail of every traced run: the span log, self times, and the
// tracing overhead against the untraced repeat.
void FinishTrace(const Options& opts, Report* r, double untraced_ops_per_s,
                 double traced_ops_per_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
