// Shared scaffolding of the repository benchmark: options, the result
// report, per-class latency samples, kernel environments, the timing
// FileSystem the traced run mounts, and the span tracer.
//
// Every workload follows the same contract:
//  - inputs (tree shape, op stream, arrival gaps, signature seed) are a pure
//    function of --seed and are generated before any call into the program;
//  - every op result is checked against the generator's model;
//  - the op count is fixed by --seconds, never by elapsed time, so two runs
//    with one seed leave the cache in exactly the same state.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/storage/diskfs.h"
#include "src/util/clock.h"
#include "src/util/rng.h"
#include "src/vfs/kernel.h"
#include "src/vfs/task.h"

namespace perfbench {

using namespace dircache;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced runs write their span log here
};

// Processors this process may run on; every thread pool is sized from it.
unsigned Nproc();

// Fails the run when a workload would keep more threads runnable than there
// are processors: oversubscription turns latency into scheduler noise.
void CheckThreadBudget(const char* what, unsigned runnable);

// Pins the calling thread to the `k`-th processor it may run on (threads it
// creates inherit the pin). Busy-polling threads that share a processor
// time-slice against each other, so every spinning thread gets its own.
void PinToProcessor(unsigned k);
// Lets the calling thread run on every processor again.
void Unpin();

// Stable sub-seed for one consumer of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// CPU time of the calling thread, in nanoseconds.
uint64_t ThreadCpuNanos();

// Median of a sample (0 when empty).
double Median(std::vector<double> v);

// Runs `once` (which returns a std::unique_ptr, null on failure) `rounds`
// times, each on fresh state, and keeps the last result. Stores the median
// duration in seconds in *median_s. Returns null if any round failed.
template <typename Fn>
auto TimedSetups(int rounds, double* median_s, Fn&& once) -> decltype(once()) {
  std::vector<double> times;
  decltype(once()) kept;
  for (int i = 0; i < rounds; ++i) {
    const uint64_t t0 = NowNanos();
    auto fresh = once();
    times.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    if (!fresh) {
      return nullptr;
    }
    kept = std::move(fresh);
  }
  *median_s = Median(times);
  return kept;
}

// ---------------------------------------------------------------------------
// Results.

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A human-readable line (stdout, before the JSON result line).
  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // Model checks: every op counts as attempted; a disagreement with the
  // generator's model counts as failed. The first few are printed.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  // The run is not a data point (audit violation, generator fell behind).
  void Invalid(const std::string& why);

  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }
  // Prints the one-line JSON result object.
  void PrintResult() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool valid_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

// Latency samples of one op class. Percentiles are nearest-rank over the
// whole sample.
struct LatencyClass {
  explicit LatencyClass(std::string n) : name(std::move(n)) {}
  void Add(uint64_t ns) { samples.push_back(ns); }

  std::string name;
  std::vector<uint64_t> samples;
};

struct ClassSummary {
  size_t n = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  size_t beyond_p50 = 0;  // samples strictly above the reported p50
  size_t beyond_p95 = 0;
  size_t beyond_p99 = 0;
};
// With `blocks` > 1, each percentile is the median over that many
// consecutive blocks of the block's own percentile (fewer blocks when the
// sample has fewer than 100 per block).
ClassSummary Summarize(const LatencyClass& c, size_t blocks = 1);

// Reports <prefix>_p50_ns, and <prefix>_p95_ns when `tail` is set, and
// prints the sample accounting line (p95 and p99 included). The run is
// invalid when fewer than ten samples lie beyond the highest reported
// percentile. Only the
// lookup class reports its tail: on a shared host the tails of the longer
// readdir and mutate ops follow the host's regime (README: Steadiness).
void ReportClass(Report* r, const std::string& workload, const char* prefix,
                 const LatencyClass& c, bool tail, size_t blocks = 1);

// ---------------------------------------------------------------------------
// Span tracer (traced runs only). Spans are kept in per-thread memory and
// written out at the end; spans of one request share its id as `parent`.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // request id; 0 for a top-level span
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Opens a request on this thread; child spans recorded until EndRequest
  // carry its id. Only sampled requests keep spans (bounded memory).
  static uint64_t BeginRequest(bool sampled);
  static void EndRequest(const char* name, uint64_t start_ns, uint64_t end_ns);
  // A span under the current request (or top-level when none is open).
  static void Record(const char* name, uint64_t start_ns, uint64_t end_ns);

  // Spans whose request outlives one call (submit -> reap through the
  // server rings): the caller assigns ids and parents itself.
  static uint64_t NewId();
  static void Emit(const Span& s);

  // Moves every thread's spans out (call once all threads have joined).
  static std::vector<Span> Collect();

 private:
  static std::atomic<bool> enabled_;
};

// Self time per span name: a span's duration minus what its children cover.
void ReportSelfTimes(Report* r, const std::vector<Span>& spans);
// One JSON object per line.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Timing FileSystem: forwards every call to DiskFs, counting calls and the
// time spent inside them. The traced run mounts it in place of the bare
// DiskFs; the untraced run never sees it.

class TimingFs final : public FileSystem {
 public:
  explicit TimingFs(std::shared_ptr<FileSystem> inner)
      : inner_(std::move(inner)) {}

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t busy_ns() const { return busy_.load(std::memory_order_relaxed); }

  std::string_view TypeName() const override { return inner_->TypeName(); }
  InodeNum RootIno() const override { return inner_->RootIno(); }
  bool WantsNegativeDentries() const override {
    return inner_->WantsNegativeDentries();
  }
  bool NeedsRevalidation() const override {
    return inner_->NeedsRevalidation();
  }
  Status Revalidate(InodeNum ino) override;
  Result<InodeAttr> GetAttr(InodeNum ino) override;
  Status SetAttr(InodeNum ino, const AttrUpdate& update) override;
  Result<InodeNum> Lookup(InodeNum dir, std::string_view name) override;
  Result<InodeNum> Create(InodeNum dir, std::string_view name, FileType type,
                          uint16_t mode, uint32_t uid, uint32_t gid) override;
  Result<InodeNum> SymlinkCreate(InodeNum dir, std::string_view name,
                                 std::string_view target, uint32_t uid,
                                 uint32_t gid) override;
  Status Link(InodeNum dir, std::string_view name, InodeNum target) override;
  Status Unlink(InodeNum dir, std::string_view name) override;
  Status Rmdir(InodeNum dir, std::string_view name) override;
  Status Rename(InodeNum old_dir, std::string_view old_name, InodeNum new_dir,
                std::string_view new_name) override;
  Result<std::string> ReadLink(InodeNum ino) override;
  Result<ReadDirResult> ReadDir(InodeNum dir, uint64_t offset,
                                size_t max_entries) override;
  Result<size_t> Read(InodeNum ino, uint64_t offset, size_t len,
                      std::string* out) override;
  Result<size_t> Write(InodeNum ino, uint64_t offset,
                       std::string_view data) override;
  void DropCaches() override { inner_->DropCaches(); }

 private:
  template <typename Fn>
  auto Timed(const char* name, Fn&& fn) {
    const uint64_t t0 = NowNanos();
    auto r = fn();
    const uint64_t t1 = NowNanos();
    calls_.fetch_add(1, std::memory_order_relaxed);
    busy_.fetch_add(t1 - t0, std::memory_order_relaxed);
    if (Tracer::enabled()) {
      Tracer::Record(name, t0, t1);
    }
    return r;
  }

  std::shared_ptr<FileSystem> inner_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> busy_{0};
};

// ---------------------------------------------------------------------------
// Kernel environments.

inline constexpr Uid kUserUid = 1000;

struct Env {
  ~Env();  // tasks go before the kernel (Kernel's teardown contract)

  std::unique_ptr<Kernel> kernel;
  std::shared_ptr<DiskFs> disk;
  std::shared_ptr<TimingFs> timing;  // traced runs only
  TaskPtr task;  // a user shell: uid 1000, cwd = /home/u
};

struct EnvSpec {
  KernelConfig config;
  uint64_t disk_blocks = 1 << 16;
  uint64_t max_inodes = 1 << 15;
  bool timing_fs = false;
};

// The configuration every workload starts from: all of the paper's
// mechanisms on, the governor present but driven only by the benchmark,
// the invalidation pool sized to `inval_workers`, and a signature seed
// derived from the workload seed (never boot entropy).
KernelConfig BaseConfig(uint64_t seed, size_t inval_workers);

std::unique_ptr<Env> MakeEnv(const EnvSpec& spec);

// Kernel::Audit() over every live PCC; records a violation as invalid.
void AuditOrInvalidate(Env& env, Report* r, const char* when);

// `obs` memory accounting after the measured phase.
uint64_t CacheBytes(Env& env);

// Canonical path helpers for generators.
std::string Join(const std::string& dir, const std::string& name);
std::string RandomName(Rng& rng, size_t min_len, size_t max_len);

// Digest of a byte stream (FNV-1a), for the op-stream identity check.
class Digest {
 public:
  void Add(const void* p, size_t n);
  void Add(std::string_view s) { Add(s.data(), s.size()); }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
