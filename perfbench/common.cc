#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "src/core/pcc.h"
#include "src/obs/snapshot.h"
#include "src/vfs/cred.h"

namespace perfbench {

namespace {

cpu_set_t AllowedSet() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      CPU_SET(0, &set);
    }
    return set;
  }();
  return allowed;
}

}  // namespace

void PinToProcessor(unsigned k) {
  cpu_set_t allowed = AllowedSet();
  unsigned seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == k % Nproc()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

void Unpin() {
  cpu_set_t allowed = AllowedSet();
  pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
}

unsigned Nproc() {
  cpu_set_t set = AllowedSet();
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

void CheckThreadBudget(const char* what, unsigned runnable) {
  if (runnable > Nproc()) {
    std::fprintf(stderr,
                 "perfbench: %s would run %u runnable threads on %u "
                 "processors\n",
                 what, runnable, Nproc());
    std::exit(2);
  }
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed * 0x9e3779b97f4a7c15ULL + stream;
  return SplitMix64(s);
}

static uint64_t ClockNanos(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Invalid("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Line(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stdout, fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
}

void Report::Fail(const std::string& what) {
  if (failed_ < 5) {
    std::fprintf(stdout, "model mismatch: %s\n", what.c_str());
  }
  ++failed_;
}

void Report::Invalid(const std::string& why) {
  std::fprintf(stdout, "invalid run: %s\n", why.c_str());
  valid_ = false;
}

void Report::PrintResult() const {
  std::string out = "{\"correct\": ";
  out += (valid_ && failed_ == 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::fprintf(stdout, "%s\n", out.c_str());
  std::fflush(stdout);
}

namespace {

constexpr size_t kMinBlockSamples = 100;

// Nearest-rank percentile of an unsorted sample (reorders it).
uint64_t Percentile(std::vector<uint64_t>& v, double q) {
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = k == 0 ? 0 : k - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

}  // namespace

ClassSummary Summarize(const LatencyClass& c, size_t blocks) {
  ClassSummary s;
  s.n = c.samples.size();
  if (s.n == 0) {
    return s;
  }
  // A block's percentile needs a sample of its own.
  blocks = std::max<size_t>(1, std::min(blocks, s.n / kMinBlockSamples));
  const double qs[3] = {0.50, 0.95, 0.99};
  std::vector<double> per_block[3];
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<uint64_t> v(c.samples.begin() + b * s.n / blocks,
                            c.samples.begin() + (b + 1) * s.n / blocks);
    for (int q = 0; q < 3; ++q) {
      per_block[q].push_back(static_cast<double>(Percentile(v, qs[q])));
    }
  }
  double* out[3] = {&s.p50, &s.p95, &s.p99};
  size_t* beyond[3] = {&s.beyond_p50, &s.beyond_p95, &s.beyond_p99};
  for (int q = 0; q < 3; ++q) {
    std::vector<double>& v = per_block[q];
    std::sort(v.begin(), v.end());
    const size_t m = blocks / 2;
    *out[q] = blocks % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
    for (uint64_t x : c.samples) {
      *beyond[q] += static_cast<double>(x) > *out[q] ? 1 : 0;
    }
  }
  return s;
}

void ReportClass(Report* r, const std::string& workload, const char* prefix,
                 const LatencyClass& c, bool tail, size_t blocks) {
  ClassSummary s = Summarize(c, blocks);
  r->Line("samples %s/%s: n=%zu p50=%.0f ns (%zu beyond) p95=%.0f ns "
          "(%zu beyond) p99=%.0f ns (%zu beyond)",
          workload.c_str(), c.name.c_str(), s.n, s.p50, s.beyond_p50, s.p95,
          s.beyond_p95, s.p99, s.beyond_p99);
  // A percentile is a data point only with at least ten samples beyond it.
  if ((tail ? s.beyond_p95 : s.beyond_p50) < 10) {
    r->Invalid(c.name + ": fewer than 10 samples beyond its reported tail");
  }
  r->Metric(std::string(prefix) + "_p50_ns", s.p50, "ns");
  if (tail) {
    r->Metric(std::string(prefix) + "_p95_ns", s.p95, "ns");
  }
}

// ---------------------------------------------------------------------------
// Tracer.

namespace {

// Spans kept per thread; beyond it spans are dropped. Spans outside any
// request (FileSystem calls on a server shard thread) are kept
// one in kTopLevelSample.
constexpr size_t kMaxSpansPerThread = 200000;
constexpr uint64_t kTopLevelSample = 16;

struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

std::mutex g_spans_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_spans;  // guarded by g_spans_mu
std::atomic<uint64_t> g_next_span_id{1};

thread_local ThreadSpans* t_spans = nullptr;
thread_local uint64_t t_request = 0;
thread_local bool t_in_request = false;
thread_local bool t_sampled = false;
thread_local uint64_t t_top_level = 0;

ThreadSpans* Mine() {
  if (t_spans == nullptr) {
    auto ts = std::make_unique<ThreadSpans>();
    std::lock_guard<std::mutex> lk(g_spans_mu);
    ts->thread = static_cast<uint32_t>(g_spans.size());
    t_spans = ts.get();
    g_spans.push_back(std::move(ts));
  }
  return t_spans;
}

void Push(const Span& s) {
  ThreadSpans* ts = Mine();
  if (ts->spans.size() >= kMaxSpansPerThread) {
    return;
  }
  ts->spans.push_back(s);
  ts->spans.back().thread = ts->thread;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

uint64_t Tracer::BeginRequest(bool sampled) {
  t_in_request = true;
  t_sampled = sampled;
  t_request = sampled ? g_next_span_id.fetch_add(1, std::memory_order_relaxed)
                      : 0;
  return t_request;
}

void Tracer::EndRequest(const char* name, uint64_t start_ns,
                        uint64_t end_ns) {
  if (t_sampled) {
    Span s;
    s.id = t_request;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    Push(s);
  }
  t_request = 0;
  t_in_request = false;
  t_sampled = false;
}

void Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns) {
  // Children of unsampled requests are dropped; spans outside any request
  // (e.g. on a server shard thread) are kept as top-level spans.
  if (t_in_request ? !t_sampled : t_top_level++ % kTopLevelSample != 0) {
    return;
  }
  Span s;
  s.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = t_request;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  Push(s);
}

uint64_t Tracer::NewId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Emit(const Span& s) { Push(s); }

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lk(g_spans_mu);
  for (auto& ts : g_spans) {
    all.insert(all.end(), ts->spans.begin(), ts->spans.end());
    ts->spans.clear();
  }
  return all;
}

void ReportSelfTimes(Report* r, const std::vector<Span>& spans) {
  std::map<uint64_t, uint64_t> child_ns;  // request id -> covered ns
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  struct Agg {
    uint64_t n = 0;
    uint64_t total = 0;
    uint64_t self = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans) {
    Agg& a = by_name[s.name];
    const uint64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const uint64_t covered = it == child_ns.end() ? 0 : it->second;
    a.n += 1;
    a.total += dur;
    a.self += dur > covered ? dur - covered : 0;
  }
  r->Line("span self time (sampled requests; fs spans on a server shard "
          "thread are top-level, one in %llu kept):",
          static_cast<unsigned long long>(kTopLevelSample));
  for (const auto& [name, a] : by_name) {
    r->Line("  %-18s n=%-9llu mean=%9.1f ns  self=%9.1f ns", name.c_str(),
            static_cast<unsigned long long>(a.n),
            static_cast<double>(a.total) / static_cast<double>(a.n),
            static_cast<double>(a.self) / static_cast<double>(a.n));
  }
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"thread\":%u,"
                 "\"start_ns\":%llu,\"dur_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name, s.thread,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns - s.start_ns));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// TimingFs.

Status TimingFs::Revalidate(InodeNum ino) {
  return Timed("fs.revalidate", [&] { return inner_->Revalidate(ino); });
}
Result<InodeAttr> TimingFs::GetAttr(InodeNum ino) {
  return Timed("fs.getattr", [&] { return inner_->GetAttr(ino); });
}
Status TimingFs::SetAttr(InodeNum ino, const AttrUpdate& update) {
  return Timed("fs.setattr", [&] { return inner_->SetAttr(ino, update); });
}
Result<InodeNum> TimingFs::Lookup(InodeNum dir, std::string_view name) {
  return Timed("fs.lookup", [&] { return inner_->Lookup(dir, name); });
}
Result<InodeNum> TimingFs::Create(InodeNum dir, std::string_view name,
                                  FileType type, uint16_t mode, uint32_t uid,
                                  uint32_t gid) {
  return Timed("fs.create", [&] {
    return inner_->Create(dir, name, type, mode, uid, gid);
  });
}
Result<InodeNum> TimingFs::SymlinkCreate(InodeNum dir, std::string_view name,
                                         std::string_view target,
                                         uint32_t uid, uint32_t gid) {
  return Timed("fs.symlink", [&] {
    return inner_->SymlinkCreate(dir, name, target, uid, gid);
  });
}
Status TimingFs::Link(InodeNum dir, std::string_view name, InodeNum target) {
  return Timed("fs.link", [&] { return inner_->Link(dir, name, target); });
}
Status TimingFs::Unlink(InodeNum dir, std::string_view name) {
  return Timed("fs.unlink", [&] { return inner_->Unlink(dir, name); });
}
Status TimingFs::Rmdir(InodeNum dir, std::string_view name) {
  return Timed("fs.rmdir", [&] { return inner_->Rmdir(dir, name); });
}
Status TimingFs::Rename(InodeNum old_dir, std::string_view old_name,
                        InodeNum new_dir, std::string_view new_name) {
  return Timed("fs.rename", [&] {
    return inner_->Rename(old_dir, old_name, new_dir, new_name);
  });
}
Result<std::string> TimingFs::ReadLink(InodeNum ino) {
  return Timed("fs.readlink", [&] { return inner_->ReadLink(ino); });
}
Result<ReadDirResult> TimingFs::ReadDir(InodeNum dir, uint64_t offset,
                                        size_t max_entries) {
  return Timed("fs.readdir",
               [&] { return inner_->ReadDir(dir, offset, max_entries); });
}
Result<size_t> TimingFs::Read(InodeNum ino, uint64_t offset, size_t len,
                              std::string* out) {
  return Timed("fs.read",
               [&] { return inner_->Read(ino, offset, len, out); });
}
Result<size_t> TimingFs::Write(InodeNum ino, uint64_t offset,
                               std::string_view data) {
  return Timed("fs.write", [&] { return inner_->Write(ino, offset, data); });
}

// ---------------------------------------------------------------------------
// Environments.

Env::~Env() {
  task.reset();
  kernel.reset();
}

KernelConfig BaseConfig(uint64_t seed, size_t inval_workers) {
  KernelConfig kc;
  kc.cache = CacheConfig::Optimized();
  kc.cache.governor = true;
  kc.cache.governor_interval_us = 0;  // no loop thread: ticks are ops
  kc.cache.inval_max_workers = inval_workers;
  kc.signature_seed = SubSeed(seed, 0x5157) | 1;
  return kc;
}

std::unique_ptr<Env> MakeEnv(const EnvSpec& spec) {
  auto env = std::make_unique<Env>();
  env->kernel = std::make_unique<Kernel>(spec.config);
  DiskFsOptions opt;
  opt.num_blocks = spec.disk_blocks;
  opt.max_inodes = spec.max_inodes;
  opt.buffer_cache_blocks = 16384;  // 64 MiB: every workload's metadata fits
  env->disk = std::make_shared<DiskFs>(opt);
  std::shared_ptr<FileSystem> root = env->disk;
  if (spec.timing_fs) {
    env->timing = std::make_shared<TimingFs>(env->disk);
    root = env->timing;
  }
  Status st = env->kernel->MountRootFs(root);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: mount failed: %s\n",
                 std::string(st.error_name()).c_str());
    std::exit(2);
  }
  TaskPtr init = env->kernel->CreateInitTask(MakeCred(0, 0));
  if (!init->Mkdir("/home", 0755).ok() || !init->Mkdir("/home/u", 0755).ok() ||
      !init->Chown("/home/u", kUserUid, kUserUid).ok()) {
    std::fprintf(stderr, "perfbench: cannot create /home/u\n");
    std::exit(2);
  }
  env->task = init->Fork();
  env->task->SetCred(MakeCred(kUserUid, kUserUid));
  if (!env->task->Chdir("/home/u").ok()) {
    std::fprintf(stderr, "perfbench: cannot chdir to /home/u\n");
    std::exit(2);
  }
  return env;
}

void AuditOrInvalidate(Env& env, Report* r, const char* when) {
  std::vector<std::shared_ptr<Pcc>> pccs = env.kernel->LivePccs();
  std::vector<const Pcc*> raw;
  for (const auto& p : pccs) {
    raw.push_back(p.get());
  }
  obs::AuditReport audit = env.kernel->Audit(raw);
  r->Line("audit %s: %s", when, audit.Summary().c_str());
  if (!audit.clean()) {
    r->Line("%s", audit.ToText().c_str());
    r->Invalid(std::string("Kernel::Audit() failed ") + when);
  }
}

uint64_t CacheBytes(Env& env) {
  return env.kernel->Observe().memory.total_bytes;
}

std::string Join(const std::string& dir, const std::string& name) {
  return dir == "/" ? "/" + name : dir + "/" + name;
}

std::string RandomName(Rng& rng, size_t min_len, size_t max_len) {
  static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz";
  const size_t len = min_len + rng.Below(max_len - min_len + 1);
  std::string s(len, 'a');
  for (char& c : s) {
    c = kAlpha[rng.Below(26)];
  }
  return s;
}

void Digest::Add(const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

}  // namespace perfbench
