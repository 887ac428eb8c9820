// serve_mail: a Dovecot-style maildir store plus a web docroot served
// through one server shard's SQ/CQ rings with obs recording on (Fig 9/10).
//
// The mail requests follow the repository's Dovecot model
// (src/workload/maildir.h): delivery creates the message in tmp/ and
// renames it into cur/; a flag change (STORE) renames the message and is
// followed by a rescan of the folder (open cur/, getdents to EOF, close).
// Every message goes through one lifecycle, delivered, read (FETCH: statx),
// marked \Seen (STORE) and expunged (unlink), so the four come in equal
// numbers and folders keep their size. Each mail request is followed by one
// web page view (statx, then open + close, as a web server serves a static
// file). The requests are tree.h Ops; a request's SQEs go into the ring back
// to back and the shard runs them in submission order, so a request's open
// always gets the lowest free descriptor, 0, and the client names it in the
// following SQEs (io_uring-style direct descriptors) instead of waiting for
// the open to complete. The execution order is therefore the stream order
// whatever the timing, and the model predicts every result.
//
// A closed-loop saturation phase (window = batch depth) gives ops_per_s, a
// serial closed loop (one request in flight) gives the latency metrics, and
// an open loop with Poisson arrivals at a fixed rate, each request timed
// from its due time, is printed for reference: its tail is set by host
// stalls, not by the code (see README: Steadiness).
#include <algorithm>
#include <cmath>

#include "probes.h"
#include "src/server/server.h"
#include "tree.h"
#include "workloads.h"

namespace perfbench {
namespace {

using server::Cqe;
using server::Sqe;

const char kMaildir[] = "/home/u/Maildir";
const char kWww[] = "/home/u/www";
constexpr size_t kFolders = 8;
// Messages per folder. Folders are small so that a rescan, like every other
// request, is short next to the host's scheduling stalls (see README:
// Steadiness).
constexpr size_t kMessages = 48;
constexpr size_t kSpare = 24;  // base names free for deliveries
constexpr uint32_t kBatch = 32;  // shard batch depth = closed-loop window
// Open-loop offered rate: about 5% of the saturation rate this benchmark
// measured on a 4-vCPU KVM guest (about 200k requests/s), so the queue
// behind a hypervisor stall of the client or the shard (up to 10 ms,
// several a second on that host) drains quickly.
constexpr double kOfferedRate = 10000;
// Requests per --seconds in each phase: saturation, serial, open loop.
constexpr uint64_t kSaturationPerSecond = 55000;
constexpr uint64_t kSerialPerSecond = 25000;
constexpr uint64_t kOpenLoopPerSecond = 2000;
constexpr int kSaturationRounds = 25;
constexpr int kSetups = 11;
// Request buffers: request i uses buffer i % kLoopSlots in the closed loops
// (few, so their rescan output stays in cache) and i % kSlots in the open
// loop (many, so a backlog behind a long host stall fits). The buffer a
// request gets never depends on timing: the shard frees and refills rescan
// output in it, and a timing-dependent order would move later allocations,
// and so the pointer-keyed PCC sets, between runs.
constexpr size_t kLoopSlots = 64;
constexpr size_t kSlots = 4096;
// Completions arrive in submission order, so the requests in flight in a
// closed loop are consecutive and hold distinct buffers.
static_assert(kLoopSlots >= kBatch, "a closed loop needs a buffer each");
// The generator fell behind when more than kMaxLateShare of the requests
// went out later than kMaxLatenessNs: a backlog, not a hypervisor stall
// (those reach about 10 ms on a shared 4-vCPU guest, a few times a second).
constexpr uint64_t kMaxLatenessNs = 1000000;
constexpr double kMaxLateShare = 0.2;
constexpr size_t kProbePaths = 256;
// The serial phase runs in this many blocks, and its percentiles are
// medians over the blocks of the block's own percentile: its request mix is
// the same in every block, so blocks differ only by the host stalls that
// hit them, and the median block sets the result.
constexpr size_t kBlocks = 16;

struct Inputs {
  PathPool pool;
  Tree www;
  std::vector<uint32_t> folder_cur;  // pool index of each folder's cur/
  std::vector<std::string> folder_dirs;  // every directory to create
  // Initial messages: pool index and size.
  std::vector<std::pair<uint32_t, uint32_t>> initial;
  std::vector<Op> ops;
  std::vector<uint64_t> arrival_ns;  // open loop: offset of each due time
  uint64_t saturation = 0;           // ops[0, saturation): window kBatch
  uint64_t serial = 0;               // then ops[.., serial): window 1
  std::vector<uint32_t> universe;    // every name a request can touch
  std::vector<uint32_t> probe_paths; // existing at the end of the stream
  uint32_t inval_a = 0;              // a message left in place at the end
  uint32_t inval_b = 0;              // a free name beside it
};

// A message is one of a folder's fixed base names, in cur/ with the Seen
// flag off or on, or in tmp/ while it is delivered. Names come from this
// bounded universe, which set-up looks up in full, so every name already
// has a dentry, positive or negative, before the first request: the cache
// is in its steady state from the start and stays there.
struct Folder {
  std::string dir;
  std::vector<std::string> bases;
  std::vector<uint32_t> size;  // per base
  // Bases by lifecycle stage; a folder runs the stages in turn.
  std::vector<uint32_t> delivered;  // unread
  std::vector<uint32_t> read;       // fetched, not yet \Seen
  std::vector<uint32_t> seen;
  std::vector<uint32_t> absent;
  uint64_t stage = 0;

  size_t present() const {
    return delivered.size() + read.size() + seen.size();
  }
};

std::string CurName(const Folder& f, uint32_t b, bool seen) {
  return f.dir + "/cur/" + f.bases[b] + (seen ? ":2,S" : ":2,");
}

// Moves a random base from `from` to `to` and returns it.
uint32_t Advance(Rng& g, std::vector<uint32_t>* from,
                 std::vector<uint32_t>* to) {
  const size_t i = g.Below(from->size());
  const uint32_t b = (*from)[i];
  (*from)[i] = from->back();
  from->pop_back();
  to->push_back(b);
  return b;
}

Inputs Generate(uint64_t seed, int seconds) {
  Inputs in;
  Rng rng(SubSeed(seed, 11));
  in.www = GenTree(rng, kWww, 40, 600, 4, {".html", ".css", ".js", ".png"},
                   200 * 1024);
  const std::vector<std::string> names = {"",         ".Sent",  ".Drafts",
                                          ".Trash",   ".Junk",  ".Archive",
                                          ".Lists",   ".Work"};
  std::vector<Folder> box(kFolders);
  in.folder_dirs.push_back(kMaildir);
  for (size_t fi = 0; fi < kFolders; ++fi) {
    Folder& f = box[fi];
    f.dir = std::string(kMaildir) + (fi == 0 ? "" : "/" + names[fi]);
    if (fi != 0) {
      in.folder_dirs.push_back(f.dir);
    }
    for (const char* sub : {"/cur", "/new", "/tmp"}) {
      in.folder_dirs.push_back(f.dir + sub);
    }
    in.folder_cur.push_back(in.pool.Add(f.dir + "/cur"));
    for (uint32_t b = 0; b < kMessages + kSpare; ++b) {
      f.bases.push_back(std::to_string(1700000000 + fi * 10000 + b) + ".M" +
                        std::to_string(rng.Below(1000000)) + "P" +
                        std::to_string(1000 + rng.Below(30000)) + ".mx");
      f.size.push_back(static_cast<uint32_t>(1024 + rng.Below(64 * 1024)));
      // Initial messages are dealt over the three stages in turn.
      std::vector<uint32_t>* stage[] = {&f.delivered, &f.read, &f.seen};
      (b < kMessages ? stage[b % 3] : &f.absent)->push_back(b);
      in.universe.push_back(in.pool.Add(CurName(f, b, false)));
      in.universe.push_back(in.pool.Add(CurName(f, b, true)));
      in.universe.push_back(in.pool.Add(f.dir + "/tmp/" + f.bases[b]));
    }
    for (uint32_t b = 0; b < kMessages; ++b) {
      in.initial.push_back({in.pool.Add(CurName(f, b, b % 3 == 2)),
                            f.size[b]});
    }
  }
  std::vector<uint32_t> web_paths;
  for (const std::string& p : in.www.files) {
    web_paths.push_back(in.pool.Add(p));
  }

  const uint64_t n_sat = kSaturationPerSecond * static_cast<uint64_t>(seconds);
  const uint64_t n_serial = kSerialPerSecond * static_cast<uint64_t>(seconds);
  const uint64_t n_open = kOpenLoopPerSecond * static_cast<uint64_t>(seconds);
  in.saturation = n_sat;
  in.serial = n_sat + n_serial;
  Rng g(SubSeed(seed, 12));
  while (in.ops.size() < n_sat + n_serial + n_open) {
    const size_t fi = g.Below(kFolders);
    Folder& f = box[fi];
    Op op;
    switch (f.stage++ % 4) {
      case 0: {  // delivery
        const uint32_t b = Advance(g, &f.absent, &f.delivered);
        f.size[b] = 0;
        op.kind = OpKind::kReplace;
        op.path = in.pool.Add(f.dir + "/tmp/" + f.bases[b]);
        op.arg = in.pool.Add(CurName(f, b, false));
        in.ops.push_back(op);
        break;
      }
      case 1: {  // FETCH
        const uint32_t b = Advance(g, &f.delivered, &f.read);
        op.kind = OpKind::kLstat;
        op.path = in.pool.Add(CurName(f, b, false));
        op.expect = f.size[b];
        in.ops.push_back(op);
        break;
      }
      case 2: {  // STORE \Seen, then the rescan
        const uint32_t b = Advance(g, &f.read, &f.seen);
        op.kind = OpKind::kRename;
        op.path = in.pool.Add(CurName(f, b, false));
        op.arg = in.pool.Add(CurName(f, b, true));
        in.ops.push_back(op);
        Op rescan;
        rescan.kind = OpKind::kReaddir;
        rescan.path = in.folder_cur[fi];
        rescan.expect = static_cast<uint32_t>(f.present());
        in.ops.push_back(rescan);
        break;
      }
      default: {  // expunge
        const uint32_t b = Advance(g, &f.seen, &f.absent);
        op.kind = OpKind::kUnlink;
        op.path = in.pool.Add(CurName(f, b, true));
        in.ops.push_back(op);
        break;
      }
    }
    const size_t w = g.Below(in.www.files.size());
    in.ops.push_back(StatOp(OpKind::kStatOpen, web_paths[w], in.www, w));
  }
  in.ops.resize(n_sat + n_serial + n_open);
  // Poisson arrivals for the open-loop phase.
  double t = 0;
  for (uint64_t i = 0; i < n_open; ++i) {
    t += -std::log(1.0 - g.NextDouble()) / kOfferedRate * 1e9;
    in.arrival_ns.push_back(static_cast<uint64_t>(t));
  }
  // Probe sample: messages and web files that exist at the end.
  std::vector<uint32_t> messages;
  for (const Folder& f : box) {
    for (const auto* stage : {&f.delivered, &f.read, &f.seen}) {
      for (uint32_t b : *stage) {
        messages.push_back(in.pool.Add(CurName(f, b, stage == &f.seen)));
      }
    }
  }
  for (size_t i = 0; i < kProbePaths; ++i) {
    in.probe_paths.push_back(i % 2 == 0
                                 ? messages[i * messages.size() / kProbePaths]
                                 : web_paths[i % web_paths.size()]);
  }
  const Folder& f0 = box[0];
  in.inval_a = in.pool.Add(CurName(f0, f0.read[0], false));
  in.inval_b = in.pool.Add(CurName(f0, f0.read[0], true));
  return in;
}

struct Setup {
  std::unique_ptr<Env> env;
  std::unique_ptr<server::Server> srv;

  ~Setup() {
    srv.reset();
    env.reset();
  }
};

bool SetupOnce(const Inputs& in, uint64_t seed, bool traced, Setup* s) {
  EnvSpec spec;
  spec.config = BaseConfig(seed, Nproc() - 1);  // the client spins on a core
  spec.config.obs = ObsConfig::Enabled();
  spec.timing_fs = traced;
  s->env = MakeEnv(spec);
  Task& t = *s->env->task;
  for (const std::string& d : in.folder_dirs) {
    if (!t.Mkdir(d, 0700).ok()) {
      return false;
    }
  }
  if (!BuildTree(t, in.www)) {
    return false;
  }
  for (const auto& [path, size] : in.initial) {
    auto fd = t.Open(in.pool[path], kOWrite | kOCreat | kOExcl, 0600);
    if (!fd.ok() || !t.Close(*fd).ok() ||
        !t.Truncate(in.pool[path], size).ok()) {
      return false;
    }
  }
  // Warm: every name a request can touch (absent ones become negative
  // dentries) and every page, then a full read of every cur/ (which leaves
  // it DIR_COMPLETE).
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t p : in.universe) {
      (void)t.Statx(kAtFdCwd, in.pool[p], kAtSymlinkNoFollow);
    }
    for (const std::string& p : in.www.files) {
      (void)t.Statx(kAtFdCwd, p, kAtSymlinkNoFollow);
    }
  }
  std::string why;
  std::vector<FdNum> none;
  for (uint32_t cur : in.folder_cur) {
    Op op;
    op.kind = OpKind::kReaddir;
    op.path = cur;
    (void)RunOp(t, op, in.pool, none, &why);
  }
  server::ServerOptions so;
  so.shards = 1;
  so.ring_depth = 1024;
  so.max_batch = kBatch;
  s->srv = std::make_unique<server::Server>(s->env->kernel.get(),
                                            s->env->task, so);
  return true;
}

// The client: submits requests' SQEs, reaps completions, checks each CQE
// against the model and times each request to its last completion.
class Client {
 public:
  Client(const Inputs& in, server::Server* srv, bool traced, Report* r)
      : in_(in), srv_(srv), traced_(traced), r_(r), slots_(kSlots) {}

  // Per-class latencies: of the serial phase (one request in flight, timed
  // submit -> last completion) and of the open loop (due -> last
  // completion).
  struct Classes {
    LatencyClass lookup{"lookup"};
    LatencyClass readdir{"readdir"};
    LatencyClass mutate{"mutate"};
  };
  Classes serial;
  Classes open;

  // Closed loop over ops[begin, end) with `window` requests in flight,
  // recording latencies into `record` unless it is null. Returns the
  // elapsed nanoseconds.
  uint64_t ClosedLoop(uint64_t begin, uint64_t end, size_t window,
                      Classes* record) {
    record_ = record;
    const uint64_t t0 = NowNanos();
    uint64_t next = begin;
    while (next < end || in_flight_ > 0) {
      while (in_flight_ < window && next < end) {
        Submit(next, 0, next % kLoopSlots);
        ++next;
      }
      Reap();
    }
    record_ = nullptr;
    return NowNanos() - t0;
  }

  // Open loop over ops[begin, end): request i is due at start +
  // arrival_ns[i - begin]; its latency runs from the due time.
  void OpenLoop(uint64_t begin, uint64_t end, bool nop_probes) {
    record_ = &open;
    const uint64_t start = NowNanos() + 1000000;
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t due = start + in_.arrival_ns[i - begin];
      uint64_t now = NowNanos();
      while (now < due) {
        Reap();
        now = NowNanos();
      }
      lateness.push_back(now - due);
      if (in_flight_ >= kSlots - 1) {
        r_->Invalid("open loop: more than " + std::to_string(kSlots) +
                    " requests in flight");
        break;
      }
      Submit(i, due, i % kSlots);
      if (nop_probes && i % 16 == 0) {
        SubmitNop();
      }
    }
    while (in_flight_ > 0 || nops_in_flight_ > 0) {
      Reap();
    }
    record_ = nullptr;
  }

  std::vector<uint64_t> lateness;  // open loop: submit - due, per request
  std::vector<double> nop_rtt;
  uint64_t submit_calls = 0;
  uint64_t submit_ns = 0;
  uint64_t sq_full = 0;
  uint64_t mutations = 0;

 private:
  struct Slot {
    uint64_t req = 0;
    uint64_t due = 0;
    uint64_t submitted = 0;
    uint64_t span = 0;
    uint32_t sqes = 0;
    uint32_t done = 0;
    bool ok = true;
    Stat st;
    std::vector<DirEntry> d1;
    std::vector<DirEntry> d2;
  };

  static constexpr uint64_t kNopTag = 1ULL << 62;

  void Push(const Sqe& sqe, uint64_t span) {
    for (;;) {
      const uint64_t t0 = NowNanos();
      const bool ok = srv_->Submit(0, sqe);
      const uint64_t t1 = NowNanos();
      ++submit_calls;
      submit_ns += t1 - t0;
      if (traced_ && span != 0) {
        Span s;
        s.id = Tracer::NewId();
        s.parent = span;
        s.name = "server.submit";
        s.start_ns = t0;
        s.end_ns = t1;
        Tracer::Emit(s);
      }
      if (ok) {
        return;
      }
      ++sq_full;
      Reap();
    }
  }

  void Submit(uint64_t i, uint64_t due, uint64_t slot) {
    const Op& op = in_.ops[i];
    Slot& s = slots_[slot];
    s.req = i;
    s.done = 0;
    s.ok = true;
    s.submitted = NowNanos();
    s.due = due != 0 ? due : s.submitted;
    s.span = traced_ && i % 16 == 0 ? Tracer::NewId() : 0;
    const std::string& p = in_.pool[op.path];
    Sqe chain[4];
    uint32_t n = 0;
    switch (op.kind) {
      case OpKind::kLstat:
        chain[n++] = Sqe::Statx(kAtFdCwd, p, kAtSymlinkNoFollow, &s.st);
        break;
      case OpKind::kStatOpen:
        chain[n++] = Sqe::Statx(kAtFdCwd, p, kAtSymlinkNoFollow, &s.st);
        chain[n++] = Sqe::Open(kAtFdCwd, p, kORead);
        chain[n++] = Sqe::Close(0);
        break;
      case OpKind::kRename:
        chain[n++] = Sqe::Rename(kAtFdCwd, p, kAtFdCwd, in_.pool[op.arg]);
        break;
      case OpKind::kReplace:
        chain[n++] = Sqe::Open(kAtFdCwd, p, kOWrite | kOCreat | kOExcl, 0600);
        chain[n++] = Sqe::Close(0);
        chain[n++] = Sqe::Rename(kAtFdCwd, p, kAtFdCwd, in_.pool[op.arg]);
        break;
      case OpKind::kUnlink:
        chain[n++] = Sqe::Unlink(kAtFdCwd, p);
        break;
      case OpKind::kReaddir:
        chain[n++] = Sqe::Open(kAtFdCwd, p, kORead | kODirectory);
        chain[n++] = Sqe::Readdir(0, &s.d1, 1024);
        chain[n++] = Sqe::Readdir(0, &s.d2, 1024);
        chain[n++] = Sqe::Close(0);
        break;
      default:
        r_->Invalid(std::string("serve_mail: no request for ") +
                    KindName(op.kind));
        chain[n++] = Sqe();  // a kNop keeps the accounting whole
        break;
    }
    s.sqes = n;
    ++in_flight_;
    for (uint32_t k = 0; k < n; ++k) {
      chain[k].user_data = (slot << 3) | k;
      Push(chain[k], s.span);
    }
  }

  void SubmitNop() {
    Sqe nop;
    nop.user_data = kNopTag | nop_sent_.size();
    nop_sent_.push_back(NowNanos());
    ++nops_in_flight_;
    Push(nop, 0);
  }

  // Checks the k-th CQE of a request against the model: the stat's errno,
  // type and size, the rescan's entry count, and success (the open's
  // descriptor 0) everywhere else.
  bool Check(const Op& op, const Slot& s, uint32_t k, const Cqe& c) {
    switch (op.kind) {
      case OpKind::kLstat:
      case OpKind::kStatOpen:
        if (k == 0) {
          return c.res == -static_cast<int32_t>(op.err) &&
                 (op.err != 0 ||
                  (s.st.type == op.type && s.st.size == op.expect));
        }
        return c.res == 0;
      case OpKind::kReaddir:
        if (k == 1) {
          return c.res == static_cast<int32_t>(op.expect) &&
                 s.d1.size() == op.expect;
        }
        return c.res == 0;  // open, EOF, close
      default:
        return c.res == 0;
    }
  }

  void Reap() {
    Cqe cqes[64];
    const uint64_t t0 = NowNanos();
    const size_t got = srv_->Reap(0, cqes, 64);
    if (got == 0) {
      return;
    }
    const uint64_t now = NowNanos();
    if (traced_ && reaps_++ % 16 == 0) {
      Span sp;
      sp.id = Tracer::NewId();
      sp.name = "server.reap";
      sp.start_ns = t0;
      sp.end_ns = now;
      Tracer::Emit(sp);
    }
    for (size_t j = 0; j < got; ++j) {
      const Cqe& c = cqes[j];
      if ((c.user_data & kNopTag) != 0) {
        const uint64_t idx = c.user_data & ~kNopTag;
        nop_rtt.push_back(static_cast<double>(now - nop_sent_[idx]));
        --nops_in_flight_;
        continue;
      }
      const auto slot = static_cast<uint32_t>(c.user_data >> 3);
      const auto k = static_cast<uint32_t>(c.user_data & 7);
      Slot& s = slots_[slot];
      const Op& op = in_.ops[s.req];
      if (!Check(op, s, k, c)) {
        s.ok = false;
      }
      if (++s.done < s.sqes) {
        continue;
      }
      --in_flight_;
      r_->Attempt();
      if (!s.ok) {
        r_->Fail(std::string(KindName(op.kind)) + " " + in_.pool[op.path]);
      }
      const OpClass cls = ClassOf(op.kind);
      if (cls == OpClass::kMutate) {
        ++mutations;
      }
      if (s.span != 0) {
        Span sp;
        sp.id = s.span;
        sp.name = KindName(op.kind);
        sp.start_ns = s.submitted;
        sp.end_ns = now;
        Tracer::Emit(sp);
      }
      if (record_ == nullptr) {
        continue;
      }
      const uint64_t lat = now - s.due;
      if (cls == OpClass::kLookup) {
        record_->lookup.Add(lat);
      } else if (cls == OpClass::kReaddir) {
        record_->readdir.Add(lat);
      } else {
        record_->mutate.Add(lat);
      }
    }
  }

  const Inputs& in_;
  server::Server* srv_;
  const bool traced_;
  Report* r_;
  std::vector<Slot> slots_;
  size_t in_flight_ = 0;
  size_t nops_in_flight_ = 0;
  uint64_t reaps_ = 0;  // productive Reap calls; one in 16 gets a span
  std::vector<uint64_t> nop_sent_;
  Classes* record_ = nullptr;
};

struct Pass {
  double ops_per_s = 0;
  double setup_s = 0;
  uint64_t cache_bytes = 0;
};

Pass RunPass(const Inputs& in, const Options& opts, bool traced, Report* r) {
  Pass pass;
  std::unique_ptr<Setup> kept = TimedSetups(kSetups, &pass.setup_s, [&] {
    auto s = std::make_unique<Setup>();
    if (!SetupOnce(in, opts.seed, traced, s.get())) {
      s.reset();
    }
    return s;
  });
  if (kept == nullptr) {
    r->Invalid("serve_mail set-up failed");
    return pass;
  }
  Setup& s = *kept;
  Env& env = *s.env;
  // The spinning client, plus the shard coordinating an invalidation pass
  // with inval_max_workers - 1 pool threads.
  CheckThreadBudget("serve_mail",
                    1 + static_cast<unsigned>(
                            env.kernel->config().inval_max_workers));
  Tracer::Enable(traced);
  env.kernel->stats().ResetAll();
  const StorageMark before = MarkStorage(env);
  const uint64_t batches0 = s.srv->batches();
  const uint64_t completed0 = s.srv->ops_completed();

  // Every stretch of requests runs with the shard and the client on the
  // next pair of processors. Both spin, so each gets its own, and a
  // processor that the host slows for a while slows only its stretches.
  // Every request of a stretch completes before the shard stops.
  unsigned stretch = 0;
  auto on_next_pair = [&](auto&& body) {
    PinToProcessor(stretch);  // the shard thread inherits this processor
    s.srv->Start();
    PinToProcessor(stretch + 1);  // the client
    ++stretch;
    body();
    s.srv->Stop();
  };
  Client client(in, s.srv.get(), traced, r);
  // Saturation, in rounds so one disturbed stretch does not set the result.
  std::vector<double> rates;
  const uint64_t per_round = in.saturation / kSaturationRounds;
  std::string round_rates;
  for (int k = 0; k < kSaturationRounds; ++k) {
    const uint64_t b = per_round * static_cast<uint64_t>(k);
    const uint64_t e =
        k + 1 == kSaturationRounds ? in.saturation : b + per_round;
    uint64_t ns = 0;
    on_next_pair([&] { ns = client.ClosedLoop(b, e, kBatch, nullptr); });
    rates.push_back(static_cast<double>(e - b) * 1e9 /
                    static_cast<double>(ns));
    round_rates += " " + std::to_string(static_cast<int64_t>(rates.back()));
  }
  r->Line("saturation rounds (requests/s):%s", round_rates.c_str());
  pass.ops_per_s = Median(rates);
  const uint64_t per_block = (in.serial - in.saturation) / kBlocks;
  for (uint64_t k = 0; k < kBlocks; ++k) {
    const uint64_t b = in.saturation + per_block * k;
    const uint64_t e = k + 1 == kBlocks ? in.serial : b + per_block;
    on_next_pair([&] { client.ClosedLoop(b, e, 1, &client.serial); });
  }
  on_next_pair([&] { client.OpenLoop(in.serial, in.ops.size(), traced); });
  Unpin();
  Tracer::Enable(false);
  ReportMix(r, "serve_mail", in.ops, env.kernel->stats());

  // Sample accounting of the open-loop generator.
  std::vector<uint64_t> late = client.lateness;
  std::sort(late.begin(), late.end());
  size_t over = 0;
  for (uint64_t v : late) {
    over += v > kMaxLatenessNs ? 1 : 0;
  }
  const double p99_late =
      late.empty() ? 0 : static_cast<double>(late[late.size() * 99 / 100]);
  r->Line("open-loop generator lateness (due -> submit): p50=%.0f ns "
          "p99=%.0f ns max=%.0f ns; %zu of %zu over %.0f us",
          late.empty() ? 0.0 : static_cast<double>(late[late.size() / 2]),
          p99_late, late.empty() ? 0.0 : static_cast<double>(late.back()),
          over, late.size(), kMaxLatenessNs / 1e3);
  if (static_cast<double>(over) >
      kMaxLateShare * static_cast<double>(late.size())) {
    r->Invalid("open-loop generator fell behind its schedule");
  }
  for (const LatencyClass* c :
       {&client.open.lookup, &client.open.readdir, &client.open.mutate}) {
    const ClassSummary cs = Summarize(*c);
    r->Line("open loop at %.0f/s, %s: n=%zu p50=%.0f ns p95=%.0f ns "
            "p99=%.0f ns (%zu beyond)",
            kOfferedRate, c->name.c_str(), cs.n, cs.p50, cs.p95, cs.p99,
            cs.beyond_p99);
  }
  pass.cache_bytes = CacheBytes(env);
  AuditOrInvalidate(env, r, "after the measured phases");

  r->Line("cache_bytes=%llu",
          static_cast<unsigned long long>(pass.cache_bytes));
  if (!traced) {
    if (opts.trace) {
      return pass;  // the untraced repeat only supplies the overhead base
    }
    r->Metric("ops_per_s", pass.ops_per_s, "ops/s");
    ReportClass(r, "serve_mail", "lookup", client.serial.lookup, true,
                kBlocks);
    ReportClass(r, "serve_mail", "readdir", client.serial.readdir, false,
                kBlocks);
    ReportClass(r, "serve_mail", "mutate", client.serial.mutate, false,
                kBlocks);
    r->Metric("cache_bytes", static_cast<double>(pass.cache_bytes), "bytes");
    r->Metric("setup_s", pass.setup_s, "s");
    return pass;
  }

  RingProbe ring;  // measured on the workload's own traffic
  ring.submit_ns = static_cast<double>(client.submit_ns) /
                   static_cast<double>(client.submit_calls);
  ring.nop_rtt_ns = Median(client.nop_rtt);
  ring.ops_per_batch =
      static_cast<double>(s.srv->ops_completed() - completed0) /
      static_cast<double>(s.srv->batches() - batches0);
  ring.sq_full_retries = static_cast<double>(client.sq_full);
  TracedPhase tp;
  for (uint32_t p : in.probe_paths) {
    tp.sample.push_back(in.pool[p]);
  }
  tp.before = before;
  tp.ops = in.ops.size();
  tp.mutations = client.mutations;
  tp.inval_pass_ns =
      ProbeInvalPass(env, in.pool[in.inval_a], in.pool[in.inval_b], 64);
  tp.ring = &ring;
  ReportTracedLayers(r, env, opts.seed, tp);
  return pass;
}

}  // namespace

void RunServeMail(const Options& opts, Report* r) {
  const Inputs in = Generate(opts.seed, opts.seconds);
  Digest digest;
  DigestOps(&digest, in.ops, in.pool);
  for (uint64_t a : in.arrival_ns) {
    digest.AddValue(a);
  }
  r->Line("serve_mail: %zu folders x %zu messages, %zu web files, %llu "
          "saturation + %llu serial + %zu open-loop requests at %.0f/s; "
          "stream digest %016llx",
          kFolders, kMessages, in.www.files.size(),
          static_cast<unsigned long long>(in.saturation),
          static_cast<unsigned long long>(in.serial - in.saturation),
          in.arrival_ns.size(), kOfferedRate,
          static_cast<unsigned long long>(digest.value()));
  const Pass plain = RunPass(in, opts, false, r);
  if (!opts.trace) {
    return;
  }
  const Pass traced = RunPass(in, opts, true, r);
  FinishTrace(opts, r, plain.ops_per_s, traced.ops_per_s);
}

}  // namespace perfbench
