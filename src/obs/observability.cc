#include "src/obs/observability.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <string_view>

namespace dircache {

namespace {

using obs::Appendf;

// Obs-local seed for the heat-sketch hash family (see State::heat_key).
constexpr uint64_t kHeatHashSeed = 0x0b5e7ull;

// Parent directory of an observed path, for the miss-directory sketch.
std::string_view DirnameOf(std::string_view path) {
  while (path.size() > 1 && path.back() == '/') {
    path.remove_suffix(1);
  }
  size_t pos = path.rfind('/');
  if (pos == std::string_view::npos) {
    return ".";
  }
  if (pos == 0) {
    return "/";
  }
  return path.substr(0, pos);
}

// Drains one ring per shard and keeps the `limit` newest records by `time`,
// oldest first.
template <typename Record>
std::vector<Record> NewestRecords(
    const std::vector<std::unique_ptr<obs::SeqRing<Record>>>& rings,
    uint64_t Record::*time, size_t limit) {
  std::vector<Record> out;
  for (const auto& ring : rings) {
    ring->Drain(&out);
  }
  std::sort(out.begin(), out.end(), [time](const Record& a, const Record& b) {
    return a.*time < b.*time;
  });
  if (out.size() > limit) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(limit));
  }
  return out;
}

// A request starts at its SQE submit, or at execute-begin on the direct
// path.
uint64_t TraceStart(const obs::RequestTrace& t) {
  return t.submit_ns != 0 ? t.submit_ns : t.begin_ns;
}

// Where one traced request's time went, for the attributor and the flight
// recorder: the ring wait and batch-position cost from the SQE timestamps
// (both 0 on the direct path), each layer's share from the child spans, and
// as "other" the execute-side remainder no layer claimed. io_ns is
// *simulated* device time, so the clamp matters — a cold walk can attribute
// more virtual time than real time elapsed.
obs::OpAttribution AttributeTrace(const obs::RequestTrace& t) {
  obs::OpAttribution a;
  a.traced = 1;
  const uint64_t start = TraceStart(t);
  a.total_ns = t.complete_ns >= start ? t.complete_ns - start : 0;
  if (t.submit_ns != 0 && t.dequeue_ns > t.submit_ns) {
    a.queue_ns = t.dequeue_ns - t.submit_ns;
  }
  if (t.dequeue_ns != 0 && t.begin_ns > t.dequeue_ns) {
    a.dispatch_ns = t.begin_ns - t.dequeue_ns;
  }
  for (uint32_t i = 0; i < t.span_count; ++i) {
    const obs::TraceSpan& sp = t.spans[i];
    switch (sp.kind) {
      case obs::SpanKind::kWalkFast:
        a.walk_fast_ns += sp.duration_ns;
        break;
      case obs::SpanKind::kWalkSlow:
        a.walk_slow_ns += sp.duration_ns;
        break;
      case obs::SpanKind::kIo:
        a.io_ns += sp.duration_ns;
        break;
      case obs::SpanKind::kInval:
        a.inval_ns += sp.duration_ns;
        break;
      case obs::SpanKind::kGate:
        ++a.gate_waits;
        break;
      case obs::SpanKind::kEpochRetry:
        ++a.epoch_retries;
        break;
      case obs::SpanKind::kWalkShortcut:
        ++a.shortcut_resumes;
        break;
      default:
        break;
    }
  }
  const uint64_t exec_ns =
      t.complete_ns >= t.begin_ns ? t.complete_ns - t.begin_ns : 0;
  const uint64_t attributed =
      a.walk_fast_ns + a.walk_slow_ns + a.io_ns + a.inval_ns;
  a.other_ns = exec_ns > attributed ? exec_ns - attributed : 0;
  a.spans_dropped = t.spans_dropped;
  return a;
}

}  // namespace

Observability::State::State(const ObsConfig& c)
    : cfg(c),
      heat_key(kHeatHashSeed),
      heat_hasher(&heat_key),
      hot_paths(obs::kHeatSlots),
      slow_paths(obs::kHeatSlots),
      miss_dirs(obs::kHeatSlots) {
  for (size_t i = 0; i < kStatsShardCount; ++i) {
    journals.push_back(
        std::make_unique<obs::SeqRing<obs::JournalEventRecord>>(
            obs::kJournalRingEvents));
    span_rings.push_back(std::make_unique<obs::SeqRing<obs::SpanEvent>>(
        obs::kSpanRingEvents));
    flight.push_back(std::make_unique<FlightRecorder>());
  }
}

Observability::~Observability() = default;

void Observability::Configure(const ObsConfig& cfg) {
  if (!cfg.enabled) {
    state_.reset();
    return;
  }
  state_ = std::make_unique<State>(cfg);
  if (cfg.sampler) {
    // The callbacks capture the raw State / this: the sampler is the
    // State's last member, so its thread is joined before anything either
    // callback reads dies.
    State* s = state_.get();
    state_->sampler = std::make_unique<obs::Sampler>(
        cfg, [s] { return CoreSample(*s); },
        [this](const char* reason) { DumpFlightRecorder(reason); });
  }
}

void Observability::CompleteTrace(const obs::RequestTrace& t) {
  if (!enabled() || t.trace_id == 0) {
    return;
  }
  State& s = *state_;
  const uint32_t shard = internal::StatsShardId();
  obs::SeqRing<obs::SpanEvent>& ring = *s.span_rings[shard];
  auto record = [&](obs::SpanKind kind, uint64_t begin_ns,
                    uint64_t duration_ns, uint64_t arg0, uint64_t arg1) {
    ring.Push({kind, t.op, shard, t.trace_id, begin_ns, duration_ns, arg0,
               arg1});
  };

  // The framing spans are synthesized from the SQE timestamps: the whole
  // request, then the ring wait and the batch-position cost when the entry
  // travelled through a server shard.
  const obs::OpAttribution a = AttributeTrace(t);
  record(obs::SpanKind::kRequest, TraceStart(t), a.total_ns,
         static_cast<uint64_t>(static_cast<int64_t>(t.res)), t.span_count);
  if (a.queue_ns != 0) {
    record(obs::SpanKind::kQueue, t.submit_ns, a.queue_ns, 0, 0);
  }
  if (a.dispatch_ns != 0) {
    record(obs::SpanKind::kDispatch, t.dequeue_ns, a.dispatch_ns, 0, 0);
  }
  for (uint32_t i = 0; i < t.span_count; ++i) {
    const obs::TraceSpan& sp = t.spans[i];
    record(sp.kind, sp.begin_ns, sp.duration_ns, sp.arg0, sp.arg1);
  }

  State::AttributionCell& cell =
      s.attribution[static_cast<size_t>(t.op) < obs::kTraceOpCount
                        ? static_cast<size_t>(t.op)
                        : static_cast<size_t>(obs::TraceOp::kOther)];
  cell.traced.fetch_add(a.traced, std::memory_order_relaxed);
  cell.total_ns.fetch_add(a.total_ns, std::memory_order_relaxed);
  cell.queue_ns.fetch_add(a.queue_ns, std::memory_order_relaxed);
  cell.dispatch_ns.fetch_add(a.dispatch_ns, std::memory_order_relaxed);
  cell.walk_fast_ns.fetch_add(a.walk_fast_ns, std::memory_order_relaxed);
  cell.walk_slow_ns.fetch_add(a.walk_slow_ns, std::memory_order_relaxed);
  cell.io_ns.fetch_add(a.io_ns, std::memory_order_relaxed);
  cell.inval_ns.fetch_add(a.inval_ns, std::memory_order_relaxed);
  cell.other_ns.fetch_add(a.other_ns, std::memory_order_relaxed);
  cell.gate_waits.fetch_add(a.gate_waits, std::memory_order_relaxed);
  cell.epoch_retries.fetch_add(a.epoch_retries, std::memory_order_relaxed);
  cell.shortcut_resumes.fetch_add(a.shortcut_resumes,
                                  std::memory_order_relaxed);
  cell.spans_dropped.fetch_add(a.spans_dropped, std::memory_order_relaxed);

  State::FlightRecorder& fr = *s.flight[shard];
  std::lock_guard<std::mutex> lock(fr.mu);
  fr.ring[fr.seq % fr.ring.size()] = t;
  ++fr.seq;
}

void Observability::RecordWalkSlow(obs::WalkOutcome outcome,
                                   uint64_t latency_ns,
                                   std::string_view path) {
  State& s = *state_;
  s.outcomes[static_cast<size_t>(outcome)].Add();
  s.ops[static_cast<size_t>(obs::ObsOp::kLookup)].Record(latency_ns);
  if (path.empty()) {
    return;
  }
  if (path.size() > PathHashKey::kMaxPathLen) {
    path = path.substr(0, PathHashKey::kMaxPathLen);
  }
  HashState h = s.heat_hasher.Init();
  s.heat_hasher.Update(h, path);
  uint64_t key = s.heat_hasher.Finalize(h).words[0];
  switch (outcome) {
    case obs::WalkOutcome::kFastHit:
    case obs::WalkOutcome::kFastNegative:
      s.hot_paths.Record(key, path);
      return;
    case obs::WalkOutcome::kFastMissDlht:
    case obs::WalkOutcome::kFastMissPccCred:
    case obs::WalkOutcome::kFastMissPccStale:
    case obs::WalkOutcome::kFastMissPccEpoch:
    case obs::WalkOutcome::kFastMissStructural:
    case obs::WalkOutcome::kFastMissShortcutHit:
    case obs::WalkOutcome::kFastMissShortcutPartial:
    case obs::WalkOutcome::kFastMissShortcutNone: {
      std::string_view dir = DirnameOf(path);
      HashState dh = s.heat_hasher.Init();
      s.heat_hasher.Update(dh, dir);
      s.miss_dirs.Record(s.heat_hasher.Finalize(dh).words[0], dir);
      break;  // a fastpath miss also ran the slowpath: fall through below
    }
    default:
      break;
  }
  s.slow_paths.Record(key, path);
}

obs::ObsSnapshot Observability::CoreSample(const State& s) {
  obs::ObsSnapshot snap;
  snap.enabled = true;
  for (size_t op = 0; op < obs::kObsOpCount; ++op) {
    snap.ops[op] = s.ops[op].Merge();
  }
  for (size_t o = 0; o < obs::kWalkOutcomeCount; ++o) {
    snap.outcomes[o] = s.outcomes[o].value();
  }
  return snap;
}

obs::ObsSnapshot Observability::Snapshot(const CacheStats* stats) const {
  obs::ObsSnapshot snap;
  snap.enabled = enabled();
  if (stats != nullptr) {
    stats->ForEachCounter([&snap](const char* label,
                                  const ShardedCounter& c) {
      snap.counters.emplace_back(label, c.value());
    });
  }
  if (!enabled()) {
    return snap;
  }
  const State& s = *state_;
  obs::ObsSnapshot core = CoreSample(s);
  snap.ops = core.ops;
  snap.outcomes = core.outcomes;
  snap.heat.hot_paths = s.hot_paths.Drain(obs::kHeatSnapshotTopK);
  snap.heat.slow_paths = s.slow_paths.Drain(obs::kHeatSnapshotTopK);
  snap.heat.miss_dirs = s.miss_dirs.Drain(obs::kHeatSnapshotTopK);
  snap.journal =
      NewestRecords(s.journals, &obs::JournalEventRecord::begin_ns,
                    obs::kJournalSnapshotLimit);
  // v3 sections: drained span rings, attribution totals, dump count.
  snap.spans = NewestRecords(s.span_rings, &obs::SpanEvent::begin_ns,
                             obs::kSpanSnapshotLimit);
  for (size_t i = 0; i < obs::kTraceOpCount; ++i) {
    const State::AttributionCell& c = s.attribution[i];
    obs::OpAttribution& a = snap.attribution[i];
    a.traced = c.traced.load(std::memory_order_relaxed);
    a.total_ns = c.total_ns.load(std::memory_order_relaxed);
    a.queue_ns = c.queue_ns.load(std::memory_order_relaxed);
    a.dispatch_ns = c.dispatch_ns.load(std::memory_order_relaxed);
    a.walk_fast_ns = c.walk_fast_ns.load(std::memory_order_relaxed);
    a.walk_slow_ns = c.walk_slow_ns.load(std::memory_order_relaxed);
    a.io_ns = c.io_ns.load(std::memory_order_relaxed);
    a.inval_ns = c.inval_ns.load(std::memory_order_relaxed);
    a.other_ns = c.other_ns.load(std::memory_order_relaxed);
    a.gate_waits = c.gate_waits.load(std::memory_order_relaxed);
    a.epoch_retries = c.epoch_retries.load(std::memory_order_relaxed);
    a.shortcut_resumes = c.shortcut_resumes.load(std::memory_order_relaxed);
    a.spans_dropped = c.spans_dropped.load(std::memory_order_relaxed);
  }
  snap.flight_dumps = s.flight_dumps.load(std::memory_order_relaxed);
  snap.timeline = Timeline();
  return snap;
}

std::string Observability::FlightRecorderReport() const {
  std::string out;
  if (!enabled()) {
    out = "flight recorder: observability disabled\n";
    return out;
  }
  const State& s = *state_;
  std::vector<obs::RequestTrace> entries;
  for (const auto& frp : s.flight) {
    const State::FlightRecorder& fr = *frp;
    std::lock_guard<std::mutex> lock(fr.mu);
    const size_t n = fr.seq < fr.ring.size() ? fr.seq : fr.ring.size();
    for (size_t i = 0; i < n; ++i) {
      entries.push_back(fr.ring[i]);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const obs::RequestTrace& a, const obs::RequestTrace& b) {
              return a.complete_ns < b.complete_ns;
            });
  Appendf(&out, "flight recorder: %zu traced request(s), %" PRIu64
                " dump(s) so far\n",
          entries.size(), s.flight_dumps.load(std::memory_order_relaxed));
  for (const obs::RequestTrace& t : entries) {
    const uint64_t start = TraceStart(t);
    const obs::OpAttribution a = AttributeTrace(t);
    Appendf(&out,
            "  request id=%016" PRIx64 " op=%s res=%d shard=%u%s total=%" PRIu64
            "ns spans=%u dropped=%u\n",
            t.trace_id, obs::TraceOpName(t.op), t.res, t.shard,
            t.forced ? " forced" : "", a.total_ns, t.span_count,
            t.spans_dropped);
    // Per-request attribution: the breakdown the dump exists to ship.
    Appendf(&out,
            "    attribution: queue=%" PRIu64 " dispatch=%" PRIu64
            " walk_fast=%" PRIu64 " walk_slow=%" PRIu64 " io=%" PRIu64
            " inval=%" PRIu64 " other=%" PRIu64 "\n",
            a.queue_ns, a.dispatch_ns, a.walk_fast_ns, a.walk_slow_ns,
            a.io_ns, a.inval_ns, a.other_ns);
    for (uint32_t i = 0; i < t.span_count; ++i) {
      const obs::TraceSpan& sp = t.spans[i];
      Appendf(&out,
              "    span %-11s +%-10" PRIu64 " dur=%-10" PRIu64
              " a0=%" PRIu64 " a1=%" PRIu64 "\n",
              obs::SpanKindName(sp.kind),
              sp.begin_ns >= start ? sp.begin_ns - start : 0, sp.duration_ns,
              sp.arg0, sp.arg1);
    }
  }
  return out;
}

void Observability::DumpFlightRecorder(const char* reason) {
  if (!enabled()) {
    return;
  }
  state_->flight_dumps.fetch_add(1, std::memory_order_relaxed);
  std::string report = FlightRecorderReport();
  std::fprintf(stderr, "[dircache obs] flight-recorder dump (%s):\n%s",
               reason, report.c_str());
}

void Observability::ClearWatchdogFlags() {
  if (!enabled() || state_->sampler == nullptr) {
    return;
  }
  state_->sampler->ClearWatchdogFlags();
}

obs::ObsTimeline Observability::Timeline() const {
  if (!enabled() || state_->sampler == nullptr) {
    return obs::ObsTimeline{};
  }
  return state_->sampler->Timeline();
}

void Observability::Reset() {
  if (!enabled()) {
    return;
  }
  for (auto& h : state_->ops) {
    h.Reset();
  }
  for (auto& c : state_->outcomes) {
    c.Reset();
  }
  state_->hot_paths.Reset();
  state_->slow_paths.Reset();
  state_->miss_dirs.Reset();
  for (auto& cell : state_->attribution) {
    cell.traced.store(0, std::memory_order_relaxed);
    cell.total_ns.store(0, std::memory_order_relaxed);
    cell.queue_ns.store(0, std::memory_order_relaxed);
    cell.dispatch_ns.store(0, std::memory_order_relaxed);
    cell.walk_fast_ns.store(0, std::memory_order_relaxed);
    cell.walk_slow_ns.store(0, std::memory_order_relaxed);
    cell.io_ns.store(0, std::memory_order_relaxed);
    cell.inval_ns.store(0, std::memory_order_relaxed);
    cell.other_ns.store(0, std::memory_order_relaxed);
    cell.gate_waits.store(0, std::memory_order_relaxed);
    cell.epoch_retries.store(0, std::memory_order_relaxed);
    cell.shortcut_resumes.store(0, std::memory_order_relaxed);
    cell.spans_dropped.store(0, std::memory_order_relaxed);
  }
  // Journal, span, and flight-recorder rings are not cleared: the
  // "most recent events" windows are already self-evicting, and zeroing
  // slots under concurrent writers buys nothing. The sampler's clamped
  // deltas (see HistogramSummary::Since) absorb the counter reset.
}

}  // namespace dircache
