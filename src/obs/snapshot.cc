#include "src/obs/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

namespace dircache {
namespace obs {

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) {
    out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                         ? static_cast<size_t>(n)
                         : sizeof(buf) - 1);
  }
}

namespace {

void AppendOpJson(std::string* out, const HistogramSummary& h) {
  Appendf(out,
          "{\"count\":%" PRIu64 ",\"sum_ns\":%" PRIu64
          ",\"mean_ns\":%.1f,\"p50_ns\":%" PRIu64 ",\"p95_ns\":%" PRIu64
          ",\"p99_ns\":%" PRIu64 ",\"max_ns\":%" PRIu64 "}",
          h.count, h.sum_ns, h.MeanNs(), h.P50(), h.P95(), h.P99(), h.max_ns);
}

void AppendJournalEventJson(std::string* out, const JournalEventRecord& ev) {
  Appendf(out,
          "{\"type\":\"%s\",\"shard\":%u,\"begin_ns\":%" PRIu64
          ",\"duration_ns\":%" PRIu64 ",\"%s\":%" PRIu64 ",\"%s\":%" PRIu64,
          JournalEventName(ev.type), ev.shard, ev.begin_ns, ev.duration_ns,
          JournalArgName(ev.type, 0), ev.arg0, JournalArgName(ev.type, 1),
          ev.arg1);
  if (JournalArgCount(ev.type) > 2) {
    Appendf(out, ",\"%s\":%" PRIu64 ",\"%s\":%" PRIu64,
            JournalArgName(ev.type, 2), ev.arg2, JournalArgName(ev.type, 3),
            ev.arg3);
  }
  *out += "}";
}

void AppendSpanJson(std::string* out, const SpanEvent& ev) {
  Appendf(out,
          "{\"kind\":\"%s\",\"op\":\"%s\",\"shard\":%u,\"trace_id\":%" PRIu64,
          SpanKindName(ev.kind), TraceOpName(ev.op), ev.shard, ev.trace_id);
  Appendf(out,
          ",\"begin_ns\":%" PRIu64 ",\"duration_ns\":%" PRIu64
          ",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64 "}",
          ev.begin_ns, ev.duration_ns, ev.arg0, ev.arg1);
}

// Split across Appendf calls: 12 wide fields overflow the 256-byte stack
// buffer in the worst case.
void AppendAttributionJson(std::string* out, const OpAttribution& a) {
  Appendf(out,
          "{\"traced\":%" PRIu64 ",\"total_ns\":%" PRIu64
          ",\"queue_ns\":%" PRIu64 ",\"dispatch_ns\":%" PRIu64
          ",\"walk_fast_ns\":%" PRIu64 ",\"walk_slow_ns\":%" PRIu64,
          a.traced, a.total_ns, a.queue_ns, a.dispatch_ns, a.walk_fast_ns,
          a.walk_slow_ns);
  Appendf(out,
          ",\"io_ns\":%" PRIu64 ",\"inval_ns\":%" PRIu64
          ",\"other_ns\":%" PRIu64 ",\"gate_waits\":%" PRIu64
          ",\"epoch_retries\":%" PRIu64 ",\"shortcut_resumes\":%" PRIu64
          ",\"spans_dropped\":%" PRIu64 "}",
          a.io_ns, a.inval_ns, a.other_ns, a.gate_waits, a.epoch_retries,
          a.shortcut_resumes, a.spans_dropped);
}

}  // namespace

std::string ObsSnapshot::ToText() const {
  std::string out;
  Appendf(&out, "obs snapshot (schema v%d, %s)\n", schema_version,
          enabled ? "enabled" : "disabled");
  Appendf(&out, "  latency (ns):\n");
  for (size_t i = 0; i < kObsOpCount; ++i) {
    const HistogramSummary& h = ops[i];
    if (h.count == 0) {
      continue;
    }
    Appendf(&out,
            "    %-10s n=%-10" PRIu64 " p50=%-8" PRIu64 " p95=%-8" PRIu64
            " p99=%-8" PRIu64 " max=%" PRIu64 "\n",
            ObsOpName(static_cast<ObsOp>(i)), h.count, h.P50(), h.P95(),
            h.P99(), h.max_ns);
  }
  Appendf(&out, "  walk outcomes (%" PRIu64 " walks):\n", TotalWalks());
  for (size_t i = 0; i < kWalkOutcomeCount; ++i) {
    if (outcomes[i] == 0) {
      continue;
    }
    Appendf(&out, "    %-20s %" PRIu64 "\n",
            WalkOutcomeName(static_cast<WalkOutcome>(i)), outcomes[i]);
  }
  if (!journal.empty()) {
    Appendf(&out, "  coherence journal (oldest first):\n");
    for (const JournalEventRecord& ev : journal) {
      Appendf(&out,
              "    %-18s shard=%-2u dur=%-10" PRIu64 "ns %s=%" PRIu64
              " %s=%" PRIu64 "\n",
              JournalEventName(ev.type), ev.shard, ev.duration_ns,
              JournalArgName(ev.type, 0), ev.arg0,
              JournalArgName(ev.type, 1), ev.arg1);
    }
  }
  if (!spans.empty()) {
    Appendf(&out, "  recent request spans (oldest first):\n");
    for (const SpanEvent& ev : spans) {
      Appendf(&out,
              "    %-11s op=%-8s shard=%-2u id=%016" PRIx64 " dur=%-10" PRIu64
              "ns a0=%" PRIu64 " a1=%" PRIu64 "\n",
              SpanKindName(ev.kind), TraceOpName(ev.op), ev.shard,
              ev.trace_id, ev.duration_ns, ev.arg0, ev.arg1);
    }
  }
  {
    uint64_t traced = 0;
    for (const OpAttribution& a : attribution) {
      traced += a.traced;
    }
    if (traced != 0) {
      Appendf(&out,
              "  attribution (%" PRIu64 " traced requests, %" PRIu64
              " dumps):\n",
              traced, flight_dumps);
      for (size_t i = 0; i < kTraceOpCount; ++i) {
        const OpAttribution& a = attribution[i];
        if (a.traced == 0) {
          continue;
        }
        Appendf(&out,
                "    %-8s n=%-6" PRIu64 " total=%-10" PRIu64
                " queue=%-8" PRIu64 " dispatch=%-8" PRIu64 "\n",
                TraceOpName(static_cast<TraceOp>(i)), a.traced, a.total_ns,
                a.queue_ns, a.dispatch_ns);
        Appendf(&out,
                "             walk_fast=%-8" PRIu64 " walk_slow=%-8" PRIu64
                " io=%-8" PRIu64 " inval=%-8" PRIu64 " other=%-8" PRIu64
                "\n",
                a.walk_fast_ns, a.walk_slow_ns, a.io_ns, a.inval_ns,
                a.other_ns);
        if (a.gate_waits != 0 || a.epoch_retries != 0 ||
            a.shortcut_resumes != 0 || a.spans_dropped != 0) {
          Appendf(&out,
                  "             gate_waits=%" PRIu64 " epoch_retries=%" PRIu64
                  " shortcut_resumes=%" PRIu64 " spans_dropped=%" PRIu64 "\n",
                  a.gate_waits, a.epoch_retries, a.shortcut_resumes,
                  a.spans_dropped);
        }
      }
    }
  }
  if (timeline.active) {
    Appendf(&out,
            "  timeline (every %" PRIu64 "ms, %zu retained of %" PRIu64
            " taken%s%s):\n",
            timeline.interval_ms, timeline.samples.size(),
            timeline.samples_taken,
            timeline.hit_rate_collapse ? ", HIT-RATE COLLAPSE" : "",
            timeline.invalidation_spike ? ", INVALIDATION SPIKE" : "");
    for (const TimelineSample& s : timeline.samples) {
      Appendf(&out,
              "    +%8.1fms walks=%-8" PRIu64 " hit=%5.1f%% slow=%-6" PRIu64
              " inval=%-5" PRIu64 " p50=%-7" PRIu64 " p99=%" PRIu64 "\n",
              static_cast<double>(s.t_ns) / 1e6, s.walks, s.hit_rate * 100.0,
              s.slow_walks, s.invalidations, s.p50_ns, s.p99_ns);
    }
  }
  if (memory.dentry_count != 0 || memory.dlht_buckets != 0) {
    Appendf(&out,
            "  memory: %" PRIu64 " bytes accounted%s (budget %" PRIu64
            ")\n",
            memory.total_bytes,
            memory.dlht_resize_in_flight ? ", DLHT resize in flight" : "",
            memory.budget_bytes);
    Appendf(&out,
            "    dentries=%" PRIu64 " (%" PRIu64 " neg, %" PRIu64
            " bytes) dlht=%" PRIu64 " buckets/%" PRIu64 " entries/%" PRIu64
            " bytes\n",
            memory.dentry_count, memory.negative_dentries,
            memory.dentry_bytes, memory.dlht_buckets, memory.dlht_entries,
            memory.dlht_bytes);
    Appendf(&out,
            "    pcc=%" PRIu64 " tables/%" PRIu64 "/%" PRIu64
            " entries/%" PRIu64 " bytes\n",
            memory.pcc_count, memory.pcc_entries, memory.pcc_capacity,
            memory.pcc_bytes);
    for (const TenantMemory& t : memory.tenants) {
      Appendf(&out,
              "    tenant %-10u dentries=%-8" PRIu64 " negatives=%" PRIu64
              "\n",
              t.tenant, t.dentries, t.negatives);
    }
  }
  if (!counters.empty()) {
    Appendf(&out, "  counters:\n");
    for (const auto& [label, value] : counters) {
      Appendf(&out, "    %-16s %" PRIu64 "\n", label.c_str(), value);
    }
  }
  return out;
}

std::string ObsSnapshot::ToJson() const {
  std::string out;
  Appendf(&out, "{\"schema_version\":%d,\"enabled\":%s,\"ops\":{",
          schema_version, enabled ? "true" : "false");
  for (size_t i = 0; i < kObsOpCount; ++i) {
    Appendf(&out, "%s\"%s\":", i == 0 ? "" : ",",
            ObsOpName(static_cast<ObsOp>(i)));
    AppendOpJson(&out, ops[i]);
  }
  out += "},\"walk_outcomes\":{";
  for (size_t i = 0; i < kWalkOutcomeCount; ++i) {
    Appendf(&out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
            WalkOutcomeName(static_cast<WalkOutcome>(i)), outcomes[i]);
  }
  out += "},\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    Appendf(&out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
            counters[i].first.c_str(), counters[i].second);
  }
  // v2 sections follow every v1 field (additions only; see the version-bump
  // note in snapshot.h).
  Appendf(&out,
          "},\"timeline\":{\"active\":%s,\"interval_ms\":%" PRIu64
          ",\"samples_taken\":%" PRIu64
          ",\"hit_rate_collapse\":%s,\"invalidation_spike\":%s,\"samples\":[",
          timeline.active ? "true" : "false", timeline.interval_ms,
          timeline.samples_taken,
          timeline.hit_rate_collapse ? "true" : "false",
          timeline.invalidation_spike ? "true" : "false");
  for (size_t i = 0; i < timeline.samples.size(); ++i) {
    const TimelineSample& s = timeline.samples[i];
    Appendf(&out,
            "%s{\"t_ns\":%" PRIu64 ",\"window_ns\":%" PRIu64
            ",\"walks\":%" PRIu64 ",\"fast_hits\":%" PRIu64
            ",\"slow_walks\":%" PRIu64 ",\"invalidations\":%" PRIu64
            ",\"p50_ns\":%" PRIu64 ",\"p95_ns\":%" PRIu64
            ",\"p99_ns\":%" PRIu64 ",\"hit_rate\":%.4f}",
            i == 0 ? "" : ",", s.t_ns, s.window_ns, s.walks, s.fast_hits,
            s.slow_walks, s.invalidations, s.p50_ns, s.p95_ns, s.p99_ns,
            s.hit_rate);
  }
  out += "]},\"journal\":[";
  for (size_t i = 0; i < journal.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    AppendJournalEventJson(&out, journal[i]);
  }
  // v3 sections follow every v2 field (additions only; see the version-bump
  // note in snapshot.h).
  out += "],\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    AppendSpanJson(&out, spans[i]);
  }
  out += "],\"attribution\":{";
  for (size_t i = 0; i < kTraceOpCount; ++i) {
    Appendf(&out, "%s\"%s\":", i == 0 ? "" : ",",
            TraceOpName(static_cast<TraceOp>(i)));
    AppendAttributionJson(&out, attribution[i]);
  }
  // v4 section (additions only; see the version-bump note in snapshot.h).
  out += "},\"memory\":{";
  Appendf(&out,
          "\"budget_bytes\":%" PRIu64 ",\"total_bytes\":%" PRIu64
          ",\"dentry_count\":%" PRIu64 ",\"dentry_bytes\":%" PRIu64
          ",\"negative_dentries\":%" PRIu64,
          memory.budget_bytes, memory.total_bytes, memory.dentry_count,
          memory.dentry_bytes, memory.negative_dentries);
  Appendf(&out,
          ",\"dlht_bytes\":%" PRIu64 ",\"dlht_buckets\":%" PRIu64
          ",\"dlht_entries\":%" PRIu64 ",\"dlht_resize_in_flight\":%s",
          memory.dlht_bytes, memory.dlht_buckets, memory.dlht_entries,
          memory.dlht_resize_in_flight ? "true" : "false");
  Appendf(&out,
          ",\"pcc_count\":%" PRIu64 ",\"pcc_bytes\":%" PRIu64
          ",\"pcc_entries\":%" PRIu64 ",\"pcc_capacity\":%" PRIu64
          ",\"tenants\":[",
          memory.pcc_count, memory.pcc_bytes, memory.pcc_entries,
          memory.pcc_capacity);
  for (size_t i = 0; i < memory.tenants.size(); ++i) {
    const TenantMemory& t = memory.tenants[i];
    Appendf(&out,
            "%s{\"tenant\":%u,\"dentries\":%" PRIu64 ",\"negatives\":%" PRIu64
            "}",
            i == 0 ? "" : ",", t.tenant, t.dentries, t.negatives);
  }
  Appendf(&out, "]},\"flight_dumps\":%" PRIu64 "}", flight_dumps);
  return out;
}

std::string ObsSnapshot::ToChromeTrace() const {
  // The Trace Event "JSON Array Format": every span renders as one complete
  // ("X") event with microsecond ts/dur. The journal and the request spans
  // share the timeline; tid carries the recording shard so concurrent
  // writers land on separate tracks.
  struct Row {
    uint64_t ts_ns;
    std::string json;
  };
  std::vector<Row> rows;
  rows.reserve(journal.size() + spans.size());
  for (const JournalEventRecord& ev : journal) {
    std::string j;
    Appendf(&j,
            "{\"name\":\"%s\",\"cat\":\"coherence\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"%s\":%" PRIu64 ",\"%s\":%" PRIu64,
            JournalEventName(ev.type),
            static_cast<double>(ev.begin_ns) / 1e3,
            static_cast<double>(ev.duration_ns) / 1e3, ev.shard + 1,
            JournalArgName(ev.type, 0), ev.arg0,
            JournalArgName(ev.type, 1), ev.arg1);
    if (JournalArgCount(ev.type) > 2) {
      Appendf(&j, ",\"%s\":%" PRIu64 ",\"%s\":%" PRIu64,
              JournalArgName(ev.type, 2), ev.arg2,
              JournalArgName(ev.type, 3), ev.arg3);
    }
    j += "}}";
    rows.push_back({ev.begin_ns, std::move(j)});
  }
  // Request-trace spans (schema v3): one track per recording shard, offset
  // past the journal tids. All spans of a trace land on the same tid, so
  // ts-containment renders the children nested inside their kRequest span.
  // A walk span (arg0 = components, arg1 = the WalkOutcome code) takes
  // category `walk`, so walks filter apart from the request framing.
  for (const SpanEvent& ev : spans) {
    std::string j;
    if (ev.kind == SpanKind::kRequest) {
      Appendf(&j, "{\"name\":\"req:%s\",", TraceOpName(ev.op));
    } else {
      Appendf(&j, "{\"name\":\"%s\",", SpanKindName(ev.kind));
    }
    const bool walk =
        ev.kind == SpanKind::kWalkFast || ev.kind == SpanKind::kWalkSlow;
    Appendf(&j,
            "\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
            "\"pid\":1,\"tid\":%u,\"args\":{\"trace_id\":%" PRIu64
            ",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64 "}}",
            walk ? "walk" : "request", static_cast<double>(ev.begin_ns) / 1e3,
            static_cast<double>(ev.duration_ns) / 1e3, 100 + ev.shard,
            ev.trace_id, ev.arg0, ev.arg1);
    rows.push_back({ev.begin_ns, std::move(j)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ts_ns < b.ts_ns; });
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += rows[i].json;
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace dircache
