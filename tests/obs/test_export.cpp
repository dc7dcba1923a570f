// Exporters: Prometheus text shape, CSV escaping (RFC 4180 quote doubling),
// and the Chrome trace_event JSON structure of the audit trail.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lvrm::obs {
namespace {

Snapshot sample_snapshot() {
  MetricsRegistry reg;
  reg.counter("rx_total").add(100);
  reg.gauge("depth", "vr=\"0\"").set(7.0);
  LogHistogram h = reg.histogram("lat_ns");
  for (int i = 0; i < 10; ++i) h.record(100);
  h.record(0);
  return reg.snapshot(msec(500));
}

TEST(PrometheusExport, EmitsTypedFamiliesAndHistogramSeries) {
  std::ostringstream os;
  write_prometheus(sample_snapshot(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE rx_total counter"), std::string::npos);
  EXPECT_NE(text.find("rx_total 100"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth{vr=\"0\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns histogram"), std::string::npos);
  // Cumulative buckets: the recorded zero emits le="0", and +Inf carries the
  // full count.
  EXPECT_NE(text.find("lat_ns_bucket{le=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 11"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 11"), std::string::npos);
}

TEST(CsvExport, QuotesAndDoublesEmbeddedQuotes) {
  std::ostringstream os;
  write_csv({sample_snapshot()}, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("t_sec,metric,labels,value"), std::string::npos);
  // The label `vr="0"` must appear as a quoted field with doubled quotes:
  // "vr=""0""" — exactly two quote characters around the 0.
  EXPECT_NE(text.find(",\"vr=\"\"0\"\"\","), std::string::npos);
  EXPECT_EQ(text.find("\"\"\"0"), std::string::npos);  // no tripling
  // Histograms are flattened into derived columns.
  EXPECT_NE(text.find("lat_ns_count"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_p99"), std::string::npos);
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

std::vector<AuditEvent> one_of_each() {
  std::vector<AuditEvent> evs;
  AuditEvent create;
  create.time = usec(10);
  create.until = create.time;
  create.kind = AuditKind::kVriCreate;
  create.vr = 0;
  create.vri = 1;
  create.rate = 120'000.0;
  create.threshold = 60'000.0;
  create.service = 59'000.0;
  create.a = 2;
  evs.push_back(create);
  AuditEvent health = create;
  health.kind = AuditKind::kHealthHung;
  health.time = usec(20);
  evs.push_back(health);
  AuditEvent shed = create;
  shed.kind = AuditKind::kShedEpisode;
  shed.time = usec(30);
  shed.until = usec(90);
  shed.a = 17;
  evs.push_back(shed);
  AuditEvent bal = create;
  bal.kind = AuditKind::kBalanceSummary;
  bal.time = usec(100);
  evs.push_back(bal);
  return evs;
}

TEST(ChromeTrace, EmitsEveryPhaseKind) {
  std::ostringstream os;
  write_chrome_trace(one_of_each(), os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);  // starts the array
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);  // counter track
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // duration slice
  EXPECT_NE(text.find("\"name\":\"vri_create\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\":60.000"), std::string::npos);  // 60 us episode
  // Structurally valid JSON: balanced braces/brackets, no trailing comma.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(text.find(",]"), std::string::npos);
  EXPECT_EQ(text.find(",\n]"), std::string::npos);
}

TEST(ChromeTrace, EmptyTrailIsStillValid) {
  std::ostringstream os;
  write_chrome_trace({}, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("process_name"), std::string::npos);
}

void expect_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(text.find(",]"), std::string::npos);
  EXPECT_EQ(text.find(",\n]"), std::string::npos);
}

TEST(ChromeTrace, MalformedCauseCodesCannotBreakTheDocument) {
  // Regression for the `%s` interpolations: events whose numeric cause code
  // falls outside every cause table must still produce balanced JSON (the
  // writers fall back to a fixed "unknown" string, routed through the JSON
  // escaper like every other table string).
  std::vector<AuditEvent> evs;
  for (const AuditKind kind :
       {AuditKind::kPoolExhausted, AuditKind::kVriDrain,
        AuditKind::kFlowTableResize, AuditKind::kFlightDump}) {
    AuditEvent e;
    e.time = usec(10);
    e.until = e.time;
    e.kind = kind;
    e.vr = 0;
    e.cause = 0xEE;  // out of range for every cause enum
    evs.push_back(e);
  }
  std::ostringstream os;
  write_chrome_trace(evs, os);
  const std::string text = os.str();
  expect_balanced(text);
  EXPECT_NE(text.find("\"cause\":\"unknown\""), std::string::npos);
  // An unpaired quote inside any emitted string would flip the scanner's
  // string state and trip the balance assertions above; also check no raw
  // control characters leaked into the document.
  for (char c : text) EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);
}

TEST(ChromeTrace, FlightDumpEventsCarryCauseAndCounts) {
  AuditEvent e;
  e.time = usec(40);
  e.until = e.time;
  e.kind = AuditKind::kFlightDump;
  e.vr = 1;
  e.vri = 2;
  e.shard = 0;
  e.cause = 1;  // FlightDumpCause::kQuarantine
  e.a = 17;
  e.b = 3;
  e.c = 5000;
  std::ostringstream os;
  write_chrome_trace({e}, os);
  const std::string text = os.str();
  expect_balanced(text);
  EXPECT_NE(text.find("\"name\":\"flight_dump\""), std::string::npos);
  EXPECT_NE(text.find("\"cause\":\"quarantine\""), std::string::npos);
  EXPECT_NE(text.find("\"records\":17"), std::string::npos);
  EXPECT_NE(text.find("\"seq\":3"), std::string::npos);
  EXPECT_NE(text.find("\"records_total\":5000"), std::string::npos);
}

TEST(ChromeTrace, StealEventsCarryThiefVictimAndCounts) {
  AuditEvent tx;
  tx.time = tx.until = usec(50);
  tx.kind = AuditKind::kTxSteal;
  tx.vr = 1;
  tx.vri = 2;    // victim slot
  tx.shard = 3;  // thief shard
  tx.a = 8;
  tx.b = 4;
  tx.c = 30;
  AuditEvent vri = tx;
  vri.kind = AuditKind::kVriSteal;
  vri.vri = 0;          // thief VRI
  vri.shard = -1;
  vri.service = 5.0;    // victim VRI index
  std::ostringstream os;
  write_chrome_trace({tx, vri}, os);
  const std::string text = os.str();
  expect_balanced(text);
  EXPECT_NE(text.find("\"tid\":1,\"ts\":50.000,\"s\":\"t\",\"name\":\"tx_steal\","
                      "\"args\":{\"shard\":3,\"vri\":2,\"frames\":8,"
                      "\"steals\":4,\"frames_total\":30}"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"vri_steal\",\"args\":{\"vri\":0,"
                      "\"victim_vri\":5,\"frames\":8,\"steals\":4,"
                      "\"frames_total\":30}"),
            std::string::npos);
}

PathSpan delivered_span() {
  PathSpan s;
  s.frame_id = 7;
  s.vr = 0;
  s.vri = 1;
  s.shard = 0;
  s.gw_in = usec(10);
  s.rx_serve = usec(11);
  s.enq = usec(12);
  s.svc_start = usec(15);
  s.svc_end = usec(18);
  s.gw_out = usec(20);
  return s;
}

TEST(ChromeTrace, PathSpansEmitNestedShardAndVriTracks) {
  std::ostringstream os;
  write_chrome_trace({}, {delivered_span()}, os);
  const std::string text = os.str();
  expect_balanced(text);
  // Named tracks for the shard dispatch lane and the VRI service lane.
  EXPECT_NE(text.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("shard 0 dispatch"), std::string::npos);
  EXPECT_NE(text.find("vr0 vri1 service"), std::string::npos);
  // The four hop slices of a delivered frame...
  EXPECT_NE(text.find("\"name\":\"dispatch\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"queue_wait\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"service\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"tx_drain\""), std::string::npos);
  // ...bound across tracks by a flow arrow, with no drop marker.
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"frame_path\""), std::string::npos);
  EXPECT_EQ(text.find("frame_drop"), std::string::npos);
  // service slice: ts 15us, dur 3us.
  EXPECT_NE(text.find("\"ts\":15.000,\"dur\":3.000,\"name\":\"service\""),
            std::string::npos);
}

TEST(ChromeTrace, DroppedSpanEmitsTheExitInstantAtItsLastStamp) {
  PathSpan s = delivered_span();
  s.svc_start = 0;  // terminated while queued: never reached service
  s.svc_end = 0;
  s.gw_out = 0;
  s.terminal = 7;  // 1 + DropCause code 6
  std::ostringstream os;
  write_chrome_trace({}, {s}, os);
  const std::string text = os.str();
  expect_balanced(text);
  EXPECT_NE(text.find("\"name\":\"frame_drop\""), std::string::npos);
  EXPECT_NE(text.find("\"cause\":6"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":12.000,\"s\":\"t\",\"name\":\"frame_drop\""),
            std::string::npos);  // at the enqueue stamp, its last hop
  EXPECT_EQ(text.find("\"name\":\"service\""), std::string::npos);
  EXPECT_EQ(text.find("\"ph\":\"s\""), std::string::npos);  // no flow arrow
}

TEST(ChromeTrace, EmptySpanSetIsByteIdenticalToTheAuditOnlyWriter) {
  // The tracing-off guarantee reduces to this: the 3-arg writer with no
  // spans must produce exactly the 2-arg writer's bytes.
  std::ostringstream a, b;
  write_chrome_trace(one_of_each(), a);
  write_chrome_trace(one_of_each(), {}, b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace lvrm::obs
