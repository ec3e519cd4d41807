// The obs layer: span tracer rings, Chrome trace export, Prometheus text.
//
// Tracer state is process-global, so every test starts from a clean
// slate (disabled + cleared) and filters snapshots by its own category
// strings where other tests' events could linger.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "obs/chrome_trace.hpp"
#include "obs/counters.hpp"
#include "obs/prom.hpp"
#include "tools/trace_tool.hpp"

namespace tgp::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::clear();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::clear();
  }

  static std::size_t count_cat(const trace::TraceSnapshot& snap,
                               const char* cat) {
    std::size_t n = 0;
    for (const TraceEvent& ev : snap.events)
      if (std::string(ev.cat) == cat) ++n;
    return n;
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  {
    TGP_SPAN("t.disabled", "nothing");
  }
  trace::emit_complete("t.disabled", "direct", 0, 10);
  trace::TraceSnapshot snap = trace::snapshot();
  EXPECT_EQ(count_cat(snap, "t.disabled"), 0u);
}

TEST_F(TraceTest, SpanRecordsWithDurationAndArgs) {
  trace::set_enabled(true);
  {
    Span s("t.basic", "work");
    s.arg("slot", 7);
    s.arg("hit", 1);
    s.arg("ignored", 3);  // only two args fit
  }
  trace::set_enabled(false);
  trace::TraceSnapshot snap = trace::snapshot();
  ASSERT_EQ(count_cat(snap, "t.basic"), 1u);
  for (const TraceEvent& ev : snap.events) {
    if (std::string(ev.cat) != "t.basic") continue;
    EXPECT_STREQ(ev.name, "work");
    EXPECT_GE(ev.dur_ns, 0);
    ASSERT_STREQ(ev.args[0].name, "slot");
    EXPECT_EQ(ev.args[0].value, 7);
    ASSERT_STREQ(ev.args[1].name, "hit");
    EXPECT_EQ(ev.args[1].value, 1);
  }
}

TEST_F(TraceTest, SnapshotSortedByStartTime) {
  trace::set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    TGP_SPAN("t.sorted", "step");
  }
  trace::set_enabled(false);
  trace::TraceSnapshot snap = trace::snapshot();
  for (std::size_t i = 1; i < snap.events.size(); ++i)
    EXPECT_LE(snap.events[i - 1].start_ns, snap.events[i].start_ns);
}

TEST_F(TraceTest, RingWrapsAndCountsDrops) {
  // A fresh thread picks up the capacity set here; existing rings keep
  // theirs, so the main thread is unaffected.
  trace::set_ring_capacity(64);
  trace::set_enabled(true);
  std::thread t([] {
    for (int i = 0; i < 100; ++i) {
      TGP_SPAN("t.wrap", "spin");
    }
  });
  t.join();
  trace::set_enabled(false);
  trace::TraceSnapshot snap = trace::snapshot();
  EXPECT_EQ(count_cat(snap, "t.wrap"), 64u);
  EXPECT_GE(snap.dropped, 36u);
  trace::set_ring_capacity(1 << 16);
}

TEST_F(TraceTest, RingsSurviveThreadExit) {
  trace::set_enabled(true);
  std::thread t([] {
    trace::set_thread_name("ephemeral");
    TGP_SPAN("t.exit", "last-words");
  });
  t.join();
  trace::set_enabled(false);
  // The thread is gone, but its ring (and name) must still be visible.
  trace::TraceSnapshot snap = trace::snapshot();
  EXPECT_EQ(count_cat(snap, "t.exit"), 1u);
  bool named = false;
  for (const auto& [tid, name] : snap.threads)
    if (name == "ephemeral") named = true;
  EXPECT_TRUE(named);
}

TEST_F(TraceTest, ClearDropsEventsKeepsRings) {
  trace::set_enabled(true);
  {
    TGP_SPAN("t.clear", "gone");
  }
  trace::clear();
  {
    TGP_SPAN("t.clear2", "kept");
  }
  trace::set_enabled(false);
  trace::TraceSnapshot snap = trace::snapshot();
  EXPECT_EQ(count_cat(snap, "t.clear"), 0u);
  EXPECT_EQ(count_cat(snap, "t.clear2"), 1u);
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(TraceTest, EmitCompleteRecordsGivenInterval) {
  trace::set_enabled(true);
  trace::emit_complete("t.interval", "wait", 1000, 5000, {"slot", 3});
  trace::set_enabled(false);
  trace::TraceSnapshot snap = trace::snapshot();
  ASSERT_EQ(count_cat(snap, "t.interval"), 1u);
  for (const TraceEvent& ev : snap.events) {
    if (std::string(ev.cat) != "t.interval") continue;
    EXPECT_EQ(ev.start_ns, 1000);
    EXPECT_EQ(ev.dur_ns, 4000);
    EXPECT_EQ(ev.args[0].value, 3);
  }
}

// The exporter's JSON must round-trip through the dump tool's parser —
// the same check CI's validate_trace.py does with Python's json module.
TEST_F(TraceTest, ChromeTraceRoundTripsThroughDumpParser) {
  trace::set_enabled(true);
  trace::set_thread_name("main-test");
  {
    Span outer("t.chrome", "outer");
    outer.arg("slot", 42);
    TGP_SPAN("t.chrome", "inner");
  }
  trace::set_enabled(false);

  std::ostringstream json;
  write_chrome_trace(json, trace::snapshot());
  std::istringstream in(json.str());
  tools::ParsedTrace parsed = tools::parse_chrome_trace(in);

  std::size_t chrome_events = 0;
  for (const tools::DumpEvent& ev : parsed.events)
    if (ev.cat == "t.chrome") ++chrome_events;
  EXPECT_EQ(chrome_events, 2u);
  bool named = false;
  for (const auto& [tid, name] : parsed.thread_names)
    if (name == "main-test") named = true;
  EXPECT_TRUE(named);
}

TEST_F(TraceTest, ChromeTraceEscapesThreadNames) {
  trace::set_enabled(true);
  std::thread t([] {
    trace::set_thread_name("weird \"name\" \\ tab\there");
    TGP_SPAN("t.escape", "x");
  });
  t.join();
  trace::set_enabled(false);
  std::ostringstream json;
  write_chrome_trace(json, trace::snapshot());
  // Must still parse, with the name decoded back to the original.
  std::istringstream in(json.str());
  tools::ParsedTrace parsed = tools::parse_chrome_trace(in);
  bool found = false;
  for (const auto& [tid, name] : parsed.thread_names)
    if (name == "weird \"name\" \\ tab\there") found = true;
  EXPECT_TRUE(found);
}

// ---- Distributed trace context ---------------------------------------------

TEST_F(TraceTest, SpansWithoutContextCarryZeroIds) {
  trace::set_enabled(true);
  {
    TGP_SPAN("t.noctx", "plain");
  }
  trace::set_enabled(false);
  for (const TraceEvent& ev : trace::snapshot().events) {
    if (std::string(ev.cat) != "t.noctx") continue;
    EXPECT_EQ(ev.trace_hi | ev.trace_lo, 0u);
    EXPECT_EQ(ev.span_id, 0u);
    EXPECT_EQ(ev.parent_span, 0u);
  }
}

TEST_F(TraceTest, NestedSpansParentToTheInnermostOpenSpan) {
  trace::set_enabled(true);
  TraceContext ctx;
  ctx.trace_hi = 0x11;
  ctx.trace_lo = 0x22;
  ctx.parent_span = 0x33;
  ctx.sampled = true;
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    ContextScope scope(ctx);
    Span outer("t.ctx", "outer");
    outer_id = outer.span_id();
    {
      Span inner("t.ctx", "inner");
      inner_id = inner.span_id();
    }
  }
  trace::set_enabled(false);
  EXPECT_NE(outer_id, 0u);
  EXPECT_NE(inner_id, 0u);
  EXPECT_NE(outer_id, inner_id);
  for (const TraceEvent& ev : trace::snapshot().events) {
    if (std::string(ev.cat) != "t.ctx") continue;
    EXPECT_EQ(ev.trace_hi, 0x11u);
    EXPECT_EQ(ev.trace_lo, 0x22u);
    if (std::string(ev.name) == "outer") {
      EXPECT_EQ(ev.span_id, outer_id);
      EXPECT_EQ(ev.parent_span, 0x33u);  // remote parent
    } else {
      EXPECT_EQ(ev.span_id, inner_id);
      EXPECT_EQ(ev.parent_span, outer_id);
    }
  }
}

TEST_F(TraceTest, ContextScopeRestoresOnExitAndUnsampledIsInert) {
  trace::set_enabled(true);
  TraceContext ctx;
  ctx.trace_hi = 1;
  ctx.trace_lo = 2;
  ctx.parent_span = 3;
  ctx.sampled = true;
  {
    ContextScope scope(ctx);
    {
      ContextScope inert(TraceContext{});  // unsampled: must not clobber
      Span s("t.scope", "inert");
    }
    Span s("t.scope", "installed");
  }
  {
    Span s("t.scope", "restored");
  }
  trace::set_enabled(false);
  trace::TraceSnapshot snap = trace::snapshot();
  ASSERT_EQ(count_cat(snap, "t.scope"), 3u);
  for (const TraceEvent& ev : snap.events) {
    if (std::string(ev.cat) != "t.scope") continue;
    if (std::string(ev.name) == "restored") {
      EXPECT_EQ(ev.trace_hi | ev.trace_lo, 0u);
      EXPECT_EQ(ev.span_id, 0u);
      EXPECT_EQ(ev.parent_span, 0u);
    } else {
      EXPECT_EQ(ev.trace_hi, 1u) << ev.name;
      EXPECT_EQ(ev.trace_lo, 2u) << ev.name;
      EXPECT_NE(ev.span_id, 0u) << ev.name;
      EXPECT_EQ(ev.parent_span, 3u) << ev.name;
    }
  }
}

TEST_F(TraceTest, NewSpanIdsAreUniqueAndNonZero) {
  std::uint64_t a = trace::new_span_id();
  std::uint64_t b = trace::new_span_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TraceTest, EmitCompleteCtxStampsExplicitIdentity) {
  trace::set_enabled(true);
  TraceContext ctx;
  ctx.trace_hi = 0xAA;
  ctx.trace_lo = 0xBB;
  ctx.parent_span = 0xCC;
  ctx.sampled = true;
  trace::emit_complete_ctx("t.ctxemit", "wait", 100, 200, ctx, 0xDD);
  trace::set_enabled(false);
  trace::TraceSnapshot snap = trace::snapshot();
  ASSERT_EQ(count_cat(snap, "t.ctxemit"), 1u);
  for (const TraceEvent& ev : snap.events) {
    if (std::string(ev.cat) != "t.ctxemit") continue;
    EXPECT_EQ(ev.trace_hi, 0xAAu);
    EXPECT_EQ(ev.trace_lo, 0xBBu);
    EXPECT_EQ(ev.span_id, 0xDDu);
    EXPECT_EQ(ev.parent_span, 0xCCu);
  }
}

TEST_F(TraceTest, DroppedTotalFeedsTheRingOverflowCounter) {
  trace::set_ring_capacity(64);
  trace::set_enabled(true);
  std::thread t([] {
    for (int i = 0; i < 80; ++i) {
      TGP_SPAN("t.droptotal", "spin");
    }
  });
  t.join();
  trace::set_enabled(false);
  EXPECT_GE(trace::dropped_total(), 16u);
  trace::clear();
  EXPECT_EQ(trace::dropped_total(), 0u);
  trace::set_ring_capacity(1 << 16);
}

TEST_F(TraceTest, ChromeTraceCarriesTraceIdsAndMeta) {
  trace::set_enabled(true);
  TraceContext ctx;
  ctx.trace_hi = 0x0123456789ABCDEFull;
  ctx.trace_lo = 0x1122334455667788ull;
  ctx.parent_span = 0x55;
  ctx.sampled = true;
  {
    ContextScope scope(ctx);
    TGP_SPAN("t.chromeids", "traced");
  }
  trace::set_enabled(false);

  std::ostringstream json;
  ChromeTraceMeta meta;
  meta.process_name = "unit";
  meta.epoch_unix_us = 1234;
  meta.clock_offset_us = -7;
  write_chrome_trace(json, trace::snapshot(), meta);
  std::istringstream in(json.str());
  tools::ParsedTrace parsed = tools::parse_chrome_trace(in);
  EXPECT_EQ(parsed.process_name, "unit");
  EXPECT_EQ(parsed.epoch_unix_us, 1234);
  EXPECT_EQ(parsed.clock_offset_us, -7);
  bool found = false;
  for (const tools::DumpEvent& ev : parsed.events) {
    if (ev.cat != "t.chromeids") continue;
    found = true;
    EXPECT_EQ(ev.trace_id, "0123456789abcdef1122334455667788");
    EXPECT_NE(ev.span_id, 0u);
    EXPECT_EQ(ev.parent_span, 0x55u);
  }
  EXPECT_TRUE(found);
}

// ---- CounterScope routing --------------------------------------------------

TEST(CounterScope, RoutesAndRestores) {
  EXPECT_EQ(active_counters(), nullptr);
  SolveCounters outer_c, inner_c;
  {
    CounterScope outer(&outer_c);
    ASSERT_EQ(active_counters(), &outer_c);
    active_counters()->oracle_calls += 2;
    {
      CounterScope inner(&inner_c);
      ASSERT_EQ(active_counters(), &inner_c);
      active_counters()->oracle_calls += 5;
    }
    EXPECT_EQ(active_counters(), &outer_c);
    {
      CounterScope suspend(nullptr);
      EXPECT_EQ(active_counters(), nullptr);
    }
  }
  EXPECT_EQ(active_counters(), nullptr);
  EXPECT_EQ(outer_c.oracle_calls, 2u);
  EXPECT_EQ(inner_c.oracle_calls, 5u);
}

TEST(SolveCounters, MergeSumsCountsAndMaxesPeaks) {
  SolveCounters a, b;
  a.oracle_calls = 10;
  a.temps_peak_rows = 5;
  a.arena_bytes_peak = 100;
  b.oracle_calls = 3;
  b.temps_peak_rows = 9;
  b.arena_bytes_peak = 50;
  a.merge(b);
  EXPECT_EQ(a.oracle_calls, 13u);
  EXPECT_EQ(a.temps_peak_rows, 9u);
  EXPECT_EQ(a.arena_bytes_peak, 100u);
}

TEST(SolveCounters, AlgoEqualIgnoresArenaPeakOnly) {
  SolveCounters a, b;
  a.oracle_calls = b.oracle_calls = 4;
  a.arena_bytes_peak = 100;
  b.arena_bytes_peak = 999;
  EXPECT_TRUE(a.algo_equal(b));
  EXPECT_FALSE(a == b);
  b.bsearch_probes = 1;
  EXPECT_FALSE(a.algo_equal(b));
}

// ---- Prometheus walk of a MetricsRegistry ----------------------------------
// (suite name kept from the text writer the registry replaced)

TEST(PromWriter, CounterWithHeaderDedupe) {
  MetricsRegistry r;
  r.counter("tgp_jobs_total", "Jobs processed", 5);
  r.counter("tgp_jobs_total", "Jobs processed", 3,
            {{"problem", "bandwidth"}});
  std::string s = render_prometheus(r);
  // HELP/TYPE exactly once despite two samples in the family.
  EXPECT_EQ(s.find("# HELP tgp_jobs_total Jobs processed\n"),
            s.rfind("# HELP tgp_jobs_total"));
  EXPECT_NE(s.find("# TYPE tgp_jobs_total counter\n"), std::string::npos);
  EXPECT_NE(s.find("tgp_jobs_total 5\n"), std::string::npos);
  EXPECT_NE(s.find("tgp_jobs_total{problem=\"bandwidth\"} 3\n"),
            std::string::npos);
}

TEST(PromWriter, HistogramBucketsAreCumulativeSeconds) {
  MetricsRegistry r;
  // Log2 µs buckets: bucket 0 ≤ 2µs holds 3, bucket 2 ≤ 8µs holds 1.
  LatencyHistogram h;
  h.counts[0] = 3;
  h.counts[2] = 1;
  h.count = 4;
  h.total_micros = 20;
  r.histogram("tgp_lat_seconds", "Latency", h);
  std::string s = render_prometheus(r);
  EXPECT_NE(s.find("# TYPE tgp_lat_seconds histogram"), std::string::npos);
  // Cumulative: 3 at le=2µs=2e-06s, still 3 at 4µs, 4 at 8µs, 4 at +Inf.
  EXPECT_NE(s.find("tgp_lat_seconds_bucket{le=\"2e-06\"} 3\n"),
            std::string::npos);
  EXPECT_NE(s.find("tgp_lat_seconds_bucket{le=\"4e-06\"} 3\n"),
            std::string::npos);
  EXPECT_NE(s.find("tgp_lat_seconds_bucket{le=\"8e-06\"} 4\n"),
            std::string::npos);
  EXPECT_NE(s.find("tgp_lat_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(s.find("tgp_lat_seconds_sum 2e-05\n"), std::string::npos);
  EXPECT_NE(s.find("tgp_lat_seconds_count 4\n"), std::string::npos);
}

TEST(PromWriter, EmptyHistogramStillEmitsInfBucket) {
  MetricsRegistry r;
  r.histogram("tgp_empty_seconds", "Empty", LatencyHistogram{});
  std::string s = render_prometheus(r);
  EXPECT_NE(s.find("tgp_empty_seconds_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(s.find("tgp_empty_seconds_count 0\n"), std::string::npos);
}

TEST(PromWriter, EscapesLabelValues) {
  EXPECT_EQ(prom_escape("plain"), "plain");
  EXPECT_EQ(prom_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape("a\nb"), "a\\nb");
  MetricsRegistry r;
  r.gauge("tgp_g", "", 1.5, {{"path", "a\"b\\c"}});
  EXPECT_NE(render_prometheus(r).find("tgp_g{path=\"a\\\"b\\\\c\"} 1.5"),
            std::string::npos);
}

}  // namespace
}  // namespace tgp::obs
