// The Prometheus exposition of a MetricsRegistry (obs/prom.hpp): label-
// value and HELP escaping, and MetricsRegistry::merge — the structural
// merge behind the router's fleet-wide /metrics, which stamps extra
// labels onto another registry's samples.  Suite names are kept from the
// text writer and text re-parser these tests first covered; their
// expected strings are unchanged.
#include "obs/prom.hpp"

#include <gtest/gtest.h>

#include <string>

namespace tgp::obs {
namespace {

// ---- prom_escape / prom_escape_help ---------------------------------------

TEST(PromEscape, LabelValuesEscapeBackslashQuoteAndNewline) {
  EXPECT_EQ(prom_escape("plain"), "plain");
  EXPECT_EQ(prom_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prom_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape("line1\nline2"), "line1\\nline2");
  // Backslash first, then the rest — no double processing.
  EXPECT_EQ(prom_escape("\\n"), "\\\\n");
  EXPECT_EQ(prom_escape(""), "");
}

TEST(PromEscape, HelpTextEscapesBackslashAndNewlineButNotQuotes) {
  EXPECT_EQ(prom_escape_help("rate of \"weird\" jobs"),
            "rate of \"weird\" jobs");
  EXPECT_EQ(prom_escape_help("a\\b\nc"), "a\\\\b\\nc");
}

TEST(PromWriterTest, EscapesLabelValuesOnTheWire) {
  MetricsRegistry r;
  r.counter("tgp_x_total", "x", 1, {{"path", "C:\\tmp\n\"q\""}});
  EXPECT_NE(render_prometheus(r).find(
                "tgp_x_total{path=\"C:\\\\tmp\\n\\\"q\\\"\"} 1"),
            std::string::npos);
}

TEST(PromWriterTest, HelpHeaderOncePerFamily) {
  MetricsRegistry r;
  r.counter("tgp_jobs_total", "Jobs\nby problem", 3, {{"problem", "a"}});
  r.counter("tgp_jobs_total", "Jobs\nby problem", 4, {{"problem", "b"}});
  std::string text = render_prometheus(r);
  EXPECT_NE(text.find("# HELP tgp_jobs_total Jobs\\nby problem\n"),
            std::string::npos);
  // Only one header despite two samples.
  EXPECT_EQ(text.find("# HELP"), text.rfind("# HELP"));
  EXPECT_NE(text.find("tgp_jobs_total{problem=\"a\"} 3"), std::string::npos);
  EXPECT_NE(text.find("tgp_jobs_total{problem=\"b\"} 4"), std::string::npos);
}

// ---- merge: extra labels onto each sample ---------------------------------

/// The sample line of a one-sample gauge registry merged under `extra`.
std::string merged_line(const char* name, double value, Labels own,
                        const Labels& extra) {
  MetricsRegistry source;
  source.gauge(name, "x", value, std::move(own));
  MetricsRegistry merged;
  merged.merge(source, extra);
  std::string text = render_prometheus(merged);
  text.pop_back();  // trailing newline
  return text.substr(text.rfind('\n') + 1);
}

TEST(PromInject, AddsABlockToBareSamples) {
  EXPECT_EQ(merged_line("tgp_up", 1, {}, {{"shard", "2"}}),
            "tgp_up{shard=\"2\"} 1");
}

TEST(PromInject, PrependsToExistingBlocks) {
  EXPECT_EQ(merged_line("tgp_jobs_total", 9, {{"problem", "tree"}},
                        {{"shard", "0"}}),
            "tgp_jobs_total{shard=\"0\",problem=\"tree\"} 9");
}

TEST(PromInject, CommentAndBlankLinesPassThrough) {
  // Headers are the family's own: extra labels never reach them.
  MetricsRegistry source;
  source.gauge("tgp_up", "x", 1);
  MetricsRegistry merged;
  merged.merge(source, {{"shard", "1"}});
  EXPECT_EQ(render_prometheus(merged).substr(0, 16), "# HELP tgp_up x\n");
  // Merging an empty registry adds nothing.
  merged.merge(MetricsRegistry{}, {{"shard", "1"}});
  EXPECT_EQ(merged.families().size(), 1u);
  EXPECT_EQ(render_prometheus(MetricsRegistry{}), "");
}

TEST(PromInject, EscapesInjectedValues) {
  EXPECT_EQ(merged_line("tgp_up", 1, {}, {{"host", "a\"b"}}),
            "tgp_up{host=\"a\\\"b\"} 1");
}

TEST(PromInject, HonorsEscapedQuotesWhenFindingTheBlock) {
  // The existing label value contains '}' and a quote — merging works on
  // the typed labels, so neither can be mistaken for the end of a block.
  EXPECT_EQ(merged_line("tgp_err_total", 2, {{"msg", "bad \"}\" brace"}},
                        {{"shard", "3"}}),
            "tgp_err_total{shard=\"3\",msg=\"bad \\\"}\\\" brace\"} 2");
}

TEST(PromInject, ExistingKeysWinOverInjectedOnes) {
  // The backend already stamps shard="1" on its net families; the
  // router's merge must not produce a duplicate key.
  EXPECT_EQ(merged_line("tgp_net_rx", 7, {{"shard", "1"}}, {{"shard", "0"}}),
            "tgp_net_rx{shard=\"1\"} 7");
  // Only the colliding key is dropped; others still inject.
  EXPECT_EQ(merged_line("tgp_net_rx", 7, {{"shard", "1"}},
                        {{"shard", "0"}, {"fleet", "a"}}),
            "tgp_net_rx{fleet=\"a\",shard=\"1\"} 7");
  // A label *value* that merely contains 'shard=' is not a key match.
  EXPECT_EQ(merged_line("tgp_x", 1, {{"note", "shard=9"}}, {{"shard", "0"}}),
            "tgp_x{shard=\"0\",note=\"shard=9\"} 1");
}

// ---- merge: families stay grouped -----------------------------------------

TEST(PromAggregator, GroupsFamiliesAndStampsSourceLabels) {
  MetricsRegistry a, b;
  a.counter("tgp_jobs_total", "Jobs", 3);
  a.gauge("tgp_depth", "Queue depth", 1);
  b.counter("tgp_jobs_total", "Jobs", 5);
  MetricsRegistry agg;
  agg.merge(a, {{"shard", "0"}});
  agg.merge(b, {{"shard", "1"}});
  std::string text = render_prometheus(agg);

  // One header per family; both sources' samples contiguous under it.
  EXPECT_EQ(text.find("# HELP tgp_jobs_total"),
            text.rfind("# HELP tgp_jobs_total"));
  std::size_t s0 = text.find("tgp_jobs_total{shard=\"0\"} 3");
  std::size_t s1 = text.find("tgp_jobs_total{shard=\"1\"} 5");
  std::size_t d = text.find("tgp_depth{shard=\"0\"} 1");
  ASSERT_NE(s0, std::string::npos);
  ASSERT_NE(s1, std::string::npos);
  ASSERT_NE(d, std::string::npos);
  EXPECT_LT(s0, s1);
  // No family interleaving: depth comes strictly before or after both.
  EXPECT_TRUE(d < s0 || d > s1);
}

TEST(PromAggregator, HistogramChildrenStayUnderTheParentFamily) {
  MetricsRegistry a;
  LatencyHistogram h;
  h.counts[0] = 1;
  h.counts[1] = 2;
  h.counts[3] = 1;
  h.count = 4;
  h.total_micros = 123;
  a.histogram("tgp_lat_seconds", "Latency", h);
  a.counter("tgp_other_total", "Other", 1);
  MetricsRegistry agg;
  agg.merge(a, {{"shard", "7"}});
  std::string text = render_prometheus(agg);
  std::size_t bucket = text.find("tgp_lat_seconds_bucket{shard=\"7\",le=");
  std::size_t sum = text.find("tgp_lat_seconds_sum{shard=\"7\"}");
  std::size_t count = text.find("tgp_lat_seconds_count{shard=\"7\"} 4");
  std::size_t other = text.find("tgp_other_total{shard=\"7\"} 1");
  ASSERT_NE(bucket, std::string::npos);
  ASSERT_NE(sum, std::string::npos);
  ASSERT_NE(count, std::string::npos);
  ASSERT_NE(other, std::string::npos);
  EXPECT_TRUE(other < bucket || other > count);
}

TEST(PromAggregator, UnlabeledSourceMergesVerbatim) {
  MetricsRegistry router;
  router.gauge("tgp_router_up", "router", 1);
  MetricsRegistry agg;
  agg.merge(router, {});
  agg.merge(router, {{"shard", "0"}});
  std::string text = render_prometheus(agg);
  EXPECT_NE(text.find("tgp_router_up 1"), std::string::npos);
  EXPECT_NE(text.find("tgp_router_up{shard=\"0\"} 1"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE tgp_router_up"),
            text.rfind("# TYPE tgp_router_up"));
}

TEST(PromMerge, FamilyUnderAnotherTypeIsSkipped) {
  MetricsRegistry mine, theirs;
  mine.counter("tgp_x", "x", 1);
  theirs.gauge("tgp_x", "x", 2.5);
  theirs.gauge("tgp_y", "y", 3);
  mine.merge(theirs, {{"shard", "0"}});
  EXPECT_EQ(render_prometheus(mine),
            "# HELP tgp_x x\n# TYPE tgp_x counter\ntgp_x 1\n"
            "# HELP tgp_y y\n# TYPE tgp_y gauge\ntgp_y{shard=\"0\"} 3\n");
}

// ---- The router's fleet view, byte for byte -------------------------------

// A router registry and two shard registries, recorded in the order the
// exporters write them: the tenant, slow-exemplar, status and solver
// families each arrive interleaved with another family.
MetricsRegistry router_registry() {
  MetricsRegistry r;
  r.counter("tgp_router_forwarded_total", "Submits forwarded to backends", 42);
  for (int s = 0; s < 2; ++s)
    for (const char* st : {"up", "down"})
      r.gauge("tgp_shard_health",
              "1 for the shard's current health state, 0 otherwise",
              std::string(st) == "up" ? 1.0 : 0.0,
              {{"shard", std::to_string(s)}, {"state", st}});
  for (int t = 1; t <= 2; ++t) {
    r.counter("tgp_router_tenant_admitted_total",
              "Submits admitted per tenant", static_cast<std::uint64_t>(3 + t),
              {{"tenant", std::to_string(t)}});
    r.counter("tgp_router_tenant_rejected_total",
              "Submits quota-rejected per tenant",
              static_cast<std::uint64_t>(t - 1),
              {{"tenant", std::to_string(t)}});
  }
  r.counter("tgp_net_frames_in_total", "Frames received", 100);
  LatencyHistogram e2e;
  e2e.counts[1] = 3;
  e2e.counts[2] = 1;
  e2e.counts[4] = 2;
  e2e.count = 6;
  e2e.total_micros = 123.9;  // the exposition carries whole microseconds
  r.histogram("tgp_router_e2e_latency_seconds",
              "End-to-end request latency observed at the router", e2e);
  for (int rank = 0; rank < 2; ++rank) {
    const Labels l{{"rank", std::to_string(rank)},
                   {"shard", std::to_string(1 - rank)}};
    r.gauge("tgp_router_slow_e2e_micros",
            "Slowest-K request end-to-end latency", 812.5 - rank, l);
    r.gauge("tgp_router_slow_queue_micros",
            "Slowest-K request fair-queue wait", 12.25 + rank, l);
  }
  r.gauge("tgp_build_info",
          "Build provenance; value is always 1, identity in the labels", 1.0,
          {{"version", "0.9.0"}, {"git_sha", "0123abcd"}});
  r.gauge("tgp_process_start_time_seconds",
          "Unix time the process initialized the obs layer",
          1760000000.123456);
  r.counter("tgp_trace_dropped_total",
            "Span-ring events overwritten before export (all threads)", 0);
  return r;
}

MetricsRegistry shard_registry(int i) {
  MetricsRegistry r;
  const std::string shard = std::to_string(i);
  r.counter("tgp_jobs_submitted_total", "Jobs accepted by submit()",
            static_cast<std::uint64_t>(10 + i));
  r.counter("tgp_jobs_by_status_total", "Completed jobs by final status",
            static_cast<std::uint64_t>(9 + i), {{"status", "ok"}});
  r.counter("tgp_jobs_by_status_total", "Completed jobs by final status",
            static_cast<std::uint64_t>(i), {{"status", "timeout"}});
  for (const char* p : {"bottleneck", "procmin"}) {
    r.counter("tgp_solver_oracle_calls_total",
              "Feasibility probes / DP edge steps",
              static_cast<std::uint64_t>(40 + i), {{"problem", p}});
    r.gauge("tgp_solver_temps_peak_rows", "TEMP_S occupancy high-water",
            static_cast<double>(1 + i), {{"problem", p}});
  }
  LatencyHistogram lat;
  lat.counts[0] = 1;
  lat.counts[2] = static_cast<std::uint64_t>(2 + i);
  lat.count = static_cast<std::uint64_t>(3 + i);
  lat.total_micros = 17;
  r.histogram("tgp_job_latency_seconds", "Submit-to-complete job latency",
              lat, {{"problem", "bottleneck"}});
  r.histogram("tgp_job_latency_seconds", "Submit-to-complete job latency",
              LatencyHistogram{}, {{"problem", "procmin"}});
  r.counter("tgp_net_frames_in_total", "Frames received",
            static_cast<std::uint64_t>(50 + i), {{"shard", shard}});
  r.counter("tgp_net_shard_submits_total",
            "Submits by ring ownership (foreign ≈ 0 under a fingerprint-"
            "affine router)",
            static_cast<std::uint64_t>(7 + i),
            {{"shard", shard}, {"ownership", "owned"}});
  r.counter("tgp_net_shard_submits_total", "", 0,
            {{"shard", shard}, {"ownership", "foreign"}});
  r.gauge("tgp_weird", "Help with \\ and\nnewline", 0.1 + i,
          {{"note", "shard=9"}, {"msg", "a \"q\" } \\ b\nc"}});
  if (i == 1)
    r.counter("tgp_verify_ok_total",
              "Results that passed the independent verifier", 5);
  r.gauge("tgp_build_info",
          "Build provenance; value is always 1, identity in the labels", 1.0,
          {{"version", "0.9.0"}, {"git_sha", "0123abcd"}});
  r.gauge("tgp_process_start_time_seconds",
          "Unix time the process initialized the obs layer",
          1760000001.5 + i);
  r.counter("tgp_trace_dropped_total",
            "Span-ring events overwritten before export (all threads)",
            static_cast<std::uint64_t>(3 * i));
  return r;
}

// The same three documents written as Prometheus text and regrouped by
// the text re-parser the merge replaced (one block per family, shard
// samples after the router's, shard="i" in front of a sample's labels
// unless it already binds shard).
constexpr const char* kFleetGolden = R"golden(# HELP tgp_router_forwarded_total Submits forwarded to backends
# TYPE tgp_router_forwarded_total counter
tgp_router_forwarded_total 42
# HELP tgp_shard_health 1 for the shard's current health state, 0 otherwise
# TYPE tgp_shard_health gauge
tgp_shard_health{shard="0",state="up"} 1
tgp_shard_health{shard="0",state="down"} 0
tgp_shard_health{shard="1",state="up"} 1
tgp_shard_health{shard="1",state="down"} 0
# HELP tgp_router_tenant_admitted_total Submits admitted per tenant
# TYPE tgp_router_tenant_admitted_total counter
tgp_router_tenant_admitted_total{tenant="1"} 4
tgp_router_tenant_admitted_total{tenant="2"} 5
# HELP tgp_router_tenant_rejected_total Submits quota-rejected per tenant
# TYPE tgp_router_tenant_rejected_total counter
tgp_router_tenant_rejected_total{tenant="1"} 0
tgp_router_tenant_rejected_total{tenant="2"} 1
# HELP tgp_net_frames_in_total Frames received
# TYPE tgp_net_frames_in_total counter
tgp_net_frames_in_total 100
tgp_net_frames_in_total{shard="0"} 50
tgp_net_frames_in_total{shard="1"} 51
# HELP tgp_router_e2e_latency_seconds End-to-end request latency observed at the router
# TYPE tgp_router_e2e_latency_seconds histogram
tgp_router_e2e_latency_seconds_bucket{le="2e-06"} 0
tgp_router_e2e_latency_seconds_bucket{le="4e-06"} 3
tgp_router_e2e_latency_seconds_bucket{le="8e-06"} 4
tgp_router_e2e_latency_seconds_bucket{le="1.6e-05"} 4
tgp_router_e2e_latency_seconds_bucket{le="3.2e-05"} 6
tgp_router_e2e_latency_seconds_bucket{le="+Inf"} 6
tgp_router_e2e_latency_seconds_sum 0.000123
tgp_router_e2e_latency_seconds_count 6
# HELP tgp_router_slow_e2e_micros Slowest-K request end-to-end latency
# TYPE tgp_router_slow_e2e_micros gauge
tgp_router_slow_e2e_micros{rank="0",shard="1"} 812.5
tgp_router_slow_e2e_micros{rank="1",shard="0"} 811.5
# HELP tgp_router_slow_queue_micros Slowest-K request fair-queue wait
# TYPE tgp_router_slow_queue_micros gauge
tgp_router_slow_queue_micros{rank="0",shard="1"} 12.25
tgp_router_slow_queue_micros{rank="1",shard="0"} 13.25
# HELP tgp_build_info Build provenance; value is always 1, identity in the labels
# TYPE tgp_build_info gauge
tgp_build_info{version="0.9.0",git_sha="0123abcd"} 1
tgp_build_info{shard="0",version="0.9.0",git_sha="0123abcd"} 1
tgp_build_info{shard="1",version="0.9.0",git_sha="0123abcd"} 1
# HELP tgp_process_start_time_seconds Unix time the process initialized the obs layer
# TYPE tgp_process_start_time_seconds gauge
tgp_process_start_time_seconds 1760000000.123456
tgp_process_start_time_seconds{shard="0"} 1760000001.5
tgp_process_start_time_seconds{shard="1"} 1760000002.5
# HELP tgp_trace_dropped_total Span-ring events overwritten before export (all threads)
# TYPE tgp_trace_dropped_total counter
tgp_trace_dropped_total 0
tgp_trace_dropped_total{shard="0"} 0
tgp_trace_dropped_total{shard="1"} 3
# HELP tgp_jobs_submitted_total Jobs accepted by submit()
# TYPE tgp_jobs_submitted_total counter
tgp_jobs_submitted_total{shard="0"} 10
tgp_jobs_submitted_total{shard="1"} 11
# HELP tgp_jobs_by_status_total Completed jobs by final status
# TYPE tgp_jobs_by_status_total counter
tgp_jobs_by_status_total{shard="0",status="ok"} 9
tgp_jobs_by_status_total{shard="0",status="timeout"} 0
tgp_jobs_by_status_total{shard="1",status="ok"} 10
tgp_jobs_by_status_total{shard="1",status="timeout"} 1
# HELP tgp_solver_oracle_calls_total Feasibility probes / DP edge steps
# TYPE tgp_solver_oracle_calls_total counter
tgp_solver_oracle_calls_total{shard="0",problem="bottleneck"} 40
tgp_solver_oracle_calls_total{shard="0",problem="procmin"} 40
tgp_solver_oracle_calls_total{shard="1",problem="bottleneck"} 41
tgp_solver_oracle_calls_total{shard="1",problem="procmin"} 41
# HELP tgp_solver_temps_peak_rows TEMP_S occupancy high-water
# TYPE tgp_solver_temps_peak_rows gauge
tgp_solver_temps_peak_rows{shard="0",problem="bottleneck"} 1
tgp_solver_temps_peak_rows{shard="0",problem="procmin"} 1
tgp_solver_temps_peak_rows{shard="1",problem="bottleneck"} 2
tgp_solver_temps_peak_rows{shard="1",problem="procmin"} 2
# HELP tgp_job_latency_seconds Submit-to-complete job latency
# TYPE tgp_job_latency_seconds histogram
tgp_job_latency_seconds_bucket{shard="0",problem="bottleneck",le="2e-06"} 1
tgp_job_latency_seconds_bucket{shard="0",problem="bottleneck",le="4e-06"} 1
tgp_job_latency_seconds_bucket{shard="0",problem="bottleneck",le="8e-06"} 3
tgp_job_latency_seconds_bucket{shard="0",problem="bottleneck",le="+Inf"} 3
tgp_job_latency_seconds_sum{shard="0",problem="bottleneck"} 1.7e-05
tgp_job_latency_seconds_count{shard="0",problem="bottleneck"} 3
tgp_job_latency_seconds_bucket{shard="0",problem="procmin",le="+Inf"} 0
tgp_job_latency_seconds_sum{shard="0",problem="procmin"} 0
tgp_job_latency_seconds_count{shard="0",problem="procmin"} 0
tgp_job_latency_seconds_bucket{shard="1",problem="bottleneck",le="2e-06"} 1
tgp_job_latency_seconds_bucket{shard="1",problem="bottleneck",le="4e-06"} 1
tgp_job_latency_seconds_bucket{shard="1",problem="bottleneck",le="8e-06"} 4
tgp_job_latency_seconds_bucket{shard="1",problem="bottleneck",le="+Inf"} 4
tgp_job_latency_seconds_sum{shard="1",problem="bottleneck"} 1.7e-05
tgp_job_latency_seconds_count{shard="1",problem="bottleneck"} 4
tgp_job_latency_seconds_bucket{shard="1",problem="procmin",le="+Inf"} 0
tgp_job_latency_seconds_sum{shard="1",problem="procmin"} 0
tgp_job_latency_seconds_count{shard="1",problem="procmin"} 0
# HELP tgp_net_shard_submits_total Submits by ring ownership (foreign ≈ 0 under a fingerprint-affine router)
# TYPE tgp_net_shard_submits_total counter
tgp_net_shard_submits_total{shard="0",ownership="owned"} 7
tgp_net_shard_submits_total{shard="0",ownership="foreign"} 0
tgp_net_shard_submits_total{shard="1",ownership="owned"} 8
tgp_net_shard_submits_total{shard="1",ownership="foreign"} 0
# HELP tgp_weird Help with \\ and\nnewline
# TYPE tgp_weird gauge
tgp_weird{shard="0",note="shard=9",msg="a \"q\" } \\ b\nc"} 0.10000000000000001
tgp_weird{shard="1",note="shard=9",msg="a \"q\" } \\ b\nc"} 1.1000000000000001
# HELP tgp_verify_ok_total Results that passed the independent verifier
# TYPE tgp_verify_ok_total counter
tgp_verify_ok_total{shard="1"} 5
)golden";

TEST(PromMerge, FleetViewMatchesTheRegroupedText) {
  MetricsRegistry fleet = router_registry();
  fleet.merge(shard_registry(0), {{"shard", "0"}});
  fleet.merge(shard_registry(1), {{"shard", "1"}});
  EXPECT_EQ(render_prometheus(fleet), kFleetGolden);
}

}  // namespace
}  // namespace tgp::obs
