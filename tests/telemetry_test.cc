/**
 * Telemetry subsystem tests: Chrome-trace golden file, labeled metric
 * registry contracts, bounded log-bucketed histograms, export failure
 * paths, and byte-determinism of instrumented cluster serving runs.
 *
 * The golden trace lives in tests/golden/trace_small.json; regenerate
 * it with MTIA_REGEN_GOLDEN=1 ./telemetry_test after an intentional
 * format change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_report.h"
#include "cluster/cluster_sim.h"
#include "core/check.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"

namespace mtia {
namespace {

using telemetry::LogHistogram;
using telemetry::MetricRegistry;
using telemetry::Telemetry;
using telemetry::TraceRecorder;
using telemetry::TrackId;

// -------------------------------------------------------------- trace

/** The small deterministic trace the golden file captures. */
TraceRecorder
buildSmallTrace()
{
    TraceRecorder rec;
    const TrackId jobs = rec.track("shard0", "jobs");
    const TrackId queue = rec.track("shard0", "queue");
    const TrackId host = rec.track("host", "pcie");
    rec.complete(jobs, "remote", "job", 1'000'000, 7'500'000);
    rec.complete(jobs, "merge", "job", 7'500'000, 19'500'000);
    rec.counter(queue, "queue_depth", 1'000'000, 2);
    rec.counter(queue, "queue_depth", 7'500'000, 1);
    rec.instant(host, "dma_done", "pcie", 4'250'000);
    return rec;
}

TEST(Trace, MatchesGoldenFile)
{
    const std::string path =
        std::string(MTIA_GOLDEN_DIR) + "/trace_small.json";
    const std::string json = buildSmallTrace().json();

    if (std::getenv("MTIA_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.is_open()) << path;
        out << json;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open())
        << path << " missing; run with MTIA_REGEN_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(json, golden.str());
}

TEST(Trace, JsonHasTrackMetadataAndEventShapes)
{
    const std::string json = buildSmallTrace().json();
    // Perfetto essentials: the traceEvents wrapper, process/thread
    // naming metadata, and the three phase kinds.
    EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"shard0\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Trace, TimestampsAreMicrosecondsFromTicks)
{
    TraceRecorder rec;
    const TrackId t = rec.track("d", "u");
    // 1,234,567 ps = 1.234567 us; fractions print with 6 digits.
    rec.instant(t, "e", "c", 1'234'567);
    EXPECT_NE(rec.json().find("\"ts\":1.234567"), std::string::npos);
}

TEST(Trace, DisabledRecorderRecordsNothing)
{
    TraceRecorder rec;
    rec.setEnabled(false);
    const TrackId t = rec.track("d", "u");
    rec.complete(t, "a", "c", 0, 10);
    rec.instant(t, "b", "c", 5);
    rec.counter(t, "n", 5, 1);
    EXPECT_TRUE(rec.empty());
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, CapacityBoundsMemoryAndCountsDrops)
{
    TraceRecorder rec;
    rec.setCapacity(3);
    const TrackId t = rec.track("d", "u");
    for (Tick i = 0; i < 10; ++i)
        rec.instant(t, "e", "c", i);
    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.dropped(), 7u);
}

TEST(Trace, CompleteRejectsInvertedSpan)
{
    ScopedCheckThrow guard;
    TraceRecorder rec;
    const TrackId t = rec.track("d", "u");
    EXPECT_THROW(rec.complete(t, "a", "c", 10, 9), CheckFailedError);
}

TEST(Trace, WriteFileFailureThrowsUnderScopedCheckThrow)
{
    ScopedCheckThrow guard;
    const TraceRecorder rec = buildSmallTrace();
    EXPECT_THROW(rec.writeFile("/nonexistent-dir/trace.json"),
                 CheckFailedError);
}

// ------------------------------------------------------------ metrics

TEST(Metrics, CounterGaugeHistogramRoundTrip)
{
    MetricRegistry reg;
    reg.counter("requests", {{"class", "merge"}}).inc(3);
    reg.counter("requests", {{"class", "remote"}}).inc();
    reg.gauge("utilization", {{"shard", "0"}}).set(0.75);
    auto &h = reg.histogram("latency_ms");
    h.add(10.0);
    h.add(20.0);

    EXPECT_EQ(reg.counter("requests", {{"class", "merge"}}).value(), 3u);
    EXPECT_EQ(reg.seriesCount(), 4u);
    const std::string json = reg.json();
    EXPECT_NE(json.find("\"schema\":\"mtia-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"requests\""), std::string::npos);
    EXPECT_NE(json.find("\"class\":\"merge\""), std::string::npos);
}

TEST(Metrics, LabelOrderIsCanonical)
{
    MetricRegistry reg;
    reg.counter("c", {{"b", "2"}, {"a", "1"}}).inc();
    // Same series regardless of label order at the call site.
    EXPECT_EQ(reg.counter("c", {{"a", "1"}, {"b", "2"}}).value(), 1u);
    EXPECT_EQ(reg.seriesCount(), 1u);
}

TEST(Metrics, RejectsKindMismatchOnReRegistration)
{
    ScopedCheckThrow guard;
    MetricRegistry reg;
    reg.counter("m");
    EXPECT_THROW(reg.gauge("m"), CheckFailedError);
    EXPECT_THROW(reg.histogram("m"), CheckFailedError);
}

TEST(Metrics, RejectsInvalidNamesAndLabels)
{
    ScopedCheckThrow guard;
    MetricRegistry reg;
    EXPECT_THROW(reg.counter(""), CheckFailedError);
    EXPECT_THROW(reg.counter("1bad"), CheckFailedError);
    EXPECT_THROW(reg.counter("has space"), CheckFailedError);
    EXPECT_THROW(reg.counter("ok", {{"", "v"}}), CheckFailedError);
    EXPECT_THROW(reg.counter("ok", {{"k", "1"}, {"k", "2"}}),
                 CheckFailedError);
}

TEST(Metrics, ResetAllClearsValuesButKeepsSeries)
{
    MetricRegistry reg;
    reg.counter("c").inc(5);
    reg.gauge("g").set(2.0);
    reg.histogram("h").add(1.0);
    reg.resetAll();
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_TRUE(reg.histogram("h").empty());
    EXPECT_EQ(reg.seriesCount(), 3u);
}

// ------------------------------------------------------ log histogram

TEST(LogHistogramTest, ExactStatsAndBoundedPercentileError)
{
    LogHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    // p0/p100 are exact; interior percentiles carry the ~2.2%
    // relative bucket error of 32 sub-buckets per octave.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1000.0);
    EXPECT_NEAR(h.percentile(50.0), 500.0, 500.0 * 0.03);
    EXPECT_NEAR(h.percentile(99.0), 990.0, 990.0 * 0.03);
}

TEST(LogHistogramTest, SingleSampleIsExactEverywhere)
{
    LogHistogram h;
    h.add(42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 42.0);
}

TEST(LogHistogramTest, UnderflowAndOverflowClampToObservedRange)
{
    LogHistogram h(LogHistogram::Config{1.0, 100.0, 8});
    h.add(0.001); // below min_value -> underflow bucket
    h.add(1e6);   // above max_value -> overflow bucket
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.min(), 0.001);
    EXPECT_DOUBLE_EQ(h.max(), 1e6);
    EXPECT_GE(h.percentile(10.0), h.min());
    EXPECT_LE(h.percentile(90.0), h.max());
}

TEST(LogHistogramTest, Contracts)
{
    ScopedCheckThrow guard;
    EXPECT_THROW(LogHistogram(LogHistogram::Config{0.0, 1.0, 8}),
                 CheckFailedError);
    EXPECT_THROW(LogHistogram(LogHistogram::Config{2.0, 1.0, 8}),
                 CheckFailedError);
    EXPECT_THROW(LogHistogram(LogHistogram::Config{1.0, 2.0, 0}),
                 CheckFailedError);
    LogHistogram h;
    EXPECT_THROW(h.percentile(50.0), CheckFailedError); // empty
    h.add(1.0);
    EXPECT_THROW(h.add(-1.0), CheckFailedError);
    EXPECT_THROW(h.percentile(101.0), CheckFailedError);
}

// ------------------------------------------------- event queue counts

TEST(EventQueueTelemetry, TracksExecutedAndPeakPending)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.schedule(30, [] {});
    EXPECT_EQ(q.peakPending(), 3u);
    q.run();
    EXPECT_EQ(q.executed(), 3u);
    EXPECT_EQ(q.peakPending(), 3u); // high-water mark persists
}

// ------------------------------------- instrumented serving: end2end

/** A small chaos cluster: failovers, re-routes and ECC retries all
 * land in the exported counters. */
ClusterSimulator
chaosCluster()
{
    ClusterConfig cfg;
    cfg.trace.users = 10'000;
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 1.0;
    cfg.chaos.mean_storm_interval_s = 0.5;
    return ClusterSimulator(cfg);
}

TEST(ServingTelemetry, IdenticalSeedsYieldByteIdenticalExports)
{
    const auto run = [] {
        ClusterSimulator sim = chaosCluster();
        Telemetry tel;
        sim.setTelemetry(&tel);
        sim.simulate(400.0, fromSeconds(3.0), 42);
        return std::pair{tel.trace.json(), tel.metrics.json()};
    };
    const auto [trace_a, metrics_a] = run();
    const auto [trace_b, metrics_b] = run();
    EXPECT_NE(metrics_a.find("\"cluster.latency_ms\""),
              std::string::npos);
    EXPECT_NE(metrics_a.find("\"class\":\"merge\""), std::string::npos);
    EXPECT_EQ(trace_a, trace_b);
    EXPECT_EQ(metrics_a, metrics_b);
}

TEST(ServingTelemetry, DetachedRunMatchesAttachedResults)
{
    // Telemetry must observe, not perturb: the simulated results are
    // identical with and without an attached context.
    ClusterSimulator sim = chaosCluster();
    const ClusterResult plain = sim.simulate(400.0, fromSeconds(3.0), 7);
    ASSERT_GT(plain.failovers, 0u);
    Telemetry tel;
    sim.setTelemetry(&tel);
    const ClusterResult traced =
        sim.simulate(400.0, fromSeconds(3.0), 7);
    EXPECT_EQ(plain.summary(), traced.summary());
}

TEST(ServingTelemetry, ExportFilesWritesTraceAndMetrics)
{
    ClusterSimulator sim = chaosCluster();
    Telemetry tel;
    sim.setTelemetry(&tel);
    sim.simulate(200.0, fromSeconds(1.0), 7);

    const std::string stem =
        ::testing::TempDir() + "telemetry_export_test";
    tel.exportFiles(stem);
    std::ifstream trace(stem + ".trace.json");
    std::ifstream metrics(stem + ".metrics.json");
    EXPECT_TRUE(trace.is_open());
    EXPECT_TRUE(metrics.is_open());
    std::ostringstream buf;
    buf << metrics.rdbuf();
    EXPECT_EQ(buf.str(), tel.metrics.json());

    ScopedCheckThrow guard;
    EXPECT_THROW(tel.exportFiles("/nonexistent-dir/stem"),
                 CheckFailedError);
}

// ------------------------------------------------------ bench report

TEST(BenchReport, EmitsSchemaWithBandsAndTelemetry)
{
    MetricRegistry reg;
    reg.counter("events").inc(12);

    // Route the destructor's write into the test temp dir.
    ASSERT_EQ(setenv("MTIA_BENCH_REPORT_DIR",
                     ::testing::TempDir().c_str(), 1),
              0);
    bench::Report report("unit_test");
    report.metric("in_band", 44.0, 40.0, 48.0, "%");
    report.metric("out_of_band", 60.0, 40.0, 48.0, "%");
    report.metric("unitless", 3.0);
    report.wallClock("parallel_speedup", 3.5, "x");
    report.attachTelemetry(&reg);

    const std::string json = report.json();
    EXPECT_NE(json.find("\"schema\":\"mtia-bench-report-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bench\":\"unit_test\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"in_band\",\"measured\":44,"
                        "\"unit\":\"%\",\"paper_lo\":40,"
                        "\"paper_hi\":48,\"within_band\":true"),
              std::string::npos);
    EXPECT_NE(json.find("\"within_band\":false"), std::string::npos);
    EXPECT_NE(json.find("\"wall_clock\":[\n{\"name\":\"parallel_speedup\","
                        "\"measured\":3.5,\"unit\":\"x\"}\n]"),
              std::string::npos);
    EXPECT_NE(json.find("\"telemetry\":{\"schema\":"
                        "\"mtia-metrics-v1\""),
              std::string::npos);

    report.write(); // idempotent; lands in the temp dir
    unsetenv("MTIA_BENCH_REPORT_DIR");
}

TEST(BenchReport, WritesFileUnderReportDirEnv)
{
    const std::string dir = ::testing::TempDir();
    ASSERT_EQ(setenv("MTIA_BENCH_REPORT_DIR", dir.c_str(), 1), 0);
    {
        bench::Report report("env_test");
        report.metric("v", 1.0);
        report.write();
        report.write(); // idempotent
    }
    unsetenv("MTIA_BENCH_REPORT_DIR");

    std::ifstream in(dir + "/BENCH_env_test.json");
    ASSERT_TRUE(in.is_open());
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"bench\":\"env_test\""),
              std::string::npos);
}

TEST(BenchReport, WriteFailureThrowsUnderScopedCheckThrow)
{
    ScopedCheckThrow guard;
    ASSERT_EQ(setenv("MTIA_BENCH_REPORT_DIR", "/nonexistent-dir", 1),
              0);
    bench::Report report("bad_dir");
    report.metric("v", 1.0);
    EXPECT_THROW(report.write(), CheckFailedError);
    unsetenv("MTIA_BENCH_REPORT_DIR");
}

TEST(BenchReport, RejectsInvertedBandAndEmptyName)
{
    ScopedCheckThrow guard;
    // Route the destructor's write into the test temp dir.
    ASSERT_EQ(setenv("MTIA_BENCH_REPORT_DIR",
                     ::testing::TempDir().c_str(), 1),
              0);
    EXPECT_THROW(bench::Report(""), CheckFailedError);
    {
        bench::Report report("bands");
        EXPECT_THROW(report.metric("m", 1.0, 5.0, 4.0),
                     CheckFailedError);
        EXPECT_THROW(report.wallClock("", 1.0), CheckFailedError);
    }
    unsetenv("MTIA_BENCH_REPORT_DIR");
}

} // namespace
} // namespace mtia
