/**
 * @file
 * Regenerates Figure 5: consolidating the weighted and unweighted TBE
 * instances into one remote job. The PE-grid execution time of remote
 * and merge work is identical in both configurations; the gains come
 * from the serving stack — merges stop queueing behind later
 * requests' remote jobs. The paper reports a significant throughput
 * improvement and a P99 drop from 99 ms to 86 ms, entirely in the
 * merge component. Runs the one-replica ClusterSimulator scenario of
 * tbe_serving.h with the TBE gather as two jobs (split) or one
 * (consolidated).
 */

#include <cstdio>

#include "bench_report.h"
#include "bench_util.h"
#include "tbe_serving.h"
#include "telemetry/telemetry.h"

using namespace mtia;

namespace {

/** Latency components of one run, read from a fresh registry. */
struct Components
{
    double p99_ms = 0;
    double remote_p99_ms = 0;
    double merge_p99_ms = 0;
};

Components
decompose(ClusterSimulator &sim, double qps)
{
    telemetry::Telemetry tel;
    sim.setTelemetry(&tel);
    Components c;
    c.p99_ms = sim.simulate(qps, bench::kTbeRunDuration).p99_ms;
    sim.setTelemetry(nullptr);
    const auto p99 = [&tel](const char *cls) {
        return tel.metrics.histogram("cluster.latency_ms", {{"class", cls}})
            .percentile(99);
    };
    c.remote_p99_ms = p99("remote");
    c.merge_p99_ms = p99("merge");
    return c;
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 5 — TBE consolidation vs split weighted/unweighted",
        "Remote/merge serving on one ClusterSimulator replica; P99 SLO "
        "100 ms.");

    ClusterSimulator sim_split(bench::tbeServingConfig(2));
    ClusterSimulator sim_merged(bench::tbeServingConfig(1));
    const Tick dur = bench::kTbeRunDuration;

    bench::section("throughput sweep (completed QPS, P99 ms)");
    std::printf("  %-12s %16s %22s\n", "offered QPS",
                "split (2 remotes)", "consolidated (1 remote)");
    for (double qps : {10.0, 20.0, 30.0, 35.0, 40.0, 45.0}) {
        const ClusterResult a = sim_split.simulate(qps, dur);
        const ClusterResult b = sim_merged.simulate(qps, dur);
        std::printf("  %-12.0f %7.1f / %6.1fms %12.1f / %6.1fms\n",
                    qps, a.completed_qps, a.p99_ms, b.completed_qps,
                    b.p99_ms);
    }

    const double qps_split =
        sim_split.maxQpsAtSlo(bench::kTbeQpsLo, bench::kTbeQpsHi, dur);
    const double qps_merged =
        sim_merged.maxQpsAtSlo(bench::kTbeQpsLo, bench::kTbeQpsHi, dur);

    // Latency decomposition at the split system's sustainable load.
    const Components a = decompose(sim_split, qps_split);
    const Components b = decompose(sim_merged, qps_split);

    bench::section("paper vs measured");
    bench::row("throughput at P99 SLO", "significant improvement",
               bench::fmt("%.1f", qps_split) + " -> " +
                   bench::fmt("%.1f QPS", qps_merged) +
                   bench::fmt(" (%+.0f%%)",
                              (qps_merged / qps_split - 1.0) * 100.0));
    bench::row("P99 request latency", "99 ms -> 86 ms (-13 ms)",
               bench::fmt("%.1f ms -> ", a.p99_ms) +
                   bench::fmt("%.1f ms", b.p99_ms));
    bench::row("merge-component P99", "improves by the same ~13 ms",
               bench::fmt("%.1f ms -> ", a.merge_p99_ms) +
                   bench::fmt("%.1f ms", b.merge_p99_ms));
    bench::row("remote-component P99", "unchanged",
               bench::fmt("%.1f ms -> ", a.remote_p99_ms) +
                   bench::fmt("%.1f ms", b.remote_p99_ms));
    bench::row("PE-grid execution per request", "identical",
               "identical by construction (6 ms remote + 12 ms merge)");

    bench::Report report("fig5_tbe_consolidation");
    report.metric("qps_at_slo_split", qps_split, "QPS");
    report.metric("qps_at_slo_consolidated", qps_merged, "QPS");
    report.metric("throughput_gain_pct",
                  (qps_merged / qps_split - 1.0) * 100.0, "%");
    report.metric("p99_split_ms", a.p99_ms, "ms");
    report.metric("p99_consolidated_ms", b.p99_ms, "ms");
    report.metric("p99_drop_ms", a.p99_ms - b.p99_ms, 5.0, 25.0, "ms");
    report.metric("remote_p99_delta_ms",
                  b.remote_p99_ms - a.remote_p99_ms, "ms");
    return 0;
}
