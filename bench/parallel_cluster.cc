/**
 * @file
 * Parallel multi-chip DES scaling: one 64-chip cluster simulation
 * (32 replicas x 2 chips under replica kills + ECC storms) partitioned
 * over the deterministic lane pool — the controller plane plus one
 * partition per replica, synchronized at conservative epoch barriers
 * of one fabric latency (see DESIGN.md "Parallel multi-chip DES").
 *
 * The same scenario runs twice: once at the ambient MTIA_THREADS lane
 * count and once pinned serial. The two summaries must match byte for
 * byte (the results_match metric is a hard [1, 1] band, and ctest
 * bench_parallel_cluster_determinism checks the whole report against
 * its golden at MTIA_THREADS 1 and 8); the wall-clock ratio between
 * them is the speedup headline (>= 8x target on a 64-chip scenario
 * with enough cores — a printed row, not a gate, since hosts may have
 * fewer).
 *
 * Emits BENCH_parallel_cluster.json. Everything in it except
 * "wall_clock" derives from simulated state and is byte-identical at
 * any MTIA_THREADS count.
 */

#include <cstdio>
#include <string>

#include "bench_report.h"
#include "bench_util.h"
#include "cluster/cluster_sim.h"
#include "core/parallel.h"

namespace {

using namespace mtia;

ClusterConfig
sixtyFourChipConfig()
{
    ClusterConfig cfg;
    cfg.replicas = 32;
    cfg.chips_per_replica = 2; // 64 chips
    cfg.embedding_shards = 16;
    cfg.routing = RoutingPolicyKind::LeastLoaded;
    cfg.trace.users = 1'000'000;
    cfg.trace.user_zipf_alpha = 1.1;
    cfg.trace.traffic.candidates_mean = 64;
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 1.0;
    cfg.chaos.mean_storm_interval_s = 0.5;
    return cfg;
}

} // namespace

int
main()
{
    bench::banner(
        "Parallel multi-chip DES, 64-chip cluster under chaos",
        "32 replicas x 2 chips partitioned over the lane pool; "
        "epoch-barrier sync, byte-identical at any MTIA_THREADS");

    bench::Report report("parallel_cluster");
    const ClusterSimulator sim(sixtyFourChipConfig());
    const double qps = 12000.0;
    const Tick duration = fromSeconds(2.0);
    const unsigned lanes = parallelLanes();

    char label[64];
    std::snprintf(label, sizeof label, "chaos run, %u lane(s)", lanes);
    bench::section(label);
    const bench::WallTimer par_timer;
    const ClusterResult par = sim.simulate(qps, duration);
    const double par_seconds = par_timer.seconds();
    std::printf("%s", par.summary().c_str());

    bench::section("same seed, pinned serial");
    double serial_seconds = 0.0;
    ClusterResult ser;
    {
        ScopedParallelism serial(1);
        const bench::WallTimer ser_timer;
        ser = sim.simulate(qps, duration);
        serial_seconds = ser_timer.seconds();
    }

    const bool match = par.summary() == ser.summary();
    bench::section("results");
    bench::row("summary bytes, parallel vs serial", "identical",
               match ? "identical" : "DIVERGED");
    bench::row("cluster SLO attainment (chaos on)", "0.80..1.00",
               bench::fmt("%.3f", par.slo_attainment));
    bench::row("failovers detected", ">= 1",
               bench::fmt("%.0f", static_cast<double>(par.failovers)));

    // The hard gate: partitioned execution must not change one byte of
    // the simulated outcome. Everything below stays lane-invariant.
    report.metric("results_match", match ? 1.0 : 0.0, 1.0, 1.0, "bool");
    report.metric("chips", 64.0);
    report.metric("partitions",
                  static_cast<double>(sim.config().replicas) + 1.0);
    report.metric("slo_attainment", par.slo_attainment, 0.80, 1.00,
                  "fraction");
    report.metric("p99_ms", par.p99_ms, "ms");
    report.metric("arrivals", static_cast<double>(par.arrivals));
    report.metric("completed", static_cast<double>(par.completed));
    report.metric("rerouted", static_cast<double>(par.rerouted));
    report.metric("dropped", static_cast<double>(par.dropped));
    report.metric("kills", par.kills);
    report.metric("failovers", par.failovers);
    report.metric("ecc_errors", static_cast<double>(par.ecc_errors));

    // Wall clock is machine-dependent by nature: it rides "wall_clock",
    // the one report field the golden check strips. >= 8x is the
    // 64-chip target with >= 8 cores; fewer cores report honestly
    // below it.
    report.wallClock("lanes", lanes, "lanes");
    if (par_seconds > 0.0)
        report.wallClock("parallel_speedup", serial_seconds / par_seconds,
                         "x");
    std::snprintf(label, sizeof label, "%.2fx at %u lane(s)",
                  par_seconds > 0.0 ? serial_seconds / par_seconds : 0.0,
                  lanes);
    bench::row("wall-clock speedup vs serial",
               ">= 8x with >= 8 cores (not gated)", label);

    report.write();
    std::printf("\nreport: %s\n", report.path().c_str());
    return match ? 0 : 1;
}
