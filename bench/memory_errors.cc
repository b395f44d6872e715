/**
 * @file
 * Reproduces the Section 5.1 memory-error investigation: fleet
 * telemetry (24% of 1,700 servers), region-sensitivity injection, and
 * the ECC decision (10-15% throughput penalty vs operating blind).
 */

#include <algorithm>
#include <cstdio>

#include "bench_report.h"
#include "bench_util.h"
#include "core/check.h"
#include "chip/kernel_cost_model.h"
#include "core/parallel.h"
#include "fleet/memory_error_study.h"
#include "graph/fusion.h"
#include "graph/graph_cost.h"
#include "mem/ecc.h"
#include "models/model_zoo.h"

using namespace mtia;

int
main()
{
    bench::banner("Section 5.1 — trade-offs in handling memory errors",
                  "Fleet telemetry, injection campaign, and the "
                  "controller-ECC decision.");

    // --- Fleet telemetry.
    LpddrConfig cfg;
    cfg.peak_bandwidth = gbPerSec(204.8);
    cfg.bit_error_rate = 1.9e-20;
    LpddrChannel channel(cfg);

    // Run the Monte-Carlo sections twice — once pinned to one lane,
    // once at the configured lane count — for the wall-clock speedup
    // ratio. The fork-based substreams make both passes byte-identical
    // (checked below); the parallel pass's results are reported.
    double serial_s = 0.0;
    FleetErrorReport serial_fleet;
    std::vector<InjectionReport> serial_regions;
    {
        ScopedParallelism one(1);
        MemoryErrorStudy study(61);
        bench::WallTimer t;
        serial_fleet = study.sampleFleet(channel, 1700, 90.0, 64_GiB);
        serial_regions = study.injectAllRegions(3000);
        serial_s = t.seconds();
    }
    MemoryErrorStudy study(61);
    bench::WallTimer parallel_timer;
    const FleetErrorReport fleet =
        study.sampleFleet(channel, 1700, 90.0, 64_GiB);
    const std::vector<InjectionReport> regions =
        study.injectAllRegions(3000);
    const double parallel_s = parallel_timer.seconds();
    MTIA_CHECK_EQ(fleet.servers_with_errors,
                  serial_fleet.servers_with_errors)
        << ": fleet sample must not depend on the lane count";
    for (std::size_t i = 0; i < regions.size(); ++i) {
        MTIA_CHECK_EQ(regions[i].corrupted, serial_regions[i].corrupted)
            << ": injection campaign must not depend on the lane count";
    }

    bench::section("fleet telemetry (1,700 servers, 90 days)");
    bench::row("servers with ECC errors", "24%",
               bench::fmt("%.0f%%",
                          fleet.serverErrorFraction() * 100.0));
    bench::row("affected servers with a single bad card", "typical",
               bench::fmt("%.0f%%",
                          100.0 * fleet.single_card_servers /
                              std::max(1u,
                                       fleet.servers_with_errors)));

    // --- Injection campaign.
    bench::section("injection campaign (3,000 flips per region)");
    std::printf("  %-18s %8s %10s %8s %14s\n", "region", "benign",
                "corrupted", "NaN", "out-of-bounds");
    for (const InjectionReport &r : regions) {
        std::printf("  %-18s %7.1f%% %9.1f%% %7.1f%% %13.1f%%\n",
                    memRegionName(r.region).c_str(),
                    100.0 * r.benign / r.trials,
                    100.0 * r.corrupted / r.trials,
                    100.0 * r.nan / r.trials,
                    100.0 * r.out_of_bounds / r.trials);
    }
    bench::row("TBE index flips", "NaNs/corruption, high probability",
               "mostly crash-equivalent (see table)");

    // --- SECDED behaviour (the codec is real).
    bench::section("SECDED(72,64) codec sanity");
    Rng rng(5);
    int corrected = 0;
    for (int t = 0; t < 10000; ++t) {
        EccCodeword cw = EccCodec::encode(rng.next());
        cw.flipBit(static_cast<unsigned>(rng.below(72)));
        std::uint64_t data = 0;
        corrected += EccCodec::decode(cw, data) ==
            EccResult::CorrectedSingle;
    }
    bench::row("single-bit correction", "100%",
               bench::fmt("%.2f%%", corrected / 100.0));

    // --- The ECC decision: end-to-end penalty.
    bench::section("end-to-end cost of controller ECC");
    // A bandwidth-sensitive early-stage model feels the penalty most.
    ModelInfo model = buildEarlyStageModel(2048);
    optimizeGraph(model.graph);

    Device with(ChipConfig::mtia2i());
    Device without(ChipConfig::mtia2i());
    without.dram().setEccMode(EccMode::None);
    const ModelCost c_with =
        GraphCostModel(with).evaluate(model.graph, model.batch);
    const ModelCost c_without =
        GraphCostModel(without).evaluate(model.graph, model.batch);
    bench::row("throughput penalty of enabling ECC", "10-15%",
               bench::fmt("%.1f%%",
                          (1.0 - c_with.qps / c_without.qps) * 100.0));
    bench::row("decision", "enable ECC despite the penalty",
               "enabled by default in ChipConfig::mtia2i()");

    bench::Report report("memory_errors");
    report.metric("fleet_server_error_pct",
                  fleet.serverErrorFraction() * 100.0, 20.0, 28.0,
                  "%");
    report.metric("secded_single_bit_correction_pct",
                  corrected / 100.0, 100.0, 100.0, "%");
    report.metric("ecc_throughput_penalty_pct",
                  (1.0 - c_with.qps / c_without.qps) * 100.0, 10.0,
                  15.0, "%");
    report.wallClock("lanes", parallelLanes(), "lanes");
    report.wallClock("parallel_speedup",
                     serial_s / std::max(parallel_s, 1e-9), "x");
    return 0;
}
