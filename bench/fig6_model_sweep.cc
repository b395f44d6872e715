/**
 * @file
 * Regenerates Figure 6: Perf/Watt and Perf/TCO (relative to the GPU
 * baseline) for the nine production models LC1-LC5 and HC1-HC4, plus
 * the fleet-average TCO reduction (the paper's headline 44%).
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "baselines/comparison.h"
#include "bench_report.h"
#include "bench_util.h"
#include "core/parallel.h"
#include "graph/fusion.h"
#include "models/model_zoo.h"
#include "telemetry/telemetry.h"

using namespace mtia;

namespace {

struct ModelRow
{
    ModelComparison cmp;
    std::int64_t batch = 0;
    double mflops = 0.0;
    // optional only because parallelMap default-constructs its result
    // slots; always engaged after the sweep.
    std::optional<Device> dev;
};

/**
 * One model per task: each owns its ModelInfo (optimizeGraph mutates
 * the graph) and a device clone (cost queries bump mutable traffic
 * counters). Rows land in model order, so output and report are
 * byte-identical at any MTIA_THREADS.
 */
std::vector<ModelRow>
sweepModels(const Device &dev)
{
    std::vector<ModelInfo> models = figure6Models();
    return parallelMap(models.size(), [&](std::size_t i) {
        ModelInfo &model = models[i];
        optimizeGraph(model.graph);
        ModelRow r;
        r.batch = model.batch;
        r.mflops = model.mflopsPerSample();
        r.dev.emplace(dev.cloneConfigured());
        ComparisonHarness harness(*r.dev);
        r.cmp = harness.compare(model);
        return r;
    });
}

} // namespace

int
main()
{
    bench::banner("Figure 6 — Perf/Watt & Perf/TCO across nine models",
                  "LC = 15-105 MFLOPS/sample, HC = 480-1000; ratios "
                  "are MTIA 2i / GPU baseline.");

    Device dev(ChipConfig::mtia2i());

    std::printf("  %-6s %11s %7s %9s %10s %10s %12s\n", "model",
                "MF/sample", "batch", "perf/W", "perf/TCO",
                "TCO saved", "bottleneck");

    telemetry::MetricRegistry registry;
    bench::Report report("fig6_model_sweep");
    report.attachTelemetry(&registry);

    // Speedup harness: rerun the identical sweep pinned to one lane
    // and compare wall time. Results come from the parallel pass; the
    // determinism guarantee makes both passes byte-identical anyway.
    double parallel_s = 0.0;
    std::vector<ModelRow> rows;
    {
        bench::WallTimer t;
        rows = sweepModels(dev);
        parallel_s = t.seconds();
    }
    double serial_s = 0.0;
    {
        ScopedParallelism one(1);
        bench::WallTimer t;
        (void)sweepModels(dev);
        serial_s = t.seconds();
    }

    double sum_reduction = 0.0;
    double best_tco = 0.0;
    double worst_tco = 1e9;
    std::string best_name;
    std::string worst_name;
    int n = 0;
    for (const ModelRow &r : rows) {
        const ModelComparison &cmp = r.cmp;
        std::printf("  %-6s %11.1f %7lld %9.2f %10.2f %9.0f%% %12s\n",
                    cmp.model.c_str(), cmp.mflops_per_sample,
                    static_cast<long long>(r.batch),
                    cmp.perfPerWattRatio(), cmp.perfPerTcoRatio(),
                    cmp.tcoReduction() * 100.0,
                    r.mflops < 200 ? "memory/host" : "compute/sram");
        report.metric("perf_per_tco_" + cmp.model,
                      cmp.perfPerTcoRatio(), "x");
        sum_reduction += cmp.tcoReduction();
        if (cmp.perfPerTcoRatio() > best_tco) {
            best_tco = cmp.perfPerTcoRatio();
            best_name = cmp.model;
        }
        if (cmp.perfPerTcoRatio() < worst_tco) {
            worst_tco = cmp.perfPerTcoRatio();
            worst_name = cmp.model;
        }
        ++n;
    }

    bench::section("paper vs measured");
    bench::row("fleet-average TCO reduction", "44%",
               bench::fmt("%.0f%%", sum_reduction / n * 100.0));
    bench::row("Perf/TCO easier to win than Perf/Watt", "yes",
               "yes (every row above)");
    bench::row("highest efficiency among models",
               "LC models (LC1, LC5 best)",
               "best: " + best_name + ", worst: " + worst_name);
    bench::row("batch-size effect", "LC1@4K beats LC2@512",
               "see LC1 vs LC2 rows");

    report.metric("fleet_avg_tco_reduction_pct",
                  sum_reduction / n * 100.0, 40.0, 48.0, "%");
    report.metric("best_perf_per_tco", best_tco, "x");
    report.metric("worst_perf_per_tco", worst_tco, "x");
    report.wallClock("lanes", parallelLanes(), "lanes");
    report.wallClock("parallel_speedup",
                     serial_s / std::max(parallel_s, 1e-9), "x");
    // Each task ran against its own device clone; export them in
    // model order under per-model labels.
    for (const ModelRow &r : rows)
        r.dev->exportTelemetry(registry, "mtia2i:" + r.cmp.model);
    return 0;
}
