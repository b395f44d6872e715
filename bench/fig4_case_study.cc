/**
 * @file
 * Regenerates Figure 4: the eight-month co-design trajectory of the
 * Section 6 case-study model, from an initially inferior ~50% of the
 * GPU baseline's Perf/TCO to a final ~180%, across three model
 * variants (the figure's multiple lines). Each point re-evaluates the
 * model as it existed that month with exactly the optimizations that
 * had landed.
 */

#include <cstdio>

#include "baselines/comparison.h"
#include "bench_report.h"
#include "bench_util.h"
#include "graph/fusion.h"
#include "models/case_study.h"
#include "tbe_serving.h"

using namespace mtia;

namespace {

/** Throughput multiplier of TBE consolidation: Figure 5's QPS-at-SLO
 * ratio, from the same scenario, duration and seed. */
double
consolidationGain()
{
    const double a =
        ClusterSimulator(bench::tbeServingConfig(2))
            .maxQpsAtSlo(bench::kTbeQpsLo, bench::kTbeQpsHi,
                         bench::kTbeRunDuration);
    const double b =
        ClusterSimulator(bench::tbeServingConfig(1))
            .maxQpsAtSlo(bench::kTbeQpsLo, bench::kTbeQpsHi,
                         bench::kTbeRunDuration);
    return a == 0.0 ? 1.0 : b / a;
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 4 — continuous optimization of a key ranking model",
        "Perf/TCO relative to the GPU baseline across the eight-month "
        "porting effort (three model variants).");

    const double tbe_gain = consolidationGain();
    std::printf("(TBE-consolidation gain measured by the Fig.5 DES: "
                "%.2fx)\n\n", tbe_gain);

    const std::vector<double> variants = {0.92, 1.0, 1.08};
    std::printf("%-5s %-46s", "month", "optimization landed");
    for (double v : variants)
        std::printf("  var%.2f", v);
    std::printf("   MF/sample\n");

    double first_ratio = 0.0;
    double final_ratio = 0.0;
    for (const CaseStudyStage &stage : caseStudyStages()) {
        std::printf("%-5d %-46s", stage.month, stage.label.c_str());
        double mf = 0.0;
        for (double scale : variants) {
            ModelInfo model = buildCaseStudyModel(stage.month, scale);
            if (stage.fusions) {
                fuseVerticalFcActivation(model.graph);
                fuseSiblingTransposeFc(model.graph);
                batchLayerNormsHorizontally(model.graph);
                simplifyMhaLayouts(model.graph);
            }
            if (stage.defer_ibb)
                deferInBatchBroadcast(model.graph);
            model.graph.validate();

            Device dev(ChipConfig::mtia2i());
            dev.setFrequencyGhz(stage.frequency_ghz);
            GraphCostOptions opt;
            opt.memory_aware_schedule = stage.memory_aware;
            opt.coordinated_loading = stage.coordinated;
            // Kernel-variant selection brings placement-aware
            // variants: before it lands, activations are not pinned.
            opt.tuned_placement = stage.coordinated;

            ComparisonHarness harness(dev);
            ModelComparison cmp = harness.compare(model, opt);
            double ratio = cmp.perfPerTcoRatio();
            if (stage.tbe_consolidated)
                ratio *= tbe_gain;
            std::printf("  %6.2f", ratio);
            if (scale == 1.0) {
                mf = cmp.mflops_per_sample;
                if (stage.month == 0)
                    first_ratio = ratio;
                final_ratio = ratio;
            }
        }
        std::printf("  %9.0f\n", mf);
    }

    bench::section("paper vs measured (primary variant)");
    bench::row("initial Perf/TCO vs GPU", "~0.5 (inferior)",
               bench::fmt("%.2f", first_ratio));
    bench::row("final Perf/TCO vs GPU", "~1.8 (superior)",
               bench::fmt("%.2f", final_ratio));
    bench::row("complexity growth", "140 -> 940 MFLOPS/sample",
               "see MF/sample column");

    bench::Report report("fig4_case_study");
    report.metric("initial_perf_per_tco_ratio", first_ratio, 0.4, 0.6,
                  "x");
    report.metric("final_perf_per_tco_ratio", final_ratio, 1.6, 2.4,
                  "x");
    report.metric("tbe_consolidation_gain", tbe_gain, "x");
    return 0;
}
