/**
 * @file
 * Reproduces the Section 4.1 autotuning results: ANN kernel tuning
 * ~1000x cheaper than exhaustive within 5% of its performance, batch
 * tuning with the LLS-fallback rule, and request coalescing reaching
 * >95% requests per batch — plus the surrogate-guided loop
 * (autotune/surrogate.h) that makes 100-1000x larger candidate grids
 * affordable: the bench prices a reference grid exhaustively, reruns
 * it surrogate-guided, and reports prediction accuracy (MAE, Spearman
 * rank correlation), regret, winner bit-equality, and the measured
 * end-to-end tuning wall-clock speedup.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "autotune/autotune_stats.h"
#include "autotune/batch_tuner.h"
#include "autotune/coalescing_tuner.h"
#include "autotune/kernel_tuner.h"
#include "autotune/surrogate.h"
#include "bench_report.h"
#include "bench_util.h"
#include "models/model_zoo.h"
#include "telemetry/metrics.h"

using namespace mtia;

namespace {

// Fractional ranks with average-rank ties (deterministic: sort order
// breaks value ties by index, equal values share one averaged rank).
std::vector<double>
fractionalRanks(const std::vector<double> &v)
{
    std::vector<std::size_t> order(v.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (v[a] != v[b])
                      return v[a] < v[b];
                  return a < b;
              });
    std::vector<double> rank(v.size(), 0.0);
    std::size_t i = 0;
    while (i < order.size()) {
        std::size_t j = i;
        while (j < order.size() && v[order[j]] == v[order[i]])
            ++j;
        const double avg =
            (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 +
            1.0;
        for (std::size_t k = i; k < j; ++k)
            rank[order[k]] = avg;
        i = j;
    }
    return rank;
}

// Spearman rank correlation: Pearson correlation of the fractional
// ranks. 1.0 means the surrogate orders candidates exactly like the
// real evaluator.
double
spearman(const std::vector<double> &a, const std::vector<double> &b)
{
    const std::vector<double> ra = fractionalRanks(a);
    const std::vector<double> rb = fractionalRanks(b);
    const double n = static_cast<double>(ra.size());
    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < ra.size(); ++i) {
        ma += ra[i];
        mb += rb[i];
    }
    ma /= n;
    mb /= n;
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < ra.size(); ++i) {
        cov += (ra[i] - ma) * (rb[i] - mb);
        va += (ra[i] - ma) * (ra[i] - ma);
        vb += (rb[i] - mb) * (rb[i] - mb);
    }
    if (va <= 0.0 || vb <= 0.0)
        return 0.0;
    return cov / std::sqrt(va * vb);
}

// Costs at or above this are the infeasible-variant penalty tier;
// accuracy statistics only make sense over the feasible candidates.
constexpr double kFeasibleCeiling = 1e17;

} // namespace

int
main()
{
    bench::banner("Section 4.1 — the autotuning framework",
                  "Kernel tuning (exhaustive vs ANN vs surrogate), "
                  "batch sizing, and request coalescing.");

    autotune::resetStats();
    telemetry::MetricRegistry metrics;
    bench::Report report("autotune");

    Device dev(ChipConfig::mtia2i());
    KernelCostModel km(dev);
    KernelTuner tuner(km);

    // --- Kernel tuning.
    std::vector<FcShape> corpus;
    Rng rng(7);
    for (int i = 0; i < 120; ++i) {
        corpus.push_back(FcShape{
            static_cast<std::int64_t>(32u << rng.below(7)),
            static_cast<std::int64_t>(128u << rng.below(7)),
            static_cast<std::int64_t>(128u << rng.below(6))});
    }
    PerfDatabase db = tuner.buildDatabase(corpus);

    double worst = 1.0;
    double exhaustive_cost = 0.0;
    double ann_cost = 0.0;
    for (int i = 0; i < 100; ++i) {
        const FcShape q{
            static_cast<std::int64_t>(24u << rng.below(7)),
            static_cast<std::int64_t>(96u << rng.below(7)),
            static_cast<std::int64_t>(160u << rng.below(6))};
        const TuneResult ex = tuner.tuneExhaustive(q);
        const TuneResult ann = tuner.tuneApproximate(q, db);
        worst = std::max(worst, static_cast<double>(ann.kernel_time) /
                                    ex.kernel_time);
        exhaustive_cost += static_cast<double>(ex.tuning_cost);
        ann_cost += static_cast<double>(ann.tuning_cost);
    }
    bench::section("FC kernel tuning (120-shape database, 100 queries)");
    bench::row("tuning-time reduction", "up to 1000x",
               bench::fmt("%.0fx", exhaustive_cost / ann_cost));
    bench::row("kernel perf vs exhaustive", "within 5%",
               bench::fmt("worst +%.1f%%", (worst - 1.0) * 100.0));

    // --- Surrogate-guided kernel tuning: the reference-grid gate.
    // The extended 288-variant grid is small enough to price
    // exhaustively once, which gives ground truth for every candidate:
    // the surrogate rerun must land on the bit-identical winner (zero
    // regret), and its full-grid predictions are scored for MAE and
    // rank correlation against the exhaustive costs.
    bench::section(
        "surrogate-guided kernel tuning (288-variant reference grid)");
    const std::vector<FcShape> ref_queries = {
        FcShape{256, 1024, 512}, FcShape{512, 2048, 256},
        FcShape{64, 4096, 1024}, FcShape{768, 768, 384}};
    // The max-based cost model leaves 8-32-way exact cost ties (flags
    // that don't move the bottleneck term are free); recovering the
    // canonical lowest-index tie member bit-exactly needs the verify
    // budget to cover the predicted-best cluster, so size top_k at
    // the cluster width rather than the default 8.
    SurrogateSweepOptions ref_opts;
    ref_opts.top_k = 24;
    bool bit_equal = true;
    double worst_regret_pct = 0.0;
    double worst_mae_pct = 0.0;
    double worst_topk_mae_pct = 0.0;
    double worst_rho = 1.0;
    double grid_ratio = 0.0;
    double eval_reduction = 0.0;
    // A verify budget as large as the grid is the exhaustive reference.
    const std::size_t kernel_grid =
        KernelTuner::extendedVariantSpace().size();
    for (const FcShape &q : ref_queries) {
        const KernelSurrogateResult ex =
            tuner.tuneSurrogate(q, nullptr, {.top_k = kernel_grid});
        const KernelSurrogateResult sg =
            tuner.tuneSurrogate(q, &db, ref_opts);
        const bool same =
            sg.loop.best_index == ex.loop.best_index &&
            sg.result.kernel_time == ex.result.kernel_time;
        bit_equal = bit_equal && same;
        const double regret_pct =
            (sg.loop.best_cost - ex.loop.best_cost) /
            ex.loop.best_cost * 100.0;
        worst_regret_pct = std::max(worst_regret_pct, regret_pct);
        // Accuracy over the feasible slice of the fully-priced grid
        // (scored only when the model ran, so predictions exist).
        double mae_pct = 0.0;
        double rho = 1.0;
        if (sg.loop.used_surrogate) {
            std::vector<double> pred, real;
            double abs_err = 0.0, real_sum = 0.0;
            for (std::size_t i = 0; i < ex.loop.measured.size(); ++i) {
                const double r = ex.loop.measured_cost[i];
                if (r >= kFeasibleCeiling)
                    continue;
                const double p = sg.loop.predicted[ex.loop.measured[i]];
                pred.push_back(p);
                real.push_back(r);
                abs_err += std::abs(p - r);
                real_sum += r;
            }
            if (!real.empty()) {
                mae_pct = abs_err / real_sum * 100.0;
                rho = spearman(pred, real);
            }
            worst_topk_mae_pct = std::max(
                worst_topk_mae_pct,
                sg.loop.mae / ex.loop.best_cost * 100.0);
        }
        worst_mae_pct = std::max(worst_mae_pct, mae_pct);
        worst_rho = std::min(worst_rho, rho);
        grid_ratio = static_cast<double>(sg.grid_size) /
            static_cast<double>(KernelTuner::variantSpace().size());
        eval_reduction = static_cast<double>(sg.grid_size) /
            static_cast<double>(sg.loop.real_evals);
        std::printf("  %5lldx%-5lldx%-5lld winner %s  regret %+.3f%%  "
                    "mae %5.1f%%  rho %.3f  evals %zu/%zu\n",
                    static_cast<long long>(q.m),
                    static_cast<long long>(q.n),
                    static_cast<long long>(q.k),
                    same ? "bit-equal" : "DIVERGED ", regret_pct,
                    mae_pct, rho, sg.loop.real_evals, sg.grid_size);
    }
    bench::row("verified winner vs exhaustive sweep", "bit-identical",
               bit_equal ? "bit-identical" : "DIVERGED");
    bench::row("surrogate regret on reference grid", "0%",
               bench::fmt("%.3f%%", worst_regret_pct));
    bench::row("grid growth vs legacy variant space", "100-1000x grids",
               bench::fmt("%.0fx candidates", grid_ratio));

    // --- Batch tuning.
    bench::section("batch-size tuning (traffic-replay snapshots)");
    BatchSizeTuner batch_tuner(dev);
    auto builder = [](std::int64_t batch) {
        RankingModelParams p;
        p.name = "bt-model";
        p.batch = batch;
        p.tbe = TbeTableSpec{.tables = 48,
                             .rows_per_table = 2 << 20,
                             .dim = 64,
                             .dtype = DType::FP16,
                             .zipf_alpha = 0.9};
        p.dhen_layers = 2;
        p.dhen_width = 512;
        return buildRankingModel(p);
    };
    std::size_t winner = 0;
    const auto snaps = batch_tuner.evaluate(
        builder, {128, 256, 512, 1024, 2048, 4096},
        fromMillis(100.0), winner);
    std::printf("  %-8s %12s %12s %10s %8s\n", "batch", "latency",
                "QPS", "LLS fit", "SLO");
    for (const auto &s : snaps) {
        std::printf("  %-8lld %9.2f ms %12.0f %10s %8s\n",
                    static_cast<long long>(s.batch),
                    s.cost.latencyMs(), s.cost.qps,
                    s.cost.activations_fit_lls ? "yes" : "spill",
                    s.meets_slo ? "ok" : "miss");
    }
    std::printf("  winner: batch %lld\n",
                static_cast<long long>(snaps[winner].batch));

    // Surrogate rerun on a 21x denser batch grid (every multiple of
    // 32) — only the seed + top-k batches pay a model build — checked
    // against an exhaustive sweep of the same grid. The QPS curve is
    // nearly flat at its top, so the seed stride matters more than
    // the seed count here: 16 seeds land the verify cluster on the
    // exact winner.
    std::vector<std::int64_t> dense_batches;
    for (std::int64_t b = 64; b <= 4096; b += 32)
        dense_batches.push_back(b);
    const BatchSurrogateResult btex = batch_tuner.tuneSurrogate(
        builder, dense_batches, fromMillis(100.0),
        {.top_k = dense_batches.size()});
    SurrogateSweepOptions batch_opts;
    batch_opts.seed_count = 16;
    batch_opts.top_k = 8;
    const BatchSurrogateResult bt = batch_tuner.tuneSurrogate(
        builder, dense_batches, fromMillis(100.0), batch_opts);
    bit_equal = bit_equal && bt.loop.best_index == btex.loop.best_index;
    const double batch_regret_pct =
        (bt.loop.best_cost - btex.loop.best_cost) /
        std::abs(btex.loop.best_cost) * 100.0;
    std::printf("  dense grid: %zu candidates, %zu built, winner batch "
                "%lld (%.2f ms, %.0f QPS) %s exhaustive\n",
                bt.grid_size, bt.loop.real_evals,
                static_cast<long long>(bt.best.batch),
                bt.best.cost.latencyMs(), bt.best.cost.qps,
                bt.loop.best_index == btex.loop.best_index
                    ? "bit-equal to"
                    : "DIVERGED from");

    // --- Coalescing.
    bench::section("request coalescing (4000 QPS trace)");
    Rng trng(11);
    TrafficParams tp;
    tp.qps = 4000.0;
    tp.duration = fromSeconds(5.0);
    tp.candidates_mean = 64;
    const auto trace = generateTrace(trng, tp);
    CoalescingTuner ctuner(fromMillis(10.0));
    const auto candidates = ctuner.sweep(
        trace, 512,
        {fromMillis(0.5), fromMillis(2.0), fromMillis(8.0),
         fromMillis(32.0)},
        {1, 2, 4});
    std::printf("  %-12s %-10s %10s %14s %12s\n", "window", "parallel",
                "fill", "reqs/batch", "mean wait");
    for (const auto &c : candidates) {
        std::printf("  %9.1fms %-10u %9.1f%% %14.1f %9.2f ms\n",
                    toMillis(c.config.window),
                    c.config.parallel_windows,
                    c.stats.mean_fill * 100.0,
                    c.stats.mean_requests_per_batch,
                    toMillis(c.stats.mean_wait));
    }
    bench::row("requests per batch with tuning", "> 95% fill",
               bench::fmt("%.1f%%",
                          candidates.front().stats.mean_fill * 100.0));

    // --- End-to-end tuning wall-clock speedup: a window grid dense
    // enough (160 windows x 3 parallel options) that exhaustive trace
    // replay dominates, timed exhaustively vs surrogate-guided on a
    // shorter trace. Both runs replay the identical deterministic
    // workload; only who pays for which cell differs.
    bench::section("surrogate tuning speedup (480-cell coalescing grid)");
    Rng strng(13);
    TrafficParams stp;
    stp.qps = 4000.0;
    stp.duration = fromSeconds(1.5);
    stp.candidates_mean = 64;
    const auto speed_trace = generateTrace(strng, stp);
    std::vector<Tick> dense_windows;
    for (int i = 1; i <= 160; ++i)
        dense_windows.push_back(fromMillis(0.25 * i));
    const std::vector<unsigned> speed_parallel = {1, 2, 4};
    CoalescingSurrogateResult cex;
    double exhaustive_s = 0.0;
    {
        bench::WallTimer t;
        cex = ctuner.sweepSurrogate(
            speed_trace, 512, dense_windows, speed_parallel,
            {.top_k = dense_windows.size() * speed_parallel.size()});
        exhaustive_s = t.seconds();
    }
    CoalescingSurrogateResult csg;
    double surrogate_s = 0.0;
    {
        bench::WallTimer t;
        csg = ctuner.sweepSurrogate(speed_trace, 512, dense_windows,
                                    speed_parallel);
        surrogate_s = t.seconds();
    }
    const double tuning_speedup =
        exhaustive_s / std::max(surrogate_s, 1e-9);
    const double coal_regret_pct =
        (csg.loop.best_cost - cex.loop.best_cost) /
        std::abs(cex.loop.best_cost) * 100.0;
    std::printf("  exhaustive: %zu replays   surrogate: %zu replays   "
                "winner %s\n",
                cex.loop.real_evals, csg.loop.real_evals,
                csg.loop.best_index == cex.loop.best_index
                    ? "bit-equal"
                    : (csg.loop.best_cost == cex.loop.best_cost
                           ? "cost-tied"
                           : "DIVERGED"));
    bench::row("tuning wall-clock speedup", ">= 10x",
               bench::fmt("%.1fx", tuning_speedup));
    bench::row("surrogate regret on dense grid", "0%",
               bench::fmt("%.3f%%", coal_regret_pct));

    report.metric("ann_tuning_speedup", exhaustive_cost / ann_cost,
                  "x");
    report.metric("ann_worst_regression_pct", (worst - 1.0) * 100.0,
                  0.0, 5.0, "%");
    report.metric("winning_batch",
                  static_cast<double>(snaps[winner].batch));
    report.metric("coalescing_best_fill_pct",
                  candidates.front().stats.mean_fill * 100.0, 95.0,
                  100.0, "%");
    // Hard surrogate gates (CI asserts within_band): the verified
    // winner must be bit-identical to the exhaustive sweep's on the
    // reference grid, with zero regret; accuracy must clear the MAE
    // and rank-correlation floors.
    report.metric("surrogate_bitequal_winner", bit_equal ? 1.0 : 0.0,
                  1.0, 1.0);
    report.metric("surrogate_regret_pct", worst_regret_pct, 0.0, 0.0,
                  "%");
    report.metric("surrogate_mae_pct", worst_mae_pct, 0.0, 60.0, "%");
    report.metric("surrogate_topk_mae_pct", worst_topk_mae_pct, 0.0,
                  150.0, "%");
    report.metric("surrogate_rank_correlation", worst_rho, 0.75, 1.0);
    report.metric("surrogate_eval_reduction", eval_reduction, "x");
    report.metric("surrogate_dense_batch_winner",
                  static_cast<double>(bt.best.batch));
    report.surrogate("mae_pct", worst_mae_pct);
    report.surrogate("topk_mae_pct", worst_topk_mae_pct);
    report.surrogate("rank_correlation", worst_rho);
    report.surrogate("regret_pct", worst_regret_pct);
    report.surrogate("bit_equal", bit_equal ? 1.0 : 0.0);
    report.surrogate("batch_regret_pct", batch_regret_pct);
    report.surrogate("coalescing_regret_pct", coal_regret_pct);
    report.surrogate("eval_reduction_x", eval_reduction);
    report.surrogate("surrogate_evals",
                     static_cast<double>(autotune::surrogateEvals()));
    report.surrogate("real_evals",
                     static_cast<double>(autotune::realEvals()));
    report.wallClock("surrogate_tuning_speedup", tuning_speedup, "x");
    autotune::publishAutotuneMetrics(metrics);
    report.attachTelemetry(&metrics);
    return 0;
}
