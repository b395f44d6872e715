/**
 * @file
 * Reproduces the Section 3.3 GEMM findings: >92% of peak FLOPS for
 * 2K x 2K shapes with the new multi-context/auto-increment custom
 * instructions, and the instruction-issue bottleneck that small
 * shapes hit without them.
 */

#include <algorithm>
#include <cstdio>

#include "bench_report.h"
#include "bench_util.h"
#include "chip/device.h"
#include "chip/kernel_cost_model.h"
#include "core/simd.h"
#include "ops/gemm_kernels.h"
#include "sim/random.h"
#include "tensor/tensor.h"

using namespace mtia;

int
main()
{
    bench::banner("Section 3.3 — GEMM efficiency and the issue path",
                  "Shape sweep on MTIA 2i with the new ISA vs the "
                  "MTIA 1-era instruction set.");

    Device modern(ChipConfig::mtia2i());
    ChipConfig legacy_cfg = ChipConfig::mtia2i();
    legacy_cfg.isa = IsaFeatures::mtia1();
    Device legacy(legacy_cfg);
    KernelCostModel km_new(modern);
    KernelCostModel km_old(legacy);

    const FcShape shapes[] = {
        {2048, 2048, 2048}, {1024, 1024, 1024}, {512, 512, 512},
        {256, 256, 256},    {32, 4096, 4096},   {32, 2048, 512},
        {64, 8192, 1024},
    };

    std::printf("  %-18s %11s %10s %11s %10s %16s\n", "M x N x K",
                "new ISA", "eff", "old ISA", "eff", "old bottleneck");
    FcOptions opt;
    opt.include_launch = false; // kernels inside a running job
    for (const FcShape &s : shapes) {
        const KernelTime t_new = km_new.fc(s, opt);
        const KernelTime t_old = km_old.fc(s, opt);
        const Tick ideal = fromSeconds(
            s.flops() / modern.peakGemmFlops(DType::FP16));
        std::printf("  %-18s %9.1fus %9.1f%% %9.1fus %9.1f%% %16s\n",
                    s.toString().c_str(), toMicros(t_new.total),
                    t_new.efficiencyVs(ideal) * 100.0,
                    toMicros(t_old.total),
                    t_old.efficiencyVs(ideal) * 100.0,
                    t_old.bottleneck.c_str());
    }

    const KernelTime big = km_new.fc(FcShape{2048, 2048, 2048}, opt);
    const Tick big_ideal = fromSeconds(
        FcShape{2048, 2048, 2048}.flops() /
        modern.peakGemmFlops(DType::FP16));

    bench::section("paper vs measured");
    bench::row("2K x 2K GEMM efficiency", "> 92% of peak",
               bench::fmt("%.1f%%",
                          big.efficiencyVs(big_ideal) * 100.0));
    bench::row("small shapes without new instructions",
               "issue-rate bound, low out-of-box efficiency",
               "instruction-issue bottleneck reproduced above");

    bench::Report report("gemm_efficiency");
    report.metric("gemm_2k_efficiency_pct",
                  big.efficiencyVs(big_ideal) * 100.0, 92.0, 100.0,
                  "%");
    const KernelTime small_old = km_old.fc(FcShape{256, 256, 256}, opt);
    const Tick small_ideal = fromSeconds(
        FcShape{256, 256, 256}.flops() /
        modern.peakGemmFlops(DType::FP16));
    report.metric("gemm_256_old_isa_efficiency_pct",
                  small_old.efficiencyVs(small_ideal) * 100.0, "%");

    // Alongside the modeled roofline: the measured throughput of the
    // host's functional blocked GEMM (core/simd_gemm via
    // ops/gemm_kernels) at its widest supported dispatch tier. A
    // wall-clock number by nature, so it lands under "wall_clock"; the
    // modeled efficiencies above stay the gated ones.
    {
        const FcShape s{512, 512, 512};
        Rng rng(17);
        Tensor a(Shape{s.m, s.k}, DType::FP32);
        Tensor b(Shape{s.k, s.n}, DType::FP32);
        a.fillGaussian(rng);
        b.fillGaussian(rng);
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            bench::WallTimer timer;
            const Tensor c = gemm_kernels::gemm(a, b, DType::FP32);
            const double secs = timer.seconds();
            if (rep == 0 || secs < best)
                best = secs;
        }
        const double gflops = best > 0.0 ? s.flops() / best / 1e9 : 0.0;
        bench::section("measured functional GEMM (host)");
        bench::row("dispatch tier", "widest supported",
                   simd::isaName(simd::activeIsa()));
        bench::row("512^3 fp32 GFLOP/s", "wall-clock, no band",
                   bench::fmt("%.2f", gflops));
        report.wallClock("functional_gemm_512_gflops", gflops, "GFLOP/s");
    }
    return 0;
}
