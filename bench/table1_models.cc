/**
 * @file
 * Regenerates Table 1: the production-model classes, their sizes and
 * complexities, from the synthetic model zoo.
 */

#include <cstdio>

#include "bench_report.h"
#include "bench_util.h"
#include "models/model_zoo.h"

using namespace mtia;

namespace {

void
printModel(const ModelInfo &m, const char *size_band,
           const char *complexity_band)
{
    std::printf("  %-16s %8.1f GB embeddings (paper: %s)   "
                "%8.2f MFLOPS/sample (paper: %s)   batch %lld\n",
                m.name.c_str(),
                static_cast<double>(m.embedding_bytes) / (1ull << 30),
                size_band, m.mflopsPerSample(), complexity_band,
                static_cast<long long>(m.batch));
}

} // namespace

int
main()
{
    bench::banner("Table 1 — production model classes",
                  "Model size (90% embeddings) and per-sample "
                  "complexity across the recommendation funnel.");

    printModel(buildRetrievalModel(), "50-100 GB", "0.001-0.01 GF");
    printModel(buildEarlyStageModel(), "100-300 GB", "0.01-0.1 GF");
    printModel(buildLateStageModel(), "100-300 GB", "0.2-2 GF");

    // HSTU is sized by its sequence-embedding table alone; the zoo
    // builds no HSTU graph.
    const TbeTableSpec hstu{.tables = 1,
                            .rows_per_table = 512 << 20,
                            .dim = 256,
                            .dtype = DType::FP16};
    const double hstu_embedding_gb =
        static_cast<double>(hstu.totalBytes()) / (1ull << 30);
    std::printf("  %-16s %8.1f GB embeddings (paper: 1-2 TB class)\n",
                "hstu-ranking", hstu_embedding_gb);

    bench::section("funnel invariant");
    const double r = buildRetrievalModel().mflopsPerSample();
    const double e = buildEarlyStageModel().mflopsPerSample();
    const double l = buildLateStageModel().mflopsPerSample();
    bench::row("complexity ladder retrieval < early < late",
               "monotone",
               r < e && e < l ? "monotone (reproduced)" : "VIOLATED");

    bench::Report report("table1_models");
    // The zoo targets the paper's complexity ladder shape, not its
    // absolute MFLOPS, so only retrieval carries a paper band here.
    report.metric("retrieval_mflops_per_sample", r, 1.0, 10.0, "MF");
    report.metric("early_stage_mflops_per_sample", e, "MF");
    report.metric("late_stage_mflops_per_sample", l, "MF");
    report.metric("complexity_ladder_monotone",
                  r < e && e < l ? 1.0 : 0.0);
    report.metric("hstu_embedding_gb", hstu_embedding_gb, "GB");
    return 0;
}
