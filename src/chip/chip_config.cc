#include "chip/chip_config.h"

namespace mtia {

double
ChipConfig::peakGemmFlops(DType dtype, bool sparse_24) const
{
    DotProductEngine engine(dpe);
    return engine.peakFlops(reference_frequency_ghz, dtype,
                            sparse_24 && supports_sparsity_24) *
        peCount();
}

ChipConfig
ChipConfig::mtia2i()
{
    ChipConfig cfg;
    cfg.name = "MTIA 2i";
    cfg.reference_frequency_ghz = 1.35;
    cfg.pe_rows = 8;
    cfg.pe_cols = 8;
    cfg.local_memory_per_pe = 384_KiB;
    cfg.local_memory_bandwidth = gbPerSec(1000.0);
    cfg.tdp_watts = 85.0;
    cfg.idle_watts = 18.0;

    // DPE: 2 tiles x 512 MACs/cycle x 64 PEs x 1.35 GHz x 2
    //  = 176.9 TFLOPS FP16 (354 INT8, 708 INT8 sparse).
    cfg.dpe = DpeConfig{};
    cfg.simd = SimdConfig{.lanes = 64, .lut_entries = 1024};
    cfg.isa = IsaFeatures{};          // all new instructions present
    cfg.work_queue = WorkQueueConfig{};

    cfg.sram = SramConfig{.capacity = 256_MiB,
                          .region_granularity = 32_MiB,
                          .bandwidth = gbPerSec(2700.0)};
    cfg.lpddr = LpddrConfig{.capacity = 128_GiB,
                            .peak_bandwidth = gbPerSec(204.8),
                            .ecc = EccMode::Controller};
    cfg.noc = NocConfig{.bisection_bandwidth = gbPerSec(2700.0),
                        .broadcast_reads = true,
                        .start_latency = fromNanos(50.0)};
    cfg.pcie = PcieConfig{.generation = 5, .lanes = 8};
    cfg.supports_sparsity_24 = true;
    return cfg;
}

ChipConfig
ChipConfig::mtia1()
{
    ChipConfig cfg;
    cfg.name = "MTIA 1";
    cfg.reference_frequency_ghz = 0.8;
    cfg.pe_rows = 8;
    cfg.pe_cols = 8;
    cfg.local_memory_per_pe = 128_KiB;
    cfg.local_memory_bandwidth = gbPerSec(400.0);
    cfg.tdp_watts = 35.0;
    cfg.idle_watts = 8.0;

    // 51.2 TFLOPS FP16 / 64 PEs / 0.8 GHz / 2 = 500 MACs per cycle.
    cfg.dpe = DpeConfig{.mac_tiles = 2,
                        .tile_rows = 32,
                        .tile_depth = 32,
                        .tile_macs_per_cycle = 250};
    cfg.simd = SimdConfig{.lanes = 64, .lut_entries = 512};
    cfg.isa = IsaFeatures::mtia1();
    cfg.work_queue = WorkQueueConfig::mtia1();

    cfg.sram = SramConfig{.capacity = 128_MiB,
                          .region_granularity = 32_MiB,
                          .bandwidth = gbPerSec(800.0)};
    cfg.lpddr = LpddrConfig{.capacity = 64_GiB,
                            .peak_bandwidth = gbPerSec(176.0),
                            .ecc = EccMode::Controller};
    cfg.noc = NocConfig{.bisection_bandwidth = gbPerSec(818.0),
                        .broadcast_reads = false,
                        .start_latency = fromNanos(70.0)};
    cfg.pcie = PcieConfig{.generation = 4, .lanes = 8};
    cfg.supports_sparsity_24 = false;
    return cfg;
}

} // namespace mtia
