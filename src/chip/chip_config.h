#ifndef MTIA_CHIP_CHIP_CONFIG_H_
#define MTIA_CHIP_CHIP_CONFIG_H_

/**
 * @file
 * Full chip specification (the contents of Table 2) plus factory
 * functions for MTIA 2i and MTIA 1. All bandwidth/FLOPS figures are
 * quoted at the reference frequency; the Device scales the on-chip
 * ones when the clock moves (the Section 5.2 overclocking study).
 */

#include <string>

#include "host/pcie.h"
#include "mem/lpddr.h"
#include "mem/sram.h"
#include "noc/noc.h"
#include "pe/command_processor.h"
#include "pe/dpe.h"
#include "pe/simd_engine.h"
#include "pe/work_queue_engine.h"
#include "sim/types.h"

namespace mtia {

/** Static specification of one accelerator chip. */
struct ChipConfig
{
    std::string name;

    // Clocking: the frequency the quoted bandwidths and FLOPS assume.
    double reference_frequency_ghz = 1.35;

    // PE grid.
    unsigned pe_rows = 8;
    unsigned pe_cols = 8;
    Bytes local_memory_per_pe = 384_KiB;
    BytesPerSec local_memory_bandwidth = gbPerSec(1000.0);

    // Power.
    double tdp_watts = 85.0;
    double idle_watts = 18.0;

    // Subsystem configurations.
    DpeConfig dpe;
    SimdConfig simd;
    IsaFeatures isa;
    WorkQueueConfig work_queue;
    SramConfig sram;
    LpddrConfig lpddr;
    NocConfig noc;
    PcieConfig pcie;

    bool supports_sparsity_24 = true;

    unsigned peCount() const { return pe_rows * pe_cols; }

    /** Chip-wide peak GEMM FLOPS at the reference frequency. */
    double peakGemmFlops(DType dtype, bool sparse_24 = false) const;

    /** The production MTIA 2i configuration (Table 2). */
    static ChipConfig mtia2i();

    /** The MTIA 1 configuration (Table 2, right column). */
    static ChipConfig mtia1();
};

} // namespace mtia

#endif // MTIA_CHIP_CHIP_CONFIG_H_
