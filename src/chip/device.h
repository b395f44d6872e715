#ifndef MTIA_CHIP_DEVICE_H_
#define MTIA_CHIP_DEVICE_H_

/**
 * @file
 * A whole accelerator: the chip configuration plus live state — clock
 * (overclockable), SRAM partition (retunable), ECC mode (the Section
 * 5.1 decision), and the power model. On-chip rates scale with the
 * clock; the LPDDR and PCIe interfaces do not, which is exactly why
 * overclocking helps compute-bound models 20% and DRAM-bound models
 * hardly at all.
 */

#include <memory>
#include <string>

#include "chip/chip_config.h"
#include "mem/lpddr.h"
#include "mem/sram.h"
#include "noc/noc.h"
#include "pe/command_processor.h"
#include "pe/dpe.h"
#include "pe/simd_engine.h"
#include "pe/work_queue_engine.h"

namespace mtia {

/** One accelerator device instance. */
class Device
{
  public:
    explicit Device(ChipConfig cfg);

    const ChipConfig &config() const { return cfg_; }

    /** Current clock (defaults to the reference frequency). */
    double frequencyGhz() const { return frequency_ghz_; }

    /** Overclock / underclock the chip. */
    void setFrequencyGhz(double ghz);

    /** On-chip rate multiplier: current clock / reference clock. */
    double clockScale() const
    {
        return frequency_ghz_ / cfg_.reference_frequency_ghz;
    }

    // Components.
    LpddrChannel &dram() { return dram_; }
    const LpddrChannel &dram() const { return dram_; }
    NocModel &noc() { return noc_; }
    const NocModel &noc() const { return noc_; }
    const DotProductEngine &dpe() const { return dpe_; }
    const SimdEngine &simd() const { return simd_; }
    const CommandProcessor &commandProcessor() const { return cp_; }

    /** Current SRAM split between LLS and LLC. */
    const SramPartition &sramPartition() const { return partition_; }
    void setSramPartition(SramPartition p) { partition_ = std::move(p); }

    /**
     * A fresh Device with the same config and live knobs (clock, SRAM
     * partition, ECC mode) but zeroed observability counters. Parallel
     * sweeps give each task its own clone so concurrent cost-model
     * queries never race on the shared device's mutable stats.
     */
    Device cloneConfigured() const;

    // Derived rates at the current clock.
    double peakGemmFlops(DType dtype, bool sparse_24 = false) const;
    double peakSimdOps() const;
    BytesPerSec sramBandwidth() const;
    BytesPerSec localMemoryBandwidth() const; ///< per PE
    BytesPerSec nocBandwidth() const;

    /**
     * Power draw at a given average utilization in [0, 1]. Dynamic
     * power scales with both utilization and clock; the result is
     * capped at TDP.
     */
    double powerWatts(double utilization) const;

    /** Job launch / replace times at the current clock. */
    Tick jobLaunchTime() const;
    Tick jobReplaceTime() const;

    /**
     * Snapshot every instrumented unit (LPDDR, NoC, command processor)
     * plus device-level gauges into @p registry, labeled
     * {device=@p device}.
     */
    void exportTelemetry(telemetry::MetricRegistry &registry,
                         const std::string &device = "device0") const;

  private:
    ChipConfig cfg_;
    double frequency_ghz_;
    LpddrChannel dram_;
    NocModel noc_;
    DotProductEngine dpe_;
    SimdEngine simd_;
    CommandProcessor cp_;
    WorkQueueEngine wqe_;
    SramPartition partition_;
};

} // namespace mtia

#endif // MTIA_CHIP_DEVICE_H_
