#include "chip/device.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "telemetry/metrics.h"

namespace mtia {

Device::Device(ChipConfig cfg)
    : cfg_(std::move(cfg)),
      frequency_ghz_(cfg_.reference_frequency_ghz),
      dram_(cfg_.lpddr),
      noc_(cfg_.noc),
      dpe_(cfg_.dpe),
      simd_(cfg_.simd),
      cp_(cfg_.isa),
      wqe_(cfg_.work_queue),
      partition_(cfg_.sram,
                 /*lls_regions=*/static_cast<unsigned>(
                     cfg_.sram.capacity /
                     cfg_.sram.region_granularity / 2))
{
}

Device
Device::cloneConfigured() const
{
    Device clone(cfg_);
    clone.setFrequencyGhz(frequency_ghz_);
    clone.setSramPartition(partition_);
    clone.dram().setEccMode(dram_.config().ecc);
    return clone;
}

void
Device::setFrequencyGhz(double ghz)
{
    MTIA_CHECK(std::isfinite(ghz))
        << ": Device::setFrequencyGhz: frequency must be finite";
    MTIA_CHECK_GT(ghz, 0.0)
        << ": Device::setFrequencyGhz: frequency must be positive";
    frequency_ghz_ = ghz;
}

double
Device::peakGemmFlops(DType dtype, bool sparse_24) const
{
    return dpe_.peakFlops(frequency_ghz_, dtype,
                          sparse_24 && cfg_.supports_sparsity_24) *
        cfg_.peCount();
}

double
Device::peakSimdOps() const
{
    return simd_.opsPerSec(frequency_ghz_) * cfg_.peCount();
}

BytesPerSec
Device::sramBandwidth() const
{
    return cfg_.sram.bandwidth * clockScale();
}

BytesPerSec
Device::localMemoryBandwidth() const
{
    return cfg_.local_memory_bandwidth * clockScale();
}

BytesPerSec
Device::nocBandwidth() const
{
    return cfg_.noc.bisection_bandwidth * clockScale();
}

double
Device::powerWatts(double utilization) const
{
    const double util = std::clamp(utilization, 0.0, 1.0);
    const double dynamic_range = cfg_.tdp_watts - cfg_.idle_watts;
    const double p =
        cfg_.idle_watts + dynamic_range * util * clockScale();
    return std::min(p, cfg_.tdp_watts);
}

Tick
Device::jobLaunchTime() const
{
    return wqe_.launchTime(cfg_.peCount());
}

Tick
Device::jobReplaceTime() const
{
    return wqe_.replaceTime(cfg_.peCount());
}

void
Device::exportTelemetry(telemetry::MetricRegistry &registry,
                        const std::string &device) const
{
    const telemetry::Labels labels{{"device", device}};
    registry.gauge("device.frequency_ghz", labels).set(frequency_ghz_);
    registry.gauge("device.clock_scale", labels).set(clockScale());
    dram_.exportMetrics(registry, device);
    noc_.exportMetrics(registry, device);
    cp_.exportMetrics(registry, device);
}

} // namespace mtia
