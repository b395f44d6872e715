#include "mem/lpddr.h"

#include <cmath>

#include "core/check.h"
#include "telemetry/metrics.h"

namespace mtia {

LpddrChannel::LpddrChannel(LpddrConfig cfg) : cfg_(cfg)
{
    MTIA_CHECK(std::isfinite(cfg_.peak_bandwidth))
        << ": LpddrChannel: peak bandwidth must be finite";
    MTIA_CHECK_GT(cfg_.peak_bandwidth, 0.0)
        << ": LpddrChannel: peak bandwidth must be positive";
}

BytesPerSec
LpddrChannel::effectiveReadBandwidth() const
{
    if (cfg_.ecc == EccMode::None)
        return cfg_.peak_bandwidth;
    // 72 bits transferred per 64 useful bits.
    return cfg_.peak_bandwidth * 64.0 / 72.0;
}

BytesPerSec
LpddrChannel::effectiveWriteBandwidth() const
{
    if (cfg_.ecc == EccMode::None)
        return cfg_.peak_bandwidth;
    // Full-line writes pay the 72/64 code overhead; partial-line
    // writes additionally read the old line to recompute check bits
    // (one extra line transfer), doubling their cost.
    const double code = 72.0 / 64.0;
    const double rmw = 1.0 + cfg_.partial_write_fraction;
    return cfg_.peak_bandwidth / (code * rmw);
}

Tick
LpddrChannel::readTime(Bytes bytes) const
{
    const Tick t = transferTicks(bytes, effectiveReadBandwidth());
    ++stats_.reads;
    stats_.bytes_read += bytes;
    stats_.busy_ticks += t;
    return t;
}

Tick
LpddrChannel::writeTime(Bytes bytes) const
{
    const Tick t = transferTicks(bytes, effectiveWriteBandwidth());
    ++stats_.writes;
    stats_.bytes_written += bytes;
    stats_.busy_ticks += t;
    return t;
}

double
LpddrChannel::expectedBitErrors(Bytes resident, double seconds) const
{
    return cfg_.bit_error_rate * static_cast<double>(resident) * seconds;
}

std::uint64_t
LpddrChannel::sampleBitErrors(Rng &rng, Bytes resident,
                              double seconds) const
{
    return rng.poisson(expectedBitErrors(resident, seconds));
}

void
LpddrChannel::exportMetrics(telemetry::MetricRegistry &registry,
                            const std::string &device) const
{
    const telemetry::Labels labels{{"device", device}};
    registry.gauge("lpddr.reads", labels)
        .set(static_cast<double>(stats_.reads));
    registry.gauge("lpddr.writes", labels)
        .set(static_cast<double>(stats_.writes));
    registry.gauge("lpddr.bytes_read", labels)
        .set(static_cast<double>(stats_.bytes_read));
    registry.gauge("lpddr.bytes_written", labels)
        .set(static_cast<double>(stats_.bytes_written));
    registry.gauge("lpddr.busy_ms", labels)
        .set(toMillis(stats_.busy_ticks));
}

} // namespace mtia
