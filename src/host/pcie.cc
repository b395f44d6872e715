#include "host/pcie.h"

#include <algorithm>

#include "core/check.h"
#include "telemetry/metrics.h"

namespace mtia {

BytesPerSec
PcieConfig::bandwidth() const
{
    // Usable per-lane rates after encoding/protocol: Gen4 ~2 GB/s,
    // Gen5 ~4 GB/s.
    MTIA_CHECK(generation == 4 || generation == 5)
        << ": PcieConfig: unsupported generation " << generation;
    const double per_lane = generation == 4 ? 2.0 : 4.0;
    return gbPerSec(per_lane * lanes);
}

Tick
PcieLink::transferTime(Bytes bytes) const
{
    const Tick t = cfg_.base_latency + transferTicks(bytes, cfg_.bandwidth());
    ++stats_.transfers;
    stats_.logical_bytes += bytes;
    stats_.wire_bytes += bytes;
    stats_.busy_ticks += t;
    return t;
}

Tick
PcieLink::compressedTransferTime(Bytes logical_bytes, Bytes wire_bytes,
                                 BytesPerSec decompress_rate) const
{
    const Tick wire = transferTicks(wire_bytes, cfg_.bandwidth());
    const Tick expand = transferTicks(logical_bytes, decompress_rate);
    const Tick t = cfg_.base_latency + std::max(wire, expand);
    ++stats_.transfers;
    stats_.logical_bytes += logical_bytes;
    stats_.wire_bytes += wire_bytes;
    stats_.busy_ticks += t;
    return t;
}

void
PcieLink::exportMetrics(telemetry::MetricRegistry &registry,
                        const std::string &device) const
{
    const telemetry::Labels labels{{"device", device}};
    registry.gauge("pcie.transfers", labels)
        .set(static_cast<double>(stats_.transfers));
    registry.gauge("pcie.logical_bytes", labels)
        .set(static_cast<double>(stats_.logical_bytes));
    registry.gauge("pcie.wire_bytes", labels)
        .set(static_cast<double>(stats_.wire_bytes));
    registry.gauge("pcie.busy_ms", labels)
        .set(toMillis(stats_.busy_ticks));
}

} // namespace mtia
