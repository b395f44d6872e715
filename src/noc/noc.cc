#include "noc/noc.h"

#include "core/check.h"
#include "telemetry/metrics.h"

namespace mtia {

namespace {

constexpr Bytes kPacketPayload = 256;
constexpr Bytes kPacketHeader = 16;

/** Bytes on the wire for a @p bytes message: payload plus one header
 * per (possibly partial) packet. */
Bytes
wireBytes(Bytes bytes)
{
    return bytes + (bytes + kPacketPayload - 1) / kPacketPayload *
        kPacketHeader;
}

} // namespace

NocModel::NocModel(NocConfig cfg) : cfg_(cfg)
{
    MTIA_CHECK_GT(cfg_.bisection_bandwidth, 0.0)
        << ": NocModel needs positive fabric bandwidth";
}

Tick
NocModel::transferTime(Bytes bytes)
{
    const Bytes wire = wireBytes(bytes);
    ++stats_.transfers;
    stats_.payload_bytes += bytes;
    stats_.wire_bytes += wire;
    return cfg_.start_latency +
        transferTicks(wire, cfg_.bisection_bandwidth);
}

Tick
NocModel::broadcastReadTime(Bytes bytes, unsigned readers)
{
    if (readers == 0)
        return 0;
    if (cfg_.broadcast_reads) {
        // One fabric traversal serves every reader.
        return transferTime(bytes);
    }
    // Each reader fetches its own copy; the copies serialize on the
    // shared source port.
    const Bytes wire = wireBytes(bytes);
    stats_.transfers += readers;
    stats_.payload_bytes += bytes * readers;
    stats_.wire_bytes += wire * readers;
    stats_.redundant_bytes += wire * (readers - 1);
    return cfg_.start_latency +
        transferTicks(wire * readers, cfg_.bisection_bandwidth);
}

double
NocModel::dramEdgeEfficiency(unsigned readers, bool coordinated) const
{
    if (coordinated && cfg_.broadcast_reads) {
        // Decoupled activation/weight loading with broadcast reads
        // presents one long sequential stream to the memory
        // controller; only refresh and turnaround overheads remain.
        return 0.97;
    }
    // Uncoordinated initiators interleave short reads at the memory
    // controller; row-buffer and arbitration losses grow with the
    // number of contending streams.
    const double r = static_cast<double>(readers);
    return 1.0 / (1.0 + 0.12 * r);
}

void
NocModel::exportMetrics(telemetry::MetricRegistry &registry,
                        const std::string &device) const
{
    const telemetry::Labels labels{{"device", device}};
    registry.gauge("noc.transfers", labels)
        .set(static_cast<double>(stats_.transfers));
    registry.gauge("noc.payload_bytes", labels)
        .set(static_cast<double>(stats_.payload_bytes));
    registry.gauge("noc.wire_bytes", labels)
        .set(static_cast<double>(stats_.wire_bytes));
    registry.gauge("noc.redundant_bytes", labels)
        .set(static_cast<double>(stats_.redundant_bytes));
}

} // namespace mtia
