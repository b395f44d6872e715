#ifndef MTIA_NOC_NOC_H_
#define MTIA_NOC_NOC_H_

/**
 * @file
 * Network-on-chip bandwidth and contention model. The real NoC is a
 * non-blocking crossbar fabric; what matters to kernel performance is
 * (a) aggregate bandwidth between PEs and the SRAM/memory-controller
 * edge, (b) redundant-read amplification when many PEs fetch the same
 * weight tile (eliminated by hardware broadcast reads, Section 4.2),
 * and (c) serialization overhead from packetization: every transfer
 * is cut into 256-byte packets that each carry a 16-byte header,
 * which both chips share.
 */

#include <cstdint>
#include <string>

#include "sim/types.h"

namespace mtia::telemetry {
class MetricRegistry;
} // namespace mtia::telemetry

namespace mtia {

/** Static NoC configuration. */
struct NocConfig
{
    /** Aggregate PE<->SRAM/MC bandwidth. MTIA 2i delivers 3.3x the
     * MTIA 1 fabric. */
    BytesPerSec bisection_bandwidth = gbPerSec(2700.0);
    /** Hardware support for one-to-many broadcast reads. */
    bool broadcast_reads = true;
    /** Fixed transfer startup latency. */
    Tick start_latency = fromNanos(50.0);
};

/** Aggregate traffic counters. */
struct NocStats
{
    std::uint64_t transfers = 0;
    Bytes payload_bytes = 0;
    Bytes wire_bytes = 0;
    Bytes redundant_bytes = 0; ///< amplification from non-broadcast reads
};

/** Bandwidth/contention model of the chip fabric. */
class NocModel
{
  public:
    /** @pre cfg.bisection_bandwidth > 0 */
    explicit NocModel(NocConfig cfg);

    const NocConfig &config() const { return cfg_; }
    NocStats &stats() { return stats_; }

    /** Time to move @p bytes point-to-point across the fabric. */
    Tick transferTime(Bytes bytes);

    /**
     * Time for @p readers PEs to each obtain the same @p bytes (e.g. a
     * weight tile). With broadcast reads the fabric carries the data
     * once; without, each reader issues its own copy, multiplying the
     * wire traffic and, when the source is the DRAM edge, wasting
     * DRAM bandwidth as well.
     */
    Tick broadcastReadTime(Bytes bytes, unsigned readers);

    /**
     * Effective fraction of DRAM bandwidth a streaming kernel can use
     * through the fabric given @p readers independent initiators
     * contending for the memory-controller edge. Matches Section 4.2:
     * uncoordinated per-column weight reads reach ~half of the DRAM
     * peak, while broadcast+decoupled loading exceeds 95%.
     */
    double dramEdgeEfficiency(unsigned readers, bool coordinated) const;

    void setBroadcastReads(bool enabled) { cfg_.broadcast_reads = enabled; }

    /**
     * Snapshot the cumulative traffic totals into @p registry as
     * noc.* gauges labeled {device=@p device}. Gauges overwrite, so
     * repeated exports never double-count.
     */
    void exportMetrics(telemetry::MetricRegistry &registry,
                       const std::string &device) const;

  private:
    NocConfig cfg_;
    NocStats stats_;
};

} // namespace mtia

#endif // MTIA_NOC_NOC_H_
