#ifndef MTIA_TELEMETRY_TELEMETRY_H_
#define MTIA_TELEMETRY_TELEMETRY_H_

/**
 * @file
 * The observability bundle threaded through the stack: one
 * TraceRecorder (sim-clock Chrome trace events) plus one
 * MetricRegistry (labeled counters / gauges / bounded histograms).
 * Components accept a nullable Telemetry* and record only when one is
 * attached, so the default path stays free of telemetry work.
 *
 * Export failures (unwritable trace/metric files) are MTIA_CHECK
 * failures: the default handler reports and aborts; tests install
 * ScopedCheckThrow to assert the failure path without killing the
 * binary.
 */

#include <string>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mtia::telemetry {

/** The per-run observability context. */
class Telemetry
{
  public:
    TraceRecorder trace;
    MetricRegistry metrics;

    /** Enable/disable trace recording (metrics are always cheap). */
    void setTracing(bool on) { trace.setEnabled(on); }

    /**
     * Write trace and metric snapshots as <stem>.trace.json and
     * <stem>.metrics.json. An unwritable file fails an MTIA_CHECK.
     */
    void exportFiles(const std::string &stem) const;
};

} // namespace mtia::telemetry

#endif // MTIA_TELEMETRY_TELEMETRY_H_
