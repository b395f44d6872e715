#ifndef MTIA_BENCH_BENCH_REPORT_H_
#define MTIA_BENCH_BENCH_REPORT_H_

/**
 * @file
 * Machine-readable bench reports. Every bench binary owns one Report
 * and records the same key numbers it prints as human-readable rows;
 * on destruction (or an explicit write()) the report lands as
 * BENCH_<name>.json in the working directory — or under
 * $MTIA_BENCH_REPORT_DIR when set — so CI can archive it and later
 * PRs can diff the perf trajectory run-over-run.
 *
 * Schema (mtia-bench-report-v2):
 *   {
 *     "schema": "mtia-bench-report-v2",
 *     "bench": "<name>",
 *     "metrics": [
 *       {"name": "...", "measured": 44.0, "unit": "%",
 *        "paper_lo": 40.0, "paper_hi": 48.0, "within_band": true},
 *       ...
 *     ],
 *     "wall_clock": [                                       // optional
 *       {"name": "parallel_speedup", "measured": 3.4, "unit": "x"}, ...
 *     ],
 *     "surrogate": {                                        // optional
 *       "mae": 0.01, "rank_correlation": 0.98, ...          // ordered
 *     },
 *     "telemetry": { <mtia-metrics-v1 snapshot> }           // optional
 *   }
 *
 * Every value recorded here must be derived from simulated state, so
 * identical builds produce byte-identical reports at any lane count
 * and on any SIMD tier. The one exception is "wall_clock": host
 * timings, rates and speedups (and the lane count they were taken
 * at), which vary run to run. scripts/check_bench.py strips it and
 * requires the rest to equal the committed golden
 * bench/golden/BENCH_<name>.json. The "surrogate" block
 * (learned-cost-model accuracy: MAE, rank correlation, regret, eval
 * counts) is derived from deterministic evaluations and is covered by
 * the guarantee. Export failures are MTIA_CHECK failures
 * (ScopedCheckThrow makes them assertable in tests).
 */

#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace mtia::bench {

/** One bench binary's machine-readable result set. */
class Report
{
  public:
    /** @p name must be the bench binary's name, e.g. "fig6_model_sweep". */
    explicit Report(std::string name);

    /** Writes the report if write() has not run yet. */
    ~Report();

    Report(const Report &) = delete;
    Report &operator=(const Report &) = delete;

    /** Record a measured value with no paper reference band. */
    void metric(const std::string &metric_name, double measured,
                const std::string &unit = "");

    /** Record a measured value against the paper's [lo, hi] band. */
    void metric(const std::string &metric_name, double measured,
                double paper_lo, double paper_hi,
                const std::string &unit = "");

    /**
     * Record a host-dependent measurement: a wall-clock time, rate,
     * speedup or the lane count it was taken at. Emitted in order
     * under the top-level "wall_clock" array, the one field excluded
     * from the byte-identity guarantee.
     */
    void wallClock(const std::string &clock_name, double value,
                   const std::string &unit = "");

    /**
     * Record one field of the surrogate accuracy block (MAE,
     * rank_correlation, regret_pct, surrogate_evals, real_evals,
     * ...). Fields are emitted in recording order under the
     * top-level "surrogate" object; recording the same field twice
     * is a caller bug (checked).
     */
    void surrogate(const std::string &field, double value);

    /**
     * Attach a metric registry whose snapshot is embedded under
     * "telemetry" at write time. The registry must outlive write().
     */
    void attachTelemetry(const telemetry::MetricRegistry *metrics)
    {
        telemetry_ = metrics;
    }

    /** Destination path: $MTIA_BENCH_REPORT_DIR or the working dir. */
    std::string path() const;

    /** Serialized report (exactly the bytes write() emits). */
    std::string json() const;

    /** Write BENCH_<name>.json; idempotent. */
    void write();

  private:
    struct Entry
    {
        std::string name;
        double measured;
        double paper_lo;
        double paper_hi;
        bool has_band;
        std::string unit;
    };

    struct Field
    {
        std::string name;
        double value;
    };

    std::string name_;
    std::vector<Entry> entries_;
    std::vector<Entry> wall_clock_;
    std::vector<Field> surrogate_fields_;
    const telemetry::MetricRegistry *telemetry_ = nullptr;
    bool written_ = false;
};

} // namespace mtia::bench

#endif // MTIA_BENCH_BENCH_REPORT_H_
