#ifndef MTIA_TELEMETRY_METRICS_H_
#define MTIA_TELEMETRY_METRICS_H_

/**
 * @file
 * Labeled metrics for fleet-style observability: counters, gauges, and
 * a bounded-memory log-bucketed histogram, collected in a
 * MetricRegistry that exports deterministic JSON snapshots.
 *
 * MetricRegistry is what long serving runs and the bench reports use:
 * constant memory per series, labels for per-device /
 * per-request-class breakdowns, and machine-readable output that can
 * be diffed run-over-run. It is the only histogram in the tree; a
 * study that needs an exact percentile keeps its samples in a vector.
 *
 * All values fed to these metrics must be derived from simulated state
 * (DES ticks, byte counts); nothing here may read the wall clock, so
 * identical seeds produce byte-identical snapshots.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace mtia::telemetry {

/** Key/value pairs qualifying one metric series, e.g. {{"shard","0"}}. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic counter (exported as an exact integer). */
class MetricCounter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Last-value gauge. */
class MetricGauge
{
  public:
    void set(double v) { value_ = v; }
    void add(double d) { value_ += d; }
    void reset() { value_ = 0.0; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Bounded-memory histogram with logarithmically spaced buckets.
 *
 * Values are bucketed by binary exponent with @c sub_buckets linear
 * subdivisions per octave, so quantile estimates carry a bounded
 * relative error of at most 2^(1/sub_buckets) - 1 (~2.2% at the
 * default 32) while the footprint stays a fixed few tens of KiB no
 * matter how many samples are added — unlike an exact percentile,
 * which needs every sample. Exact count/sum/min/max are tracked on
 * the side, and percentile() clamps into [min, max], so p0 and p100
 * are exact.
 */
class LogHistogram
{
  public:
    struct Config
    {
        /** Values below this land in the underflow bucket. */
        double min_value = 1e-6;
        /** Values at or above this land in the overflow bucket. */
        double max_value = 1e15;
        /** Linear subdivisions per power of two. */
        unsigned sub_buckets = 32;
    };

    LogHistogram() : LogHistogram(Config{}) {}
    /** @pre 0 < cfg.min_value < cfg.max_value, cfg.sub_buckets > 0 */
    explicit LogHistogram(const Config &cfg);

    /** Record one sample. @pre v is finite and >= 0. */
    void add(double v);

    /**
     * Fold @p other into this histogram: bucket counts, count, sum,
     * min and max all combine as if every sample of @p other had been
     * add()ed here. @pre identical Config. Deterministic when callers
     * merge partial histograms in a fixed order — how the partitioned
     * cluster sim folds per-replica latency histograms after a run.
     */
    void merge(const LogHistogram &other);

    void reset();

    std::uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }
    double sum() const { return sum_; }
    double mean() const;
    /** @pre !empty() */
    double min() const;
    /** @pre !empty() */
    double max() const;

    /**
     * Nearest-rank percentile estimate; @p p in [0, 100]. Exact at the
     * extremes (p<=0 returns min, p>=100 returns max); in between the
     * error is bounded by one bucket's relative width.
     * @pre !empty(), p finite and in [0, 100].
     */
    double percentile(double p) const;

    const Config &config() const { return cfg_; }

  private:
    std::size_t bucketIndex(double v) const;
    double bucketLowerBound(std::size_t idx) const;
    double bucketUpperBound(std::size_t idx) const;

    Config cfg_;
    int min_exp_ = 0; ///< frexp exponent of cfg_.min_value
    int max_exp_ = 0; ///< frexp exponent of cfg_.max_value
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** The kind of a registered metric family. */
enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/** Name of a metric kind, for messages and the JSON export. */
const char *metricKindName(MetricKind kind);

/**
 * Registry of labeled metric families.
 *
 * A family is one metric name with a fixed kind; each distinct label
 * set under it is an independent series. Registration is
 * find-or-create, so components can call counter()/gauge()/histogram()
 * on the hot path and keep the returned reference (references stay
 * valid for the registry's lifetime).
 *
 * Contract failures (MTIA_CHECK):
 *  - invalid metric name (must match [A-Za-z_][A-Za-z0-9_.]*)
 *  - re-registering a name under a different kind
 *  - empty or duplicate label keys
 */
class MetricRegistry
{
  public:
    MetricCounter &counter(const std::string &name,
                           const Labels &labels = {});
    MetricGauge &gauge(const std::string &name, const Labels &labels = {});
    /** @p cfg applies when the series is first created. */
    LogHistogram &histogram(const std::string &name,
                            const Labels &labels = {},
                            const LogHistogram::Config &cfg = {});

    /** Number of registered series across all families. */
    std::size_t seriesCount() const;

    /**
     * Deterministic JSON snapshot: families sorted by name, series by
     * canonical label order. Byte-identical for identical simulated
     * state.
     */
    void writeJson(std::ostream &os) const;
    std::string json() const;

    /** Reset every series to its initial value (series stay registered). */
    void resetAll();

  private:
    struct Series;
    struct Family;

    Series &series(MetricKind kind, const std::string &name,
                   const Labels &labels,
                   const LogHistogram::Config *hist_cfg);

    std::map<std::string, Family> families_;
};

struct MetricRegistry::Series
{
    Labels labels; // canonical (sorted by key)
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricGauge> gauge;
    std::unique_ptr<LogHistogram> histogram;
};

struct MetricRegistry::Family
{
    MetricKind kind = MetricKind::Counter;
    std::map<std::string, Series> series; // canonical label string -> series
};

} // namespace mtia::telemetry

#endif // MTIA_TELEMETRY_METRICS_H_
