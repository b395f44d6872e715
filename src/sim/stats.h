#ifndef MTIA_SIM_STATS_H_
#define MTIA_SIM_STATS_H_

/**
 * @file
 * Exact sample histogram with percentile queries, for small fleet
 * studies. Labeled, bounded-memory metrics live in telemetry/metrics.h.
 */

#include <cstddef>
#include <vector>

namespace mtia {

/**
 * Collection of scalar samples supporting mean/min/max and exact
 * percentile queries (sorts lazily). Retains every sample — O(n)
 * memory — which is right for small fleet studies where exactness
 * matters; multi-million-request serving runs should use the
 * bounded-memory telemetry::LogHistogram instead.
 */
class Histogram
{
  public:
    void add(double sample);
    void reset();

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }
    double sum() const { return sum_; }
    double mean() const;
    double min() const;
    double max() const;
    double stddev() const;

    /** Exact percentile via nearest-rank; @p p in [0, 100]. */
    double percentile(double p) const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
    double sum_ = 0.0;
};

} // namespace mtia

#endif // MTIA_SIM_STATS_H_
