#ifndef MTIA_MEM_LLC_H_
#define MTIA_MEM_LLC_H_

/**
 * @file
 * Hardware-managed last-level cache (LLC) model for the shared on-chip
 * SRAM. The autotuner partitions the 256 MB SRAM between this LLC and
 * software-managed scratch (LLS) at 32 MB granularity; the LLC then
 * mostly serves FC weights and the 40-60%-cacheable embedding-table
 * traffic of sparse networks.
 *
 * Two views are provided: a trace-driven set-associative LRU model
 * (exact, used for kernels and tests) and Che's analytic approximation
 * for Zipf-distributed streams (fast, used inside the cost model when
 * streaming billions of accesses would be wasteful).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace mtia::telemetry {
class MetricRegistry;
} // namespace mtia::telemetry

namespace mtia {

/** Configuration of the set-associative LLC model. */
struct LlcConfig
{
    Bytes capacity = 128_MiB;
    Bytes line_size = 128;
    unsigned associativity = 16;
};

/** Access statistics. */
struct LlcStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirty_writebacks = 0;

    double
    hitRate() const
    {
        return accesses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(accesses);
    }
};

/** Trace-driven set-associative LRU cache. */
class LlcModel
{
  public:
    explicit LlcModel(LlcConfig cfg);

    /**
     * Access one byte address.
     * @param addr Byte address.
     * @param write True for stores (marks the line dirty).
     * @return true on hit.
     */
    bool access(std::uint64_t addr, bool write = false);

    const LlcStats &stats() const { return stats_; }
    const LlcConfig &config() const { return cfg_; }
    std::uint64_t numSets() const { return num_sets_; }

    /**
     * Snapshot the cumulative access totals into @p registry as llc.*
     * gauges labeled {device=@p device} (gauges overwrite, so repeated
     * exports never double-count).
     */
    void exportMetrics(telemetry::MetricRegistry &registry,
                       const std::string &device) const;

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0; // last-use stamp
        bool valid = false;
        bool dirty = false;
    };

    LlcConfig cfg_;
    std::uint64_t num_sets_;
    std::uint64_t stamp_ = 0;
    std::vector<Way> ways_; // num_sets_ * associativity, row-major
    LlcStats stats_;
};

/**
 * Che's approximation of the hit rate of an LRU cache holding
 * @p cache_items out of @p n_items accessed with Zipf(alpha)
 * popularity. Accurate to a few percent for the regimes used here.
 * Memoized process-wide on its exact arguments in a PureMemo
 * (core/pure_memo.h): the cost model asks the same question at every
 * design point of a sweep.
 */
double zipfLruHitRate(std::uint64_t cache_items, std::uint64_t n_items,
                      double alpha);

} // namespace mtia

#endif // MTIA_MEM_LLC_H_
