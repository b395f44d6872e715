#include "mem/llc.h"

#include <bit>
#include <cmath>
#include <tuple>

#include "core/check.h"
#include "core/pure_memo.h"
#include "telemetry/metrics.h"

namespace mtia {

LlcModel::LlcModel(LlcConfig cfg) : cfg_(cfg)
{
    MTIA_CHECK_GT(cfg_.line_size, 0u) << ": LlcModel: zero line size";
    MTIA_CHECK_GT(cfg_.associativity, 0u)
        << ": LlcModel: zero associativity";
    const std::uint64_t lines = cfg_.capacity / cfg_.line_size;
    num_sets_ = lines / cfg_.associativity;
    if (num_sets_ == 0)
        num_sets_ = 1;
    ways_.assign(num_sets_ * cfg_.associativity, Way{});
}

bool
LlcModel::access(std::uint64_t addr, bool write)
{
    ++stats_.accesses;
    const std::uint64_t line = addr / cfg_.line_size;
    const std::uint64_t set = line % num_sets_;
    const std::uint64_t tag = line / num_sets_;
    Way *base = &ways_[set * cfg_.associativity];

    Way *victim = base;
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lru = ++stamp_;
            way.dirty |= write;
            ++stats_.hits;
            return true;
        }
        if (!way.valid) {
            victim = &way; // free way wins over any LRU victim
        } else if (victim->valid && way.lru < victim->lru) {
            victim = &way;
        }
    }

    ++stats_.misses;
    if (victim->valid) {
        ++stats_.evictions;
        if (victim->dirty)
            ++stats_.dirty_writebacks;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++stamp_;
    victim->dirty = write;
    return false;
}

namespace {

double
cheHitRate(std::uint64_t cache_items, std::uint64_t n_items, double alpha)
{
    if (n_items == 0)
        return 0.0;
    if (cache_items >= n_items)
        return 1.0;

    // For huge universes (hundreds of millions of embedding rows),
    // exact per-rank sums are infeasible; bucket the rank axis
    // geometrically and weight each representative by its bucket
    // population. ~4k buckets keep the error well under a percent.
    std::vector<double> p;      // representative probability
    std::vector<double> count;  // ranks represented
    const double nd = static_cast<double>(n_items);
    double norm = 0.0;
    if (n_items <= (1u << 20)) {
        p.resize(static_cast<std::size_t>(n_items));
        count.assign(p.size(), 1.0);
        for (std::size_t i = 0; i < p.size(); ++i) {
            p[i] = std::pow(static_cast<double>(i + 1), -alpha);
            norm += p[i];
        }
    } else {
        const int buckets = 4096;
        double lo = 1.0;
        for (int b = 0; b < buckets && lo <= nd; ++b) {
            double hi = std::min(
                nd, std::max(lo + 1.0,
                             lo * std::pow(nd, 1.0 / buckets)));
            const double mid = std::sqrt(lo * hi); // geometric mean
            const double width = hi - lo + (b == 0 ? 1.0 : 0.0);
            p.push_back(std::pow(mid, -alpha));
            count.push_back(width);
            norm += p.back() * width;
            lo = hi + 1.0;
        }
    }
    for (auto &v : p)
        v /= norm;

    // Solve sum_i (1 - exp(-p_i * T)) = C for the characteristic time
    // T by bisection, then hit rate = sum_i p_i (1 - exp(-p_i T)).
    const double c = static_cast<double>(cache_items);
    auto occupancy = [&](double t) {
        double acc = 0.0;
        for (std::size_t i = 0; i < p.size(); ++i)
            acc += count[i] * (1.0 - std::exp(-p[i] * t));
        return acc;
    };
    double lo = 0.0;
    double hi = 1.0;
    while (occupancy(hi) < c)
        hi *= 2.0;
    for (int iter = 0; iter < 80; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (occupancy(mid) < c ? lo : hi) = mid;
    }
    const double t = 0.5 * (lo + hi);

    double hit = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i)
        hit += count[i] * p[i] * (1.0 - std::exp(-p[i] * t));
    return hit;
}

} // namespace

double
zipfLruHitRate(std::uint64_t cache_items, std::uint64_t n_items,
               double alpha)
{
    // Keyed on alpha's bit pattern, so a NaN cannot break the map's
    // ordering.
    using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
    static PureMemo<Key, double> memo;
    return memo.get(
        Key{cache_items, n_items, std::bit_cast<std::uint64_t>(alpha)},
        [&] { return cheHitRate(cache_items, n_items, alpha); });
}

void
LlcModel::exportMetrics(telemetry::MetricRegistry &registry,
                        const std::string &device) const
{
    const telemetry::Labels labels{{"device", device}};
    registry.gauge("llc.accesses", labels)
        .set(static_cast<double>(stats_.accesses));
    registry.gauge("llc.hits", labels)
        .set(static_cast<double>(stats_.hits));
    registry.gauge("llc.misses", labels)
        .set(static_cast<double>(stats_.misses));
    registry.gauge("llc.evictions", labels)
        .set(static_cast<double>(stats_.evictions));
    registry.gauge("llc.dirty_writebacks", labels)
        .set(static_cast<double>(stats_.dirty_writebacks));
    registry.gauge("llc.hit_rate", labels).set(stats_.hitRate());
}

} // namespace mtia
