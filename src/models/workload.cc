#include "models/workload.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/check.h"

namespace mtia {

std::vector<Request>
generateTrace(Rng &rng, const TrafficParams &p)
{
    MTIA_CHECK(std::isfinite(p.qps))
        << ": generateTrace: qps must be finite";
    MTIA_CHECK_GT(p.qps, 0.0) << ": generateTrace: qps must be positive";
    std::vector<Request> trace;
    trace.reserve(static_cast<std::size_t>(
        p.qps * toSeconds(p.duration) * 1.2));

    Tick now = 0;
    std::uint64_t id = 0;
    while (now < p.duration) {
        // Local rate with diurnal modulation.
        double rate = p.qps;
        if (p.diurnal_depth > 0.0) {
            const double phase = 2.0 * M_PI *
                static_cast<double>(now % p.diurnal_period) /
                static_cast<double>(p.diurnal_period);
            rate *= 1.0 + p.diurnal_depth * std::sin(phase);
        }
        now += fromSeconds(rng.exponential(rate));
        if (now >= p.duration)
            break;
        Request r;
        r.id = id++;
        r.arrival = now;
        r.candidates = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   rng.poisson(static_cast<double>(p.candidates_mean))));
        trace.push_back(r);
        // Bursts: a cluster of near-simultaneous arrivals.
        if (p.burst_fraction > 0.0 && rng.chance(p.burst_fraction)) {
            const int extra = static_cast<int>(1 + rng.below(4));
            for (int i = 0; i < extra && now < p.duration; ++i) {
                Request b = r;
                b.id = id++;
                b.arrival = now + fromMicros(rng.uniform(1.0, 100.0));
                trace.push_back(b);
            }
        }
    }
    std::sort(trace.begin(), trace.end(),
              [](const Request &a, const Request &b) {
                  return a.arrival < b.arrival;
              });
    return trace;
}

double
peakToAverage(const std::vector<Request> &trace, Tick window)
{
    if (trace.empty() || window == 0)
        return 0.0;
    std::map<Tick, std::uint64_t> buckets;
    for (const Request &r : trace)
        ++buckets[r.arrival / window];
    std::uint64_t peak = 0;
    std::uint64_t total = 0;
    for (const auto &[bucket, n] : buckets) {
        peak = std::max(peak, n);
        total += n;
    }
    const double avg =
        static_cast<double>(total) / static_cast<double>(buckets.size());
    return static_cast<double>(peak) / avg;
}

} // namespace mtia
