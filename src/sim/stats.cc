#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace mtia {

void
Histogram::add(double sample)
{
    samples_.push_back(sample);
    sum_ += sample;
    sorted_ = false;
}

void
Histogram::reset()
{
    samples_.clear();
    sum_ = 0.0;
    sorted_ = true;
}

double
Histogram::mean() const
{
    return samples_.empty() ? 0.0
                            : sum_ / static_cast<double>(samples_.size());
}

double
Histogram::min() const
{
    MTIA_CHECK(!samples_.empty()) << ": Histogram::min on empty histogram";
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Histogram::max() const
{
    MTIA_CHECK(!samples_.empty()) << ": Histogram::max on empty histogram";
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Histogram::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double s : samples_)
        acc += (s - m) * (s - m);
    return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double
Histogram::percentile(double p) const
{
    MTIA_CHECK(!samples_.empty())
        << ": Histogram::percentile on empty histogram";
    MTIA_CHECK(std::isfinite(p)) << ": percentile rank must be finite";
    MTIA_CHECK_GE(p, 0.0) << ": percentile rank below range";
    MTIA_CHECK_LE(p, 100.0) << ": percentile rank above range";
    if (samples_.size() == 1)
        return samples_.front();
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    // Nearest-rank with exact extremes: p=0 is the minimum, p=100 the
    // maximum, regardless of floating-point rounding in the rank
    // computation below.
    if (p <= 0.0)
        return samples_.front();
    if (p >= 100.0)
        return samples_.back();
    const auto n = samples_.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return samples_[rank - 1];
}

} // namespace mtia
