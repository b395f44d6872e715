#ifndef MTIA_TESTS_REFERENCE_SURROGATE_H_
#define MTIA_TESTS_REFERENCE_SURROGATE_H_

/**
 * @file
 * Reference stump booster: the direct formulation of
 * CostSurrogate::fit / predict. Every round scans every position of
 * every feature's sorted order (skipping non-boundaries by a value
 * compare), keeps the first strict gain improvement in (feature,
 * position) order, and updates the residuals row by row; predict adds
 * base then every stump in order. The production versions in
 * autotune/surrogate.cc and core/simd_stumps.cc must return exactly
 * what these return: the same describe() text and the same prediction
 * bits, and reject the same samples.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "autotune/surrogate.h"
#include "core/check.h"

namespace mtia::reference {

class CostSurrogate
{
  public:
    void
    fit(const std::vector<FeatureVec> &x, const std::vector<double> &y)
    {
        constexpr int kRounds = 400;
        constexpr double kLearningRate = 0.25;
        constexpr double kMinGain = 1e-12;

        // The production fit's contract: a non-empty sample of finite
        // features and targets.
        MTIA_CHECK(!x.empty() && x.size() == y.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            MTIA_CHECK(std::isfinite(y[i]));
            for (const double v : x[i])
                MTIA_CHECK(std::isfinite(v));
        }
        stumps_.clear();
        const std::size_t n = x.size();
        base_ = std::accumulate(y.begin(), y.end(), 0.0) /
            static_cast<double>(n);

        std::array<std::vector<std::size_t>, kSurrogateFeatures> order;
        for (std::size_t f = 0; f < kSurrogateFeatures; ++f) {
            order[f].resize(n);
            std::iota(order[f].begin(), order[f].end(), std::size_t{0});
            std::sort(order[f].begin(), order[f].end(),
                      [&](std::size_t a, std::size_t b) {
                          if (x[a][f] != x[b][f])
                              return x[a][f] < x[b][f];
                          return a < b;
                      });
        }

        std::vector<double> resid(y);
        for (double &r : resid)
            r -= base_;

        for (int round = 0; round < kRounds; ++round) {
            const double total =
                std::accumulate(resid.begin(), resid.end(), 0.0);
            double best_gain = 0.0;
            std::size_t best_f = 0;
            double best_thr = 0.0;
            double best_left = 0.0;
            double best_right = 0.0;
            bool found = false;
            for (std::size_t f = 0; f < kSurrogateFeatures; ++f) {
                double left_sum = 0.0;
                for (std::size_t pos = 0; pos + 1 < n; ++pos) {
                    const std::size_t i = order[f][pos];
                    left_sum += resid[i];
                    const double v = x[i][f];
                    const double vn = x[order[f][pos + 1]][f];
                    if (v == vn)
                        continue;
                    const auto left_cnt = static_cast<double>(pos + 1);
                    const auto right_cnt =
                        static_cast<double>(n - pos - 1);
                    const double right_sum = total - left_sum;
                    const double gain =
                        left_sum * left_sum / left_cnt +
                        right_sum * right_sum / right_cnt;
                    if (!found || gain > best_gain) {
                        found = true;
                        best_gain = gain;
                        best_f = f;
                        best_thr = v + (vn - v) * 0.5;
                        best_left = left_sum / left_cnt;
                        best_right = right_sum / right_cnt;
                    }
                }
            }
            if (!found || best_gain <= kMinGain)
                break;
            Stump s;
            s.feature = best_f;
            s.threshold = best_thr;
            s.left = kLearningRate * best_left;
            s.right = kLearningRate * best_right;
            stumps_.push_back(s);
            for (std::size_t i = 0; i < n; ++i)
                resid[i] -= x[i][best_f] < best_thr ? s.left : s.right;
        }
    }

    double
    predict(const FeatureVec &x) const
    {
        double acc = base_;
        for (const Stump &s : stumps_)
            acc += x[s.feature] < s.threshold ? s.left : s.right;
        return acc;
    }

    std::string
    describe() const
    {
        std::ostringstream os;
        auto hex = [&os](double v) {
            os << std::hexfloat << v << std::defaultfloat;
        };
        os << "stumps base=";
        hex(base_);
        for (const Stump &s : stumps_) {
            os << " [f" << s.feature << "<";
            hex(s.threshold);
            os << " ? ";
            hex(s.left);
            os << " : ";
            hex(s.right);
            os << ']';
        }
        return os.str();
    }

  private:
    struct Stump
    {
        std::size_t feature = 0;
        double threshold = 0.0;
        double left = 0.0;
        double right = 0.0;
    };

    double base_ = 0.0;
    std::vector<Stump> stumps_;
};

} // namespace mtia::reference

#endif // MTIA_TESTS_REFERENCE_SURROGATE_H_
