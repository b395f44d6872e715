#include "autotune/surrogate.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <sstream>

#include "autotune/autotune_stats.h"
#include "core/check.h"
#include "core/simd_stumps.h"

namespace mtia {

namespace {

constexpr int kRounds = 400;
constexpr double kLearningRate = 0.25;
constexpr double kMinGain = 1e-12;

/** Hex-float printing: round-trip exact, so describe() dumps are
 *  byte-comparable across runs. */
void
hexDouble(std::ostringstream &os, double v)
{
    os << std::hexfloat << v << std::defaultfloat;
}

} // namespace

// ------------------------------------------------------ stump boosting

namespace {

/**
 * One candidate split: the sorted rows of a feature up to (and
 * including) a position whose value differs from the next one's go
 * left. Boundaries are listed in (feature, position) order, the order
 * the winner is chosen in.
 */
struct Boundary
{
    std::uint32_t feature;
    bool first;           ///< the feature's lowest boundary
    std::size_t walk_end; ///< end of its left rows in the walk list
    double threshold;     ///< midpoint of the two differing values
    double left_cnt;
    double right_cnt;
};

} // namespace

void
CostSurrogate::fit(const std::vector<FeatureVec> &x,
                   const std::vector<double> &y)
{
    MTIA_CHECK(!x.empty()) << ": surrogate fit on an empty sample set";
    MTIA_CHECK_EQ(x.size(), y.size())
        << ": surrogate features/costs length mismatch";
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) {
        MTIA_CHECK(std::isfinite(y[i]))
            << ": surrogate target of row " << i << " is " << y[i];
        for (std::size_t f = 0; f < kSurrogateFeatures; ++f) {
            MTIA_CHECK(std::isfinite(x[i][f]))
                << ": surrogate feature " << f << " of row " << i
                << " is " << x[i][f];
        }
    }
    feature_.clear();
    threshold_.clear();
    left_.clear();
    right_.clear();
    base_ = std::accumulate(y.begin(), y.end(), 0.0) /
        static_cast<double>(n);

    // Once per fit: each feature's rows sorted by (value, index), and
    // its split boundaries, the positions whose value differs from
    // the next one's. A round's left sum at a boundary adds the
    // residuals of the rows up to it in that order, so the walk list
    // keeps each feature's sorted rows up to its last boundary, one
    // feature after another. A feature with no boundary (constant
    // over the training set, as the shape features are without warm
    // rows) offers no split and is dropped. The columns are kept
    // transposed for the residual update.
    std::vector<double> cols(kSurrogateFeatures * n);
    std::vector<std::size_t> walk;
    std::vector<Boundary> bounds;
    std::vector<std::size_t> order(n);
    for (std::size_t f = 0; f < kSurrogateFeatures; ++f) {
        double *col = cols.data() + f * n;
        for (std::size_t i = 0; i < n; ++i)
            col[i] = x[i][f];
        if (std::all_of(col, col + n,
                        [&](double v) { return v == col[0]; }))
            continue;
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (col[a] != col[b])
                          return col[a] < col[b];
                      return a < b;
                  });
        const std::size_t walk_begin = walk.size();
        bool first = true;
        for (std::size_t pos = 0; pos + 1 < n; ++pos) {
            const double v = col[order[pos]];
            const double vn = col[order[pos + 1]];
            if (v == vn)
                continue;
            bounds.push_back(Boundary{
                static_cast<std::uint32_t>(f), first,
                walk_begin + pos + 1, v + (vn - v) * 0.5,
                static_cast<double>(pos + 1),
                static_cast<double>(n - pos - 1)});
            first = false;
        }
        walk.insert(walk.end(), order.begin(),
                    order.begin() +
                        static_cast<std::ptrdiff_t>(bounds.back().walk_end -
                                                    walk_begin));
    }
    if (bounds.empty())
        return; // no split anywhere: the model is its base
    feature_.reserve(kRounds);
    threshold_.reserve(kRounds);
    left_.reserve(kRounds);
    right_.reserve(kRounds);

    // `total` is the residual sum in index order, taken as each
    // round's update writes the residuals.
    std::vector<double> resid(y);
    double total = 0.0;
    for (double &r : resid) {
        r -= base_;
        total += r;
    }
    std::vector<double> left_sum(bounds.size());
    // The loops below run a few hundred times per fit over a few
    // dozen rows; unrolled, they issue about half the instructions.
    for (int round = 0; round < kRounds; ++round) {
        // Left sums: one sequential chain per feature, in sorted-row
        // order, independent of every other feature's chain, so the
        // chains overlap in the pipeline while each keeps its exact
        // addition order.
        double sum = 0.0;
        std::size_t w = 0;
        for (std::size_t b = 0; b < bounds.size(); ++b) {
            if (bounds[b].first)
                sum = 0.0;
            const std::size_t end = bounds[b].walk_end;
#pragma GCC unroll 8
            for (; w < end; ++w)
                sum += resid[walk[w]];
            left_sum[b] = sum;
        }
        // Squared-error reduction of each split (constant terms
        // cancel); the first boundary in (feature, position) order
        // wins ties (strict >).
        std::size_t best = 0;
        double best_gain = 0.0;
        for (std::size_t b = 0; b < bounds.size(); ++b) {
            const double ls = left_sum[b];
            const double rs = total - ls;
            const double gain = ls * ls / bounds[b].left_cnt +
                rs * rs / bounds[b].right_cnt;
            if (b == 0 || gain > best_gain) {
                best = b;
                best_gain = gain;
            }
        }
        if (best_gain <= kMinGain)
            break; // residuals are flat: converged
        const Boundary &split = bounds[best];
        const double ls = left_sum[best];
        const double rs = total - ls;
        const double step[2] = {kLearningRate * (rs / split.right_cnt),
                                kLearningRate * (ls / split.left_cnt)};
        feature_.push_back(split.feature);
        threshold_.push_back(split.threshold);
        left_.push_back(step[1]);
        right_.push_back(step[0]);
        const double *col = cols.data() + split.feature * n;
        total = 0.0;
#pragma GCC unroll 8
        for (std::size_t i = 0; i < n; ++i) {
            resid[i] -= step[col[i] < split.threshold];
            total += resid[i];
        }
    }
}

double
CostSurrogate::predict(const FeatureVec &x) const
{
    double acc = base_;
    for (std::size_t s = 0; s < feature_.size(); ++s)
        acc += x[feature_[s]] < threshold_[s] ? left_[s] : right_[s];
    return acc;
}

std::vector<double>
CostSurrogate::predictAll(const std::vector<FeatureVec> &xs) const
{
    const std::size_t n = xs.size();
    std::vector<double> out(n);
    if (n == 0)
        return out;
    // Transposed once, so each stump streams one feature column.
    std::vector<double> cols(kSurrogateFeatures * n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t f = 0; f < kSurrogateFeatures; ++f)
            cols[f * n + i] = xs[i][f];
    }
    const simd::StumpTable table{base_,          feature_.size(),
                                 feature_.data(), threshold_.data(),
                                 left_.data(),   right_.data()};
    simd::stumpPredict(simd::activeIsa(), table, cols.data(), n,
                       out.data());
    return out;
}

std::string
CostSurrogate::describe() const
{
    std::ostringstream os;
    os << "stumps base=";
    hexDouble(os, base_);
    for (std::size_t s = 0; s < feature_.size(); ++s) {
        os << " [f" << feature_[s] << "<";
        hexDouble(os, threshold_[s]);
        os << " ? ";
        hexDouble(os, left_[s]);
        os << " : ";
        hexDouble(os, right_[s]);
        os << ']';
    }
    return os.str();
}

// ------------------------------------------------------------ the loop

namespace {

/** Really evaluate @p idx, in order. A non-finite cost would win or
 *  lose every comparison below arbitrarily, so it is rejected. */
std::vector<double>
evalBatch(const std::vector<std::size_t> &idx,
          const std::function<double(std::size_t)> &real_cost)
{
    std::vector<double> cost;
    cost.reserve(idx.size());
    for (std::size_t i : idx) {
        cost.push_back(real_cost(i));
        MTIA_CHECK(std::isfinite(cost.back()))
            << ": real cost of candidate " << i << " is " << cost.back();
    }
    return cost;
}

/** Argmin over (cost, index): lowest index wins ties. */
std::size_t
argminSlot(const std::vector<double> &cost)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < cost.size(); ++i) {
        if (cost[i] < cost[best])
            best = i;
    }
    return best;
}

} // namespace

SurrogateSweepResult
surrogateArgmin(std::size_t n,
                const std::function<FeatureVec(std::size_t)> &feature,
                const std::function<double(std::size_t)> &real_cost,
                const SurrogateSweepOptions &opts)
{
    MTIA_CHECK_GT(n, std::size_t{0})
        << ": surrogateArgmin over an empty candidate grid";
    MTIA_CHECK_EQ(opts.warm_features.size(), opts.warm_costs.size())
        << ": warm-start features/costs length mismatch";
    MTIA_CHECK_GT(opts.top_k, std::size_t{0})
        << ": surrogateArgmin needs top_k >= 1";
    const std::size_t seed_count = std::max<std::size_t>(2, opts.seed_count);

    SurrogateSweepResult r;
    // n <= seed_count + top_k, written without the sum so a top_k
    // near SIZE_MAX cannot wrap around into the surrogate path.
    if (opts.top_k >= n || n - opts.top_k <= seed_count) {
        // Exhaustive path: every candidate really evaluated,
        // bit-identical to a plain sweep.
        std::vector<std::size_t> all(n);
        std::iota(all.begin(), all.end(), std::size_t{0});
        std::vector<double> cost = evalBatch(all, real_cost);
        const std::size_t best = argminSlot(cost);
        r.best_index = best;
        r.best_cost = cost[best];
        r.measured = std::move(all);
        r.measured_cost = std::move(cost);
        r.real_evals = n;
        autotune::noteRealEvals(n);
        return r;
    }

    // 1. Seed batch: evenly strided over the grid, first and last
    // candidate always included, deduped (pure index arithmetic, so
    // the same grid always seeds the same rows).
    std::vector<std::size_t> seeds;
    seeds.reserve(seed_count);
    for (std::size_t j = 0; j < seed_count; ++j) {
        const std::size_t idx =
            j * (n - 1) / (seed_count - 1);
        if (seeds.empty() || seeds.back() != idx)
            seeds.push_back(idx);
    }
    const std::vector<double> seed_cost = evalBatch(seeds, real_cost);

    // 2. Train on warm-start rows (KD-tree neighbours) then seeds, in
    // that fixed order. Targets are trained in asinh space: tuner
    // costs span feasible values to 1e18 infeasible/SLO penalties,
    // and squared-error fitting on the raw scale would spend the
    // whole model on the penalty tier. asinh is monotone (ranking is
    // preserved), symmetric (the batch/coalescing tuners minimize
    // negative scores), and compresses 1e18 to ~42.
    std::vector<FeatureVec> tx = opts.warm_features;
    std::vector<double> ty;
    ty.reserve(opts.warm_costs.size() + seeds.size());
    for (double c : opts.warm_costs)
        ty.push_back(std::asinh(c));
    tx.reserve(tx.size() + seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        tx.push_back(feature(seeds[i]));
        ty.push_back(std::asinh(seed_cost[i]));
    }
    CostSurrogate model;
    model.fit(tx, ty);

    // 3. Predict the whole grid in one serial batch. Ranking uses the
    // raw asinh-space outputs; `predicted` is published back in cost
    // units.
    std::vector<FeatureVec> grid(n);
    for (std::size_t i = 0; i < n; ++i)
        grid[i] = feature(i);
    const std::vector<double> pred_raw = model.predictAll(grid);
    r.predicted.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        MTIA_CHECK(std::isfinite(pred_raw[i]))
            << ": surrogate prediction of candidate " << i << " is "
            << pred_raw[i];
        r.predicted[i] = std::sinh(pred_raw[i]);
    }
    r.surrogate_evals = n;

    // 4. Verify the top-k predicted candidates not already measured:
    // the first top_k of the unmeasured candidates in (prediction,
    // index) order. With finite predictions that is a total order, so
    // a partial selection picks the set a full rank sort would. They
    // are evaluated in index order.
    std::vector<std::size_t> verify;
    verify.reserve(n - seeds.size());
    for (std::size_t i = 0, si = 0; i < n; ++i) {
        if (si < seeds.size() && seeds[si] == i)
            ++si;
        else
            verify.push_back(i);
    }
    if (opts.top_k < verify.size()) {
        const auto kth =
            verify.begin() + static_cast<std::ptrdiff_t>(opts.top_k);
        std::nth_element(verify.begin(), kth, verify.end(),
                         [&](std::size_t a, std::size_t b) {
                             if (pred_raw[a] != pred_raw[b])
                                 return pred_raw[a] < pred_raw[b];
                             return a < b; // lowest index wins ties
                         });
        verify.erase(kth, verify.end());
    }
    std::sort(verify.begin(), verify.end());
    const std::vector<double> verify_cost = evalBatch(verify, real_cost);

    double abs_err = 0.0;
    for (std::size_t i = 0; i < verify.size(); ++i)
        abs_err += std::abs(r.predicted[verify[i]] - verify_cost[i]);
    r.mae = verify.empty()
        ? 0.0
        : abs_err / static_cast<double>(verify.size());

    // 5. Winner: lowest real cost over everything measured; merging
    // two index-sorted lists keeps `measured` ascending, and the
    // argmin scan's strict < keeps the lowest index on cost ties.
    r.measured.reserve(seeds.size() + verify.size());
    r.measured_cost.reserve(seeds.size() + verify.size());
    std::size_t si = 0;
    std::size_t vi = 0;
    while (si < seeds.size() || vi < verify.size()) {
        const bool take_seed = vi == verify.size() ||
            (si < seeds.size() && seeds[si] < verify[vi]);
        if (take_seed) {
            r.measured.push_back(seeds[si]);
            r.measured_cost.push_back(seed_cost[si]);
            ++si;
        } else {
            r.measured.push_back(verify[vi]);
            r.measured_cost.push_back(verify_cost[vi]);
            ++vi;
        }
    }
    const std::size_t best = argminSlot(r.measured_cost);
    r.best_index = r.measured[best];
    r.best_cost = r.measured_cost[best];
    r.real_evals = r.measured.size();
    r.used_surrogate = true;

    autotune::noteSurrogateEvals(r.surrogate_evals);
    autotune::noteRealEvals(r.real_evals);
    autotune::noteSurrogateError(abs_err, verify.size());
    return r;
}

} // namespace mtia
