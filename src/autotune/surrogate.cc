#include "autotune/surrogate.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "autotune/autotune_stats.h"
#include "core/check.h"

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

void
CostSurrogate::fit(const std::vector<FeatureVec> &x,
                   const std::vector<double> &y)
{
    MTIA_CHECK(!x.empty()) << ": surrogate fit on an empty sample set";
    MTIA_CHECK_EQ(x.size(), y.size())
        << ": surrogate features/costs length mismatch";
    stumps_.clear();
    const std::size_t n = x.size();
    base_ = std::accumulate(y.begin(), y.end(), 0.0) /
        static_cast<double>(n);

    // Per-feature index order, sorted by (value, index): the scan
    // below visits thresholds ascending, so the first strict
    // improvement is the lowest (feature, threshold) pair and the
    // fitted model is a pure function of the training set.
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
                    continue; // not a split boundary
                const auto left_cnt = static_cast<double>(pos + 1);
                const auto right_cnt = static_cast<double>(n - pos - 1);
                const double right_sum = total - left_sum;
                // Squared-error reduction of splitting here
                // (constant terms cancel).
                const double gain =
                    left_sum * left_sum / left_cnt +
                    right_sum * right_sum / right_cnt;
                // Strict >: earlier (feature, threshold) wins ties.
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
            break; // residuals are flat: converged
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
CostSurrogate::predict(const FeatureVec &x) const
{
    double acc = base_;
    for (const Stump &s : stumps_)
        acc += x[s.feature] < s.threshold ? s.left : s.right;
    return acc;
}

std::vector<double>
CostSurrogate::predictAll(const std::vector<FeatureVec> &xs) const
{
    // Stumps outer, candidates inner: each candidate still adds base_
    // and then every stump in order, so out[i] == predict(xs[i]) bit
    // for bit.
    std::vector<double> out(xs.size(), base_);
    for (const Stump &s : stumps_) {
        for (std::size_t i = 0; i < xs.size(); ++i)
            out[i] += xs[i][s.feature] < s.threshold ? s.left : s.right;
    }
    return out;
}

std::string
CostSurrogate::describe() const
{
    std::ostringstream os;
    os << "stumps base=";
    hexDouble(os, base_);
    for (const Stump &s : stumps_) {
        os << " [f" << s.feature << "<";
        hexDouble(os, s.threshold);
        os << " ? ";
        hexDouble(os, s.left);
        os << " : ";
        hexDouble(os, s.right);
        os << ']';
    }
    return os.str();
}

// ------------------------------------------------------------ the loop

namespace {

/** Really evaluate @p idx, in order. */
std::vector<double>
evalBatch(const std::vector<std::size_t> &idx,
          const std::function<double(std::size_t)> &real_cost)
{
    std::vector<double> cost;
    cost.reserve(idx.size());
    for (std::size_t i : idx)
        cost.push_back(real_cost(i));
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
    for (std::size_t i = 0; i < n; ++i)
        r.predicted[i] = std::sinh(pred_raw[i]);
    r.surrogate_evals = n;

    // 4. Verify the top-k predicted candidates not already measured.
    std::vector<std::size_t> rank(n);
    std::iota(rank.begin(), rank.end(), std::size_t{0});
    std::sort(rank.begin(), rank.end(),
              [&](std::size_t a, std::size_t b) {
                  if (pred_raw[a] != pred_raw[b])
                      return pred_raw[a] < pred_raw[b];
                  return a < b; // lowest index wins ties
              });
    std::vector<std::size_t> verify;
    verify.reserve(opts.top_k);
    for (std::size_t i = 0; i < n && verify.size() < opts.top_k; ++i) {
        const std::size_t c = rank[i];
        if (!std::binary_search(seeds.begin(), seeds.end(), c))
            verify.push_back(c);
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
