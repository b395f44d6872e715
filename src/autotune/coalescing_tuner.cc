#include "autotune/coalescing_tuner.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace mtia {

CoalescingTuner::CoalescingTuner(Tick max_wait) : max_wait_(max_wait)
{
    // A zero budget would score every waiting candidate 0 and leave
    // the ranking in grid order.
    MTIA_CHECK_GT(max_wait_, 0u)
        << ": CoalescingTuner needs a positive wait budget";
}

CoalescingCandidate
CoalescingTuner::evalCell(const std::vector<Request> &trace,
                          const CoalescerConfig &config) const
{
    CoalescingCandidate c;
    c.config = config;
    Coalescer coalescer(c.config);
    c.stats = Coalescer::stats(coalescer.coalesce(trace));
    // Score: batch fill, discounted heavily once the mean wait
    // exceeds the budget (throughput at P99 SLO is what the paper
    // optimizes).
    c.score = c.stats.mean_fill;
    if (c.stats.mean_wait > max_wait_) {
        c.score *= static_cast<double>(max_wait_) /
            static_cast<double>(c.stats.mean_wait);
    }
    return c;
}

std::vector<CoalescingCandidate>
CoalescingTuner::sweep(const std::vector<Request> &trace,
                       std::int64_t batch_capacity,
                       const std::vector<Tick> &windows,
                       const std::vector<unsigned> &parallel_options)
    const
{
    std::vector<CoalescingCandidate> out;
    for (Tick window : windows)
        for (unsigned parallel : parallel_options)
            out.push_back(evalCell(
                trace, CoalescerConfig{window, parallel, batch_capacity}));
    // stable_sort keeps equal-score candidates in grid order, which is
    // the order sweepSurrogate()'s first-minimum tie-break follows.
    std::stable_sort(out.begin(), out.end(),
                     [](const CoalescingCandidate &a,
                        const CoalescingCandidate &b) {
                         return a.score > b.score;
                     });
    return out;
}

CoalescingSurrogateResult
CoalescingTuner::sweepSurrogate(
    const std::vector<Request> &trace, std::int64_t batch_capacity,
    const std::vector<Tick> &windows,
    const std::vector<unsigned> &parallel_options,
    const SurrogateSweepOptions &opts) const
{
    std::vector<CoalescerConfig> grid;
    for (Tick window : windows)
        for (unsigned parallel : parallel_options)
            grid.push_back(
                CoalescerConfig{window, parallel, batch_capacity});

    // Minimizing -score with first-minimum tie-breaking picks the
    // same cell sweep()'s stable descending sort puts first.
    const SurrogateSweepResult loop = surrogateArgmin(
        grid.size(),
        [&](std::size_t i) {
            FeatureVec f{};
            f[0] = std::log2(
                std::max(1.0, static_cast<double>(grid[i].window)));
            f[1] = static_cast<double>(grid[i].parallel_windows);
            f[2] = std::log2(std::max(
                1.0, static_cast<double>(grid[i].batch_capacity)));
            return f;
        },
        [&](std::size_t i) { return -evalCell(trace, grid[i]).score; },
        opts);

    CoalescingSurrogateResult r;
    // Re-derive the winner's stats (deterministic, one extra replay)
    // so callers get the same CoalescingCandidate sweep() would.
    r.best = evalCell(trace, grid[loop.best_index]);
    r.loop = loop;
    r.grid_size = grid.size();
    return r;
}

} // namespace mtia
