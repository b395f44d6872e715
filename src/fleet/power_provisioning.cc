#include "fleet/power_provisioning.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/parallel.h"

namespace mtia {

namespace {

/** Nearest-rank P90 (rank = ceil(0.9 n)) of @p samples; reorders them. */
double
nearestRankP90(std::vector<double> &samples)
{
    MTIA_CHECK(!samples.empty()) << ": P90 of no samples";
    const std::size_t n = samples.size();
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n))),
        1, n);
    const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

} // namespace

PowerBudgetReport
PowerProvisioningStudy::run(unsigned servers, unsigned days)
{
    PowerBudgetReport rep;

    // Initial budget: stress test drives every accelerator to TDP
    // with nameplate host power, plus the early-deployment margin
    // (the initial estimates also reflected unoptimized models).
    rep.initial_budget_w =
        (params_.accelerators * dev_.config().tdp_watts +
         params_.host_provisioned_watts) *
        params_.stress_margin;

    // --- Method (a): the experiment. The two largest models' peak
    // per-accelerator throughput varies across the fleet; take the
    // P90 of those peaks and run all 24 accelerators there at once.
    // Even the P90 peak stays well below full utilization because
    // serving reserves buffer capacity for load spikes (Section 5.4).
    // Each server draws from its own substream (Rng::fork) and the
    // per-server values are gathered in server order, so both methods
    // are byte-identical at any MTIA_THREADS.
    const Rng peak_base(rng_.next());
    std::vector<double> peaks = parallelMap(
        servers, [&](std::size_t s) {
            Rng rng = peak_base.fork(s);
            return std::clamp(rng.gaussian(0.62, 0.08), 0.3, 0.95);
        });
    const double p90_peak = nearestRankP90(peaks);
    rep.experiment_budget_w =
        params_.accelerators * dev_.powerWatts(p90_peak) +
        params_.host_measured_watts;

    // --- Method (b): P90 power of fully-utilized production servers
    // over the observation window (hourly samples, diurnal load).
    const Rng power_base(rng_.next());
    const std::vector<std::vector<double>> hourly = parallelMap(
        servers, [&](std::size_t s) {
            Rng rng = power_base.fork(s);
            std::vector<double> samples;
            samples.reserve(days * 24);
            for (unsigned h = 0; h < days * 24; ++h) {
                const double diurnal = 0.50 +
                    0.18 *
                        std::sin(2.0 * M_PI *
                                 static_cast<double>(h % 24) / 24.0);
                double watts = params_.host_measured_watts;
                for (unsigned a = 0; a < params_.accelerators; ++a) {
                    const double util = std::clamp(
                        diurnal + rng.gaussian(0.0, 0.08), 0.05, 0.98);
                    watts += dev_.powerWatts(util);
                }
                samples.push_back(watts);
            }
            return samples;
        });
    std::vector<double> server_power;
    server_power.reserve(static_cast<std::size_t>(servers) * days * 24);
    for (const auto &samples : hourly)
        server_power.insert(server_power.end(), samples.begin(),
                            samples.end());
    rep.analysis_budget_w = nearestRankP90(server_power);

    rep.final_budget_w =
        std::max(rep.experiment_budget_w, rep.analysis_budget_w);
    return rep;
}

} // namespace mtia
