#include "serving/ab_testing.h"

#include <algorithm>
#include <cmath>

#include "graph/executor.h"
#include "core/check.h"
#include "sim/random.h"

namespace mtia {

double
normalizedEntropy(const std::vector<double> &predictions,
                  const std::vector<int> &labels)
{
    MTIA_CHECK_EQ(predictions.size(), labels.size())
        << ": normalizedEntropy needs one label per prediction";
    MTIA_CHECK(!predictions.empty())
        << ": normalizedEntropy over an empty sample";
    const double eps = 1e-7;
    double loss = 0.0;
    double positives = 0.0;
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        const double p = std::clamp(predictions[i], eps, 1.0 - eps);
        loss -= labels[i] == 1 ? std::log(p) : std::log(1.0 - p);
        positives += labels[i];
    }
    const double n = static_cast<double>(predictions.size());
    loss /= n;
    const double ctr = std::clamp(positives / n, eps, 1.0 - eps);
    const double base =
        -(ctr * std::log(ctr) + (1.0 - ctr) * std::log(1.0 - ctr));
    return loss / base;
}

AbResult
AbTestHarness::compare(const Graph &g, int runs,
                       std::uint64_t seed) const
{
    AbResult out;

    std::vector<double> preds_ref;
    std::vector<double> preds_cand;
    for (int run = 0; run < runs; ++run) {
        // Identical traffic on both arms: same executor seed.
        Executor gpu_arm(seed + static_cast<std::uint64_t>(run),
                         /*use_lut_simd=*/false);
        Executor mtia_arm(seed + static_cast<std::uint64_t>(run),
                          /*use_lut_simd=*/true);
        const auto ref = gpu_arm.run(g);
        const auto cand = mtia_arm.run(g);
        for (const auto &[id, tensor] : ref.outputs) {
            const Tensor &other = cand.outputs.at(id);
            for (std::int64_t i = 0; i < tensor.numel(); ++i) {
                preds_ref.push_back(tensor.at(i));
                preds_cand.push_back(other.at(i));
                out.max_pred_diff = std::max(
                    out.max_pred_diff,
                    std::abs(static_cast<double>(tensor.at(i)) -
                             static_cast<double>(other.at(i))));
            }
        }
    }
    out.samples = preds_ref.size();
    MTIA_CHECK_GT(out.samples, 0u)
        << ": AbTestHarness model produced no predictions";

    // Synthetic ground truth: clicks drawn from the reference arm's
    // probabilities (the reference is well-calibrated by design).
    Rng label_rng(seed ^ 0xabcdef);
    std::vector<int> labels;
    labels.reserve(out.samples);
    double sum_ref = 0.0;
    double sum_cand = 0.0;
    for (std::size_t i = 0; i < out.samples; ++i) {
        const double p = std::clamp(preds_ref[i], 0.0, 1.0);
        labels.push_back(label_rng.chance(p) ? 1 : 0);
        sum_ref += preds_ref[i];
        sum_cand += preds_cand[i];
    }
    out.mean_pred_reference = sum_ref / static_cast<double>(out.samples);
    out.mean_pred_candidate =
        sum_cand / static_cast<double>(out.samples);
    out.ne_reference = normalizedEntropy(preds_ref, labels);
    out.ne_candidate = normalizedEntropy(preds_cand, labels);
    return out;
}

} // namespace mtia
