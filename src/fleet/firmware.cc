#include "fleet/firmware.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>

#include "core/check.h"

namespace mtia {

FirmwareBundle
FirmwareManager::build(const std::string &version,
                       ControlMemLocation control_mem)
{
    FirmwareBundle bundle;
    bundle.version = version;
    bundle.control_mem = control_mem;
    bundle.image.resize(4096);
    for (auto &b : bundle.image)
        b = static_cast<std::uint8_t>(rng_.below(256));
    bundle.sign();
    return bundle;
}

StressTestResult
FirmwareManager::stressTest(const FirmwareBundle &bundle,
                            unsigned test_servers)
{
    StressTestResult result;
    if (!bundle.verify()) {
        result.passed = false;
        return result;
    }
    // Build the high-load scenario under this firmware's Control-
    // Core memory placement and check for the wait-for cycle.
    ControlCore cc(ControlCoreConfig{.working_mem = bundle.control_mem});
    const bool deadlock_possible =
        cc.buildHighLoadScenario().hasDeadlock();

    unsigned lost = 0;
    for (unsigned s = 0; s < test_servers; ++s) {
        if (!deadlock_possible)
            continue;
        // The cycle needs 100% PE utilization AND a deep queue of
        // in-flight PCIe transactions at the same instant: ~1% of
        // stress-test servers hit it (Section 5.5).
        const bool queue_deep = rng_.chance(0.10);
        const bool timing_window = rng_.chance(0.10);
        if (queue_deep && timing_window)
            ++lost;
    }
    result.pcie_loss_fraction =
        test_servers == 0 ? 0.0
                          : static_cast<double>(lost) / test_servers;
    result.passed = lost == 0;
    return result;
}

std::vector<RolloutStage>
FirmwareManager::standardPlan()
{
    // Staging -> 1% -> 5% -> 25% -> 100%, with multi-day soaks:
    // ~18 days end to end.
    return {
        {"staging", 0.002, fromSeconds(2.0 * 86400)},
        {"canary-1pct", 0.01, fromSeconds(3.0 * 86400)},
        {"early-5pct", 0.05, fromSeconds(4.0 * 86400)},
        {"broad-25pct", 0.25, fromSeconds(5.0 * 86400)},
        {"fleet", 1.0, fromSeconds(4.0 * 86400)},
    };
}

std::vector<RolloutStage>
FirmwareManager::emergencyPlan(bool override_safety)
{
    if (override_safety) {
        // Everything at once; only the restart waves gate.
        return {{"fleet-now", 1.0, 0}};
    }
    return {
        {"canary", 0.02, fromSeconds(1200.0)},
        {"half", 0.5, fromSeconds(1200.0)},
        {"fleet", 1.0, 0},
    };
}

RolloutResult
FirmwareManager::rollout(const FirmwareBundle &bundle,
                         const std::vector<RolloutStage> &plan,
                         unsigned max_concurrent_restarts,
                         Tick server_restart)
{
    RolloutResult result;
    if (!bundle.verify())
        return result; // refuse to ship an unsigned/corrupt image
    MTIA_CHECK_GT(max_concurrent_restarts, 0u)
        << ": rollout restart policy must allow progress";

    // Rollout stages form a monotone state machine over the fleet:
    // each stage only ever widens the deployed fraction. Validated up
    // front so a bad plan fails before any simulated time passes.
    double prev_fraction = 0.0;
    for (const RolloutStage &stage : plan) {
        MTIA_CHECK_GT(stage.fleet_fraction, 0.0)
            << ": rollout stage '" << stage.name << "' deploys nothing";
        MTIA_CHECK_LE(stage.fleet_fraction, 1.0)
            << ": rollout stage '" << stage.name
            << "' exceeds the whole fleet";
        MTIA_CHECK_GE(stage.fleet_fraction, prev_fraction)
            << ": rollout stage '" << stage.name
            << "' shrinks the deployed fraction";
        prev_fraction = stage.fleet_fraction;
    }

    // Discrete-event rollout: each restart wave and each soak is an
    // event. Waves run back to back (rate-limited by the cluster-
    // manager policy); a stage's soak gates the next stage.
    EventQueue eq;
    std::size_t stage_idx = 0;
    unsigned updated = 0;
    std::function<void()> advance = [&]() {
        if (stage_idx == plan.size())
            return; // rollout complete; the queue drains
        const RolloutStage &stage = plan[stage_idx];
        const auto target = static_cast<unsigned>(
            std::ceil(stage.fleet_fraction * fleet_servers_));
        if (updated < target) {
            const unsigned wave =
                std::min(max_concurrent_restarts, target - updated);
            result.concurrent_restart_peak =
                std::max(result.concurrent_restart_peak, wave);
            eq.scheduleAfter(server_restart, [&, wave]() {
                updated += wave;
                advance();
            });
            return;
        }
        ++stage_idx;
        eq.scheduleAfter(stage.soak, [&]() { advance(); });
    };
    eq.schedule(0, [&]() { advance(); });
    eq.run();

    result.completed = updated >= fleet_servers_;
    result.duration = eq.now();
    result.servers_updated = updated;
    return result;
}

} // namespace mtia
