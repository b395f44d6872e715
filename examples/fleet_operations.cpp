/**
 * @file
 * A day in fleet operations (Section 5): check memory-error
 * telemetry, decide on ECC, qualify an overclock, re-derive the rack
 * power budget, and push a firmware fix for a production deadlock —
 * all against the simulated fleet.
 */

#include <cstdio>

#include "chip/device.h"
#include "fleet/firmware.h"
#include "fleet/memory_error_study.h"
#include "fleet/overclocking.h"
#include "fleet/power_provisioning.h"

using namespace mtia;

int
main()
{
    std::printf("MTIA 2i fleet operations runbook\n");
    std::printf("================================\n\n");

    // 1. Memory-error telemetry and the ECC decision.
    std::printf("[1] memory-error telemetry (1,700 servers)\n");
    LpddrConfig lp;
    lp.peak_bandwidth = gbPerSec(204.8);
    lp.bit_error_rate = 1.9e-20;
    LpddrChannel channel(lp);
    MemoryErrorStudy errors(61);
    const FleetErrorReport rep =
        errors.sampleFleet(channel, 1700, 90.0, 64_GiB);
    std::printf("    %.0f%% of servers show ECC errors; enabling "
                "controller ECC (costs ~11%% bandwidth).\n\n",
                rep.serverErrorFraction() * 100.0);

    // 2. Overclock qualification.
    std::printf("[2] overclock qualification (3,000 chips)\n");
    OverclockingStudy oc(71);
    const OverclockReport ocr = oc.run(3000, {1.1, 1.25, 1.35});
    std::printf("    pass rate 1.10 GHz: %.3f%%   1.35 GHz: %.3f%% -> "
                "ship 1.35 GHz.\n\n",
                ocr.passRateAt(1.1) * 100.0,
                ocr.passRateAt(1.35) * 100.0);

    // 3. Power budget revision.
    std::printf("[3] rack power budget revision\n");
    Device dev(ChipConfig::mtia2i());
    PowerProvisioningStudy power(73, dev);
    const PowerBudgetReport budget = power.run(200, 14);
    std::printf("    %.0f W provisioned -> %.0f W derived from "
                "production (-%.0f%%).\n\n",
                budget.initial_budget_w, budget.final_budget_w,
                budget.reduction() * 100.0);

    // 4. The deadlock incident and the firmware fix.
    std::printf("[4] firmware: PCIe-loss incident\n");
    FirmwareManager fw(83, 10000);
    const FirmwareBundle buggy =
        fw.build("fw-2024.09", ControlMemLocation::HostMemory);
    const StressTestResult bad = fw.stressTest(buggy, 2000);
    std::printf("    stress suite: %.2f%% of servers lose PCIe under "
                "100%% PE load.\n",
                bad.pcie_loss_fraction * 100.0);
    ControlCore cc(
        ControlCoreConfig{.working_mem = ControlMemLocation::HostMemory});
    std::printf("    wait-for analysis: deadlock %s\n",
                cc.buildHighLoadScenario().hasDeadlock()
                    ? "CONFIRMED (Control Core <-> PCIe ordering "
                      "<-> NoC)"
                    : "not found");

    const FirmwareBundle fixed =
        fw.build("fw-2024.10", ControlMemLocation::DeviceSram);
    const StressTestResult good = fw.stressTest(fixed, 2000);
    std::printf("    mitigation (Control-Core memory -> device SRAM): "
                "stress %s.\n",
                good.passed ? "PASSES" : "still failing");

    const RolloutResult emergency = fw.rollout(
        fixed, FirmwareManager::emergencyPlan(false), 400);
    std::printf("    emergency rollout to 10,000 servers: %.1f hours "
                "(policy-limited waves of %u).\n",
                toSeconds(emergency.duration) / 3600.0,
                emergency.concurrent_restart_peak);
    std::printf("\nall four runbook items completed.\n");
    return 0;
}
