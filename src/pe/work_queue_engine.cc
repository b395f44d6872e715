#include "pe/work_queue_engine.h"

#include "core/check.h"

namespace mtia {

WorkQueueEngine::WorkQueueEngine(WorkQueueConfig cfg) : cfg_(cfg)
{
    MTIA_CHECK_GT(cfg_.control_cores, 0u)
        << ": WorkQueueEngine needs at least one control core";
}

Tick
WorkQueueEngine::launchTime(unsigned num_pes) const
{
    if (cfg_.broadcast && cfg_.pe_wqe) {
        // One broadcast composes the descriptor once; the per-PE WQE
        // pulls proceed in parallel, split across the control cores.
        const Tick broadcast = cfg_.descriptor_cost * 4; // compose+post
        const Tick pulls = cfg_.wqe_pull_cost +
            cfg_.descriptor_cost * (num_pes / 16) / cfg_.control_cores;
        return broadcast + pulls;
    }
    // Sequential descriptor writes, one per PE, on however many
    // control cores exist.
    return cfg_.descriptor_cost * num_pes / cfg_.control_cores +
        cfg_.wqe_pull_cost;
}

Tick
WorkQueueEngine::replaceTime(unsigned num_pes) const
{
    if (cfg_.broadcast && cfg_.pe_wqe) {
        return cfg_.descriptor_cost * 2 +
            cfg_.descriptor_cost * (num_pes / 32) / cfg_.control_cores;
    }
    return launchTime(num_pes);
}

} // namespace mtia
